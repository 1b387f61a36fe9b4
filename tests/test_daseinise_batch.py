"""Outer daseinisation over a poset is one batched ``overlaps`` call.

``reference_indices`` below is the earlier per-context path: one
``overlaps`` call per context, hits read off with ``np.flatnonzero``.
``quantum._outer_indices`` stacks the blocks of every context and must give
the same indices, context by context, in block order.
"""
from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import cli
from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.errors import DimensionMismatch
from qtopos.numerics import Tolerance, is_projector, overlaps
from qtopos.scenario import parse_scenario
from tests.conftest import random_projector, random_unitary

TOL = Tolerance()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CLOSURES = ("intersections", "coarsenings")


def reference_indices(p, poset, tol=TOL):
    out = []
    for ctx in poset.contexts:
        if p.shape[0] != ctx.dim:
            raise DimensionMismatch(
                f"projector dimension {p.shape[0]} != context dimension {ctx.dim}")
        out.append(tuple(np.flatnonzero(overlaps(ctx.blocks, [p], tol)).tolist()))
    return out


def assert_batch_matches(p, poset, tol=TOL):
    got = Q._outer_indices(p, poset.contexts, tol)
    assert got == reference_indices(p, poset, tol)
    return got


def _probe_projectors(poset, rng):
    """Haar projectors of every proper rank and a sum of blocks per context."""
    dim = poset.dim
    probes = [random_projector(dim, rng, rank) for rank in range(1, dim)]
    for ctx in poset.contexts:
        keep = rng.random(len(ctx.blocks)) < 0.5
        probes.append(sum((b for b, k in zip(ctx.blocks, keep) if k),
                          np.zeros((dim, dim), dtype=complex)))
    return probes


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name", ["pauli2", "mermin-square"])
def test_builtin_scenarios(name, closure):
    _, operators, maximal = C.builtin_scenario(name, TOL)
    poset = C.build_poset(maximal, closure, TOL)
    rng = np.random.default_rng(len(poset))
    named = [op for op in operators.values() if is_projector(op, TOL)]
    for p in named + _probe_projectors(poset, rng):
        assert_batch_matches(p, poset)


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name", ["pauli2", "mermin_square", "two_qubit_parity"])
def test_bundled_scenario_files(name, closure):
    scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
    poset = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
    rng = np.random.default_rng(len(poset))
    named = [op for op in scn.operators.values() if is_projector(op, scn.tolerance)]
    assert named
    for p in named + _probe_projectors(poset, rng):
        assert_batch_matches(p, poset, scn.tolerance)


def _grouping(basis, groups):
    return C.make_context([basis[:, g] @ basis[:, g].conj().T for g in groups], TOL)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       exact=st.booleans())
def test_random_projectors(dim, seed, exact):
    # Groupings of one shared basis, so exact block sums of one context
    # also meet the blocks of the others exactly or not at all.
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    maximal = [_grouping(basis, np.array_split(rng.permutation(dim),
                                               int(rng.integers(2, dim + 1))))
               for _ in range(2)]
    poset = C.build_poset(maximal, "intersections", TOL)
    if exact:
        ctx = poset.contexts[int(rng.integers(len(poset)))]
        picked = rng.choice(len(ctx.blocks), int(rng.integers(1, len(ctx.blocks))),
                            replace=False)
        p = sum(ctx.blocks[i] for i in picked)
    else:
        p = random_projector(dim, rng, int(rng.integers(1, dim)))
    got = assert_batch_matches(p, poset)
    assert len(got) == len(poset)


def test_empty_poset_calls_no_numpy(monkeypatch):
    poset = C.build_poset([], "intersections", TOL)

    def refuse(*args, **kwargs):
        raise AssertionError("overlaps called on an empty poset")

    monkeypatch.setattr(Q, "overlaps", refuse)
    assert Q._outer_indices(np.eye(2, dtype=complex), poset.contexts, TOL) == []
    assert reference_indices(np.eye(2, dtype=complex), poset) == []


def test_wrong_dimension_gives_the_same_message():
    _, _, maximal = C.builtin_scenario("pauli2", TOL)
    poset = C.build_poset(maximal, "intersections", TOL)
    p = np.diag([1, 0, 0]).astype(complex)
    with pytest.raises(DimensionMismatch) as old:
        reference_indices(p, poset)
    with pytest.raises(DimensionMismatch) as new:
        Q._outer_indices(p, poset.contexts, TOL)
    assert str(new.value) == str(old.value) == (
        "projector dimension 3 != context dimension 2")
    presheaf = Q.spectral_presheaf(poset, TOL)
    with pytest.raises(DimensionMismatch, match="^projector dimension 3 != "):
        Q.delta_subobject(p, presheaf, TOL)


class TestOneOverlapsCallPerProjector:
    """On the 75-context square each query stacks every block once."""

    PROJECTORS = ("Pzz_plus", "Pxx_plus")

    @pytest.fixture
    def square(self, tmp_path):
        doc = json.loads((SCENARIOS / "mermin_square.json").read_text())
        doc["closure"] = "coarsenings"
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        scn = parse_scenario(path.read_text())
        poset = C.build_poset(scn.maximal_contexts, scn.closure, scn.tolerance)
        assert len(poset) == 75
        return str(path), scn, poset

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(ps, qs, tol=TOL):
            seen.append(len(qs))
            return overlaps(ps, qs, tol)

        # the presheaf's restriction maps also call ``overlaps``: build
        # presheaves before asking for this fixture's counts
        monkeypatch.setattr(Q, "overlaps", counting)
        return seen

    def test_delta_subobject(self, square, request):
        _, scn, poset = square
        presheaf = Q.spectral_presheaf(poset, TOL)
        calls = request.getfixturevalue("calls")
        for name in self.PROJECTORS:
            before = len(calls)
            Q.delta_subobject(scn.operator(name), presheaf, TOL)
            assert calls[before:] == [1]

    def test_truth_value_truthobject(self, square, calls):
        _, scn, poset = square
        for name in self.PROJECTORS:
            before = len(calls)
            Q.truth_value_truthobject(scn.operator(name), scn.state("bell"),
                                      poset, TOL)
            assert calls[before:] == [1]

    @pytest.mark.parametrize("flags", [[], ["--inner"]])
    def test_cli_daseinise(self, square, calls, flags):
        path, _, _ = square
        for name in self.PROJECTORS:
            before = len(calls)
            code, out, err = cli.run_command(
                ["daseinise", path, "--projector", name, *flags])
            assert (code, err) == (0, "")
            assert len(json.loads(out)["per_context"]) == 75
            assert calls[before:] == [1]
