"""Outer daseinisation over a poset is one batched ``overlaps`` call.

``reference_indices`` below is the per-context definition: a block of a
context is hit when its product with the projector, formed and normed on
its own, exceeds ``eps * d``; it does not call ``overlaps``.
``quantum._record`` tests the distinct blocks of the poset's block table
once each; the flags, read through each context's block ids, must give the
same indices, context by context, in block order.  The table remembers its
flags per projector, so the single-context daseinisation of every context
of a poset costs one ``overlaps`` call too; a ``make_context`` context reads
a table of its own blocks the same way.
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
from qtopos.errors import DimensionMismatch, ValidationError
from qtopos.numerics import Tolerance, eigensystem, is_projector, overlaps
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
        out.append(tuple(i for i, b in enumerate(ctx.blocks)
                         if np.linalg.norm(b @ p) > tol.scaled(ctx.dim)))
    return out


def batch_indices(p, poset, tol=TOL):
    flags = Q._record(p, poset.table.copy(), tol, False).flags.tolist()
    return [tuple(i for i, b in enumerate(c.ids) if flags[b]) for c in poset.contexts]


def assert_batch_matches(p, poset, tol=TOL):
    got = batch_indices(p, poset, tol)
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
    assert batch_indices(np.eye(2, dtype=complex), poset) == []
    assert reference_indices(np.eye(2, dtype=complex), poset) == []


def test_wrong_dimension_gives_the_same_message():
    _, _, maximal = C.builtin_scenario("pauli2", TOL)
    poset = C.build_poset(maximal, "intersections", TOL)
    p = np.diag([1, 0, 0]).astype(complex)
    with pytest.raises(DimensionMismatch) as old:
        reference_indices(p, poset)
    with pytest.raises(DimensionMismatch) as new:
        batch_indices(p, poset)
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

    def _sweep(self, p, poset, tol):
        return [public(p, ctx, tol) for public in
                (Q.daseinise_projector, Q.daseinise_projector_inner)
                for ctx in poset.contexts]

    def test_single_context_sweep(self, square, calls):
        _, scn, poset = square
        tol = scn.tolerance
        for name in self.PROJECTORS:
            before = len(calls)
            self._sweep(scn.operator(name), poset, tol)
            assert calls[before:] == [1, 1]  # 150 calls, one per context, before

    def test_single_context_sweep_after_daseinise(self, square, calls):
        _, scn, poset = square
        tol = scn.tolerance
        for name in self.PROJECTORS:
            p = scn.operator(name)
            rows = [Q.daseinise(p, poset, tol, inner) for inner in (False, True)]
            before = len(calls)
            swept = self._sweep(p, poset, tol)
            assert calls[before:] == []
            assert ([m.tobytes() for m in swept]
                    == [m.tobytes() for row in rows for _, m in row])

    def test_daseinise_observable(self, square, calls):
        _, scn, poset = square
        tol = scn.tolerance
        for op in (scn.operator("XX"), scn.operator("XI") + 2 * scn.operator("IX")):
            before = len(calls)
            for ctx in poset.contexts:
                Q.daseinise_observable(op, ctx, tol)
            # one call per cumulative projector E_k and variant
            assert calls[before:] == [1] * (2 * len(eigensystem(op, tol)))


def _square(closure="coarsenings"):
    scn = parse_scenario((SCENARIOS / "mermin_square.json").read_text())
    return scn, C.build_poset(scn.maximal_contexts, closure, scn.tolerance)


def _overlaps_seen(monkeypatch):
    """The ``ps`` argument of every ``overlaps`` call made through quantum."""
    seen = []
    monkeypatch.setattr(Q, "overlaps", lambda ps, qs, tol=TOL: (
        seen.append(ps), overlaps(ps, qs, tol))[1])
    return seen


def reference_row(p, ctx, tol, inner):
    """A context's indices and matrix from its own blocks: each block's
    product with ``p`` (``1 - p`` if ``inner``) normed on its own."""
    q = np.eye(ctx.dim) - p if inner else p
    hits = [bool(np.linalg.norm(b @ q) > tol.scaled(ctx.dim)) for b in ctx.blocks]
    return Q._approximation(ctx, hits, inner)


def assert_own_table_path(p, contexts, tol, monkeypatch):
    """Each context's rows are those of its own blocks, read off its own
    table: one ``overlaps`` per projector and variant on the first ask, in
    ``_in_context``, and none when the public function or a repeat asks."""
    seen = _overlaps_seen(monkeypatch)
    for ctx in contexts:
        for inner, public in ((False, Q.daseinise_projector),
                              (True, Q.daseinise_projector_inner)):
            before = len(seen)
            indices, matrix = Q._in_context(p, ctx, tol, inner)
            want_indices, want = reference_row(p, ctx, tol, inner)
            assert indices == want_indices
            assert matrix.tobytes() == want.tobytes()
            assert public(p, ctx, tol).tobytes() == want.tobytes()
            assert len(seen) - before == 1 and seen[before] is ctx.table.blocks
            assert Q._in_context(p, ctx, tol, inner)[1] is public(p, ctx, tol)
            assert len(seen) - before == 1
    monkeypatch.undo()


class TestStackFallback:
    """Contexts outside any poset: a ``make_context`` context holds a table
    of its own blocks alone and reads it as a poset's context reads the
    poset's, with the indices and matrix bytes of ``reference_row``."""

    def test_poset_contexts_carry_the_table(self):
        _, poset = _square()
        for ctx in poset.contexts:
            assert ctx.table is poset.table
            assert ctx.ids == tuple(poset.table.intern(ctx.blocks))

    def test_make_context(self, monkeypatch):
        scn, poset = _square()
        tol = scn.tolerance
        own = [C.make_context(ctx.blocks, tol) for ctx in poset.contexts]
        for c, ctx in zip(own, poset.contexts):
            assert c.table.tol == tol and c.table.hits == {}
            assert c.table.blocks[list(c.ids)].tobytes() == (
                poset.table.blocks[list(ctx.ids)].tobytes())
        for name in ("Pzz_plus", "Pxx_plus"):
            assert_own_table_path(scn.operator(name), own, tol, monkeypatch)
        assert poset.table.hits == {}

    def test_another_tolerance(self, monkeypatch):
        # a poset's context refuses another tolerance; a make_context context
        # made at it reads its own table at it, and a poset built at it reads
        # its table at it
        scn, poset = _square()
        wide = Tolerance(scn.tolerance.eps * 10)
        own = [C.make_context(ctx.blocks, wide) for ctx in poset.contexts]
        at_wide = C.build_poset(scn.maximal_contexts, "coarsenings", wide)
        for name in ("Pzz_plus", "Pxx_plus"):
            p = scn.operator(name)
            for public in (Q.daseinise_projector, Q.daseinise_projector_inner):
                with pytest.raises(ValidationError, match=(
                        "^a query at eps 1e-08 on contexts built at eps 1e-09$")):
                    public(p, poset.contexts[0], wide)
            assert_own_table_path(p, own, wide, monkeypatch)
            for ctx in at_wide.contexts:
                for inner, public in ((False, Q.daseinise_projector),
                                      (True, Q.daseinise_projector_inner)):
                    want = reference_row(p, ctx, wide, inner)[1]
                    assert public(p, ctx, wide).tobytes() == want.tobytes()
        assert poset.table.hits == {}

    def test_hand_built_poset(self, monkeypatch):
        scn, built = _square("intersections")
        tol = scn.tolerance
        own = tuple(C.make_context(c.blocks, tol, label=c.key) for c in built.contexts)
        hand = C.ContextPoset(dim=built.dim, leq=built.leq, contexts=own, tol=tol)
        assert hand.table is not built.table
        assert all(c.table is not hand.table for c in own)
        for name in ("Pzz_plus", "Pxx_plus"):
            p = scn.operator(name)
            # the make_context contexts read their own tables; the poset's
            # copies of them read its table
            assert_own_table_path(p, own, tol, monkeypatch)
            for inner in (False, True):
                for ctx, (indices, matrix) in zip(hand.contexts,
                                                  Q.daseinise(p, hand, tol, inner)):
                    want_indices, want = reference_row(p, ctx, tol, inner)
                    assert (indices, matrix.tobytes()) == (want_indices, want.tobytes())

    def test_a_make_context_context_refuses_another_tolerance(self):
        # as a poset's context does: a query runs at its table's tolerance
        scn, poset = _square()
        tol, wide = scn.tolerance, Tolerance(scn.tolerance.eps * 10)
        ctx = C.make_context(poset.contexts[-1].blocks, tol)
        p = scn.operator("Pzz_plus")
        message = f"^a query at eps {wide.eps!r} on contexts built at eps {tol.eps!r}$"
        for query in (Q.daseinise_projector, Q.daseinise_projector_inner,
                      Q.daseinise_observable):
            with pytest.raises(ValidationError, match=message):
                query(p, ctx, wide)
        with pytest.raises(ValidationError, match=message):
            Q.evaluate(Q.SpectralElement(ctx, 0), p, wide)
        assert ctx.table.hits == {}
        assert Q.daseinise_projector(p, ctx, tol) is Q.daseinise_projector(p, ctx)


class TestRememberedFlags:
    """``BlockTable.hits``: per tested matrix, read-only flags on the table."""

    def test_growing_the_table_drops_them(self):
        scn, poset = _square()
        tol, table, ctx = scn.tolerance, poset.table, poset.contexts[-1]
        p = scn.operator("Pzz_plus")
        first = Q.daseinise_projector(p, ctx, tol)
        assert len(table.hits) == 1
        (record,) = table.hits.values()
        flags = record.flags
        assert not flags.flags.writeable and len(flags) == len(table.keys)
        table.intern(ctx.blocks)  # held blocks: the table does not grow
        assert len(table.hits) == 1
        table.intern([random_projector(4, np.random.default_rng(5), 1)])
        assert table.hits == {}
        assert Q.daseinise_projector(p, ctx, tol).tobytes() == first.tobytes()
        (record,) = table.hits.values()
        assert len(record.flags) == len(table.keys)

    def test_one_bit_is_another_matrix(self, monkeypatch):
        scn, poset = _square()
        tol, table, ctx = scn.tolerance, poset.table, poset.contexts[-1]
        p = np.array(scn.operator("Pzz_plus"))
        q = p.copy()
        q.view(np.uint64)[0, 0] ^= 1  # the last bit of the real part of q[0, 0]
        seen = _overlaps_seen(monkeypatch)
        outer = [Q.daseinise_projector(m, ctx, tol) for m in (p, q, p, q)]
        assert len(seen) == 2 and len(table.hits) == 2
        assert len({m.tobytes() for m in outer}) == 1

    def test_the_memo_is_capped(self):
        scn, poset = _square()
        tol, table, ctx = scn.tolerance, poset.table, poset.contexts[-1]
        rng = np.random.default_rng(7)
        sizes = []
        for _ in range(200):
            Q.daseinise_projector(random_projector(4, rng, 1), ctx, tol)
            sizes.append(len(table.hits))
        assert max(sizes) == Q._HITS_CAP == 128
        assert sizes[-1] == 200 - 128
