"""Single-context daseinisation is a row of the poset-wide one.

``daseinise_projector(_inner)(P, ctx)`` reads ``P``'s flags for one
context off its poset's block table; ``quantum.daseinise(P, poset, tol,
inner)`` reads them for every context.  Both turn a context's hits into
indices and a matrix through ``quantum._approximation``, which sums the
table's rows, so per context the block indices and the matrix bytes must
agree bit for bit.
``DIGESTS`` pins those outputs, and ``daseinise_observable``'s, per case as
the per-call validating, per-call stacking code gave them; 8 of them moved
when a poset context's matrices became its table's rows, every hashed
matrix within 1e-13 (Frobenius) of the one before.  Cases: every
bundled scenario under both closures and the seed-1 ``prop-logic`` families
of ``perfbench/gen.py``; projectors: each named one, then a seeded Haar
projector of every proper rank.
"""
from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.numerics import Tolerance, is_projector, require_projector
from qtopos.scenario import parse_scenario
from tests.conftest import random_projector
from tests.test_closure import BUILT, _load_gen

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
TOL = Tolerance()
FAMILIES = ["family00", "family01"]  # prop-logic, seed 1

DIGESTS = {
    ("builtin:pauli2", "intersections"):
        "cf5bb21d3d8869fed634296cf8995fd02db9b31a0dddf016f9a3f25fe100a984",
    ("builtin:pauli2", "coarsenings"):
        "cf5bb21d3d8869fed634296cf8995fd02db9b31a0dddf016f9a3f25fe100a984",
    ("builtin:mermin-square", "intersections"):
        "297386f5cbb0abbf019231a8f8a3b308649995b76c200f178f5089b9b8e8ca17",
    ("builtin:mermin-square", "coarsenings"):
        "0249aaa63949544612cef361f63972b5de039c50223a05dddc02242348ee75d3",
    ("cabello18.json", "intersections"):
        "59887308808d03febd692bbed5a3985f1a8fdb95b0c239f601f0f16fab49c076",
    ("cabello18.json", "coarsenings"):
        "09f2241e61e196b0e08a1c288b30c0689f42bbfda4f1922ef728cea77076b404",
    ("mermin_square.json", "intersections"):
        "b51fcced14d6f627db9b797699fa0bd3fd6686138e98303f4678eff2e57b3001",
    ("mermin_square.json", "coarsenings"):
        "cd5816dff6734f92ff6e44250b71a4bbff2ffbe801de758142d5e7be7d89a79a",
    ("mermin_star.json", "intersections"):
        "7f9ffb911c0b325cc67f0a2702e030b34f1d2aec115d461a1bb59e11066b216c",
    ("pauli2.json", "intersections"):
        "39ca6b2c3c6bb87e8dd816c43e3a5fa11db261526beafb157eb1ff343f3aa950",
    ("pauli2.json", "coarsenings"):
        "39ca6b2c3c6bb87e8dd816c43e3a5fa11db261526beafb157eb1ff343f3aa950",
    ("peres33.json", "intersections"):
        "d875964838668e22ae6e0795a9939add0e03a630fca96ae2c21c697fc5ee35f2",
    ("peres33.json", "coarsenings"):
        "cfb9345266f7ecf1080140ce3a58cf6ef3a6298866158168e1b29887c2e97f44",
    ("two_qubit_parity.json", "intersections"):
        "988384a85d7f21cd192f4d58491def763ab075f64228534c2c1dc3715389ecfa",
    ("two_qubit_parity.json", "coarsenings"):
        "06168e0301ce93b4d1a4fcc4957a51bf50bbcd24c744fd621e5c251ac1033c07",
    ("family00", None):
        "d0c906a2c20c52faeb3d7ae24eb3bf21feedaa0523e06a089d4bd6c3b29f3914",
    ("family01", None):
        "d2fa769268fd459bf13604316ed22238cc24a31eeb4a311926c05b771e46d5fd",
}


@pytest.fixture(scope="module")
def families(tmp_path_factory):
    out = tmp_path_factory.mktemp("prop-logic")
    _load_gen().make_inputs("prop-logic", 1, out)
    return {name: parse_scenario((out / f"{name}.json").read_text(encoding="utf-8"))
            for name in FAMILIES}


def _case(name, closure, families):
    """Maximal contexts, named operators, closure and tolerance of a case."""
    if name.startswith("builtin:"):
        _, operators, maximal = C.builtin_scenario(name[8:], TOL)
        return maximal, operators, closure, TOL
    scn = (families[name] if name in families
           else parse_scenario((SCENARIOS / name).read_text()))
    return scn.maximal_contexts, scn.operators, closure or scn.closure, scn.tolerance


def single_context_digest(maximal, operators, closure, tol) -> str:
    poset = C.build_poset(maximal, closure, tol)
    rng = np.random.default_rng(len(poset))
    named = [op for _, op in sorted(operators.items()) if is_projector(op, tol)]
    haar = [random_projector(poset.dim, rng, rank) for rank in range(1, poset.dim)]
    digest = hashlib.sha256()
    for p in named + haar:
        for inner, public in ((False, Q.daseinise_projector),
                              (True, Q.daseinise_projector_inner)):
            rows = Q.daseinise(p, poset, tol, inner)
            for ctx, (indices, matrix) in zip(poset.contexts, rows):
                own, mine = Q._in_context(require_projector(p, tol), ctx, tol, inner)
                assert own == indices
                assert mine.tobytes() == matrix.tobytes()
                assert public(p, ctx, tol).tobytes() == matrix.tobytes()
                digest.update(repr((ctx.key, inner, indices)).encode())
                digest.update(matrix.tobytes())
    for _, op in sorted(operators.items()):
        for ctx in poset.contexts:
            for matrix in Q.daseinise_observable(op, ctx, tol):
                digest.update(matrix.tobytes())
    return digest.hexdigest()


CASES = BUILT + [
    (name, None) for name in FAMILIES]


@pytest.mark.parametrize("name, closure", CASES)
def test_single_context_rows_match_the_poset_wide_rows(name, closure, families):
    got = single_context_digest(*_case(name, closure, families))
    assert got == DIGESTS[(name, closure)]


def assert_rows_of_the_table(poset):
    """A poset context's matrices are its table's read-only rows at its ids,
    read on first use; its ranks are the rounded traces."""
    table = poset.table
    assert not any("blocks" in vars(ctx) for ctx in poset.contexts)
    read = {}  # block id: the bytes the first context holding it read
    for ctx in poset.contexts:
        assert ctx.table is table
        assert ctx.blocks is ctx.blocks and "blocks" in vars(ctx)
        for b, block in zip(ctx.ids, ctx.blocks, strict=True):
            assert block.tobytes() == table.blocks[b].tobytes()
            assert not block.flags.writeable
            assert read.setdefault(b, block.tobytes()) == block.tobytes()
        assert ctx.ranks == tuple(round(np.trace(b).real) for b in ctx.blocks)
    return read


def test_the_blocks_are_read_on_first_use_only():
    for name, closure in CASES[:-len(FAMILIES)]:
        maximal, _, closure, tol = _case(name, closure, {})
        poset = C.build_poset(maximal, closure, tol)
        assert len(assert_rows_of_the_table(poset)) == len(poset.table.keys)
        # a make_context context holds a table of its own blocks alone, in
        # the order given, and their ids in key order; a hand-built poset's
        # copies of them hold its fresh table's rows
        own = tuple(C.make_context(c.blocks, tol, label=c.key) for c in poset.contexts)
        for c, mine in zip(poset.contexts, own):
            back = C.make_context(c.blocks[::-1], tol)
            assert mine.ids == tuple(range(len(c.ids))) and back.ids == mine.ids[::-1]
            assert mine.ranks == back.ranks == c.ranks
            for made in (mine, back):
                assert made.table.blocks[list(made.ids)].tobytes() == (
                    poset.table.blocks[list(c.ids)].tobytes())
        hand = C.ContextPoset(dim=poset.dim, contexts=own, leq=poset.leq, tol=tol)
        assert hand.table is not poset.table
        assert not any(c.table is hand.table for c in own)
        assert_rows_of_the_table(hand)
