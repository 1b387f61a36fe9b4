"""The block-table closure agrees with the closure it replaced.

``reference_build_poset`` below is the earlier ``build_poset``: it absorbs
each candidate by comparing it with every context kept so far
(``contexts_equal``), re-meets every pair and re-coarsens every context on
each pass until a pass adds nothing, and orders contexts pairwise with
``context_leq``.  The closure in ``qtopos.contexts`` must give the same
contexts, with the same matrices, under the same ids, and the same order.
"""
from __future__ import annotations

import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.errors import SizeLimit
from qtopos.numerics import Tolerance
from qtopos.scenario import parse_scenario
from tests.conftest import random_context, random_hermitian, random_unitary

TOL = Tolerance()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CLOSURES = ("intersections", "coarsenings")


def reference_build_poset(maximal, closure, tol=TOL) -> C.ContextPoset:
    if not maximal:
        return C.ContextPoset(dim=0, contexts=(), leq=frozenset())
    ctxs = []

    def absorb(candidate) -> bool:
        if any(C.contexts_equal(candidate, seen, tol) for seen in ctxs):
            return False
        ctxs.append(candidate)
        return True

    for ctx in maximal:
        absorb(ctx)
    while True:
        added = False
        size = len(ctxs)
        for i in range(size):
            for j in range(i + 1, size):
                meet = C.context_intersection(ctxs[i], ctxs[j], tol)
                if meet is not None and absorb(meet):
                    added = True
        if closure == "coarsenings":
            for ctx in list(ctxs):
                for coarse in C.coarsenings(ctx, tol):
                    if absorb(coarse):
                        added = True
        if not added:
            break

    ordered = sorted(ctxs, key=lambda c: (
        len(c.blocks), tuple(C._block_sort_key(b) for b in c.blocks)))
    width = max(2, len(str(len(ordered) - 1)))
    relabeled = [C.Context(key=f"V{i:0{width}d}", dim=c.dim, blocks=c.blocks,
                           label=c.label)
                 for i, c in enumerate(ordered)]
    leq = frozenset((a.key, b.key) for a in relabeled for b in relabeled
                    if len(a.blocks) <= len(b.blocks) and C.context_leq(a, b, tol))
    return C.ContextPoset(dim=ordered[0].dim, contexts=tuple(relabeled), leq=leq)


def assert_is_order(poset):
    # ``ContextPoset.base`` trusts ``leq`` without closing it again
    keys = set(poset.keys())
    above = {k: set() for k in keys}
    for a, b in poset.leq:
        assert b in keys
        above[a].add(b)
    assert all(k in above[k] for k in keys)
    assert all(a == b or a not in above[b] for a, b in poset.leq)
    assert all(above[b] <= above[a] for a, b in poset.leq)


def assert_same_poset(maximal, closure, tol=TOL):
    new = C.build_poset(maximal, closure, tol)
    assert_is_order(new)
    old = reference_build_poset(maximal, closure, tol)
    assert new.keys() == old.keys()
    assert new.leq == old.leq
    for a, b in zip(new.contexts, old.contexts):
        assert a.label == b.label
        assert len(a.blocks) == len(b.blocks)
        assert all(np.array_equal(p, q) for p, q in zip(a.blocks, b.blocks))
    return new


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name", ["pauli2", "mermin-square"])
def test_builtin_scenarios(name, closure):
    _, _, maximal = C.builtin_scenario(name, TOL)
    assert_same_poset(maximal, closure)


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name", ["pauli2", "mermin_square", "two_qubit_parity"])
def test_bundled_scenario_files(name, closure):
    scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
    assert_same_poset(scn.maximal_contexts, closure, scn.tolerance)


def _grouping(basis, groups):
    return C.make_context([basis[:, g] @ basis[:, g].conj().T for g in groups], TOL)


def test_meets_of_meets_need_a_second_pass():
    # A ^ B = 012|3|4|5 meets C in 012|34|5, which no pair of A, B, C gives.
    basis = random_unitary(6, np.random.default_rng(3))
    maximal = [_grouping(basis, [[0, 1], [2], [3], [4], [5]]),
               _grouping(basis, [[0], [1, 2], [3], [4], [5]]),
               _grouping(basis, [[0], [1], [2], [3, 4], [5]])]
    poset = assert_same_poset(maximal, "intersections")
    assert sorted(c.ranks for c in poset.contexts if len(c.blocks) == 3) == [
        (3, 2, 1)]


def _random_grouping(dim, rng, basis, most):
    cuts = sorted(rng.choice(range(1, dim), size=int(rng.integers(1, most)),
                             replace=False))
    order = rng.permutation(dim)
    return _grouping(basis, [order[lo:hi] for lo, hi in
                             zip([0, *cuts], [*cuts, dim])])


def _rotated(ctx, u):
    return C.make_context([u @ b @ u.conj().T for b in ctx.blocks], TOL)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), count=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_contexts_before_and_after_a_global_unitary(dim, count, seed):
    # Groupings of one shared basis meet nontrivially; a context from a
    # fresh basis usually meets them trivially.  Coarsenings stay below
    # five blocks, so the reference closure stays fast.
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    u = random_unitary(dim, rng)
    for closure in CLOSURES:
        most = dim if closure == "intersections" else min(dim, 4)
        maximal = [_random_grouping(dim, rng, basis, most)
                   if rng.random() < 0.8 else
                   random_context(dim, rng, TOL, int(rng.integers(2, most + 1)))
                   for _ in range(count)]
        shapes = [(len(p), len(p.leq)) for p in (
            assert_same_poset(maximal, closure),
            assert_same_poset([_rotated(c, u) for c in maximal], closure))]
        assert shapes[0] == shapes[1]


def _ks_invariants(maximal, closure, tol):
    poset = C.build_poset(maximal, closure, tol)
    result = Q.ks_search(Q.spectral_presheaf(poset, tol), max_solutions=64)
    return (len(poset), sorted(c.ranks for c in poset.contexts),
            len(poset.leq), result.status, len(result.sections))


def _bundled_maximal_contexts():
    for name in ("pauli2", "mermin-square"):
        yield name, C.builtin_scenario(name, TOL)[2], TOL
    for name in ("pauli2", "mermin_square", "two_qubit_parity"):
        scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        yield name, scn.maximal_contexts, scn.tolerance


@pytest.mark.parametrize("closure", CLOSURES)
def test_kochen_specker_invariants_under_a_global_unitary(closure):
    # V.. ids follow the rounded block sort key and may move under U; the
    # shape, the order and the verdict may not
    rng = np.random.default_rng(6)
    for name, maximal, tol in _bundled_maximal_contexts():
        expected = _ks_invariants(maximal, closure, tol)
        for _ in range(3):
            u = random_unitary(maximal[0].dim, rng)
            rotated = [_rotated(c, u) for c in maximal]
            assert _ks_invariants(rotated, closure, tol) == expected, name


def _near_identity(dim, rng):
    """exp(i t H) for a random Hermitian H of unit norm, 1e-13 <= t <= 1e-11."""
    h = random_hermitian(dim, rng)
    values, vectors = np.linalg.eigh(h / np.linalg.norm(h, 2))
    t = 10 ** rng.uniform(-13, -11)
    return (vectors * np.exp(1j * t * values)) @ vectors.conj().T


@pytest.mark.parametrize("closure", CLOSURES)
def test_kochen_specker_invariants_under_a_perturbation_below_the_tolerance(
        closure):
    # each maximal context moves by its own unitary, so blocks that two
    # contexts shared now differ by far less than the tolerance
    rng = np.random.default_rng(11)
    for name, maximal, tol in _bundled_maximal_contexts():
        expected = _ks_invariants(maximal, closure, tol)
        for _ in range(3):
            perturbed = [_rotated(c, _near_identity(c.dim, rng))
                         for c in maximal]
            assert _ks_invariants(perturbed, closure, tol) == expected, name


def _generic_observable(levels):
    rng = np.random.default_rng(levels)
    u = random_unitary(levels, rng)
    op = u @ np.diag(np.arange(1.0, levels + 1)) @ u.conj().T
    return C.context_from_commuting_set([op], TOL)


def test_seven_level_observable_under_coarsenings():
    # Bell(7) - 1 contexts; order pairs include the reflexive ones
    start = time.perf_counter()
    poset = C.build_poset([_generic_observable(7)], "coarsenings", TOL)
    assert (len(poset), len(poset.leq)) == (876, 18425)
    assert time.perf_counter() - start < 60
    assert_is_order(poset)


def test_seven_level_observable_presheaf_and_search():
    # A section picks one block of the one maximal context and is forced
    # below it, so there are exactly 7, fewer than the 8 asked for.
    start = time.perf_counter()
    poset = C.build_poset([_generic_observable(7)], "coarsenings", TOL)
    result = Q.ks_search(Q.spectral_presheaf(poset, TOL), max_solutions=8)
    assert (result.status, len(result.sections)) == ("SectionsExist", 7)
    assert time.perf_counter() - start < 60


def test_eight_level_observable_trips_the_limit():
    # Bell(8) - 1 = 4139 contexts, over POSET_LIMIT
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="^closure exceeded 4096 contexts$"):
        C.build_poset([_generic_observable(8)], "coarsenings", TOL)
    assert time.perf_counter() - start < 60
