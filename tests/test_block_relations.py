"""The block-overlap relations agree with their projector-order definitions.

``contexts`` and ``quantum`` read inclusion, equality and restriction maps
off one test, "blocks p and q meet" (``||p q|| > eps * d``).  The reference
functions below are the definitions in terms of the projector order
``proj_leq`` and Frobenius distance; both must give the same answers.
"""
from __future__ import annotations

import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.numerics import Tolerance, proj_leq
from qtopos.scenario import parse_scenario
from tests.conftest import random_context, random_unitary

TOL = Tolerance()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def reference_leq(smaller, larger, tol=TOL) -> bool:
    """Every block of ``smaller`` is the sum of the blocks of ``larger`` under it."""
    for b in smaller.blocks:
        under = [q for q in larger.blocks if proj_leq(q, b, tol)]
        total = sum(under) if under else np.zeros_like(b)
        if np.linalg.norm(total - b) > tol.scaled(smaller.dim):
            return False
    return True


def reference_equal(a, b, tol=TOL) -> bool:
    """Greedy matching of blocks within Frobenius distance ``eps * d``."""
    if a.dim != b.dim or len(a.blocks) != len(b.blocks):
        return False
    unmatched = list(range(len(b.blocks)))
    for p in a.blocks:
        hits = [j for j in unmatched
                if np.linalg.norm(p - b.blocks[j]) <= tol.scaled(a.dim)]
        if not hits:
            return False
        unmatched.remove(hits[0])
    return True


def reference_parents(fine, coarse, tol=TOL) -> dict:
    """Each fine block's unique coarse block above it in the projector order."""
    mapping = {}
    for qi, q in enumerate(fine.blocks):
        parents = [pi for pi, p in enumerate(coarse.blocks) if proj_leq(q, p, tol)]
        assert len(parents) == 1
        mapping[qi] = parents[0]
    return mapping


def assert_relations_agree(poset, others=()):
    ctxs = poset.contexts
    expected = {(a.key, b.key) for a in ctxs for b in ctxs if reference_leq(a, b)}
    assert poset.leq == expected
    for a in ctxs:
        for b in (*ctxs, *others):
            assert C.contexts_equal(a, b, TOL) == reference_equal(a, b)
    presheaf = Q.spectral_presheaf(poset, TOL)
    for (frm, to), mapping in presheaf.underlying.restrictions.items():
        assert mapping == reference_parents(poset.context(frm), poset.context(to))


def test_pauli2():
    _, _, maximal = C.builtin_scenario("pauli2", TOL)
    assert_relations_agree(C.build_poset(maximal, "intersections", TOL))


def test_mermin_square_both_closures():
    _, _, maximal = C.builtin_scenario("mermin-square", TOL)
    small = C.build_poset(maximal, "intersections", TOL)
    large = C.build_poset(maximal, "coarsenings", TOL)
    assert (len(small), len(large)) == (15, 75)
    assert_relations_agree(small, large.contexts)
    assert_relations_agree(large)
    shared = sum(C.contexts_equal(a, b, TOL)
                 for a in small.contexts for b in large.contexts)
    assert shared == 15


def test_two_qubit_parity():
    scn = parse_scenario((SCENARIOS / "two_qubit_parity.json").read_text())
    for closure in ("intersections", "coarsenings"):
        assert_relations_agree(
            C.build_poset(scn.maximal_contexts, closure, scn.tolerance))


def _rotated(ctx, u):
    return C.make_context([u @ b @ u.conj().T for b in ctx.blocks], TOL)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_random_contexts_before_and_after_a_global_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    first = random_context(dim, rng, TOL, n_blocks=dim)
    second = random_context(dim, rng, TOL)
    u = random_unitary(dim, rng)
    shapes = []
    for maximal in ([first, second], [_rotated(first, u), _rotated(second, u)]):
        poset = C.build_poset(maximal, "coarsenings", TOL)
        own = C.build_poset(maximal[:1], "coarsenings", TOL)
        assert_relations_agree(poset, own.contexts)
        shapes.append((len(poset), len(poset.leq)))
    assert shapes[0] == shapes[1]
