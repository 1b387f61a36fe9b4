"""Outer daseinisation read off the block table agrees with the path it
replaced.

``reference_outer_indices`` and ``reference_delta_subobject`` below are the
earlier code, verbatim: one ``overlaps`` call on the blocks of every context
stacked, and ``kernel.subobject``'s closure check strict pair by strict pair
and point by point.  ``reference_daseinise`` and the two ``reference_truth_*``
functions are the earlier ``_daseinise`` and truth-value routes on top of
them.  The live code tests each distinct block of the block table once and
checks closure on the table's "lies under" edges; its ``delta_subobject``
parts, both truth values and the public ``daseinise`` indices and matrices
must be equal to these.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import kernel
from qtopos import quantum as Q
from qtopos.errors import DimensionMismatch, NotProjector, ValidationError
from qtopos.numerics import (
    Tolerance,
    is_projector,
    overlaps,
    require_projector,
    same_blocks,
)
from qtopos.scenario import parse_scenario
from tests.conftest import random_projector, random_state, random_unitary
from tests.test_closure import CLOSURES, SCENARIOS, TOL, _generic_observable


def reference_outer_indices(p: np.ndarray, contexts, tol) -> list[tuple[int, ...]]:
    """Per context, the indices of its blocks that meet ``p``, in block order,
    from one ``overlaps`` call on the blocks of all contexts stacked."""
    for ctx in contexts:
        if p.shape[0] != ctx.dim:
            raise DimensionMismatch(
                f"projector dimension {p.shape[0]} != context dimension {ctx.dim}")
    if not contexts:
        return []
    hits = overlaps([b for c in contexts for b in c.blocks], [p], tol)[:, 0].tolist()
    ends = itertools.accumulate(len(c.blocks) for c in contexts)
    return [tuple(i for i, hit in enumerate(hits[end - len(c.blocks):end]) if hit)
            for c, end in zip(contexts, ends)]


def reference_delta_subobject(projector, presheaf, tol=TOL) -> kernel.Subobject:
    """The outer approximation of a projector as a subobject of the presheaf."""
    p = require_projector(projector, tol, "projector")
    contexts = presheaf.poset.contexts
    parts = dict(zip((c.key for c in contexts), reference_outer_indices(p, contexts, tol)))
    return kernel.subobject(presheaf.underlying, parts)


def reference_daseinise(p, contexts, tol, inner):
    out = []
    if not inner:
        for ctx, picked in zip(contexts, reference_outer_indices(p, contexts, tol)):
            m = sum((ctx.blocks[i] for i in picked),
                    np.zeros((ctx.dim, ctx.dim), dtype=complex))
            out.append((picked, m))
        return out
    eye = np.eye(p.shape[0], dtype=complex)
    for ctx, (dropped, outer) in zip(contexts,
                                     reference_daseinise(eye - p, contexts, tol, False)):
        m = eye - outer
        m = (m + m.conj().T) / 2
        out.append((tuple(i for i in range(len(ctx.blocks)) if i not in dropped), m))
    return out


def reference_truth_pseudo(projector, psi, presheaf, tol=TOL) -> frozenset:
    vec = Q._unit_state(psi, presheaf.poset, tol)
    state = reference_delta_subobject(np.outer(vec, vec.conj()), presheaf, tol)
    assert all(state.parts.values())
    return kernel.truth_value_inclusion(
        state, reference_delta_subobject(projector, presheaf, tol)).members


def reference_weights(vec, poset) -> dict:
    return {ctx.key: [float(np.vdot(vec, p @ vec).real) for p in ctx.blocks]
            for ctx in poset.contexts}


def reference_truth_object(projector, psi, poset, tol=TOL) -> frozenset:
    vec = Q._unit_state(psi, poset, tol)
    obj = Q.TruthObject(psi=vec, weights=reference_weights(vec, poset), tol=tol)
    for ctx in poset.contexts:
        assert obj.contains(ctx.key, 2 ** len(ctx.blocks) - 1)
    p = require_projector(projector, tol, "projector")
    masks = {ctx.key: sum(1 << i for i in picked) for ctx, picked
             in zip(poset.contexts, reference_outer_indices(p, poset.contexts, tol))}
    return frozenset(key for key, mask in masks.items() if obj.contains(key, mask))


def _probes(poset, rng, n_sums=6):
    """Haar projectors of every proper rank and block sums of a few contexts."""
    dim = poset.dim
    probes = [random_projector(dim, rng, rank) for rank in range(1, dim)]
    for i in rng.choice(len(poset), min(n_sums, len(poset)), replace=False):
        ctx = poset.contexts[i]
        keep = rng.random(len(ctx.blocks)) < 0.5
        probes.append(sum((b for b, k in zip(ctx.blocks, keep) if k),
                          np.zeros((dim, dim), dtype=complex)))
    return probes


def assert_same_answers(presheaf, projectors, states, tol=TOL):
    """Live and reference answers agree on every projector and state."""
    poset = presheaf.poset
    for p in projectors:
        live = Q.delta_subobject(p, presheaf, tol)
        ref = reference_delta_subobject(p, presheaf, tol)
        assert list(live.parts.items()) == list(ref.parts.items())
        p = require_projector(p, tol)
        for inner in (False, True):
            got = Q.daseinise(p, poset, tol, inner)
            want = reference_daseinise(p, poset.contexts, tol, inner)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert all(np.array_equal(g[1], w[1]) for g, w in zip(got, want))
        for psi in states:
            # per distinct block, in another summation order: equal to 1e-12
            obj = Q.truth_object(psi, poset, tol)
            want = reference_weights(obj.psi, poset)
            assert obj.weights.keys() == want.keys()
            assert all(np.allclose(obj.weights[k], want[k], rtol=0, atol=1e-12)
                       for k in want)
            assert (Q.truth_value_pseudo(p, psi, presheaf, tol).members
                    == reference_truth_pseudo(p, psi, presheaf, tol))
            assert (Q.truth_value_truthobject(p, psi, poset, tol).members
                    == reference_truth_object(p, psi, poset, tol))


def _cases(closures=CLOSURES):
    """Per builtin and bundled scenario file under each closure: its poset,
    tolerance, probe and named projectors, and random and named states."""
    for closure in closures:
        for name in ("pauli2", "mermin-square"):
            maximal = C.builtin_scenario(name, TOL)[2]
            yield C.build_poset(maximal, closure, TOL), TOL, [], []
        for name in ("pauli2", "mermin_square", "two_qubit_parity"):
            scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
            poset = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
            named = [op for op in scn.operators.values()
                     if is_projector(op, scn.tolerance)]
            yield poset, scn.tolerance, named, list(scn.states.values())


def _queries(poset, named, states):
    rng = np.random.default_rng(len(poset))
    return (_probes(poset, rng) + named,
            [random_state(poset.dim, rng) for _ in range(2)] + states)


@pytest.mark.parametrize("closure", CLOSURES)
def test_bundled_posets(closure):
    for poset, tol, named, states in _cases([closure]):
        assert_same_answers(Q.spectral_presheaf(poset, tol),
                            *_queries(poset, named, states), tol)


def test_seven_level_observable():
    poset = C.build_poset([_generic_observable(7)], "coarsenings", TOL)
    assert len(poset) == 876
    rng = np.random.default_rng(876)
    projectors = [random_projector(7, rng, 3)] + _probes(poset, rng, 2)[-2:]
    assert_same_answers(Q.spectral_presheaf(poset, TOL), projectors,
                        [random_state(7, rng)])


def test_parts_keep_the_kernel_order_past_ten_blocks():
    # the kernel sorts points by repr: 0, 1, 10, 11, 2, ... in a 12-block context
    u = random_unitary(12, np.random.default_rng(12))
    rank1 = [np.outer(u[:, i], u[:, i].conj()) for i in range(12)]
    fine = C.make_context(rank1, TOL)
    coarse = C.make_context(rank1[:10] + [rank1[10] + rank1[11]], TOL)
    poset = C.build_poset([fine, coarse], "intersections", TOL)
    assert len(poset) == 2 and len(poset.leq) == 3
    rng = np.random.default_rng(0)
    p = sum(rank1[i] for i in (0, 3, 10, 11))
    presheaf = Q.spectral_presheaf(poset, TOL)
    assert_same_answers(presheaf, [p, random_projector(12, rng, 5)],
                        [random_state(12, rng)])
    parts = Q.delta_subobject(p, presheaf).parts.values()
    assert any(list(part) != sorted(part) for part in parts)


def assert_answers_as_built(hand, built, projectors, states, tol):
    """``hand`` holds one table of its own, each context its ids into it,
    and its presheaf and every query answer as ``built``'s."""
    assert hand.table is not built.table and hand.table.tol == tol
    for ctx in hand.contexts:
        assert ctx.table is hand.table
        assert ctx.ids == tuple(hand.table.intern(ctx.blocks))
    mine, theirs = Q.spectral_presheaf(hand, tol), Q.spectral_presheaf(built, tol)
    assert mine.underlying.restrictions == theirs.underlying.restrictions
    for p in projectors:
        assert Q.delta_subobject(p, mine).masks == Q.delta_subobject(p, theirs).masks
        for inner in (False, True):
            got = Q.daseinise(p, hand, tol, inner)
            want = Q.daseinise(p, built, tol, inner)
            assert [(g[0], g[1].tobytes()) for g in got] == [
                (w[0], w[1].tobytes()) for w in want]
        for psi in states:
            assert (Q.truth_value_pseudo(p, psi, mine).members
                    == Q.truth_value_pseudo(p, psi, theirs).members)
            assert (Q.truth_value_truthobject(p, psi, hand).members
                    == Q.truth_value_truthobject(p, psi, built).members)


def test_hand_built_posets_and_presheaves(monkeypatch):
    interns = []
    intern = C.BlockTable.intern
    monkeypatch.setattr(C.BlockTable, "intern",
                        lambda self, blocks, parts=None, **kw:
                        interns.append(1) or intern(self, blocks, parts, **kw))
    for built, tol, named, states in _cases():
        projectors, states = _queries(built, named, states)
        # build_poset's contexts: the poset takes the table they share
        same = C.ContextPoset(dim=built.dim, contexts=built.contexts, leq=built.leq, tol=tol)
        assert same.table is built.table and same.contexts == built.contexts
        # make_context contexts, and another poset's at another tolerance:
        # one fresh table at tol, interned once, in one call
        own = tuple(C.make_context(c.blocks, tol, label=c.key) for c in built.contexts)
        wide = C.ContextPoset(dim=built.dim, contexts=built.contexts, leq=built.leq,
                              tol=Tolerance(tol.eps * 10))
        for contexts in (own, wide.contexts):
            before = len(interns)
            hand = C.ContextPoset(dim=built.dim, contexts=contexts, leq=built.leq, tol=tol)
            assert len(interns) - before == 1
            assert_same_answers(Q.spectral_presheaf(hand, tol), projectors, states, tol)
            assert_answers_as_built(hand, built, projectors, states, tol)
        assert all(c.table is None and c.ids is None for c in own)
        # a presheaf built by hand reads its poset's table: no query interns
        underlying = Q.spectral_presheaf(built, tol).underlying
        for poset in (built, hand):
            presheaf = Q.SpectralPresheaf(poset=poset, underlying=underlying)
            before = len(interns)
            for p in projectors[:3]:
                assert (Q.delta_subobject(p, presheaf, tol).parts
                        == reference_delta_subobject(p, presheaf, tol).parts)
            assert len(interns) == before
    # a context of another dimension is named before anything is interned
    two = C.context_from_commuting_set([np.diag([1.0, -1.0])], TOL, label="two")
    three = C.context_from_commuting_set([np.diag([1.0, 2.0, 3.0])], TOL, label="three")
    before = len(interns)
    for contexts in ((two, three), (three,)):
        with pytest.raises(DimensionMismatch, match="^context three has dimension 3 != 2$"):
            C.ContextPoset(dim=2, contexts=contexts, leq=frozenset(), tol=TOL)
    assert len(interns) == before


def test_another_tolerance():
    for built, tol, named, states in _cases():
        projectors, states = _queries(built, named, states)
        wide = Tolerance(tol.eps * 10)
        # a poset built at 10x, queried at 10x
        at_wide = C.ContextPoset(dim=built.dim, contexts=built.contexts, leq=built.leq,
                                 tol=wide)
        assert_same_answers(Q.spectral_presheaf(at_wide, wide), projectors, states, wide)
        # a poset built at tol refuses a query at 10x
        presheaf = Q.spectral_presheaf(built, tol)
        message = f"^a query at eps {wide.eps!r} on a poset built at eps {tol.eps!r}$"
        with pytest.raises(ValidationError, match=message):
            Q.spectral_presheaf(built, wide)
        for p in projectors:
            with pytest.raises(ValidationError, match=message):
                Q.delta_subobject(p, presheaf, wide)


@pytest.fixture
def square():
    maximal = C.builtin_scenario("mermin-square", TOL)[2]
    poset = C.build_poset(maximal, "coarsenings", TOL)
    assert len(poset) == 75
    return poset, Q.spectral_presheaf(poset, TOL)


def test_one_overlaps_row_per_distinct_block(square, monkeypatch):
    poset, presheaf = square
    assert "table" not in presheaf.__dict__  # building the presheaf builds no edges
    rows, restricts = [], []

    def counting(ps, qs, tol=TOL):
        rows.append(len(ps))
        return overlaps(ps, qs, tol)

    restrict = kernel.Presheaf.restrict
    monkeypatch.setattr(Q, "overlaps", counting)
    monkeypatch.setattr(kernel.Presheaf, "restrict",
                        lambda *args: restricts.append(1) or restrict(*args))
    rng = np.random.default_rng(75)
    for p in _probes(poset, rng):
        before = len(rows)
        Q.delta_subobject(p, presheaf, TOL)
        assert rows[before:] == [len(poset.table.keys)] == [66]
    assert restricts == []
    _, _, lo, hi = presheaf.table
    assert len(lo) == len(hi) == 258


def test_unclosed_parts_raise_the_kernel_message(square, monkeypatch):
    # every block hits except one distinct block that finer blocks lie
    # under: the parts are not closed, and the first strict pair that shows
    # it is named as ``kernel.subobject`` names it; the missed block is the
    # edge target of least sort key, which does not hang on table-id order
    poset, presheaf = square
    _, _, lo, hi = presheaf.table
    under = min(hi[lo != hi].tolist(), key=poset.table.keys.__getitem__)
    missed = poset.table.blocks[under]

    def fake(ps, qs, tol=TOL):
        return ~same_blocks(ps, [missed], tol)

    monkeypatch.setattr(Q, "overlaps", fake)
    monkeypatch.setitem(globals(), "overlaps", fake)
    p = np.eye(4, dtype=complex)
    with pytest.raises(ValidationError) as ref:
        reference_delta_subobject(p, presheaf)
    with pytest.raises(ValidationError) as live:
        Q.delta_subobject(p, presheaf)
    assert str(live.value) == str(ref.value) == (
        "parts are not closed under restriction 'V33' -> 'V00'")


@pytest.mark.parametrize("inner", [False, True])
def test_daseinise_checks_its_projector(square, inner):
    poset, _ = square
    with pytest.raises(NotProjector, match="^projector is not a projector"):
        Q.daseinise(2 * np.eye(4), poset, TOL, inner)
    with pytest.raises(DimensionMismatch,
                       match="^projector dimension 2 != context dimension 4$"):
        Q.daseinise(np.diag([1.0, 0.0]), poset, TOL, inner)
