"""The spectral presheaf read off the block table agrees with the one it
replaced.

``reference_restrictions`` below is the earlier construction: one
``overlaps`` call per strict pair on the two contexts' own matrices.
``spectral_presheaf`` reads the same maps off the meets that ``build_poset``
keeps, and must give equal restriction dicts and the same ``Ambiguity``
message.  It builds its kernel presheaf directly, and the validating
``kernel.presheaf`` must give back an equal one.
"""
from __future__ import annotations

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.errors import Ambiguity
from qtopos.numerics import Tolerance, overlaps
from qtopos.scenario import parse_scenario
from tests.test_closure import CLOSURES, SCENARIOS, TOL, _generic_observable
from tests.test_kernel import assert_valid_as_built, count_validator_calls


def reference_restrictions(poset, tol=TOL) -> dict:
    restrictions = {}
    for (frm, to) in poset.base.strict_down_pairs():
        meets = overlaps(poset.context(frm).blocks, poset.context(to).blocks, tol)
        for qi, row in enumerate(meets):
            if row.sum() != 1:
                raise Ambiguity(
                    f"block {qi} of {frm} meets {row.sum()} blocks of {to}")
        restrictions[(frm, to)] = dict(enumerate(meets.argmax(axis=1).tolist()))
    return restrictions


def assert_same_presheaf(poset, tol=TOL):
    presheaf = Q.spectral_presheaf(poset, tol)
    assert presheaf.underlying.restrictions == reference_restrictions(poset, tol)
    return presheaf


def _bundled_posets():
    for closure in CLOSURES:
        for name in ("pauli2", "mermin-square"):
            maximal = C.builtin_scenario(name, TOL)[2]
            yield f"{name}/{closure}", C.build_poset(maximal, closure, TOL), TOL
        for name in ("pauli2", "mermin_square", "two_qubit_parity"):
            scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
            poset = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
            yield f"{name}.json/{closure}", poset, scn.tolerance


@pytest.mark.parametrize("closure", CLOSURES)
def test_bundled_posets(closure):
    for name, poset, tol in _bundled_posets():
        if name.endswith(closure):
            assert_same_presheaf(poset, tol)


def test_seven_level_observable():
    poset = C.build_poset([_generic_observable(7)], "coarsenings", TOL)
    presheaf = assert_same_presheaf(poset)
    assert len(presheaf.underlying.restrictions) == 18425 - 876


def test_hand_built_poset_and_another_tolerance():
    # no table, or one built at another tolerance: the poset interns its
    # contexts' blocks afresh
    for _, built, tol in _bundled_posets():
        hand = C.ContextPoset(dim=built.dim, contexts=built.contexts,
                              leq=built.leq)
        assert hand.table is None
        expected = reference_restrictions(built, tol)
        assert Q.spectral_presheaf(hand, tol).underlying.restrictions == expected
        other = Tolerance(tol.eps * 10)
        assert_same_presheaf(built, other)


def _projector(vector) -> np.ndarray:
    v = np.asarray(vector, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def test_straddling_blocks_name_the_first_bad_block():
    # b -> a is a true restriction; c holds e1 (under e0 + e1) and two
    # blocks that straddle e0 + e1 and e2.  c's blocks sort as e1, then
    # (e0 - e2) / sqrt 2, so the first bad block is block 1 of c.
    e0, e1, e2 = np.eye(3)
    a = C.make_context([_projector(e0) + _projector(e1), _projector(e2)],
                       TOL, label="a")
    b = C.make_context([_projector(e0), _projector(e1), _projector(e2)],
                       TOL, label="b")
    c = C.make_context([_projector(e1), _projector(e0 + e2),
                        _projector(e0 - e2)], TOL, label="c")
    leq = frozenset([("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("a", "c")])
    bogus = C.ContextPoset(dim=3, contexts=(a, b, c), leq=leq)
    message = "^block 1 of c meets 2 blocks of a$"
    with pytest.raises(Ambiguity, match=message):
        reference_restrictions(bogus)
    with pytest.raises(Ambiguity, match=message):
        Q.spectral_presheaf(bogus, TOL)


def test_no_overlaps_calls_on_a_built_poset(monkeypatch):
    calls = []

    def counting(ps, qs, tol=TOL):
        calls.append(len(qs))
        return overlaps(ps, qs, tol)

    monkeypatch.setattr(Q, "overlaps", counting)
    monkeypatch.setattr(C, "overlaps", counting)
    for _, poset, tol in _bundled_posets():
        before = len(calls)
        Q.spectral_presheaf(poset, tol)
        assert calls[before:] == []
    # a hand-built poset interns its blocks, at most one call per context
    hand = C.ContextPoset(dim=poset.dim, contexts=poset.contexts, leq=poset.leq)
    before = len(calls)
    Q.spectral_presheaf(hand, tol)
    assert 0 < len(calls) - before <= len(hand)


def _scenario_posets():
    for path in sorted(SCENARIOS.glob("*.json")):
        scn = parse_scenario(path.read_text())
        for closure in CLOSURES:
            yield (C.build_poset(scn.maximal_contexts, closure, scn.tolerance),
                   scn.tolerance)


def test_presheaf_is_valid_as_built():
    posets = [*((poset, tol) for _, poset, tol in _bundled_posets()),
              *_scenario_posets()]
    for built, tol in posets:
        hand = C.ContextPoset(dim=built.dim, contexts=built.contexts, leq=built.leq)
        for poset, at in ((built, tol), (hand, tol), (built, Tolerance(tol.eps * 10))):
            assert_valid_as_built(Q.spectral_presheaf(poset, at).underlying)


def test_twelve_blocks_read_in_the_kernel_order():
    ctx = _generic_observable(12)
    poset = C.build_poset([ctx, next(C.coarsenings(ctx, TOL))], "intersections", TOL)
    x = Q.spectral_presheaf(poset, TOL).underlying
    assert x.sets["V01"] == (0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9)
    assert_valid_as_built(x)


def test_no_validator_calls(monkeypatch):
    calls = count_validator_calls(monkeypatch)
    for _, poset, tol in _bundled_posets():
        Q.spectral_presheaf(poset, tol)
        Q.spectral_presheaf(C.ContextPoset(dim=poset.dim, contexts=poset.contexts,
                                           leq=poset.leq), tol)
    assert calls == []
