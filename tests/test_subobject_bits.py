"""A subobject is one int, ``bits``, over all points of its presheaf.

Point i of ``x(v)`` is bit ``offset(v) + i``, elements in element order
(``Presheaf._spans``).  The Heyting operations read the presheaf's cached
up-closure (``Presheaf._ups``: per point, the points that restrict to it),
which must equal a closure computed from ``restrictions`` alone.  Every
constructor's ``masks`` and ``parts`` views are keyed in element order and
round-trip through the validating ``kernel.subobject``; the implication is
a subobject and the right adjoint of the meet on every triple of small
presheaves' subobjects.  The spectral cases read ``delta_subobject``'s
flags, so this file also runs under two BLAS threads in CI.
"""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import contexts as C
from qtopos import kernel as K
from qtopos import quantum as Q
from qtopos.errors import SizeLimit, ValidationError
from qtopos.numerics import overlaps
from tests.test_kernel import (
    _random_order,
    _random_presheaf,
    _random_subobject,
    _shaped_presheaf,
)

SHAPES = st.sampled_from(("chain", "antichain", "random"))


def _points(x: K.Presheaf) -> list[tuple[str, object]]:
    """Every ``(element, point)`` of ``x`` in ``bits`` order."""
    return [(v, pt) for v in x.base.elements for pt in x.sets[v]]


def brute_up(x: K.Presheaf, start: set) -> set:
    """The points that reach ``start`` by restriction maps, ``start``
    included: a fixpoint over ``x.restrictions``, read as plain mappings."""
    found = set(start)
    while True:
        more = {(frm, pt) for (frm, to), mapping in x.restrictions.items()
                for pt, image in mapping.items() if (to, image) in found}
        if more <= found:
            return found
        found |= more


def _decode(x: K.Presheaf, bits: int) -> set:
    return {p for i, p in enumerate(_points(x)) if bits >> i & 1}


def _presheaves(draw_seed: int, n: int, shape: str) -> list[K.Presheaf]:
    rng = random.Random(draw_seed)
    return [_shaped_presheaf(rng, shape, n),
            _random_presheaf(rng, *_random_order(rng, n, rng.choice((0.2, 0.5)),
                                                 rng.random() < 0.5))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1))
def test_the_cached_up_closure_matches_a_brute_force_closure(n, shape, seed):
    rng = random.Random(seed)
    for x in _presheaves(seed, n, shape):
        points = _points(x)
        assert len(x._ups) == len(points)
        assert x._full == (1 << len(points)) - 1
        offset = 0
        for v in x.base.elements:  # the layout: element, then component order
            assert x._spans[v] == (offset, (1 << len(x.sets[v])) - 1)
            offset += len(x.sets[v])
        assert list(x._spans) == list(x.base.elements)
        for i, p in enumerate(points):
            assert _decode(x, x._ups[i]) == brute_up(x, {p})
        for _ in range(8):  # ``heyting_not`` of any bits: the rest of their up-set
            bits = rng.getrandbits(len(points)) if points else 0
            rest = K.heyting_not(K.Subobject(x, bits)).bits
            assert _decode(x, x._full & ~rest) == brute_up(x, _decode(x, bits))


def _constructed(x: K.Presheaf, rng) -> list[K.Subobject]:
    """Subobjects of ``x`` from every kernel constructor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "COMPONENT_LIMIT", 24)
        try:
            subs = K.all_subobjects(x)
        except SizeLimit:
            subs = [_random_subobject(rng, x) for _ in range(4)]
    subs += [K.full_subobject(x), K.empty_subobject(x)]
    j, k = rng.choice(subs), rng.choice(subs)
    return subs + [K.heyting_meet(j, k), K.heyting_join(j, k),
                   K.heyting_implies(j, k), K.heyting_not(j)]


def assert_views_in_element_order(subs) -> None:
    """``masks`` and ``parts`` keyed in element order, each mask the bits of
    its element, and ``kernel.subobject`` of the parts the same subobject."""
    for s in subs:
        x = s.of
        assert list(s.masks) == list(s.parts) == list(x.base.elements)
        assert s.bits == sum(m << x._spans[v][0] for v, m in s.masks.items())
        assert all(s.parts[v] == x._points(v, m) for v, m in s.masks.items())
        again = K.subobject(x, s.parts)
        assert again == s and again.bits == s.bits
        assert list(again.parts.items()) == list(s.parts.items())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1))
def test_every_kernel_constructor_keys_its_views_in_element_order(n, shape, seed):
    rng = random.Random(seed)
    for x in _presheaves(seed, n, shape):
        subs = _constructed(x, rng)
        subs.append(K.subobject(x, {v: x.sets[v] for v in reversed(x.base.elements)}))
        assert_views_in_element_order(subs)


@pytest.mark.parametrize("closure", ["intersections", "coarsenings"])
def test_spectral_subobjects_key_their_views_in_element_order(closure):
    tol = Q.Tolerance()
    poset = C.build_poset(C.builtin_scenario("mermin-square", tol)[2], closure, tol)
    presheaf = Q.spectral_presheaf(poset, tol)
    x = presheaf.underlying
    projectors = [p for c in poset.contexts if len(c.blocks) == 4
                  for p in (c.blocks[0], c.blocks[1] + c.blocks[2])]
    subs = [Q.delta_subobject(p, presheaf, tol) for p in projectors]
    subs.append(Q.pseudo_state([1, 0, 0, 0], presheaf, tol).subobject)
    # delta's one packed int is the masks its flags give context by context
    for s, p in zip(subs, projectors):
        for c in poset.contexts:
            hit = overlaps(np.stack(c.blocks), p[None], tol)[:, 0]
            assert s.masks[c.key] == sum(1 << x.sets[c.key].index(i)
                                         for i in range(len(c.blocks)) if hit[i])
    j, k = subs[0], subs[-1]
    subs += [K.heyting_meet(j, k), K.heyting_join(j, k),
             K.heyting_implies(j, k), K.heyting_not(j)]
    assert_views_in_element_order(subs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1))
def test_implication_is_right_adjoint_to_the_meet(n, shape, seed):
    rng = random.Random(seed)
    for x in _presheaves(seed, n, shape):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(K, "COMPONENT_LIMIT", 32)  # at most 32 ** 3 triples
            try:
                subs = K.all_subobjects(x)
            except SizeLimit:  # too many: the ends and 20 closed at random
                subs = [K.empty_subobject(x), K.full_subobject(x)] + [
                    _random_subobject(rng, x) for _ in range(20)]
        for j, k in itertools.product(subs, repeat=2):
            implied = K.heyting_implies(j, k)
            # a subobject, so with the adjunction the largest m below
            assert K.subobject(x, implied.parts) == implied
            for m in subs:
                assert (K.subobject_leq(m, implied)
                        == K.subobject_leq(K.heyting_meet(m, j), k))
            assert K.heyting_not(j) == K.heyting_implies(j, K.empty_subobject(x))


def _first_open_pair(x: K.Presheaf, parts: dict):
    """The first strict pair, in ``strict_down_pairs`` order, that sends a
    point of ``parts`` outside them, by reading the maps point by point."""
    for frm, to in x.base.strict_down_pairs():
        if any(x.restrict(pt, frm, to) not in parts[to] for pt in parts[frm]):
            return frm, to
    return None


def test_subobject_names_the_first_unclosed_pair():
    chain = K.finposet("abc", [("a", "b"), ("b", "c")])
    x = K.presheaf(chain, dict.fromkeys("abc", ("p",)),
                   dict.fromkeys([("b", "a"), ("c", "a"), ("c", "b")], {"p": "p"}))
    # (b, a) holds, (c, a) is the first of the two that fail
    with pytest.raises(ValidationError, match=r"^parts are not closed under "
                                              r"restriction 'c' -> 'a'$"):
        K.subobject(x, {"c": ("p",)})
    # an unknown point, then an element outside the poset, are named first
    with pytest.raises(ValidationError, match="^point 'q' at 'b' is not in the parent$"):
        K.subobject(x, {"c": ("p",), "b": ("q",)})
    with pytest.raises(ValidationError, match="^parts given for elements outside"):
        K.subobject(x, {"c": ("p",), "d": ()})


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 6), shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1))
def test_subobject_names_the_first_unclosed_pair_on_random_parts(n, shape, seed):
    rng = random.Random(seed)
    for x in _presheaves(seed, n, shape):
        parts = {v: {pt for pt in x.sets[v] if rng.random() < 0.5}
                 for v in x.base.elements}
        pair = _first_open_pair(x, parts)
        if pair is None:
            assert K.subobject(x, parts).parts == {
                v: tuple(pt for pt in x.sets[v] if pt in parts[v])
                for v in x.base.elements}
            continue
        with pytest.raises(ValidationError) as err:
            K.subobject(x, parts)
        assert str(err.value) == (f"parts are not closed under restriction "
                                  f"{pair[0]!r} -> {pair[1]!r}")
