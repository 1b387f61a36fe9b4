from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import kernel as K
from qtopos.errors import (
    BaseMismatch,
    NotGlobalElement,
    NotNatural,
    ParentMismatch,
    SizeLimit,
    ValidationError,
)

CHAIN2 = K.finposet(["bottom", "top"], [("bottom", "top")])
ANTI2 = K.finposet(["a", "b"])
ANTI3 = K.finposet(["a", "b", "c"])
POINT = K.finposet(["v"])


def _chain2_presheaf(top_pts, bottom_pts, mapping):
    return K.presheaf(CHAIN2, {"top": top_pts, "bottom": bottom_pts},
                      {("top", "bottom"): mapping})


def _constant2():
    return _chain2_presheaf(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})


class TestFinPoset:
    def test_transitive_closure_applied(self):
        poset = K.finposet(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert poset.le("a", "c")

    def test_reflexive(self):
        poset = K.finposet(["a", "b"])
        assert poset.le("a", "a") and poset.le("b", "b")

    def test_antisymmetry_enforced(self):
        with pytest.raises(ValidationError):
            K.finposet(["a", "b"], [("a", "b"), ("b", "a")])

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValidationError):
            K.finposet(["a", "a"])

    def test_unknown_pair_elements_rejected(self):
        with pytest.raises(ValidationError):
            K.finposet(["a"], [("a", "z")])

    def test_down_sets(self):
        assert CHAIN2.down("top") == ("bottom", "top")
        assert CHAIN2.down("bottom") == ("bottom",)


def _strict_pairs_by_definition(base):
    return [(u, v) for u in base.elements for v in base.elements
            if u != v and base.le(u, v)]


# The scans the element lists replaced, kept as references.
def _down_by_scan(base, v):
    return tuple(u for u in base.elements if base.le(u, v))


def _extension_desc_by_layers(base):
    placed = []
    remaining = set(base.elements)
    while remaining:
        ready = sorted(u for u in remaining
                       if not any(u != w and base.le(u, w) for w in remaining))
        placed.extend(ready)
        remaining.difference_update(ready)
    return placed


def _uppers_by_prefix_scan(base, order):
    return {u: [w for w in order[:i] if base.le(u, w)]
            for i, u in enumerate(order)}


def _assert_lists_match_the_scans(base):
    expected = _strict_pairs_by_definition(base)
    assert base.strict_pairs() == expected
    assert base.strict_down_pairs() == [(v, u) for (u, v) in expected]
    assert all(base.down(v) == _down_by_scan(base, v) for v in base.elements)
    assert K._extension_desc(base) == _extension_desc_by_layers(base)
    for order in (K._extension_desc(base), K._extension_from_top(base)):
        assert K._uppers(base, order) == _uppers_by_prefix_scan(base, order)
        # the order restricted to a down-set, as ``exponential`` takes it
        below = set(base.down(order[0]))
        part = [u for u in order if u in below]
        assert K._uppers(base, part) == _uppers_by_prefix_scan(base, part)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_strict_pairs_match_the_definition(n, density, seed):
    rng = random.Random(seed)
    # names in random order, so element order is not the order of the pairs
    names = [f"e{i:03d}" for i in rng.sample(range(1000), n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    _assert_lists_match_the_scans(K.finposet(names, pairs))


def test_strict_pairs_of_a_large_antichain_and_chain():
    antichain = K.finposet([f"e{i:04d}" for i in range(1100)])
    assert antichain.strict_pairs() == []
    _assert_lists_match_the_scans(antichain)
    names = [f"e{i:02d}" for i in range(40)]
    chain = K.finposet(reversed(names), list(zip(names, names[1:])))
    assert len(chain.strict_pairs()) == 40 * 39 // 2
    _assert_lists_match_the_scans(chain)


class TestPresheafValidation:
    def test_missing_component(self):
        with pytest.raises(ValidationError):
            K.presheaf(CHAIN2, {"top": ("x",)}, {("top", "bottom"): {"x": "x"}})

    def test_restriction_not_total(self):
        with pytest.raises(ValidationError):
            _chain2_presheaf(("x", "y"), ("x",), {"x": "x"})

    def test_restriction_lands_outside(self):
        with pytest.raises(ValidationError):
            _chain2_presheaf(("x",), ("y",), {"x": "z"})

    def test_functoriality_checked(self):
        chain3 = K.finposet(["a", "b", "c"], [("a", "b"), ("b", "c")])
        pts = ("0", "1")
        swap = {"0": "1", "1": "0"}
        ident = {"0": "0", "1": "1"}
        with pytest.raises(ValidationError, match="functoriality"):
            K.presheaf(chain3, {"a": pts, "b": pts, "c": pts},
                       {("c", "b"): swap, ("c", "a"): ident, ("b", "a"): ident})

    def test_first_broken_chain_is_named(self):
        # d < b < c < a; swapping a -> c breaks b < c < a and d < c < a,
        # and the chains below one strict pair run in element order
        chain = K.finposet(["a", "b", "c", "d"],
                           [("d", "b"), ("b", "c"), ("c", "a")])
        pts = ("0", "1")
        ident = {"0": "0", "1": "1"}
        maps = {pair: ident for pair in chain.strict_down_pairs()}
        maps[("a", "c")] = {"0": "1", "1": "0"}
        with pytest.raises(ValidationError, match=(
                "^functoriality fails on the chain 'b' < 'c' < 'a'$")):
            K.presheaf(chain, dict.fromkeys("abcd", pts), maps)

    def test_extra_restriction_rejected(self):
        with pytest.raises(ValidationError):
            K.presheaf(ANTI2, {"a": ("x",), "b": ("x",)},
                       {("a", "b"): {"x": "x"}})


class TestTerminalAndGlobalElements:
    def test_terminal_single_point(self):
        one = K.terminal(POINT)
        assert one.sets == {"v": ("*",)}

    def test_terminal_antichain(self):
        one = K.terminal(ANTI3)
        assert all(one.sets[v] == ("*",) for v in "abc")
        assert one.restrictions == {}

    def test_terminal_chain(self):
        one = K.terminal(CHAIN2)
        assert K.global_elements(one)[0].at("top", "*") == "*"
        assert len(K.global_elements(one)) == 1

    def test_empty_component_blocks_sections(self):
        x = K.presheaf(ANTI2, {"a": (), "b": ("x",)}, {})
        assert K.global_elements(x) == []

    def test_empty_component_ends_the_search_at_once(self, monkeypatch):
        # searching would take 6 nodes before reaching the empty "c"
        monkeypatch.setattr(K, "GLOBAL_SEARCH_LIMIT", 4)
        x = K.presheaf(ANTI3, {"a": ("p", "q"), "b": ("p", "q"), "c": ()}, {})
        assert K.global_elements(x) == []

    def test_constant_two_point_chain(self):
        x = _constant2()
        sections = K.global_elements(x)
        assert len(sections) == 2
        picked = sorted(s.at("top", "*") for s in sections)
        assert picked == ["a", "b"]

    def test_size_limit(self, monkeypatch):
        # top picks a, bottom follows, top picks b: the fourth node trips
        monkeypatch.setattr(K, "GLOBAL_SEARCH_LIMIT", 3)
        x = _constant2()
        with pytest.raises(SizeLimit, match="global-element search .* 3 nodes at node 4"):
            K.global_elements(x)

    def test_limit_counts_nodes_not_component_sizes(self, monkeypatch):
        # 20 two-point components below one top: 2^21 by sizes, 42 nodes here
        monkeypatch.setattr(K, "GLOBAL_SEARCH_LIMIT", 42)
        lows = [f"low{i:02d}" for i in range(20)]
        base = K.finposet(["top", *lows], [(u, "top") for u in lows])
        x = K.presheaf(base, {v: ("a", "b") for v in base.elements},
                       {("top", u): {"a": "a", "b": "b"} for u in lows})
        assert [s.at("low07", "*") for s in K.global_elements(x)] == ["a", "b"]

    def test_search_deeper_than_recursion_limit(self):
        # one search level per element, past Python's default limit of 1000
        base = K.finposet([f"e{i:04d}" for i in range(1100)])
        assert len(K.global_elements(K.terminal(base))) == 1


def _projections(base, rows):
    """Each row cut down to the elements below v; restriction drops the rest."""
    down = {v: base.down(v) for v in base.elements}
    sets = {v: {tuple(row[u] for u in down[v]) for row in rows}
            for v in base.elements}
    return K.presheaf(base, sets, {
        (frm, to): {pt: tuple(val for u, val in zip(down[frm], pt) if u in down[to])
                    for pt in sets[frm]}
        for (frm, to) in base.strict_down_pairs()})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_global_elements_match_brute_force(n, seed):
    rng = random.Random(seed)
    names = rng.sample("abcdefghij", n)  # key order unrelated to the order
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    base = K.finposet(names, pairs)
    order = K._extension_from_top(base)
    position = {u: i for i, u in enumerate(order)}
    assert sorted(order) == list(base.elements)
    assert all(position[w] < position[u] for (u, w) in base.leq if u != w)
    rows = [{u: rng.randrange(3) for u in names} for _ in range(rng.randint(1, 6))]
    for x in (K.omega(base), K.power_object(K.terminal(base)),
              _projections(base, rows)):
        brute = [dict(zip(order, pts))
                 for pts in itertools.product(*(x.sets[v] for v in order))
                 if all(x.restrict(pts[position[w]], w, u) == pts[position[u]]
                        for (u, w) in base.leq)]
        found = [{v: g.at(v, "*") for v in order} for g in K.global_elements(x)]
        assert found == brute


class TestDepthFirst:
    def test_budget_counts_every_value_taken(self):
        budget = K.NodeBudget("test search", 10)
        out = list(K.depth_first(["a", "b"], lambda e, chosen: (0, 1), budget))
        assert len(out) == 4 and budget.nodes == 6

    def test_budget_trip_names_search_limit_and_count(self):
        budget = K.NodeBudget("test search", 5)
        with pytest.raises(SizeLimit, match="test search exceeded .* 5 nodes at node 6"):
            list(K.depth_first(["a", "b"], lambda e, chosen: (0, 1), budget))

    def test_lexicographic_in_option_order(self):
        out = list(K.depth_first(["a", "b"], lambda e, chosen: (2, 1)))
        assert out == [{"a": 2, "b": 2}, {"a": 2, "b": 1},
                       {"a": 1, "b": 2}, {"a": 1, "b": 1}]

    def test_options_see_earlier_choices(self):
        def options(e, chosen):
            return range(chosen["a"] + 1, 3) if e == "b" else range(3)
        out = list(K.depth_first(["a", "b"], options))
        assert [(s["a"], s["b"]) for s in out] == [(0, 1), (0, 2), (1, 2)]

    def test_empty_order_has_one_assignment(self):
        assert list(K.depth_first([], lambda e, chosen: ())) == [{}]

    def test_dead_end_yields_nothing(self):
        out = K.depth_first(["a", "b"], lambda e, chosen: (0,) if e == "a" else ())
        assert list(out) == []

    def test_early_stop_leaves_options_unasked(self):
        asked = []

        def options(e, chosen):
            for value in (0, 1):
                asked.append((e, value))
                yield value

        first = next(K.depth_first(["a", "b"], options))
        assert first == {"a": 0, "b": 0}
        assert asked == [("a", 0), ("b", 0)]


class TestOmega:
    def test_single_point(self):
        om = K.omega(POINT)
        assert set(om.sets["v"]) == {(), ("v",)}

    def test_chain(self):
        om = K.omega(CHAIN2)
        assert len(om.sets["top"]) == 3
        assert set(om.sets["top"]) == {(), ("bottom",), ("bottom", "top")}
        assert len(om.sets["bottom"]) == 2

    def test_antichain(self):
        om = K.omega(ANTI2)
        assert len(om.sets["a"]) == 2 and len(om.sets["b"]) == 2

    def test_restriction_intersects(self):
        om = K.omega(CHAIN2)
        assert om.restrict(("bottom", "top"), "top", "bottom") == ("bottom",)
        assert om.restrict((), "top", "bottom") == ()

    def test_deep_chain_stays_small(self):
        names = [f"e{i:02d}" for i in range(30)]
        chain = K.finposet(names, list(zip(names, names[1:])))
        om = K.omega(chain)
        # A k-element principal lower set carries k + 1 sieves.
        assert len(om.sets["e29"]) == 31

    def test_component_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(K, "COMPONENT_LIMIT", 8)
        wide = K.finposet(["root", "l0", "l1", "l2", "l3"],
                          [("l0", "root"), ("l1", "root"),
                           ("l2", "root"), ("l3", "root")])
        with pytest.raises(SizeLimit):
            K.omega(wide)


class TestCharacteristic:
    def test_whole_maps_to_principal(self):
        x = _constant2()
        chi = K.characteristic(K.full_subobject(x))
        assert chi.at("top", "a") == ("bottom", "top")
        assert chi.at("bottom", "a") == ("bottom",)

    def test_empty_maps_to_empty_sieve(self):
        x = _constant2()
        chi = K.characteristic(K.empty_subobject(x))
        assert chi.at("top", "a") == ()

    def test_half_subobject(self):
        one = K.terminal(CHAIN2)
        k = K.subobject(one, {"bottom": ("*",), "top": ()})
        chi = K.characteristic(k)
        assert chi.at("top", "*") == ("bottom",)
        assert chi.at("bottom", "*") == ("bottom",)

    def test_round_trip_all_subobjects(self):
        for x in (_constant2(), K.terminal(CHAIN2), K.terminal(ANTI3),
                  _chain2_presheaf(("p", "q", "r"), ("s", "t"),
                                  {"p": "s", "q": "s", "r": "t"})):
            for k in K.all_subobjects(x):
                back = K.subobject_from_characteristic(K.characteristic(k))
                assert back.parts == k.parts

    def test_wrong_target_rejected(self):
        x = _constant2()
        ident = K.nat_transform(x, x, {
            v: {pt: pt for pt in x.sets[v]} for v in x.base.elements})
        with pytest.raises(NotNatural):
            K.subobject_from_characteristic(ident)

    def test_classifies_membership_sieve(self):
        x = _chain2_presheaf(("p", "q"), ("s",), {"p": "s", "q": "s"})
        k = K.subobject(x, {"top": ("p",), "bottom": ("s",)})
        chi = K.characteristic(k)
        assert chi.at("top", "p") == ("bottom", "top")
        assert chi.at("top", "q") == ("bottom",)


class TestHeytingSubobjects:
    def test_idempotence(self):
        x = _constant2()
        for j in K.all_subobjects(x):
            assert K.heyting_meet(j, j).parts == j.parts
            assert K.heyting_join(j, j).parts == j.parts

    def test_bounds(self):
        x = _constant2()
        zero = K.empty_subobject(x)
        one = K.full_subobject(x)
        for j in K.all_subobjects(x):
            assert K.heyting_meet(j, zero).parts == zero.parts
            assert K.heyting_join(j, one).parts == one.parts
            assert K.heyting_meet(j, one).parts == j.parts
            assert K.heyting_join(j, zero).parts == j.parts

    def test_implies_reflexive_and_unit(self):
        x = _constant2()
        one = K.full_subobject(x)
        for k in K.all_subobjects(x):
            assert K.heyting_implies(k, k).parts == one.parts
            assert K.heyting_implies(one, k).parts == k.parts

    def test_chain_terminal_implication(self):
        one = K.terminal(CHAIN2)
        j = K.subobject(one, {"bottom": ("*",), "top": ()})
        bottom = K.empty_subobject(one)
        assert K.heyting_implies(j, bottom).parts == bottom.parts

    def test_adjunction_exhaustive(self):
        x = _chain2_presheaf(("p", "q", "r"), ("s", "t"),
                             {"p": "s", "q": "s", "r": "t"})
        subs = K.all_subobjects(x)
        assert len(subs) <= 512
        for alpha, beta in itertools.product(subs, repeat=2):
            arrow = K.heyting_implies(alpha, beta)
            for gamma in subs:
                lhs = K.subobject_leq(gamma, arrow)
                rhs = K.subobject_leq(K.heyting_meet(gamma, alpha), beta)
                assert lhs == rhs

    def test_distributivity_exhaustive(self):
        x = _chain2_presheaf(("p", "q"), ("s",), {"p": "s", "q": "s"})
        subs = K.all_subobjects(x)
        for j, k, l in itertools.product(subs, repeat=3):
            left = K.heyting_meet(j, K.heyting_join(k, l))
            right = K.heyting_join(K.heyting_meet(j, k), K.heyting_meet(j, l))
            assert left.parts == right.parts

    def test_negation_extremes(self):
        x = _constant2()
        one = K.full_subobject(x)
        zero = K.empty_subobject(x)
        assert K.heyting_not(one).parts == zero.parts
        assert K.heyting_not(zero).parts == one.parts

    def test_excluded_middle_fails_on_chain(self):
        one = K.terminal(CHAIN2)
        j = K.subobject(one, {"bottom": ("*",), "top": ()})
        nj = K.heyting_not(j)
        assert nj.parts == K.empty_subobject(one).parts
        joined = K.heyting_join(j, nj)
        assert joined.parts == j.parts
        assert joined.parts != K.full_subobject(one).parts

    def test_double_negation_inflates(self):
        one = K.terminal(CHAIN2)
        j = K.subobject(one, {"bottom": ("*",), "top": ()})
        nn = K.heyting_not(K.heyting_not(j))
        assert nn.parts == K.full_subobject(one).parts

    def test_one_element_poset_is_boolean(self):
        x = K.presheaf(POINT, {"v": ("1", "2", "3")}, {})
        one = K.full_subobject(x)
        for j in K.all_subobjects(x):
            joined = K.heyting_join(j, K.heyting_not(j))
            assert joined.parts == one.parts

    def test_parent_mismatch(self):
        j = K.full_subobject(_constant2())
        k = K.full_subobject(K.terminal(CHAIN2))
        with pytest.raises(ParentMismatch):
            K.heyting_meet(j, k)


class TestSubobjectValidation:
    def test_unknown_point_rejected(self):
        x = _constant2()
        with pytest.raises(ValidationError):
            K.subobject(x, {"top": ("z",), "bottom": ()})

    def test_closure_enforced(self):
        x = _chain2_presheaf(("p",), ("s",), {"p": "s"})
        with pytest.raises(ValidationError):
            K.subobject(x, {"top": ("p",), "bottom": ()})


class TestProductAndExponential:
    def test_product_sizes(self):
        x = _constant2()
        y = K.terminal(CHAIN2)
        xy = K.product(x, y)
        assert len(xy.sets["top"]) == 2
        assert xy.sets["top"] == (("a", "*"), ("b", "*"))

    def test_product_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            K.product(K.terminal(CHAIN2), K.terminal(ANTI2))

    def test_exponent_by_terminal(self):
        for b in (_constant2(),
                  _chain2_presheaf(("p", "q", "r"), ("s", "t"),
                                  {"p": "s", "q": "s", "r": "t"})):
            power = K.exponential(K.terminal(CHAIN2), b)
            for v in b.base.elements:
                assert len(power.sets[v]) == len(b.sets[v])

    def test_single_point_function_count(self):
        a = K.presheaf(POINT, {"v": ("1", "2")}, {})
        b = K.presheaf(POINT, {"v": ("x", "y", "z")}, {})
        assert len(K.exponential(a, b).sets["v"]) == 9

    def test_component_limit(self, monkeypatch):
        monkeypatch.setattr(K, "COMPONENT_LIMIT", 2)
        b = _constant2()
        with pytest.raises(SizeLimit):
            K.exponential(b, b)

    def test_hom_bijection_spot(self):
        a = _constant2()
        b = _chain2_presheaf(("p", "q"), ("s",), {"p": "s", "q": "s"})
        c = K.terminal(CHAIN2)
        lhs = len(K.hom_set(c, K.exponential(a, b)))
        rhs = len(K.hom_set(K.product(c, a), b))
        assert lhs == rhs


class TestPowerObject:
    def test_empty_presheaf(self):
        x = K.presheaf(CHAIN2, {"top": (), "bottom": ()}, {("top", "bottom"): {}})
        px = K.power_object(x)
        assert len(K.global_elements(px)) == 1

    def test_terminal_on_chain(self):
        px = K.power_object(K.terminal(CHAIN2))
        assert len(px.sets["bottom"]) == 2
        assert len(px.sets["top"]) == 3
        assert len(K.global_elements(px)) == 3

    def test_sections_count_subobjects(self, rng):
        cases = [_constant2(),
                 _chain2_presheaf(("p", "q", "r"), ("s", "t"),
                                 {"p": "s", "q": "s", "r": "t"}),
                 K.terminal(ANTI3)]
        for x in cases:
            assert len(K.global_elements(K.power_object(x))) == \
                len(K.all_subobjects(x))

    def test_name_of_round_trip(self):
        x = _constant2()
        for k in K.all_subobjects(x):
            nm = K.name_of(k)
            bottom_entry = dict(nm.at("bottom", "*"))
            assert bottom_entry["bottom"] == k.parts["bottom"]
            top_entry = dict(nm.at("top", "*"))
            assert top_entry == k.parts


class TestTruthValues:
    def test_membership_whole_and_empty(self):
        x = _constant2()
        section = K.global_elements(x)[0]
        assert K.truth_value_membership(section, K.full_subobject(x)).is_full
        assert K.truth_value_membership(section, K.empty_subobject(x)).is_empty

    def test_membership_partial(self):
        x = _constant2()
        section = [s for s in K.global_elements(x) if s.at("top", "*") == "a"][0]
        k = K.subobject(x, {"bottom": ("a",), "top": ()})
        value = K.truth_value_membership(section, k)
        assert value.sorted_members == ("bottom",)

    def test_membership_requires_global_element(self):
        x = _constant2()
        ident = K.nat_transform(x, x, {
            v: {pt: pt for pt in x.sets[v]} for v in x.base.elements})
        with pytest.raises(NotGlobalElement):
            K.truth_value_membership(ident, K.full_subobject(x))

    def test_membership_wrong_parent(self):
        x = _constant2()
        other = K.terminal(CHAIN2)
        section = K.global_elements(other)[0]
        with pytest.raises(NotGlobalElement):
            K.truth_value_membership(section, K.full_subobject(x))

    def test_inclusion_reflexive(self):
        x = _constant2()
        for j in K.all_subobjects(x):
            assert K.truth_value_inclusion(j, j).is_full

    def test_inclusion_whole_in_empty(self):
        x = _constant2()
        value = K.truth_value_inclusion(K.full_subobject(x),
                                        K.empty_subobject(x))
        assert value.is_empty

    def test_inclusion_hereditary_failure(self):
        x = _constant2()
        j = K.subobject(x, {"bottom": ("a",), "top": ()})
        k = K.empty_subobject(x)
        # At the top the inclusion holds pointwise but fails below.
        value = K.truth_value_inclusion(j, k)
        assert value.is_empty

    def test_element_of_extremes(self):
        x = K.terminal(CHAIN2)
        px = K.power_object(x)
        full_t = K.full_subobject(px)
        empty_t = K.empty_subobject(px)
        for k in K.all_subobjects(x):
            assert K.truth_value_element_of(full_t, k).is_full
            assert K.truth_value_element_of(empty_t, k).is_empty

    def test_element_of_principal_filter(self):
        x = K.terminal(CHAIN2)
        px = K.power_object(x)
        parts = {v: tuple(enc for enc in px.sets[v]
                          if ("bottom", ("*",)) in enc)
                 for v in px.base.elements}
        t = K.subobject(px, parts)
        assert K.truth_value_element_of(t, K.full_subobject(x)).is_full
        assert K.truth_value_element_of(t, K.empty_subobject(x)).is_empty

    def test_element_of_parent_checked(self):
        x = K.terminal(CHAIN2)
        with pytest.raises(ParentMismatch):
            K.truth_value_element_of(K.full_subobject(x), K.full_subobject(x))


def _all_lowersets(base):
    out = []
    for mask in range(2 ** len(base.elements)):
        members = {v for i, v in enumerate(base.elements) if mask >> i & 1}
        if all(u in members for v in members for u in base.elements
               if base.le(u, v)):
            out.append(K.lowerset(base, members))
    return out


class TestLowerSetAlgebra:
    def test_implies_reflexive(self):
        for a in _all_lowersets(CHAIN2):
            assert K.lowerset_implies(a, a).is_full

    def test_chain_excluded_middle_witness(self):
        a = K.lowerset(CHAIN2, {"bottom"})
        na = K.lowerset_not(a)
        assert na.is_empty
        assert K.lowerset_join(a, na).sorted_members == ("bottom",)

    def test_meet_with_full(self):
        full = K.full_lowerset(CHAIN2)
        for a in _all_lowersets(CHAIN2):
            assert K.lowerset_meet(full, a).members == a.members

    def test_adjunction_on_three_element_poset(self):
        vee = K.finposet(["a", "b", "c"], [("c", "a"), ("c", "b")])
        downs = _all_lowersets(vee)
        for a, b, g in itertools.product(downs, repeat=3):
            lhs = g.members <= K.lowerset_implies(a, b).members
            rhs = (g.members & a.members) <= b.members
            assert lhs == rhs

    def test_downward_closure_validated(self):
        with pytest.raises(ValidationError):
            K.lowerset(CHAIN2, {"top"})

    def test_dispatcher(self):
        a = K.lowerset(CHAIN2, {"bottom"})
        full = K.full_lowerset(CHAIN2)
        assert K.lowerset_heyting("meet", a, full).members == a.members
        assert K.lowerset_heyting("join", a, full).is_full
        assert K.lowerset_heyting("implies", full, a).members == a.members
        assert K.lowerset_heyting("not", a).is_empty
        with pytest.raises(ValidationError):
            K.lowerset_heyting("xor", a, full)
        with pytest.raises(ValidationError):
            K.lowerset_heyting("not", a, full)
        with pytest.raises(ValidationError):
            K.lowerset_heyting("meet", a)

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            K.lowerset_meet(K.full_lowerset(CHAIN2), K.full_lowerset(ANTI2))


class TestNatTransformValidation:
    def test_naturality_enforced(self):
        x = _constant2()
        swap_top = {"a": "b", "b": "a"}
        ident = {"a": "a", "b": "b"}
        with pytest.raises(NotNatural):
            K.nat_transform(x, x, {"top": swap_top, "bottom": ident})

    def test_component_totality(self):
        x = _constant2()
        with pytest.raises(NotNatural):
            K.nat_transform(x, x, {"top": {"a": "a"},
                                   "bottom": {"a": "a", "b": "b"}})

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            K.nat_transform(K.terminal(CHAIN2), K.terminal(ANTI2), {})
