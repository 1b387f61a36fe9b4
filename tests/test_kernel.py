from __future__ import annotations

import importlib.util
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtopos import contexts as C
from qtopos import kernel as K
from qtopos import quantum as Q
from qtopos.errors import (
    BaseMismatch,
    NotNatural,
    ParentMismatch,
    SizeLimit,
    ValidationError,
)
from tests.conftest import random_unitary

CHAIN2 = K.finposet(["bottom", "top"], [("bottom", "top")])
ANTI2 = K.finposet(["a", "b"])
ANTI3 = K.finposet(["a", "b", "c"])
POINT = K.finposet(["v"])
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _chain2_presheaf(top_pts, bottom_pts, mapping):
    return K.presheaf(CHAIN2, {"top": top_pts, "bottom": bottom_pts},
                      {("top", "bottom"): mapping})


def _constant2():
    return _chain2_presheaf(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})


# The classifying arrow, its pull-back and the name of a subobject, kept here
# as the oracles that ``omega`` and ``power_object`` must agree with.
def characteristic(k: K.Subobject) -> K.NatTransform:
    """The classifying arrow of a subobject, landing in ``omega``."""
    x = k.of
    om = K.omega(x.base)
    comps = {}
    for v in x.base.elements:
        dv = x.base.down(v)
        comps[v] = {pt: tuple(u for u in dv
                              if x.restrict(pt, v, u) in k.parts[u])
                    for pt in x.sets[v]}
    return K.nat_transform(x, om, comps)


def subobject_from_characteristic(chi: K.NatTransform) -> K.Subobject:
    """Pull the maximal sieve back along a classifying arrow."""
    x = chi.source
    if chi.target != K.omega(x.base):
        raise NotNatural("arrow does not land in the subobject classifier")
    parts = {}
    for v in x.base.elements:
        principal = x.base.down(v)
        parts[v] = tuple(pt for pt in x.sets[v]
                         if chi.components[v][pt] == principal)
    return K.subobject(x, parts)


def name_of(k: K.Subobject) -> K.NatTransform:
    """The global element of the power object that picks out ``k``."""
    x = k.of
    px = K.power_object(x)
    comps = {v: {"*": tuple((u, k.parts[u]) for u in sorted(x.base.down(v)))}
             for v in x.base.elements}
    return K.nat_transform(K.terminal(x.base), px, comps)


def _image(point: K.NatTransform) -> K.Subobject:
    """The subobject a global element picks out: its one point everywhere."""
    x = point.target
    return K.subobject(x, {v: (point.components[v]["*"],) for v in x.base.elements})


def count_validator_calls(monkeypatch) -> list[str]:
    """Wrap the validating constructors; each call appends its name."""
    calls: list[str] = []
    for name in ("finposet", "presheaf", "subobject", "nat_transform", "lowerset"):
        def counting(*args, _name=name, _real=getattr(K, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(K, name, counting)
    return calls


def assert_valid_as_built(x: K.Presheaf) -> None:
    """The validating ``presheaf`` accepts a presheaf the package built
    directly and gives back an equal one, with its keys in the same order."""
    again = K.presheaf(x.base, x.sets, x.restrictions)
    assert again == x
    assert list(again.sets) == list(x.sets)
    assert list(again.restrictions) == list(x.restrictions)


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
    """For each element, the earlier elements of ``order`` above it."""
    return {u: [w for w in order[:i] if base.le(u, w)]
            for i, u in enumerate(order)}


def _assert_lists_match_the_scans(base):
    expected = _strict_pairs_by_definition(base)
    assert base.strict_pairs() == expected
    assert base.strict_down_pairs() == [(v, u) for (u, v) in expected]
    assert all(base.down(v) == _down_by_scan(base, v) for v in base.elements)
    assert list(base._descending) == _extension_desc_by_layers(base)


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

    def test_restrictions_are_keyed_in_canonical_order(self):
        vee = K.finposet(["a", "b", "c", "d"], [("a", "d"), ("b", "d"), ("c", "b")])
        maps = {pair: {"*": "*"} for pair in reversed(vee.strict_down_pairs())}
        given_ = K.presheaf(vee, dict.fromkeys("abcd", ("*",)), maps)
        square = C.build_poset(C.builtin_scenario("mermin-square")[2], "coarsenings")
        built = [given_, K.omega(vee), K.power_object(K.terminal(vee)),
                 K.exponential(K.terminal(vee), K.omega(vee)),
                 K.product(K.omega(vee), given_),
                 Q.spectral_presheaf(square).underlying]
        for x in built:
            assert list(x.sets) == list(x.base.elements)
            assert list(x.restrictions) == x.base.strict_down_pairs()


# d sits above a, b and c with no maps given; x and y both miss their lower
# element.  Each error must name the first offender in element order,
# whatever the hash seed.
HASH_SEED_SCRIPT = """
from qtopos import kernel as K
from qtopos.errors import ValidationError
top = K.finposet("abcd", [(u, "d") for u in "abc"])
vee = K.finposet("abxy", [("a", "x"), ("b", "y")])
for make in (lambda: K.presheaf(top, dict.fromkeys("abcd", ("*",)), {}),
             lambda: K.lowerset(vee, {"y", "x"})):
    try:
        make()
    except ValidationError as exc:
        print(exc)
"""


def test_validation_errors_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == (
        "missing restriction map for ('d', 'a')\n"
        "not downward closed: 'x' is in but 'a' below it is not\n")


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
        assert K.global_elements(one)[0].components["top"]["*"] == "*"
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
        picked = sorted(s.components["top"]["*"] for s in sections)
        assert picked == ["a", "b"]

    def test_size_limit(self, monkeypatch):
        # top picks a, then b (bottom follows by restriction): the second trips
        monkeypatch.setattr(K, "GLOBAL_SEARCH_LIMIT", 1)
        x = _constant2()
        with pytest.raises(SizeLimit, match="global-element search .* 1 nodes at node 2"):
            K.global_elements(x)

    def test_limit_counts_nodes_not_component_sizes(self, monkeypatch):
        # 20 two-point components below one top: 2^21 by sizes, 2 nodes here
        monkeypatch.setattr(K, "GLOBAL_SEARCH_LIMIT", 2)
        lows = [f"low{i:02d}" for i in range(20)]
        base = K.finposet(["top", *lows], [(u, "top") for u in lows])
        x = K.presheaf(base, {v: ("a", "b") for v in base.elements},
                       {("top", u): {"a": "a", "b": "b"} for u in lows})
        assert [s.components["low07"]["*"] for s in K.global_elements(x)] == ["a", "b"]

    def test_search_deeper_than_recursion_limit(self):
        # one search level per element, past Python's default limit of 1000
        base = K.finposet([f"e{i:04d}" for i in range(1100)])
        assert len(K.global_elements(K.terminal(base))) == 1


def _projections(base, rows, present=None):
    """Each row cut down to the elements below v; restriction drops the rest.
    Row ``i`` appears only on the lower set ``present[i]``, if given."""
    down = {v: base.down(v) for v in base.elements}
    sets = {v: {tuple(row[u] for u in down[v]) for i, row in enumerate(rows)
                if present is None or v in present[i]}
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
    order = list(base._descending)
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
        found = [{v: g.components[v]["*"] for v in order} for g in K.global_elements(x)]
        assert found == brute


# ``depth_first`` as it was before it handed out blocks, kept verbatim as the
# engine of the references below, so that they do not run on the code they
# check.
def reference_depth_first(order, options, budget: K.NodeBudget | None = None):
    """Every assignment to ``order`` that ``options`` allows, depth first.

    ``options(element, chosen)`` gives the values open to ``element``; it may
    read ``chosen`` only at the elements before it in ``order``.  Assignments
    come out as fresh dicts keyed in ``order``, ordered lexicographically by
    the option sequences.  The search keeps an explicit stack and asks for
    options lazily, so a caller that stops early leaves the rest unasked.
    Each value taken is one node of ``budget``; past its limit, ``SizeLimit``.
    """
    if not order:
        yield {}
        return
    last = len(order) - 1
    chosen: dict = {}
    stack = [iter(options(order[0], chosen))]
    while stack:
        depth = len(stack) - 1
        for value in stack[-1]:
            if budget is not None:
                budget.nodes += 1
                if budget.nodes > budget.limit:
                    raise SizeLimit(f"{budget.search} exceeded its limit of "
                                    f"{budget.limit} nodes at node {budget.nodes}")
            chosen[order[depth]] = value
            if depth == last:
                yield dict(chosen)
            else:
                stack.append(iter(options(order[depth + 1], chosen)))
                break
        else:
            stack.pop()


# The global-section search before arc consistency, kept verbatim (with the
# engine's natural-family helper and the element order it ran on) as the
# reference that ``global_sections`` must list the same sections as, in the
# same order.  The natural-family helper is also the reference for
# ``hom_set`` and ``exponential``, which it used to serve.
def _reference_extension_from_top(base: K.FinPoset) -> list[str]:
    """Maximal elements, each other element right after its last upper (the
    last placed element above it), ties in key order; O(elements + pairs)."""
    waiting = {u: len(base.up(u)) - 1 for u in base.elements}
    placed: list[str] = []
    stack = [u for u in reversed(base.elements) if not waiting[u]]
    while stack:
        placed.append(stack.pop())
        # the placed element itself drops to -1 and is never pushed again
        for u in reversed(base.down(placed[-1])):
            waiting[u] -= 1
            if not waiting[u]:
                stack.append(u)
    return placed


def _reference_natural_families(x, y, order, budget=None):
    uppers = _uppers_by_prefix_scan(x.base, order)

    def options(u, chosen):
        fixed: dict = {}
        for w in uppers[u]:
            fw = chosen[w]
            for pt in x.sets[w]:
                image = y.restrict(fw[pt], w, u)
                if fixed.setdefault(x.restrict(pt, w, u), image) != image:
                    return
        points = x.sets[u]
        for images in itertools.product(*((fixed[pt],) if pt in fixed
                                          else y.sets[u] for pt in points)):
            yield dict(zip(points, images))

    return reference_depth_first(order, options, budget)


def reference_global_sections(x, budget):
    """Every global section of ``x``, lazily, as a dict element -> point.

    Points are picked only at maximal elements (``_extension_from_top``)."""
    if any(not pts for pts in x.sets.values()):
        return
    one = K.terminal(x.base)
    for fam in _reference_natural_families(
            one, x, _reference_extension_from_top(x.base), budget):
        yield {v: f["*"] for v, f in fam.items()}


def _random_presheaf(rng, names, pairs):
    """``_projections`` of random rows, each present on a random lower set:
    components may be empty, and then so is every one above them."""
    base = K.finposet(names, pairs)
    rows, present = [], []
    for _ in range(rng.randint(0, 7)):
        tops = (names if rng.random() < 0.5
                else rng.sample(names, rng.randint(0, len(names))))
        present.append({u for v in tops for u in base.down(v)})
        rows.append({u: rng.randrange(rng.choice((2, 3))) for u in names})
    return _projections(base, rows, present)


def _relabelled(x, names):
    base = K.finposet([names[v] for v in x.base.elements],
                      [(names[u], names[v]) for (u, v) in x.base.leq])
    return K.presheaf(base, {names[v]: pts for v, pts in x.sets.items()},
                      {(names[frm], names[to]): m
                       for (frm, to), m in x.restrictions.items()})


def _random_order(rng, n, density, layered):
    """``n`` names in random key order and order pairs between them."""
    names = rng.sample("abcdefghij", n)
    # layered: only pairs from a lower half to an upper half, so many
    # maximal elements share lower ones and the search has arcs to revise
    cut = rng.randint(1, max(1, n - 1)) if layered else n
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if (j >= cut or not layered) and i < cut
             and rng.random() < (0.5 if layered else density)]
    return names, pairs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), density=st.sampled_from((0.0, 0.2, 0.4, 0.7)),
       layered=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_global_sections_match_the_reference_search(n, density, layered, seed):
    rng = random.Random(seed)
    names, pairs = _random_order(rng, n, density, layered)
    x = _random_presheaf(rng, names, pairs)
    ours, theirs = K.NodeBudget("new", 10 ** 6), K.NodeBudget("old", 10 ** 6)
    found = [dict(zip(x.base.elements, row)) for row in K.global_sections(x, ours)]
    assert found == list(reference_global_sections(x, theirs))
    assert ours.nodes <= theirs.nodes
    one = K.terminal(x.base)
    assert K.global_elements(x) == [
        K.nat_transform(one, x, {v: {"*": pt} for v, pt in s.items()})
        for s in found]
    # another key order searches in another order, for the same sections
    fresh = rng.sample("klmnopqrst", n)
    names = dict(zip(x.base.elements, fresh))
    back = {new: old for old, new in names.items()}
    other = _relabelled(x, names)
    relabelled = K.global_sections(other, K.NodeBudget("r", 10 ** 6))
    assert ({frozenset((back[v], pt) for v, pt in zip(other.base.elements, row))
             for row in relabelled} == {frozenset(s.items()) for s in found})


# The MAC search as it was before its domains were int masks and its leaves
# came block-wise, kept verbatim (on ``reference_depth_first``): the same
# sections in the same order, after the same number of nodes.
def reference_arcs(x: K.Presheaf, tops) -> dict:
    """Per maximal ``v`` in ``tops``, ``(w, mine, theirs)`` for each maximal
    ``w`` sharing a lower element with it (found from the elements' maximal
    uppers).  ``mine`` and ``theirs`` send points at ``v`` and ``w`` to their
    restrictions to the pair's maximal common lower elements; two points agree
    on every common lower element iff these are equal (functoriality)."""
    base = x.base
    common: dict = {}
    for u in base.elements:
        for pair in itertools.combinations(
                [w for w in base.up(u) if w in tops], 2):
            common.setdefault(pair, {})[u] = None
    arcs: dict = {v: [] for v in tops}
    for (a, b), lower in common.items():
        meets = [u for u in lower
                 if not any(w in lower for w in base.up(u) if w != u)]
        sig = {v: {pt: tuple(x.restrict(pt, v, u) for u in meets)
                   for pt in x.sets[v]} for v in (a, b)}
        arcs[a].append((b, sig[a], sig[b]))
        arcs[b].append((a, sig[b], sig[a]))
    return arcs


def reference_revise(arcs: dict, domains: dict, changed: dict) -> dict | None:
    """AC-3 from the ``changed`` elements, each revising its neighbours'
    domains in turn: ``domains`` narrowed, or None once one runs empty."""
    while changed:
        v = changed.popitem()[0]
        for w, mine, theirs in arcs[v]:
            support = {mine[pt] for pt in domains[v]}
            kept = [pt for pt in domains[w] if theirs[pt] in support]
            if not kept:
                return None
            if len(kept) < len(domains[w]):
                domains[w], changed[w] = kept, None
    return domains


def reference_mac_global_sections(x: K.Presheaf, budget: K.NodeBudget | None = None):
    """Every global section of ``x``, lazily, as a dict element -> point.

    MAC: picks at the maximal elements in key order, points in component
    order, offering only those that survive AC-3 with the earlier picks
    fixed; the other elements follow by restriction (keys in element
    order).  AC-3 drops no point of a section, so sections come out in
    the lexicographic order of the picks.  A node of ``budget``, if given, is
    one pick; AC-3 is polynomial per node, so the cap bounds the whole work.
    """
    if any(not pts for pts in x.sets.values()):
        return
    base = x.base
    tops = {v: i for i, v in enumerate(
        u for u in base.elements if len(base.up(u)) == 1)}
    order, arcs = list(tops), reference_arcs(x, tops)
    states = [reference_revise(arcs, {v: list(x.sets[v]) for v in tops},
                               dict.fromkeys(tops))]

    def options(v, chosen):  # states[d]: the domains with d picks fixed
        depth = tops[v]
        if depth:
            del states[depth:]
            last = order[depth - 1]
            states.append(reference_revise(arcs, {**states[-1], last: [chosen[last]]},
                                           {last: None}))
        return states[depth][v] if states[depth] else ()

    lift = {u: next(w for w in base.up(u) if w in tops) for u in base.elements}
    for picks in reference_depth_first(order, options, budget):
        yield {u: x.restrict(picks[w], w, u) for u, w in lift.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), density=st.sampled_from((0.0, 0.2, 0.4, 0.7)),
       layered=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(1, 12))
def test_global_sections_match_the_mac_reference(n, density, layered, seed, k):
    rng = random.Random(seed)
    names, pairs = _random_order(rng, n, density, layered)
    x = _random_presheaf(rng, names, pairs)
    for stop in (None, k):  # in full, then stopping at the k-th section
        ours, theirs = K.NodeBudget("new", 10 ** 6), K.NodeBudget("old", 10 ** 6)
        found = [dict(zip(x.base.elements, row))
                 for row in itertools.islice(K.global_sections(x, ours), stop)]
        expected = list(itertools.islice(reference_mac_global_sections(x, theirs), stop))
        assert found == expected
        assert [list(s) for s in found] == [list(s) for s in expected]
        assert ours.nodes == theirs.nodes


def _graphs(families, x, elems) -> list:
    """Each family ``f_u : x(u) -> y(u)`` over ``elems`` as a hashable graph,
    encoded as ``exponential`` encodes its points."""
    return [tuple((u, tuple((pt, fam[u][pt]) for pt in x.sets[u])) for u in elems)
            for fam in families]


def _reference_families(x, y, elems) -> list:
    order = [u for u in _reference_extension_from_top(x.base) if u in elems]
    return _graphs(_reference_natural_families(x, y, order), x, elems)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 7), density=st.sampled_from((0.0, 0.2, 0.4, 0.7)),
       layered=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_hom_sets_and_exponentials_match_the_reference_search(
        n, density, layered, seed):
    rng = random.Random(seed)
    names, pairs = _random_order(rng, n, density, layered)
    x, y = _random_presheaf(rng, names, pairs), _random_presheaf(rng, names, pairs)
    # the reference enumerates every free point of x(u), so keep it small
    assume(math.prod(max(1, len(y.sets[v])) ** len(x.sets[v])
                     for v in names) <= 10 ** 4)
    base = x.base
    found = _graphs((t.components for t in K.hom_set(x, y)), x, base.elements)
    expected = _reference_families(x, y, base.elements)
    assert len(set(found)) == len(found)
    assert set(found) == set(expected)
    power = K.exponential(x, y)
    for v in base.elements:
        assert power.sets[v] == K._sorted_points(
            _reference_families(x, y, base.down(v)))
    for (frm, to) in base.strict_down_pairs():
        below = set(base.down(to))
        assert power.restrictions[(frm, to)] == {
            pt: tuple(entry for entry in pt if entry[0] in below)
            for pt in power.sets[frm]}


def _hom_space(x, y) -> int:
    return math.prod(max(1, len(y.sets[v])) ** len(x.sets[v]) for v in x.base.elements)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), density=st.sampled_from((0.0, 0.2, 0.4, 0.7)),
       layered=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_constructions_equal_their_validated_copies(n, density, layered, seed):
    # what the kernel builds directly, the validators accept unchanged
    rng = random.Random(seed)
    names, pairs = _random_order(rng, n, density, layered)
    x, y = _random_presheaf(rng, names, pairs), _random_presheaf(rng, names, pairs)
    om = K.omega(x.base)
    small = sum(map(len, x.sets.values())) <= 10
    built = [om, K.product(x, y), K.product(y, om)]
    if small:
        built.append(K.power_object(x))
    if _hom_space(x, y) <= 10 ** 4:
        built.append(K.exponential(x, y))
    for z in built:
        assert_valid_as_built(z)
    arrows = [t for target in (y, om) if _hom_space(x, target) <= 10 ** 4
              for t in K.hom_set(x, target)]
    for t in arrows:
        again = K.nat_transform(t.source, t.target, t.components)
        assert again == t and list(again.components) == list(t.components)
    subs = (K.all_subobjects(x) if small
            else [K.full_subobject(x), K.empty_subobject(x)])
    for _ in range(20):
        value = K.truth_value_inclusion(rng.choice(subs), rng.choice(subs))
        assert K.lowerset(value.base, value.members) == value


def test_arrows_of_the_corpus_slots_equal_their_validated_copies(tmp_path):
    # the first 12 seed-7 slots of ``tools/kernel_corpus.py``: each arrow is
    # built as a row, and its components give back the same row when validated
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", SRC.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    checked = 0
    for op in gen.make_inputs("kernel-count", 7, tmp_path)["ops"][:12]:
        base = K.finposet(op["elements"], op["pairs"])
        x, a, b, c = (K.presheaf(base, op[key]["sets"], {
            (frm, to): dict(mapping) for frm, to, mapping in op[key]["restrictions"]})
            for key in "XABC")
        for make in (lambda: K.global_elements(K.power_object(x)),
                     lambda: K.hom_set(x, K.omega(base)),
                     lambda: K.hom_set(c, K.exponential(a, b)),
                     lambda: K.hom_set(K.product(c, a), b)):
            try:
                arrows = make()
            except SizeLimit:
                continue
            for t in arrows:
                again = K.nat_transform(t.source, t.target, t.components)
                assert again == t and again.row == t.row
            checked += len(arrows)
    assert checked == 5817


def test_constructions_call_no_validator(monkeypatch):
    vee = K.finposet(["a", "b", "c"], [("a", "b"), ("a", "c")])
    x = _projections(vee, [{"a": 0, "b": 0, "c": 1}, {"a": 1, "b": 0, "c": 0}])
    calls = count_validator_calls(monkeypatch)
    om = K.omega(vee)
    power, prod = K.power_object(x), K.product(x, om)
    K.exponential(x, om)
    K.hom_set(x, om)
    K.hom_set(prod, x)
    K.global_elements(power)
    subs = K.all_subobjects(x)
    for j, k in itertools.product(subs, repeat=2):
        K.truth_value_inclusion(j, k)
    assert calls == []


class TestHomSetEdges:
    VEE = K.finposet(["a", "b", "c"], [("a", "b"), ("a", "c")])

    def test_empty_source_has_one_transformation(self):
        for base in (self.VEE, ANTI3, CHAIN2):
            x = K.presheaf(base, {v: () for v in base.elements},
                           {pair: {} for pair in base.strict_down_pairs()})
            y = _constant2() if base == CHAIN2 else K.terminal(base)
            (only,) = K.hom_set(x, y)
            assert only.components == {v: {} for v in base.elements}
            assert all(len(pts) == 1 for pts in K.exponential(x, y).sets.values())

    def test_empty_target_under_a_point_has_none(self):
        x = K.terminal(self.VEE)
        y = K.presheaf(self.VEE, {"a": ("p",), "b": ("q",), "c": ()},
                       {("b", "a"): {"q": "p"}, ("c", "a"): {}})
        assert K.hom_set(x, y) == []
        power = K.exponential(x, y)
        assert [len(power.sets[v]) for v in "abc"] == [1, 1, 0]

    @pytest.mark.parametrize("wide, narrow", [("a", "b"), ("b", "a")])
    def test_empty_target_answers_before_the_size_bound(self, wide, narrow):
        # 5 ** 12 maps at the wide element pass the search bound, but the one
        # point at the narrow element has nowhere to go, in either key order
        x = K.presheaf(ANTI2, {wide: range(12), narrow: ("p",)}, {})
        y = K.presheaf(ANTI2, {wide: range(5), narrow: ()}, {})
        assert K.hom_set(x, y) == []


# ``_relative_subobjects`` as it was before it ran on bit masks, kept
# verbatim as the reference: the same families, in the same order.
def reference_relative_subobjects(x, elems):
    """All families S(u) <= x(u) over ``elems`` closed under restriction."""
    order = [u for u in x.base._descending if u in elems]
    uppers = _uppers_by_prefix_scan(x.base, order)

    def options(u, chosen):
        forced = set()
        for w in uppers[u]:
            forced.update(x.restrict(pt, w, u) for pt in chosen[w])
        free = [pt for pt in x.sets[u] if pt not in forced]
        for mask in range(2 ** len(free)):
            yield K._sorted_points(forced.union(
                pt for i, pt in enumerate(free) if mask >> i & 1))

    families: list[dict] = []
    for fam in reference_depth_first(order, options):
        families.append(fam)
        if len(families) > K.COMPONENT_LIMIT:
            raise SizeLimit(f"more than {K.COMPONENT_LIMIT} relative subobjects")
    return families


def reference_relative_masks(x, elems):
    """The reference's families, each as a ``Subobject``'s ``bits`` (point
    ``i`` of ``x(u)`` is bit ``i`` past ``u``'s offset)."""
    return [sum(1 << x._spans[u][0] + x.sets[u].index(pt)
                for u, pts in fam.items() for pt in pts)
            for fam in reference_relative_subobjects(x, elems)]


def _outcome(build):
    """What ``build()`` gives, key order included, or its ``SizeLimit``."""
    try:
        out = build()
    except SizeLimit as exc:
        return str(exc)
    if isinstance(out, K.Presheaf):
        return list(out.sets.items()), list(out.restrictions.items())
    return [list(fam.parts.items()) if isinstance(fam, K.Subobject) else fam
            for fam in out]


def _shaped_presheaf(rng, shape, n):
    """A presheaf on a chain, an antichain or a random order of ``n`` names
    in random key order: ``_projections`` of up to 6 rows, each on a random
    lower set, so components hold 0-6 points."""
    names = rng.sample("abcdefghij", n)
    if shape == "chain":
        pairs = list(zip(names, names[1:]))
    elif shape == "antichain":
        pairs = []
    else:
        pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
    base = K.finposet(names, pairs)
    spread = rng.choice((2, 3, 6, None))  # None: rows differ everywhere
    rows, present = [], []
    for i in range(rng.randint(0, 6)):
        tops = (names if rng.random() < 0.5
                else rng.sample(names, rng.randint(0, n)))
        present.append({u for v in tops for u in base.down(v)})
        rows.append({u: i if spread is None else rng.randrange(spread)
                     for u in names})
    return _projections(base, rows, present)


def _relative_builds(n, shape, cut, seed):
    """Elements of a ``_shaped_presheaf`` draw, cut as ``cut`` says, and the
    four builds that enumerate relative subobjects on the draw."""
    rng = random.Random(seed)
    x = _shaped_presheaf(rng, shape, n)
    base = x.base
    if cut == "all":
        elems = base.elements
    elif cut == "down":
        elems = base.down(rng.choice(base.elements))
    else:  # the down-closure of a random set, often a proper down-set
        tops = rng.sample(base.elements, rng.randint(0, n))
        elems = tuple(u for u in base.elements
                      if any(base.le(u, v) for v in tops))
    return elems, (lambda: K._relative_subobjects(x, elems),
                   lambda: K.all_subobjects(x),
                   lambda: K.omega(base),
                   lambda: K.power_object(x))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), shape=st.sampled_from(("chain", "antichain", "random")),
       cut=st.sampled_from(("all", "down", "lower")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_relative_subobjects_match_the_reference(n, shape, cut, seed):
    _, builds = _relative_builds(n, shape, cut, seed)
    with pytest.MonkeyPatch.context() as mp:
        # both sides stop at the same count where the families are too many
        mp.setattr(K, "COMPONENT_LIMIT", 4096)
        found = [_outcome(build) for build in builds]
        mp.setattr(K, "_relative_subobjects", reference_relative_masks)
        expected = [_outcome(build) for build in builds]
    assert found == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), shape=st.sampled_from(("chain", "antichain", "random")),
       cut=st.sampled_from(("all", "down", "lower")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_relative_subobject_limit_trips_just_past_the_count(n, shape, cut, seed):
    # N, the most families the reference makes in one call of a build: a
    # limit of N builds the reference's result, one of N - 1 refuses it with
    # the reference's message.  ``_relative_subobjects`` returns the one
    # empty family over no elements without counting it, so the cut to no
    # elements has no N - 1 case.
    counts: list[int] = []

    def counted(x, elems):
        families = reference_relative_masks(x, elems)
        counts.append(len(families))
        return families

    elems, builds = _relative_builds(n, shape, cut, seed)
    for build in builds:
        counts.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(K, "COMPONENT_LIMIT", 4096)  # the reference draws' cap
            mp.setattr(K, "_relative_subobjects", counted)
            expected = _outcome(build)
        if isinstance(expected, str):
            continue  # past the cap: N is not known
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(K, "COMPONENT_LIMIT", max(counts))
            assert _outcome(build) == expected
            if not elems and build is builds[0]:
                continue
            mp.setattr(K, "COMPONENT_LIMIT", max(counts) - 1)
            with pytest.raises(SizeLimit, match=f"^more than {max(counts) - 1} "
                                                "relative subobjects$"):
                build()


# The Heyting operations, ``subobject_leq`` and ``truth_value_inclusion`` as
# they were on tuples of points, kept verbatim as the reference for the mask
# operations; ``_TupleSubobject`` is the ``Subobject`` they built.
@dataclass(frozen=True)
class _TupleSubobject:
    of: K.Presheaf
    parts: dict


def reference_empty_subobject(x: K.Presheaf) -> _TupleSubobject:
    return _TupleSubobject(of=x, parts={v: () for v in x.base.elements})


def reference_heyting_meet(j, k) -> _TupleSubobject:
    x = K._same_parent(j, k)
    return _TupleSubobject(of=x, parts={
        v: tuple(pt for pt in j.parts[v] if pt in k.parts[v])
        for v in x.base.elements})


def reference_heyting_join(j, k) -> _TupleSubobject:
    x = K._same_parent(j, k)
    return _TupleSubobject(of=x, parts={
        v: K._sorted_points(set(j.parts[v]) | set(k.parts[v]))
        for v in x.base.elements})


def reference_heyting_implies(j, k) -> _TupleSubobject:
    """Largest subobject whose meet with ``j`` lies inside ``k``."""
    x = K._same_parent(j, k)
    parts = {}
    for v in x.base.elements:
        good = []
        for pt in x.sets[v]:
            ok = True
            for u in x.base.down(v):
                y = x.restrict(pt, v, u)
                if y in j.parts[u] and y not in k.parts[u]:
                    ok = False
                    break
            if ok:
                good.append(pt)
        parts[v] = tuple(good)
    return _TupleSubobject(of=x, parts=parts)


def reference_heyting_not(j) -> _TupleSubobject:
    return reference_heyting_implies(j, reference_empty_subobject(j.of))


def reference_subobject_leq(j, k) -> bool:
    x = K._same_parent(j, k)
    return all(set(j.parts[v]) <= set(k.parts[v]) for v in x.base.elements)


def reference_truth_value_inclusion(j, k) -> K.LowerSet:
    """Hereditary inclusion [[ j <= k ]]: a hereditary set is a lower set."""
    x = K._same_parent(j, k)
    return K.LowerSet(x.base, frozenset(
        v for v in x.base.elements
        if all(set(j.parts[u]) <= set(k.parts[u]) for u in x.base.down(v))))


def assert_heyting_matches_the_reference(subs):
    """Every operation on every pair of ``subs``: the same parts as the tuple
    reference, key order included, the same order and the same truth value."""
    for j in subs:
        assert list(K.heyting_not(j).parts.items()) == list(
            reference_heyting_not(j).parts.items())
        for k in subs:
            for live, ref in ((K.heyting_meet, reference_heyting_meet),
                              (K.heyting_join, reference_heyting_join),
                              (K.heyting_implies, reference_heyting_implies)):
                assert list(live(j, k).parts.items()) == list(ref(j, k).parts.items())
            assert K.subobject_leq(j, k) == reference_subobject_leq(j, k)
            assert (K.truth_value_inclusion(j, k)
                    == reference_truth_value_inclusion(j, k))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), shape=st.sampled_from(("chain", "antichain", "random")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_heyting_operations_match_the_tuple_reference(n, shape, seed):
    x = _shaped_presheaf(random.Random(seed), shape, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "COMPONENT_LIMIT", 48)  # all pairs stay quick
        try:
            subs = K.all_subobjects(x)
        except SizeLimit:
            assume(False)
    assert_heyting_matches_the_reference(subs)


def test_masks_follow_the_component_order_past_ten_blocks():
    # the spectral presheaf sorts block indices by repr, 0, 1, 10, 11, 2, ...
    # in a 12-block context, so block i is bit ``sets.index(i)``, not bit i
    u = random_unitary(12, np.random.default_rng(12))
    rank1 = [np.outer(u[:, i], u[:, i].conj()) for i in range(12)]
    fine = C.make_context(rank1)
    coarse = C.make_context(rank1[:10] + [rank1[10] + rank1[11]])
    presheaf = Q.spectral_presheaf(C.build_poset([fine, coarse], "intersections"))
    x = presheaf.underlying
    ctx = next(c for c in presheaf.poset.contexts if len(c.blocks) == 12)
    key = ctx.key
    assert x.sets[key][:5] == (0, 1, 10, 11, 2)
    subs = [K.empty_subobject(x), K.full_subobject(x),
            Q.pseudo_state(u[:, 11], presheaf).subobject]
    for blocks in ((0, 3, 10, 11), (2, 10), (1, 11), (11,)):
        sub = Q.delta_subobject(sum(ctx.blocks[i] for i in blocks), presheaf)
        assert sub.masks[key] == sum(1 << x.sets[key].index(i) for i in blocks)
        assert sub.parts[key] == tuple(i for i in x.sets[key] if i in blocks)
        assert sub == K.subobject(x, sub.parts)
        subs.append(sub)
    assert_heyting_matches_the_reference(subs)


# ``heyting_implies`` as it was before it read ``Presheaf._preimages``, kept
# verbatim: it walks every pair u <= v with a generator per point.
def reference_mask_heyting_implies(j: K.Subobject, k: K.Subobject) -> K.Subobject:
    """Largest subobject whose meet with ``j`` lies inside ``k``: at ``v``, the
    points whose restriction to each ``u <= v`` misses ``j(u) - k(u)``."""
    x = K._same_parent(j, k)
    bad = {u: j.masks[u] & ~k.masks[u] for u in x.base.elements}
    masks = {}
    for v in x.base.elements:
        pts = x.sets[v]
        keep = (1 << len(pts)) - 1 & ~bad[v]
        for u in x.base.down(v):
            if not keep:
                break
            if bad[u] and u != v:
                bits, mapping = x._bits[u], x.restrictions[v, u]
                keep &= ~sum(1 << i for i, pt in enumerate(pts)
                             if bits[mapping[pt]] & bad[u])
        masks[v] = keep
    return K.Subobject(x, sum(masks[v] << x._spans[v][0] for v in masks))


def assert_implication_matches_the_mask_reference(subs):
    """``heyting_implies`` on every pair of ``subs`` and ``heyting_not`` on
    each: the reference's masks, in its key order."""
    for j in subs:
        empty = K.empty_subobject(j.of)
        assert list(K.heyting_not(j).masks.items()) == list(
            reference_mask_heyting_implies(j, empty).masks.items())
        for k in subs:
            assert list(K.heyting_implies(j, k).masks.items()) == list(
                reference_mask_heyting_implies(j, k).masks.items())


def _random_subobject(rng, x: K.Presheaf) -> K.Subobject:
    """Random points at every element, closed under restriction."""
    parts = {v: {pt for pt in x.sets[v] if rng.random() < 0.4}
             for v in x.base.elements}
    for v in x.base.elements:
        for u in x.base.down(v):
            parts[u] |= {x.restrict(pt, v, u) for pt in parts[v]}
    return K.subobject(x, parts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), density=st.sampled_from((0.0, 0.2, 0.4, 0.7)),
       layered=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_heyting_implies_matches_the_mask_reference(n, density, layered, seed):
    rng = random.Random(seed)
    x = _random_presheaf(rng, *_random_order(rng, n, density, layered))
    subs = [K.empty_subobject(x), K.full_subobject(x)]
    subs += [_random_subobject(rng, x) for _ in range(6)]
    assert_implication_matches_the_mask_reference(subs)


@pytest.mark.parametrize("closure", ["intersections", "coarsenings"])
def test_heyting_implies_matches_the_mask_reference_on_the_square(closure):
    tol = Q.Tolerance()
    poset = C.build_poset(C.builtin_scenario("mermin-square", tol)[2], closure, tol)
    presheaf = Q.spectral_presheaf(poset, tol)
    # a rank-1 and a rank-2 block sum of each maximal context: sharp there,
    # coarse elsewhere, so most implications are not the full subobject
    projs = [p for c in poset.contexts if len(c.blocks) == 4
             for p in (c.blocks[0], c.blocks[1] + c.blocks[2])]
    subs = [Q.delta_subobject(p, presheaf, tol) for p in projs]
    assert len(subs) == 12
    assert_implication_matches_the_mask_reference(subs)


def flattened(order, options, budget=None):
    """``depth_first``'s blocks as one fresh dict per assignment, lazily."""
    for head, values in K.depth_first(order, options, budget):
        if values is None:  # the empty order: its one, empty, assignment
            yield dict(head)
            continue
        for value in values:
            yield {**head, order[-1]: value}


class TestDepthFirst:
    def test_budget_counts_every_value_taken(self):
        budget = K.NodeBudget("test search", 10)
        out = list(flattened(["a", "b"], lambda e, chosen: (0, 1), budget))
        assert len(out) == 4 and budget.nodes == 6

    def test_budget_trip_names_search_limit_and_count(self):
        budget = K.NodeBudget("test search", 5)
        with pytest.raises(SizeLimit, match="test search exceeded .* 5 nodes at node 6"):
            list(flattened(["a", "b"], lambda e, chosen: (0, 1), budget))

    def test_lexicographic_in_option_order(self):
        out = list(flattened(["a", "b"], lambda e, chosen: (2, 1)))
        assert out == [{"a": 2, "b": 2}, {"a": 2, "b": 1},
                       {"a": 1, "b": 2}, {"a": 1, "b": 1}]

    def test_options_see_earlier_choices(self):
        def options(e, chosen):
            return range(chosen["a"] + 1, 3) if e == "b" else range(3)
        out = list(flattened(["a", "b"], options))
        assert [(s["a"], s["b"]) for s in out] == [(0, 1), (0, 2), (1, 2)]

    def test_empty_order_has_one_assignment(self):
        assert list(flattened([], lambda e, chosen: ())) == [{}]

    def test_dead_end_yields_nothing(self):
        out = flattened(["a", "b"], lambda e, chosen: (0,) if e == "a" else ())
        assert list(out) == []

    def test_early_stop_leaves_options_unasked(self):
        asked = []

        def options(e, chosen):
            for value in (0, 1):
                asked.append((e, value))
                yield value

        first = next(flattened(["a", "b"], options))
        assert first == {"a": 0, "b": 0}
        assert asked == [("a", 0), ("b", 0)]

    def test_blocks_share_all_but_the_last_value(self):
        blocks = [(dict(head), list(values)) for head, values
                  in K.depth_first(["a", "b", "c"], lambda e, chosen: (0, 1))]
        assert blocks == [({"a": 0, "b": 0}, [0, 1]), ({"a": 0, "b": 1}, [0, 1]),
                          ({"a": 1, "b": 0}, [0, 1]), ({"a": 1, "b": 1}, [0, 1])]


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

    def test_limit_needs_no_table_of_masks(self, monkeypatch):
        # 2 ** 40 subsets of one component: the limit must trip long before
        # anything of that size could be built
        monkeypatch.setattr(K, "COMPONENT_LIMIT", 1000)
        x = K.presheaf(POINT, {"v": range(40)}, {})
        start = time.perf_counter()
        with pytest.raises(SizeLimit, match="^more than 1000 relative subobjects$"):
            K.all_subobjects(x)
        assert time.perf_counter() - start < 2.0

    def test_limit_is_read_at_call_time(self, monkeypatch):
        # chain2 carries 3 sieves at the top and 3 subobjects of the terminal
        monkeypatch.setattr(K, "COMPONENT_LIMIT", 2)
        one = K.terminal(CHAIN2)
        for build in (lambda: K.omega(CHAIN2), lambda: K.power_object(one),
                      lambda: K.all_subobjects(one)):
            with pytest.raises(SizeLimit, match="^more than 2 relative subobjects$"):
                build()


class TestCharacteristic:
    def test_whole_maps_to_principal(self):
        x = _constant2()
        chi = characteristic(K.full_subobject(x))
        assert chi.components["top"]["a"] == ("bottom", "top")
        assert chi.components["bottom"]["a"] == ("bottom",)

    def test_empty_maps_to_empty_sieve(self):
        x = _constant2()
        chi = characteristic(K.empty_subobject(x))
        assert chi.components["top"]["a"] == ()

    def test_half_subobject(self):
        one = K.terminal(CHAIN2)
        k = K.subobject(one, {"bottom": ("*",), "top": ()})
        chi = characteristic(k)
        assert chi.components["top"]["*"] == ("bottom",)
        assert chi.components["bottom"]["*"] == ("bottom",)

    def test_round_trip_all_subobjects(self):
        for x in (_constant2(), K.terminal(CHAIN2), K.terminal(ANTI3),
                  _chain2_presheaf(("p", "q", "r"), ("s", "t"),
                                  {"p": "s", "q": "s", "r": "t"})):
            for k in K.all_subobjects(x):
                back = subobject_from_characteristic(characteristic(k))
                assert back.parts == k.parts

    def test_wrong_target_rejected(self):
        x = _constant2()
        ident = K.nat_transform(x, x, {
            v: {pt: pt for pt in x.sets[v]} for v in x.base.elements})
        with pytest.raises(NotNatural):
            subobject_from_characteristic(ident)

    def test_classifies_membership_sieve(self):
        x = _chain2_presheaf(("p", "q"), ("s",), {"p": "s", "q": "s"})
        k = K.subobject(x, {"top": ("p",), "bottom": ("s",)})
        chi = characteristic(k)
        assert chi.components["top"]["p"] == ("bottom", "top")
        assert chi.components["top"]["q"] == ("bottom",)


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

    def test_duplicate_point_rejected_as_presheaf_rejects_it(self):
        x = _constant2()
        with pytest.raises(ValidationError, match="duplicate points in part 'top'"):
            K.subobject(x, {"top": ("a", "a"), "bottom": ("a",)})
        with pytest.raises(ValidationError, match="duplicate points"):
            K.presheaf(POINT, {"v": ("a", "a")}, {})

    def test_parts_outside_the_poset_rejected(self):
        x = _constant2()
        with pytest.raises(ValidationError, match="outside the poset"):
            K.subobject(x, {"top": ("a",), "bottom": ("a",), "side": ()})


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
            nm = name_of(k)
            bottom_entry = dict(nm.components["bottom"]["*"])
            assert bottom_entry["bottom"] == k.parts["bottom"]
            top_entry = dict(nm.components["top"]["*"])
            assert top_entry == k.parts


class TestTruthValues:
    def test_membership_whole_and_empty(self):
        x = _constant2()
        point = _image(K.global_elements(x)[0])
        assert K.truth_value_inclusion(point, K.full_subobject(x)).is_full
        assert not K.truth_value_inclusion(point, K.empty_subobject(x)).members

    def test_membership_partial(self):
        x = _constant2()
        (section,) = [s for s in K.global_elements(x) if s.row == ("a", "a")]
        k = K.subobject(x, {"bottom": ("a",), "top": ()})
        value = K.truth_value_inclusion(_image(section), k)
        assert value.sorted_members == ("bottom",)

    def test_membership_wrong_parent(self):
        x = _constant2()
        section = K.global_elements(K.terminal(CHAIN2))[0]
        with pytest.raises(ParentMismatch):
            K.truth_value_inclusion(_image(section), K.full_subobject(x))

    def test_membership_is_pointwise(self):
        # a subobject holding a natural point at v holds it below v too, so
        # the hereditary inclusion of the point's image is plain membership
        for x in (_constant2(), K.terminal(ANTI3),
                  _chain2_presheaf(("p", "q", "r"), ("s", "t"),
                                   {"p": "s", "q": "s", "r": "t"})):
            for section in K.global_elements(x):
                for k in K.all_subobjects(x):
                    value = K.truth_value_inclusion(_image(section), k)
                    assert value.members == {
                        v for v in x.base.elements
                        if section.components[v]["*"] in k.parts[v]}

    def test_inclusion_reflexive(self):
        x = _constant2()
        for j in K.all_subobjects(x):
            assert K.truth_value_inclusion(j, j).is_full

    def test_inclusion_whole_in_empty(self):
        x = _constant2()
        value = K.truth_value_inclusion(K.full_subobject(x),
                                        K.empty_subobject(x))
        assert not value.members

    def test_inclusion_hereditary_failure(self):
        x = _constant2()
        j = K.subobject(x, {"bottom": ("a",), "top": ()})
        k = K.empty_subobject(x)
        # At the top the inclusion holds pointwise but fails below.
        value = K.truth_value_inclusion(j, k)
        assert not value.members

    def test_element_of_extremes(self):
        x = K.terminal(CHAIN2)
        px = K.power_object(x)
        full_t = K.full_subobject(px)
        empty_t = K.empty_subobject(px)
        for k in K.all_subobjects(x):
            name = _image(name_of(k))
            assert K.truth_value_inclusion(name, full_t).is_full
            assert not K.truth_value_inclusion(name, empty_t).members

    def test_element_of_principal_filter(self):
        x = K.terminal(CHAIN2)
        px = K.power_object(x)
        parts = {v: tuple(enc for enc in px.sets[v]
                          if ("bottom", ("*",)) in enc)
                 for v in px.base.elements}
        t = K.subobject(px, parts)
        full_name = _image(name_of(K.full_subobject(x)))
        empty_name = _image(name_of(K.empty_subobject(x)))
        assert K.truth_value_inclusion(full_name, t).is_full
        assert not K.truth_value_inclusion(empty_name, t).members

    def test_element_of_parent_checked(self):
        x = K.terminal(CHAIN2)
        name = _image(name_of(K.full_subobject(x)))
        with pytest.raises(ParentMismatch):
            K.truth_value_inclusion(name, K.full_subobject(x))


class TestLowerSetAlgebra:
    """Truth values are the lower sets, that is the subobjects of the
    terminal presheaf, Sub(1); their Heyting algebra is ``heyting_*``."""

    def test_implies_reflexive(self):
        one = K.terminal(CHAIN2)
        for a in K.all_subobjects(one):
            assert K.heyting_implies(a, a).parts == K.full_subobject(one).parts

    def test_chain_excluded_middle_witness(self):
        one = K.terminal(CHAIN2)
        a = K.subobject(one, {"bottom": ("*",), "top": ()})
        na = K.heyting_not(a)
        assert na.parts == K.empty_subobject(one).parts
        a_or_na = K.heyting_join(a, na)
        assert a_or_na.parts == a.parts
        assert K.truth_value_inclusion(K.full_subobject(one),
                                       a_or_na).sorted_members == ("bottom",)

    def test_meet_with_full(self):
        one = K.terminal(CHAIN2)
        full = K.full_subobject(one)
        for a in K.all_subobjects(one):
            assert K.heyting_meet(full, a).parts == a.parts
            assert K.heyting_meet(a, full).parts == a.parts

    def test_adjunction_on_three_element_poset(self):
        vee = K.finposet(["a", "b", "c"], [("c", "a"), ("c", "b")])
        subs = K.all_subobjects(K.terminal(vee))
        for a, b, g in itertools.product(subs, repeat=3):
            lhs = K.subobject_leq(g, K.heyting_implies(a, b))
            rhs = K.subobject_leq(K.heyting_meet(g, a), b)
            assert lhs == rhs

    def test_downward_closure_validated(self):
        with pytest.raises(ValidationError,
                           match="^not downward closed: 'top' is in but "
                                 "'bottom' below it is not$"):
            K.lowerset(CHAIN2, {"top"})

    def test_unknown_element_rejected(self):
        with pytest.raises(ValidationError,
                           match="^'nope' is not an element of the poset$"):
            K.lowerset(CHAIN2, {"nope", "top"})

    def test_base_mismatch(self):
        with pytest.raises(ParentMismatch):
            K.heyting_meet(K.full_subobject(K.terminal(CHAIN2)),
                           K.full_subobject(K.terminal(ANTI2)))


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

    def test_components_outside_the_poset_rejected(self):
        x = _constant2()
        ident = {"a": "a", "b": "b"}
        with pytest.raises(NotNatural, match="outside the poset"):
            K.nat_transform(x, x, {"top": ident, "bottom": ident, "side": {}})

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatch):
            K.nat_transform(K.terminal(CHAIN2), K.terminal(ANTI2), {})
