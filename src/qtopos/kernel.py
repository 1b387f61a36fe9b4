"""A presheaf-topos engine over arbitrary finite posets.

Implements presheaves of finite sets together with the categorical
structure the quantum layer needs: subobjects, the subobject classifier,
Heyting operations on subobjects, exponentials, power objects and truth
values as lower sets (``truth_value_inclusion``).  Subobjects are enumerated
one element at a time, the options at an element built once per distinct
choice above it; global sections on the explicit-stack engine
``depth_first``, free of Python's recursion limit, in blocks (one live dict
of the picks but the last, then the last element's values), so a leaf costs
O(1) steps.  Guards turn blow-ups into ``SizeLimit`` errors.  The
global-section search, also the quantum layer's, picks only at maximal
elements, keeps their int-mask domains arc consistent after each pick (MAC),
each arc remembering its support per domain, and may count its picks against
a ``NodeBudget``; a section is a tuple in element order, one concatenation of
precomputed rows.  It serves ``hom_set`` and ``exponential``: an arrow
``x -> y`` is a global section of ``y`` on the elements of ``x``
(``_elements``), and a ``NatTransform`` is that row, with its components a
derived view.  Their limits are pre-checks on the size of the space:
``hom_set`` refuses when prod_v |y(v)|^|x(v)| exceeds
``GLOBAL_SEARCH_LIMIT``, and ``exponential`` when that product over the
down-set of one element exceeds ``COMPONENT_LIMIT``.  A subobject is one
int over all its presheaf's points, from its enumeration through the
Heyting operations, which are a few int operations each; its masks and
tuples of points are derived views.

Conventions
-----------
* ``finposet``, ``presheaf``, ``subobject``, ``nat_transform`` and ``lowerset``
  validate outside input; the package builds its own constructions directly,
  and each docstring says why the result is valid.
* Poset elements are strings; ``leq`` holds ``(u, v)`` iff ``u <= v``.
* Each element's lower and upper lists (itself included, in element order)
  and the strict pairs are built once per poset; every order scan reads them.
* Component points may be any value with a stable ``repr``; components are
  tuples sorted by ``repr``, so all enumeration output is deterministic.
* A mask over ``x(v)`` has bit ``i`` for point ``i`` of ``x.sets[v]``, in a
  subobject's ``masks`` and the section search's domains; a subobject's
  ``bits`` has it at ``v``'s offset plus ``i``, elements in element order.
* ``omega(base)`` is ``P(1)``: a point at ``v`` is a sieve on ``v`` (a
  subobject of the terminal below ``v``), the tuple of its members in order.
* Power-object points and exponential points are nested sorted tuples, so
  equality is plain ``==`` everywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import (
    BaseMismatch,
    NotNatural,
    ParentMismatch,
    SizeLimit,
    ValidationError,
)

GLOBAL_SEARCH_LIMIT = 10 ** 7
COMPONENT_LIMIT = 10 ** 6


def _sorted_points(points) -> tuple:
    return tuple(sorted(points, key=repr))


@dataclass(frozen=True)
class FinPoset:
    """A finite poset whose ``leq`` is already reflexive, antisymmetric and
    transitive; it is taken as given (``finposet`` closes and checks pairs)."""

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    def le(self, u: str, v: str) -> bool:
        return (u, v) in self.leq

    @cached_property
    def _lists(self) -> tuple[dict, dict, tuple]:
        index = {e: i for i, e in enumerate(self.elements)}
        pairs = sorted(self.leq, key=lambda p: (index[p[0]], index[p[1]]))
        lowers: dict[str, list[str]] = {e: [] for e in self.elements}
        uppers: dict[str, list[str]] = {e: [] for e in self.elements}
        for u, v in pairs:
            lowers[v].append(u)
            uppers[u].append(v)
        return ({e: tuple(ls) for e, ls in lowers.items()},
                {e: tuple(us) for e, us in uppers.items()},
                tuple((u, v) for u, v in pairs if u != v))

    @cached_property
    def _descending(self) -> tuple[str, ...]:
        """Elements by the length of the longest chain above them, then by
        key: each element comes after all strictly above it."""
        height: dict = {}  # u < w makes down(w) larger, so w is done before u
        for u in sorted(self.elements, key=lambda u: -len(self.down(u))):
            height[u] = max((height[w] + 1 for w in self.up(u) if w != u), default=0)
        return tuple(sorted(self.elements, key=lambda u: (height[u], u)))

    def down(self, v: str) -> tuple[str, ...]:
        return self._lists[0][v]

    def up(self, u: str) -> tuple[str, ...]:
        return self._lists[1][u]

    def strict_pairs(self) -> list[tuple[str, str]]:
        """All (u, v) with u < v, in canonical order."""
        return list(self._lists[2])

    def strict_down_pairs(self) -> list[tuple[str, str]]:
        """All (frm, to) with to < frm: the keys of restriction maps."""
        return [(v, u) for (u, v) in self._lists[2]]


def finposet(elements, pairs=()) -> FinPoset:
    """Build a poset from order pairs, closing reflexively and transitively."""
    elems = tuple(sorted(elements))
    if len(set(elems)) != len(elems):
        raise ValidationError("poset elements must be unique")
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for (u, v) in pairs:
        if u not in index or v not in index:
            raise ValidationError(f"order pair ({u!r}, {v!r}) mentions unknown elements")
        rel[index[u]][index[v]] = True
    for k in range(n):  # Warshall: paths through elements 0..k
        for i in range(n):
            if rel[i][k]:
                rel[i] = [a or b for a, b in zip(rel[i], rel[k])]
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                raise ValidationError(
                    f"order is not antisymmetric: {elems[i]!r} and {elems[j]!r}")
    leq = frozenset((elems[i], elems[j]) for i in range(n) for j in range(n)
                    if rel[i][j])
    return FinPoset(elements=elems, leq=leq)


@dataclass
class NodeBudget:
    """A cap of ``limit`` nodes on one search; ``nodes`` counts those taken."""

    search: str
    limit: int
    nodes: int = 0

    def taken(self, values):
        """``values``, each one node as it is taken; past the limit, ``SizeLimit``."""
        for value in values:
            self.nodes += 1
            if self.nodes > self.limit:
                raise SizeLimit(f"{self.search} exceeded its limit of "
                                f"{self.limit} nodes at node {self.nodes}")
            yield value


def depth_first(order, options, budget: NodeBudget | None = None):
    """Every assignment to ``order`` that ``options`` allows, depth first.

    ``options(element, chosen)`` gives the values open to ``element``; it may
    read ``chosen`` only at the elements before it in ``order``.  Assignments
    come in blocks ``(chosen, values)``, lexicographic in the option sequences:
    the live dict of the picks before the last element, keyed in ``order``, and
    a lazy iterator over the last element's values, good until the next block
    (the empty order has one, ``({}, None)``).  Options are asked lazily, so a
    caller that stops early leaves the rest unasked.  Each value taken, at every
    element, is one node of ``budget``; past its limit, ``SizeLimit``.
    """
    if not order:
        yield {}, None
        return
    chosen: dict = {}
    take = iter if budget is None else budget.taken
    stack = [take(options(order[0], chosen))]
    while stack:
        if len(stack) == len(order):
            yield chosen, stack.pop()
            continue
        depth = len(stack) - 1
        for value in stack[-1]:
            chosen[order[depth]] = value
            stack.append(take(options(order[depth + 1], chosen)))
            break
        else:
            stack.pop()


@dataclass(frozen=True)
class Presheaf:
    """Finite sets indexed by poset elements, with restriction maps downward."""

    base: FinPoset
    sets: dict
    restrictions: dict

    def component(self, v: str) -> tuple:
        return self.sets[v]

    def restrict(self, x, frm: str, to: str):
        if frm == to:
            return x
        return self.restrictions[(frm, to)][x]

    @cached_property
    def _bits(self) -> dict:
        """Per element, each point's bit: point i of ``sets[v]`` is bit i."""
        return {v: {pt: 1 << i for i, pt in enumerate(pts)}
                for v, pts in self.sets.items()}

    @cached_property
    def _spans(self) -> dict:
        """Per element, in element order, its offset and full mask in a
        subobject's ``bits``: point i of ``sets[v]`` is bit ``offset + i``."""
        spans, offset = {}, 0
        for v in self.base.elements:
            spans[v] = (offset, (1 << len(self.sets[v])) - 1)
            offset += len(self.sets[v])
        return spans

    @cached_property
    def _ups(self) -> list:
        """Per point, in ``bits`` order, the mask of every point above it that
        restricts to it, itself included (the maps cover every strict pair)."""
        spans = self._spans
        ups = [1 << i for i in range(sum(map(len, self.sets.values())))]
        for (frm, to), mapping in self.restrictions.items():
            above, below, bits = spans[frm][0], spans[to][0], self._bits[to]
            for i, pt in enumerate(self.sets[frm]):
                ups[below + bits[mapping[pt]].bit_length() - 1] |= 1 << above + i
        return ups

    @cached_property
    def _full(self) -> int:
        """Every point's bit: the full subobject's ``bits``."""
        return (1 << sum(map(len, self.sets.values()))) - 1

    def _image(self, frm: str, to: str, mask: int) -> int:
        """The mask at ``to`` of the restrictions of ``mask``'s points at ``frm``."""
        bits, mapping, image = self._bits[to], self.restrictions[frm, to], 0
        for i, pt in enumerate(self.sets[frm]):
            if mask >> i & 1:
                image |= bits[mapping[pt]]
        return image

    def _points(self, v: str, mask: int) -> tuple:
        """The points of ``sets[v]`` that ``mask`` holds, in component order."""
        return tuple(pt for i, pt in enumerate(self.sets[v]) if mask >> i & 1)


def presheaf(base: FinPoset, sets, restrictions) -> Presheaf:
    """Validate and normalise a presheaf: totality plus functoriality."""
    comps = {}
    for v in base.elements:
        if v not in sets:
            raise ValidationError(f"missing component for element {v!r}")
        pts = _sorted_points(sets[v])
        if len(set(pts)) != len(pts):
            raise ValidationError(f"duplicate points in component {v!r}")
        comps[v] = pts
    if set(sets) - set(base.elements):
        raise ValidationError("components given for elements outside the poset")

    expected = base.strict_down_pairs()
    maps = {}
    for pair in expected:
        if pair not in restrictions:
            raise ValidationError(f"missing restriction map for {pair!r}")
        frm, to = pair
        mapping = dict(restrictions[pair])
        if set(mapping) != set(comps[frm]):
            raise ValidationError(f"restriction {pair!r} is not total")
        for x, y in mapping.items():
            if y not in comps[to]:
                raise ValidationError(
                    f"restriction {pair!r} sends {x!r} outside the target component")
        maps[pair] = mapping
    if set(restrictions) - set(expected):
        raise ValidationError("restriction maps given for non-comparable pairs")

    for (u, v) in base.strict_pairs():
        for w in base.down(u):
            if w != u:
                via, direct, step = maps[(u, w)], maps[(v, w)], maps[(v, u)]
                for x in comps[v]:
                    if direct[x] != via[step[x]]:
                        raise ValidationError(
                            f"functoriality fails on the chain {w!r} < {u!r} < {v!r}")
    return Presheaf(base=base, sets=comps, restrictions=maps)


@dataclass(frozen=True)
class Subobject:
    """A sub-presheaf, closed under restriction: ``bits`` holds its points
    over all of ``of``, in element then component order (``Presheaf._spans``)."""

    of: Presheaf
    bits: int

    @cached_property
    def masks(self) -> dict:
        """Per element, in element order, its points' mask (bit i: point i)."""
        return {v: self.bits >> offset & full
                for v, (offset, full) in self.of._spans.items()}

    @cached_property
    def parts(self) -> dict:
        """Per element, in element order, its points in component order."""
        return {v: self.of._points(v, mask) for v, mask in self.masks.items()}


def subobject(of: Presheaf, parts) -> Subobject:
    """Validate parts given as points per element (missing ones are empty)."""
    if set(parts) - set(of.base.elements):
        raise ValidationError("parts given for elements outside the poset")
    masks = {}
    for v in of.base.elements:
        bits, mask = of._bits[v], 0
        for x in _sorted_points(parts.get(v, ())):
            if x not in of.sets[v]:
                raise ValidationError(f"point {x!r} at {v!r} is not in the parent")
            if mask & bits[x]:
                raise ValidationError(f"duplicate points in part {v!r}")
            mask |= bits[x]
        masks[v] = mask
    for (frm, to) in of.base.strict_down_pairs():
        if of._image(frm, to, masks[frm]) & ~masks[to]:
            raise ValidationError(
                f"parts are not closed under restriction {frm!r} -> {to!r}")
    return Subobject(of, sum(masks[v] << offset for v, (offset, _) in of._spans.items()))


def full_subobject(x: Presheaf) -> Subobject:
    return Subobject(x, x._full)


def empty_subobject(x: Presheaf) -> Subobject:
    return Subobject(x, 0)


@dataclass(frozen=True)
class LowerSet:
    """A downward-closed set of poset elements; the canonical truth values."""

    base: FinPoset
    members: frozenset

    @property
    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))

    @property
    def is_full(self) -> bool:
        return len(self.members) == len(self.base.elements)


def lowerset(base: FinPoset, members) -> LowerSet:
    mem = frozenset(members)
    lowers = base._lists[0]
    for v in sorted(mem, key=repr):
        if v not in lowers:
            raise ValidationError(f"{v!r} is not an element of the poset")
        for u in lowers[v]:
            if u not in mem:
                raise ValidationError(
                    f"not downward closed: {v!r} is in but {u!r} below it is not")
    return LowerSet(base=base, members=mem)


@dataclass(frozen=True)
class NatTransform:
    """A natural transformation between presheaves on the same poset: ``row``
    holds the image of each ``(v, x)`` of the source's elements, in element
    then component order (a global section of the target over them)."""

    source: Presheaf
    target: Presheaf
    row: tuple

    @cached_property
    def components(self) -> dict:
        """Per element, in element order, each point's image in component order."""
        images, sets = iter(self.row), self.source.sets
        return {v: dict(zip(sets[v], images)) for v in self.source.base.elements}


def nat_transform(source: Presheaf, target: Presheaf, components) -> NatTransform:
    if source.base != target.base:
        raise BaseMismatch("source and target live over different posets")
    comps = {}
    for v in source.base.elements:
        if v not in components:
            raise NotNatural(f"missing component at {v!r}")
        mapping = dict(components[v])
        if set(mapping) != set(source.sets[v]):
            raise NotNatural(f"component at {v!r} is not total")
        for x, y in mapping.items():
            if y not in target.sets[v]:
                raise NotNatural(f"component at {v!r} lands outside the target")
        comps[v] = mapping
    if set(components) - set(source.base.elements):
        raise NotNatural("components given for elements outside the poset")
    for (u, v) in source.base.strict_pairs():
        for x in source.sets[v]:
            if target.restrict(comps[v][x], v, u) != comps[u][source.restrict(x, v, u)]:
                raise NotNatural(f"naturality square fails for {u!r} <= {v!r}")
    return NatTransform(source, target, tuple(
        comps[v][x] for v in source.base.elements for x in source.sets[v]))


def terminal(base: FinPoset) -> Presheaf:
    """The terminal presheaf: one point everywhere (valid by construction)."""
    sets = {v: ("*",) for v in base.elements}
    restr = {pair: {"*": "*"} for pair in base.strict_down_pairs()}
    return Presheaf(base=base, sets=sets, restrictions=restr)


def _arcs(x: Presheaf, tops) -> dict:
    """Per maximal ``v`` in ``tops``, ``(w, pairs, supports)`` for each maximal
    ``w`` sharing a lower element with it (found from the elements' maximal
    uppers).  Two points agree on every common lower element iff they restrict
    alike to the pair's maximal common lower elements (functoriality); ``pairs``
    holds, per such signature met at both, the masks of its points at ``v`` and
    ``w``, and ``supports`` starts empty for ``_revise`` to fill."""
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
        sig: dict = {a: {}, b: {}}
        for v in (a, b):
            for i, pt in enumerate(x.sets[v]):
                key = tuple(x.restrict(pt, v, u) for u in meets)
                sig[v][key] = sig[v].get(key, 0) | 1 << i
        pairs = [(mine, sig[b][key]) for key, mine in sig[a].items() if key in sig[b]]
        arcs[a].append((b, pairs, {}))
        arcs[b].append((a, [(theirs, mine) for mine, theirs in pairs], {}))
    return arcs


def _revise(arcs: dict, domains: dict, changed: dict) -> dict | None:
    """AC-3 on int masks from the ``changed`` elements, each revising its
    neighbours' domains in turn: ``domains`` narrowed, or None once one runs empty.
    An arc's support, the points at ``w`` that agree with some point of the
    domain at ``v``, depends only on that domain, so each arc remembers it per
    domain mask and sums its ``pairs`` only for a mask it has not met."""
    while changed:
        v = changed.popitem()[0]
        mask = domains[v]
        for w, pairs, supports in arcs[v]:
            support = supports.get(mask)
            if support is None:
                support = supports[mask] = sum(theirs for mine, theirs in pairs
                                               if mine & mask)
            kept = domains[w] & support
            if not kept:
                return None
            if kept != domains[w]:
                domains[w], changed[w] = kept, None
    return domains


def global_sections(x: Presheaf, budget: NodeBudget | None = None):
    """Every global section of ``x``, lazily, as a tuple in element order.

    MAC: picks at the maximal elements in key order, points in component
    order, offering only those that survive AC-3 with the earlier picks
    fixed; the other elements follow by restriction.  AC-3 drops no point of
    a section, so sections come out in the lexicographic order of the picks.
    A node of ``budget``, if given, is one pick; AC-3 is polynomial per node,
    so the cap bounds the whole work.  Each maximal ``w`` has one row per
    point (its restrictions to the elements lifting to ``w``); a block joins
    its head's rows once, then a section is a tuple ``+`` and an ``itemgetter``."""
    if any(not pts for pts in x.sets.values()):
        return
    base = x.base
    tops = {v: i for i, v in enumerate(
        u for u in base.elements if len(base.up(u)) == 1)}
    if not tops:  # the empty poset has one, empty, section
        yield ()
        return
    order, arcs = list(tops), _arcs(x, tops)
    full = {v: (1 << len(x.sets[v])) - 1 for v in tops}  # point i is bit i
    states = [_revise(arcs, full, dict.fromkeys(tops))]

    def options(v, chosen):  # states[d]: the domains with d picks fixed
        depth = tops[v]
        if depth:
            del states[depth:]
            last = order[depth - 1]
            states.append(_revise(arcs, {**states[-1], last: 1 << chosen[last]},
                                  {last: None}))
        mask = states[depth][v] if states[depth] else 0
        return [i for i in range(len(x.sets[v])) if mask >> i & 1]

    lifted: dict = {w: [] for w in order}
    for u in base.elements:
        lifted[next(w for w in base.up(u) if w in tops)].append(u)
    rows = {w: [tuple(x.restrict(pt, w, u) for u in lifted[w]) for pt in x.sets[w]]
            for w in order}
    place = {u: i for i, u in enumerate(itertools.chain(*lifted.values()))}
    # an itemgetter of one index gives the bare point; one element needs no reordering
    get = operator.itemgetter(*map(place.get, base.elements)) if len(place) > 1 else tuple
    ends = rows[order[-1]]
    for head, picks in depth_first(order, options, budget):
        start = tuple(itertools.chain.from_iterable(rows[w][i] for w, i in head.items()))
        for i in picks:
            yield get(start + ends[i])


def _elements(x: Presheaf, y: Presheaf, elems) -> Presheaf:
    """``y`` on the category of elements of ``x`` over the down-closed ``elems``:
    one element per ``(u, pt)``, ``pt`` in ``x(u)``, named by its zero-padded
    index in (``elems``, component) order, with ``(w, pt|w) <= (u, pt)`` for
    ``w <= u``, carrying ``y(u)`` and ``y``'s maps; its global sections are the
    natural families ``x -> y`` over ``elems``.  Valid by construction: ``x``'s
    functoriality closes the order, ``y``'s makes the maps functorial."""
    pairs = [(u, pt) for u in elems for pt in x.sets[u]]
    names = {p: f"{i:0{len(str(len(pairs)))}d}" for i, p in enumerate(pairs)}
    leq, restr = set(), {}
    for (u, pt), top in names.items():
        for w in x.base.down(u):
            low = names[w, x.restrict(pt, u, w)]
            leq.add((low, top))
            if w != u:
                restr[top, low] = y.restrictions[u, w]
    base = FinPoset(tuple(names.values()), frozenset(leq))
    return Presheaf(base, {names[p]: y.sets[p[0]] for p in pairs}, restr)


def global_elements(x: Presheaf) -> list[NatTransform]:
    """All global sections, as arrows from the terminal (natural as built)."""
    one = terminal(x.base)
    budget = NodeBudget("global-element search", GLOBAL_SEARCH_LIMIT)
    return [NatTransform(one, x, row) for row in global_sections(x, budget)]


def omega(base: FinPoset) -> Presheaf:
    """The subobject classifier ``P(1)``: at ``v``, the subobjects of the
    terminal below ``v`` (the sieves), each as the tuple of its members.
    Valid as built: a sieve cut to down(w) is one on w, and cutting composes."""
    one = terminal(base)
    spans = one._spans  # u's one point is bit spans[u][0]
    sets = {v: _sorted_points(tuple(u for u in base.down(v) if bits >> spans[u][0] & 1)
                              for bits in _relative_subobjects(one, base.down(v)))
            for v in base.elements}
    restr = {}
    for (frm, to) in base.strict_down_pairs():
        below = set(base.down(to))
        restr[(frm, to)] = {s: tuple(u for u in s if u in below) for s in sets[frm]}
    return Presheaf(base, sets, restr)


def _same_parent(j: Subobject, k: Subobject) -> Presheaf:
    if j.of != k.of:
        raise ParentMismatch("subobjects live over different presheaves")
    return j.of


def heyting_meet(j: Subobject, k: Subobject) -> Subobject:
    return Subobject(_same_parent(j, k), j.bits & k.bits)


def heyting_join(j: Subobject, k: Subobject) -> Subobject:
    return Subobject(_same_parent(j, k), j.bits | k.bits)


def heyting_implies(j: Subobject, k: Subobject) -> Subobject:
    """Largest subobject whose meet with ``j`` lies inside ``k``: every point
    but those that restrict into ``j - k``, the ``Presheaf._ups`` of its bits.
    A point above one taken adds none (functoriality), so its bit is skipped."""
    x, bad, up = _same_parent(j, k), j.bits & ~k.bits, 0
    while bad:
        up |= x._ups[(bad & -bad).bit_length() - 1]
        bad &= ~up
    return Subobject(x, x._full & ~up)


def heyting_not(j: Subobject) -> Subobject:
    return heyting_implies(j, empty_subobject(j.of))


def subobject_leq(j: Subobject, k: Subobject) -> bool:
    _same_parent(j, k)
    return not j.bits & ~k.bits


def product(a: Presheaf, b: Presheaf) -> Presheaf:
    """Componentwise cartesian product (functorial as its factors are)."""
    if a.base != b.base:
        raise BaseMismatch("factors live over different posets")
    base = a.base
    sets = {v: _sorted_points(itertools.product(a.sets[v], b.sets[v]))
            for v in base.elements}
    restr = {(frm, to): {(pa, pb): (a.restrict(pa, frm, to), b.restrict(pb, frm, to))
                         for (pa, pb) in sets[frm]}
             for (frm, to) in base.strict_down_pairs()}
    return Presheaf(base, sets, restr)


def _tagged_presheaf(base: FinPoset, sets: dict) -> Presheaf:
    """All families over each down(v), as tuples of ``(element, data)`` entries;
    restriction keeps the entries below the target: functorial, valid as built."""
    restr = {}
    for (frm, to) in base.strict_down_pairs():
        below = set(base.down(to))
        restr[(frm, to)] = {pt: tuple(entry for entry in pt if entry[0] in below)
                            for pt in sets[frm]}
    return Presheaf(base, sets, restr)


def exponential(a: Presheaf, b: Presheaf) -> Presheaf:
    """The presheaf of natural partial families ``b ** a``.

    The component at ``v`` consists of families of functions
    ``f_u : a(u) -> b(u)`` for every ``u <= v``, natural in ``u``: the global
    sections of ``_elements(a, b, down(v))``.  Points are encoded as sorted
    tuples of ``(u, graph)`` pairs.
    """
    if a.base != b.base:
        raise BaseMismatch("exponential factors live over different posets")
    base = a.base
    sets = {}
    for v in base.elements:
        dv = base.down(v)
        if math.prod(len(b.sets[u]) ** len(a.sets[u]) for u in dv) > COMPONENT_LIMIT:
            raise SizeLimit(
                f"exponential component at {v!r} exceeds {COMPONENT_LIMIT}")
        encoded = [tuple((u, tuple(zip(a.sets[u], points))) for u in dv)
                   for points in map(iter, global_sections(_elements(a, b, dv)))]
        sets[v] = _sorted_points(encoded)
    return _tagged_presheaf(base, sets)


def _relative_subobjects(x: Presheaf, elems: tuple[str, ...]) -> list[int]:
    """All families S(u) <= x(u) over ``elems`` closed under restriction, as
    ``Subobject`` bits over ``x``, lexicographic in the masks at the elements
    in ``_descending`` order.

    The families grow one element ``u`` at a time.  The points forced at ``u``
    are the images of the family's masks at the elements above it, so they
    depend only on its bits there (``key``); the options are ``forced | sub``
    for the submasks ``sub`` of the free bits in increasing order, built once
    per key, and each family is followed by its options in that order.  A
    level is never smaller than the one before, so its size, summed per key
    before any option is built, is checked against ``COMPONENT_LIMIT``."""
    inside, spans, families = set(elems), x._spans, [0]
    for u in (u for u in x.base._descending if u in inside):
        offset, full = spans[u]
        uppers = [(w, *spans[w]) for w in x.base.up(u) if w != u and w in inside]
        upmask = sum(m << at for _, at, m in uppers)
        keys, images, opts = Counter(f & upmask for f in families), {}, {}
        for key in keys:
            forced = 0
            for w, at, m in uppers:  # each (upper, mask)'s image made once
                mask = key >> at & m
                if (w, mask) not in images:
                    images[w, mask] = x._image(w, u, mask)
                forced |= images[w, mask]
            opts[key] = forced << offset, (full & ~forced) << offset
        if sum(n << opts[key][1].bit_count() for key, n in keys.items()) > COMPONENT_LIMIT:
            raise SizeLimit(f"more than {COMPONENT_LIMIT} relative subobjects")
        for key, (forced, free) in opts.items():
            opts[key] = subs = [forced]
            sub = 0
            while sub != free:  # the next submask of ``free`` counting up
                sub = (sub - free) & free
                subs.append(forced | sub)
        families = [f | o for f in families for o in opts[f & upmask]]
    return families


def all_subobjects(x: Presheaf) -> list[Subobject]:
    """Every subobject of ``x``, in a canonical deterministic order."""
    return [Subobject(x, bits) for bits in _relative_subobjects(x, x.base.elements)]


def power_object(x: Presheaf) -> Presheaf:
    """The power object: at ``v``, all subobjects of ``x`` below ``v``, each as
    its ``(u, points)`` pairs in key order (each mask's points made once)."""
    base, sets, points = x.base, {}, cache(x._points)
    for v in base.elements:
        keys = [(u, *x._spans[u]) for u in sorted(base.down(v))]
        sets[v] = _sorted_points(tuple((u, points(u, b >> at & m)) for u, at, m in keys)
                                 for b in _relative_subobjects(x, base.down(v)))
    return _tagged_presheaf(base, sets)


def hom_set(x: Presheaf, y: Presheaf) -> list[NatTransform]:
    """All natural transformations x -> y: the global sections of
    ``_elements(x, y, elements)``, in the lexicographic order of their picks at
    the maximal elements of that category of elements (the points of ``x``
    that restrict from no point above, in element then component order).
    Each section of ``_elements`` is natural, so each is built directly."""
    if x.base != y.base:
        raise BaseMismatch("presheaves live over different posets")
    base = x.base
    if any(x.sets[v] and not y.sets[v] for v in base.elements):
        return []  # a point with nowhere to go, whatever the bound says
    if math.prod(len(y.sets[v]) ** len(x.sets[v])
                 for v in base.elements) > GLOBAL_SEARCH_LIMIT:
        raise SizeLimit(f"hom-set search space exceeds {GLOBAL_SEARCH_LIMIT}")
    ex = _elements(x, y, base.elements)  # its elements in (v, point) order
    return [NatTransform(x, y, row) for row in global_sections(ex)]


def truth_value_inclusion(j: Subobject, k: Subobject) -> LowerSet:
    """Hereditary inclusion [[ j <= k ]]: a hereditary set is a lower set."""
    x, bad = _same_parent(j, k), j.bits & ~k.bits
    outside = {w for u, (offset, full) in x._spans.items() if bad >> offset & full
               for w in x.base.up(u)}
    return LowerSet(x.base, frozenset(x.base.elements) - outside)
