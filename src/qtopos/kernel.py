"""A presheaf-topos engine over arbitrary finite posets.

Implements presheaves of finite sets together with the categorical
structure the quantum layer needs: subobjects, the subobject classifier,
Heyting operations, exponentials, power objects and lower-set truth values.
Everything is enumerated on the one explicit-stack engine ``depth_first``,
free of Python's recursion limit; guards turn blow-ups into ``SizeLimit``
errors instead of hangs.  The global-section search, also the quantum
layer's, picks only at maximal elements and counts the nodes it takes
against a ``NodeBudget``, often far below the product of component sizes.
``hom_set`` and ``exponential`` keep product-of-sizes pre-checks: under a
node budget a space that large takes tens of seconds to refuse, not none.

Conventions
-----------
* Poset elements are strings; ``leq`` holds ``(u, v)`` iff ``u <= v``.
* Each element's lower and upper lists (itself included, in element order)
  and the strict pairs are built once per poset; every order scan reads them.
* Component points may be any value with a stable ``repr``; components are
  stored as tuples sorted by ``repr`` so all enumeration output is
  deterministic.
* A sieve at ``v`` is the sorted tuple of its member elements, and the
  points of ``omega(base)`` at ``v`` are exactly these tuples.
* Power-object points and exponential points are nested sorted tuples, so
  equality is plain ``==`` everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BaseMismatch,
    NotGlobalElement,
    NotNatural,
    ParentMismatch,
    SizeLimit,
    ValidationError,
)

GLOBAL_SEARCH_LIMIT = 10 ** 7
COMPONENT_LIMIT = 10 ** 6


def _pkey(point) -> str:
    return repr(point)


def _sorted_points(points) -> tuple:
    return tuple(sorted(points, key=_pkey))


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
    rel = [[False] * n for _ in range(n)]
    for i in range(n):
        rel[i][i] = True
    for (u, v) in pairs:
        if u not in index or v not in index:
            raise ValidationError(f"order pair ({u!r}, {v!r}) mentions unknown elements")
        rel[index[u]][index[v]] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                row_k = rel[k]
                row_i = rel[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
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


def depth_first(order, options, budget: NodeBudget | None = None):
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


def _extension_desc(base: FinPoset) -> list[str]:
    """Elements by the length of the longest chain above them, then by key:
    each element comes after all strictly above it."""
    height: dict = {}
    for u in _extension_from_top(base):
        height[u] = max((height[w] + 1 for w in base.up(u) if w != u), default=0)
    return sorted(base.elements, key=lambda u: (height[u], u))


def _extension_from_top(base: FinPoset) -> list[str]:
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


def _uppers(base: FinPoset, order: list[str]) -> dict:
    """For each element, the earlier elements of ``order`` above it."""
    pos = {u: i for i, u in enumerate(order)}
    return {u: sorted((w for w in base.up(u) if pos.get(w, i) < i),
                      key=pos.__getitem__)
            for i, u in enumerate(order)}


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

    expected = set(base.strict_down_pairs())
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
    if set(restrictions) - expected:
        raise ValidationError("restriction maps given for non-comparable pairs")

    for (u, v) in base.strict_pairs():
        for w in base.down(u):
            if w != u:
                via = maps[(u, w)]
                direct = maps[(v, w)]
                step = maps[(v, u)]
                for x in comps[v]:
                    if direct[x] != via[step[x]]:
                        raise ValidationError(
                            f"functoriality fails on the chain {w!r} < {u!r} < {v!r}")
    return Presheaf(base=base, sets=comps, restrictions=maps)


@dataclass(frozen=True)
class Subobject:
    """A sub-presheaf: componentwise subsets closed under restriction."""

    of: Presheaf
    parts: dict

    def part(self, v: str) -> tuple:
        return self.parts[v]


def subobject(of: Presheaf, parts) -> Subobject:
    norm = {}
    for v in of.base.elements:
        pts = _sorted_points(parts.get(v, ()))
        for x in pts:
            if x not in of.sets[v]:
                raise ValidationError(f"point {x!r} at {v!r} is not in the parent")
        norm[v] = pts
    for (frm, to) in of.base.strict_down_pairs():
        for x in norm[frm]:
            if of.restrict(x, frm, to) not in norm[to]:
                raise ValidationError(
                    f"parts are not closed under restriction {frm!r} -> {to!r}")
    return Subobject(of=of, parts=norm)


def full_subobject(x: Presheaf) -> Subobject:
    return Subobject(of=x, parts={v: x.sets[v] for v in x.base.elements})


def empty_subobject(x: Presheaf) -> Subobject:
    return Subobject(of=x, parts={v: () for v in x.base.elements})


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

    @property
    def is_empty(self) -> bool:
        return not self.members


def lowerset(base: FinPoset, members) -> LowerSet:
    mem = frozenset(members)
    for v in mem:
        if v not in base.elements:
            raise ValidationError(f"{v!r} is not an element of the poset")
        for u in base.down(v):
            if u not in mem:
                raise ValidationError(
                    f"not downward closed: {v!r} is in but {u!r} below it is not")
    return LowerSet(base=base, members=mem)


def full_lowerset(base: FinPoset) -> LowerSet:
    return LowerSet(base=base, members=frozenset(base.elements))


def empty_lowerset(base: FinPoset) -> LowerSet:
    return LowerSet(base=base, members=frozenset())


@dataclass(frozen=True)
class NatTransform:
    """A natural transformation between presheaves on the same poset."""

    source: Presheaf
    target: Presheaf
    components: dict

    def at(self, v: str, x):
        return self.components[v][x]


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
    for (u, v) in source.base.strict_pairs():
        for x in source.sets[v]:
            left = target.restrict(comps[v][x], v, u)
            right = comps[u][source.restrict(x, v, u)]
            if left != right:
                raise NotNatural(f"naturality square fails for {u!r} <= {v!r}")
    return NatTransform(source=source, target=target, components=comps)


def _natural_families(x: Presheaf, y: Presheaf, order: list[str],
                      budget: NodeBudget | None = None):
    """All natural families ``f_u : x(u) -> y(u)`` over the elements of ``order``.

    ``order`` lists a down-closed set of elements, each after all above it.
    Naturality against the chosen ``f_w`` above ``u`` fixes ``f_u`` on the
    images of ``x(w)``; only the other points of ``x(u)`` are enumerated, so
    families come out in the lexicographic order of their graphs.
    """
    uppers = _uppers(x.base, order)

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

    return depth_first(order, options, budget)


def terminal(base: FinPoset) -> Presheaf:
    """The terminal presheaf: one point everywhere (valid by construction)."""
    sets = {v: ("*",) for v in base.elements}
    restr = {pair: {"*": "*"} for pair in base.strict_down_pairs()}
    return Presheaf(base=base, sets=sets, restrictions=restr)


def global_sections(x: Presheaf, budget: NodeBudget):
    """Every global section of ``x``, lazily, as a dict element -> point.

    Points are picked only at maximal elements (``_extension_from_top``)."""
    if any(not pts for pts in x.sets.values()):
        return
    one = terminal(x.base)
    for fam in _natural_families(one, x, _extension_from_top(x.base), budget):
        yield {v: f["*"] for v, f in fam.items()}


def global_elements(x: Presheaf) -> list[NatTransform]:
    """All compatible families of points, as arrows from the terminal."""
    one = terminal(x.base)
    budget = NodeBudget("global-element search", GLOBAL_SEARCH_LIMIT)
    return [nat_transform(one, x, {v: {"*": pt} for v, pt in s.items()})
            for s in global_sections(x, budget)]


def _lower_sets_below(base: FinPoset, dv: tuple[str, ...],
                      limit: int) -> list[tuple]:
    """All downward-closed subsets of ``dv``, each as a tuple in dv order."""
    ascending = [u for u in reversed(_extension_desc(base)) if u in dv]
    preds = {u: [w for w in base.down(u) if w != u] for u in dv}

    def options(u, inside):
        return (False, True) if all(inside[w] for w in preds[u]) else (False,)

    out: list[tuple] = []
    for inside in depth_first(ascending, options):
        out.append(tuple(u for u in dv if inside[u]))
        if len(out) > limit:
            raise SizeLimit(f"more than {limit} sieves in one component")
    return out


def omega(base: FinPoset) -> Presheaf:
    """The subobject classifier: sieves (lower sets below each element)."""
    sets = {}
    for v in base.elements:
        sieves = _lower_sets_below(base, base.down(v), COMPONENT_LIMIT)
        sets[v] = _sorted_points(sieves)
    restr = {}
    for (frm, to) in base.strict_down_pairs():
        below = set(base.down(to))
        restr[(frm, to)] = {s: tuple(u for u in s if u in below)
                            for s in sets[frm]}
    return presheaf(base, sets, restr)


def characteristic(k: Subobject) -> NatTransform:
    """The classifying arrow of a subobject, landing in ``omega``."""
    x = k.of
    om = omega(x.base)
    comps = {}
    for v in x.base.elements:
        dv = x.base.down(v)
        comps[v] = {pt: tuple(u for u in dv
                              if x.restrict(pt, v, u) in k.parts[u])
                    for pt in x.sets[v]}
    return nat_transform(x, om, comps)


def subobject_from_characteristic(chi: NatTransform) -> Subobject:
    """Pull the maximal sieve back along a classifying arrow."""
    x = chi.source
    if chi.target != omega(x.base):
        raise NotNatural("arrow does not land in the subobject classifier")
    parts = {}
    for v in x.base.elements:
        principal = x.base.down(v)
        parts[v] = tuple(pt for pt in x.sets[v]
                         if chi.components[v][pt] == principal)
    return subobject(x, parts)


def _same_parent(j: Subobject, k: Subobject) -> Presheaf:
    if j.of != k.of:
        raise ParentMismatch("subobjects live over different presheaves")
    return j.of


def heyting_meet(j: Subobject, k: Subobject) -> Subobject:
    x = _same_parent(j, k)
    return Subobject(of=x, parts={
        v: tuple(pt for pt in j.parts[v] if pt in k.parts[v])
        for v in x.base.elements})


def heyting_join(j: Subobject, k: Subobject) -> Subobject:
    x = _same_parent(j, k)
    return Subobject(of=x, parts={
        v: _sorted_points(set(j.parts[v]) | set(k.parts[v]))
        for v in x.base.elements})


def heyting_implies(j: Subobject, k: Subobject) -> Subobject:
    """Largest subobject whose meet with ``j`` lies inside ``k``."""
    x = _same_parent(j, k)
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
    return Subobject(of=x, parts=parts)


def heyting_not(j: Subobject) -> Subobject:
    return heyting_implies(j, empty_subobject(j.of))


def subobject_leq(j: Subobject, k: Subobject) -> bool:
    x = _same_parent(j, k)
    return all(set(j.parts[v]) <= set(k.parts[v]) for v in x.base.elements)


def product(a: Presheaf, b: Presheaf) -> Presheaf:
    """Componentwise cartesian product."""
    if a.base != b.base:
        raise BaseMismatch("factors live over different posets")
    base = a.base
    sets = {v: _sorted_points(itertools.product(a.sets[v], b.sets[v]))
            for v in base.elements}
    restr = {}
    for (frm, to) in base.strict_down_pairs():
        restr[(frm, to)] = {(pa, pb): (a.restrict(pa, frm, to),
                                       b.restrict(pb, frm, to))
                            for (pa, pb) in sets[frm]}
    return presheaf(base, sets, restr)


def exponential(a: Presheaf, b: Presheaf) -> Presheaf:
    """The presheaf of natural partial families ``b ** a``.

    The component at ``v`` consists of families of functions
    ``f_u : a(u) -> b(u)`` for every ``u <= v``, natural in ``u``; points are
    encoded as sorted tuples of ``(u, graph)`` pairs.
    """
    if a.base != b.base:
        raise BaseMismatch("exponential factors live over different posets")
    base = a.base
    order_all = _extension_desc(base)
    sets = {}
    for v in base.elements:
        dv = base.down(v)
        bound = 1
        for u in dv:
            bound *= max(1, len(b.sets[u])) ** len(a.sets[u])
            if len(b.sets[u]) == 0 and len(a.sets[u]) > 0:
                bound = 0
        if bound > COMPONENT_LIMIT:
            raise SizeLimit(
                f"exponential component at {v!r} exceeds {COMPONENT_LIMIT}")
        families = _natural_families(a, b, [u for u in order_all if u in dv])
        encoded = [tuple((u, tuple((pt, fam[u][pt]) for pt in a.sets[u]))
                   for u in dv)
                   for fam in families]
        sets[v] = _sorted_points(encoded)
    restr = {}
    for (frm, to) in base.strict_down_pairs():
        below = set(base.down(to))
        restr[(frm, to)] = {enc: tuple(entry for entry in enc
                                       if entry[0] in below)
                            for enc in sets[frm]}
    return presheaf(base, sets, restr)


def _relative_subobjects(x: Presheaf, elems: tuple[str, ...],
                         limit: int = COMPONENT_LIMIT) -> list[dict]:
    """All families S(u) <= x(u) over ``elems`` closed under restriction."""
    order = [u for u in _extension_desc(x.base) if u in elems]
    uppers = _uppers(x.base, order)

    def options(u, chosen):
        forced = set()
        for w in uppers[u]:
            forced.update(x.restrict(pt, w, u) for pt in chosen[w])
        free = [pt for pt in x.sets[u] if pt not in forced]
        for mask in range(2 ** len(free)):
            yield _sorted_points(forced.union(
                pt for i, pt in enumerate(free) if mask >> i & 1))

    families: list[dict] = []
    for fam in depth_first(order, options):
        families.append(fam)
        if len(families) > limit:
            raise SizeLimit(f"more than {limit} relative subobjects")
    return families


def all_subobjects(x: Presheaf, limit: int = COMPONENT_LIMIT) -> list[Subobject]:
    """Every subobject of ``x``, in a canonical deterministic order."""
    return [Subobject(of=x, parts=fam)
            for fam in _relative_subobjects(x, x.base.elements, limit)]


def _encode_relative(parts: dict, elems) -> tuple:
    return tuple((u, parts[u]) for u in sorted(elems))


def power_object(x: Presheaf) -> Presheaf:
    """The power object: at ``v``, all subobjects of ``x`` below ``v``."""
    base = x.base
    sets = {}
    for v in base.elements:
        dv = base.down(v)
        fams = _relative_subobjects(x, dv)
        sets[v] = _sorted_points(_encode_relative(fam, dv) for fam in fams)
    restr = {}
    for (frm, to) in base.strict_down_pairs():
        below = set(base.down(to))
        restr[(frm, to)] = {enc: tuple(entry for entry in enc
                                       if entry[0] in below)
                            for enc in sets[frm]}
    return presheaf(base, sets, restr)


def name_of(k: Subobject) -> NatTransform:
    """The global element of the power object that picks out ``k``."""
    x = k.of
    px = power_object(x)
    comps = {v: {"*": _encode_relative(k.parts, x.base.down(v))}
             for v in x.base.elements}
    return nat_transform(terminal(x.base), px, comps)


def hom_set(x: Presheaf, y: Presheaf) -> list[NatTransform]:
    """All natural transformations x -> y, in lexicographic order."""
    if x.base != y.base:
        raise BaseMismatch("presheaves live over different posets")
    base = x.base
    bound = 1
    for v in base.elements:
        bound *= max(1, len(y.sets[v])) ** len(x.sets[v])
        if len(y.sets[v]) == 0 and len(x.sets[v]) > 0:
            return []
        if bound > GLOBAL_SEARCH_LIMIT:
            raise SizeLimit(f"hom-set search space exceeds {GLOBAL_SEARCH_LIMIT}")
    return [nat_transform(x, y, comps)
            for comps in _natural_families(x, y, _extension_desc(base))]


def truth_value_membership(x: NatTransform, k: Subobject) -> LowerSet:
    """Where a global element lies inside a subobject, as a lower set."""
    parent = k.of
    if x.target != parent:
        raise NotGlobalElement("the element does not live in the subobject's parent")
    if x.source != terminal(parent.base):
        raise NotGlobalElement("the transformation is not a global element")
    members = {v for v in parent.base.elements
               if x.components[v]["*"] in k.parts[v]}
    return lowerset(parent.base, members)


def truth_value_inclusion(j: Subobject, k: Subobject) -> LowerSet:
    """Hereditary inclusion [[ j <= k ]] as a lower set."""
    x = _same_parent(j, k)
    return lowerset(x.base, {
        v for v in x.base.elements
        if all(set(j.parts[u]) <= set(k.parts[u]) for u in x.base.down(v))})


def truth_value_element_of(t: Subobject, k: Subobject) -> LowerSet:
    """Where ``k``'s name lies inside a subobject of the power object."""
    x = k.of
    if t.of != power_object(x):
        raise ParentMismatch("first argument is not a subobject of the power object")
    return lowerset(x.base, {
        v for v in x.base.elements
        if _encode_relative(k.parts, x.base.down(v)) in t.parts[v]})


def _same_base(a: LowerSet, b: LowerSet) -> FinPoset:
    if a.base != b.base:
        raise BaseMismatch("lower sets live over different posets")
    return a.base


def lowerset_meet(a: LowerSet, b: LowerSet) -> LowerSet:
    return LowerSet(base=_same_base(a, b), members=a.members & b.members)


def lowerset_join(a: LowerSet, b: LowerSet) -> LowerSet:
    return LowerSet(base=_same_base(a, b), members=a.members | b.members)


def lowerset_implies(a: LowerSet, b: LowerSet) -> LowerSet:
    base = _same_base(a, b)
    members = {v for v in base.elements
               if all(u in b.members or u not in a.members
                      for u in base.down(v))}
    return LowerSet(base=base, members=frozenset(members))


def lowerset_not(a: LowerSet) -> LowerSet:
    return lowerset_implies(a, empty_lowerset(a.base))


def lowerset_heyting(op: str, a: LowerSet, b: LowerSet | None = None) -> LowerSet:
    """Dispatch on 'meet' | 'join' | 'implies' | 'not'."""
    if op == "not":
        if b is not None:
            raise ValidationError("'not' is unary")
        return lowerset_not(a)
    if b is None:
        raise ValidationError(f"{op!r} needs two arguments")
    table = {"meet": lowerset_meet, "join": lowerset_join,
             "implies": lowerset_implies}
    if op not in table:
        raise ValidationError(f"unknown lower-set operation {op!r}")
    return table[op](a, b)
