"""The spectral presheaf and contextual truth values.

This is the quantum layer on top of the generic kernel: each context
contributes its blocks as a finite set, restriction coarsens blocks (every
map of a poset read off its block table in one gather), and projectors are
approximated per context by the smallest dominating (outer) or largest
dominated (inner) sums of blocks.  Every context holds a block table and
its block ids: a poset's contexts share the poset's, a scenario's the one
they were generated into, and a ``make_context`` context holds one of its
own blocks.  The outer hits are one ``overlaps`` row per distinct block of
the table, and over a poset closure is checked on the table's "lies under"
edges.  The table keeps one record per projector and variant: the flags,
and each context's daseinisation row (indices and matrix) once that
context has been asked.  The poset-wide ``daseinise`` and the per-context
functions read the same rows, so the first ask of a projector makes one
``overlaps`` call in all and a repeated ask is a lookup.  The records are
bounded: ``_HITS_CAP`` projectors and ``POSET_LIMIT`` rows in all, on a
standalone context's table as on a poset's.  Every query runs at the
tolerance of the table it reads (``_tolerance``).  Truth values of
propositions land in the lower sets of the context poset, and the
global-section (Kochen-Specker) search decides whether a noncontextual
valuation exists at all.  That verdict needs only the maximal contexts and
their pairwise meets, read off the given contexts' block table: no closure
and no spectral presheaf are built, unless sections exist and must be
listed with their ``V..`` ids.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import kernel
from .contexts import (
    POSET_LIMIT,
    BlockTable,
    Context,
    ContextPoset,
    GivenContexts,
    _block_values,
    _check_closure,
    _pair_slices,
)
from .errors import (
    Ambiguity,
    DimensionMismatch,
    NotInContext,
    NotUnitNorm,
    ValidationError,
)
from .numerics import (
    PAIR_ENTRIES,
    Tolerance,
    as_operator,
    as_vector,
    eigensystem,
    overlaps,
    proj_leq,  # unused here; kept importable for perfbench/tracer.py
    require_projector,
)

KS_NODE_LIMIT = 10 ** 7
_HITS_CAP = 128  # records a table keeps, like numerics' projector verdicts
_ROWS_CAP = POSET_LIMIT  # rows in all of them: one poset's, <= 16.8 MB at d = 16
# Python's float ``sum`` compensates its rounding (Neumaier) from 3.12 on
_COMPENSATED_SUM = sys.version_info >= (3, 12)


@dataclass(frozen=True, eq=False)
class SpectralPresheaf:
    """Blocks per context, restricted by coarsening, at its poset's tolerance."""

    poset: ContextPoset
    underlying: kernel.Presheaf

    @property
    def base(self) -> kernel.FinPoset:
        return self.underlying.base

    @cached_property
    def table(self) -> tuple:
        """The poset's block table, each context's ids into it, and as
        ``lo, hi`` id arrays the distinct edges "block lo restricts to hi"."""
        ids = {c.key: c.ids for c in self.poset.contexts}
        edges = {(ids[frm][x], ids[to][y]) for (frm, to), mapping
                 in self.underlying.restrictions.items() for x, y in mapping.items()}
        return self.poset.table, ids, *np.array(sorted(edges), dtype=int).reshape(-1, 2).T

    @cached_property
    def _gather(self) -> np.ndarray:
        """Each point's block id into ``table``, in a subobject's ``bits``
        order: contexts in element order, blocks in component order."""
        x, ids = self.underlying, self.table[1]
        return np.array([ids[v][i] for v in x.base.elements for i in x.sets[v]],
                        dtype=np.intp)


def _tolerance(tol: Tolerance | None, table: BlockTable) -> Tolerance:
    """The tolerance a query at ``tol`` runs at: that of ``table`` (a
    poset's, a scenario's or a ``make_context`` context's own), which
    ``tol``, if given, must equal."""
    if tol is None or tol is table.tol or tol == table.tol:
        return table.tol
    raise ValidationError(f"a query at eps {tol.eps!r} on contexts built at "
                          f"eps {table.tol.eps!r}")


def _block_maps(table: BlockTable, frm: np.ndarray, to: np.ndarray, names) -> np.ndarray:
    """Per row of the block id arrays ``frm`` and ``to`` (padded with -1):
    the position in ``to`` of the one block that each block of ``frm``
    meets, read off ``table``'s meets in one gather (``PAIR_ENTRIES`` entries
    at a time).  The first block, row by row, that meets another number of
    blocks raises ``Ambiguity``; ``names(row)`` gives the row's two keys."""
    out = np.zeros(frm.shape, dtype=np.intp)
    step = max(1, PAIR_ENTRIES // max(1, frm.shape[1] * to.shape[1]))
    for lo in range(0, len(frm), step):
        a, b = frm[lo:lo + step], to[lo:lo + step]
        hit = table.meets[a[:, :, None], b[:, None, :]] & (b >= 0)[:, None, :]
        counts = hit.sum(axis=2)
        bad = np.argwhere((counts != 1) & (a >= 0))
        if len(bad):
            row, block = bad[0]
            above, below = names(lo + row)
            raise Ambiguity(f"block {block} of {above} meets "
                            f"{counts[row, block]} blocks of {below}")
        out[lo:lo + step] = hit.argmax(axis=2)
    return out


def spectral_presheaf(poset: ContextPoset,
                      tol: Tolerance | None = None) -> SpectralPresheaf:
    """Build the spectral presheaf of a context poset.

    The component at a context is the tuple of its block indices (in the
    kernel's order); the restriction map to a smaller context sends each
    block to the unique coarser block it meets, and raises ``Ambiguity``
    otherwise.  Every map is read off the poset's block table in one gather
    over its padded id rows (``_block_maps``).  That check is the only one:
    for w < u < v, let a block b of v meet only c of u, and c only e of w.
    Blocks partition unity within t = eps * d, so ||b - bc|| and ||c - ce||
    are at most (d + 1) t, and ||b - be|| at most 3 (d + 1) t < 0.85 for
    eps < 1e-3 and d <= 16: b meets e, hence no other block of w, and the
    maps compose.
    """
    _tolerance(tol, poset.table)
    base, rows = poset.base, poset._id_rows.T
    at = {c.key: i for i, c in enumerate(poset.contexts)}
    sets = {v: kernel._sorted_points(range(len(poset.contexts[at[v]].ids)))
            for v in base.elements}
    pairs = base.strict_down_pairs()
    maps = _block_maps(poset.table, rows[[at[frm] for frm, _ in pairs]],
                       rows[[at[to] for _, to in pairs]], pairs.__getitem__).tolist()
    restrictions = {(frm, to): dict(enumerate(row[:len(sets[frm])]))
                    for (frm, to), row in zip(pairs, maps)}
    return SpectralPresheaf(poset, kernel.Presheaf(base, sets, restrictions))


@dataclass(frozen=True, eq=False)
class SpectralElement:
    """One block of one context: a local valuation."""

    context: Context
    block: int

    def __post_init__(self):
        if not 0 <= self.block < len(self.context.blocks):
            raise ValidationError(
                f"block index {self.block} out of range for {self.context.key}")


def evaluate(element: SpectralElement, operator,
             tol: Tolerance | None = None) -> float:
    """The value of an operator of the context at a spectral element."""
    ctx = element.context
    tol = _tolerance(tol, ctx.table)
    op = as_operator(operator)
    if op.shape[0] != ctx.dim:
        raise DimensionMismatch(
            f"operator dimension {op.shape[0]} != context dimension {ctx.dim}")
    values, ok = _block_values(op[None], ctx.blocks, tol.scaled(ctx.dim))
    if not ok[0]:
        raise NotInContext(
            f"operator is not a real combination of the blocks of {ctx.key}")
    return float(values[0, element.block])


class _Hits(NamedTuple):
    """A ``BlockTable``'s record of one matrix and variant: its read-only
    ``flags``, one per held block, and ``rows``, the ``_approximation`` of
    each context asked so far, keyed by the context's ``ids``."""

    flags: np.ndarray
    rows: dict


def _record(p: np.ndarray, table: BlockTable, tol: Tolerance, inner: bool) -> _Hits:
    """``table``'s record of the complex matrix ``p``, keyed by ``(inner,
    shape, bytes)`` of ``p`` in ``table.hits``.  If missing, it is made with
    one ``overlaps`` at ``tol``: its flags say which of the table's distinct
    blocks meet ``p`` (``1 - p`` if ``inner``).  The records are dropped at
    ``_HITS_CAP`` of them and whenever ``intern`` grows the table, so their
    flags always cover the held blocks."""
    key = (inner, p.shape, p.tobytes())
    record = table.hits.get(key)
    if record is None:
        blocks, flags = table.blocks, np.zeros(0, dtype=bool)
        if len(blocks):
            if p.shape[0] != blocks.shape[-1]:
                raise DimensionMismatch(f"projector dimension {p.shape[0]} != "
                                        f"context dimension {blocks.shape[-1]}")
            q = np.eye(p.shape[0], dtype=complex) - p if inner else p
            flags = overlaps(blocks, q[None], tol)[:, 0]
        flags.setflags(write=False)
        if len(table.hits) >= _HITS_CAP:
            table.forget()
        record = table.hits[key] = _Hits(flags, {})
    return record


def _approximation(ctx: Context, hits: list, inner: bool) -> tuple[tuple, np.ndarray]:
    """Block indices and matrix of an approximation in ``ctx`` from ``hits``,
    its blocks' flags in a ``_record``: the outer one sums the blocks that
    meet ``p``, the inner one keeps the blocks that miss ``1 - p``; its
    matrix is ``1`` minus the dropped blocks."""
    picked = tuple(i for i, hit in enumerate(hits) if hit)
    m = sum((ctx.blocks[i] for i in picked), np.zeros((ctx.dim, ctx.dim), dtype=complex))
    if inner:
        m = np.eye(ctx.dim, dtype=complex) - m
        m = (m + m.conj().T) / 2
        picked = tuple(i for i in range(len(hits)) if i not in picked)
    m.setflags(write=False)
    return picked, m


def _rows(p: np.ndarray, table: BlockTable, tol: Tolerance, inner: bool,
          contexts) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The rows of ``contexts``, which hold ``table``, read off ``p``'s
    ``_record``: a context asked before gets the same read-only row, and
    another is built by ``_approximation`` from the flags and kept.  A row
    that would pass ``_ROWS_CAP`` rows in all first drops every record's
    rows (the flags stay)."""
    record = _record(p, table, tol, inner)
    rows = []
    for ctx in contexts:
        row = record.rows.get(ctx.ids)
        if row is None:
            if table.held_rows >= _ROWS_CAP:
                for held in table.hits.values():
                    held.rows.clear()
                table.held_rows = 0
            row = record.rows[ctx.ids] = _approximation(
                ctx, record.flags[list(ctx.ids)].tolist(), inner)
            table.held_rows += 1
        rows.append(row)
    return rows


def daseinise(projector, poset: ContextPoset, tol: Tolerance | None = None,
              inner: bool = False) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Outer (or ``inner``) daseinisation of a projector over the whole poset:
    per context, in ``poset.contexts`` order, block indices and matrix.  They
    are the rows ``_in_context`` gives one context at a time, from the same
    record of the poset's table (``_rows``): one ``overlaps`` call against
    the poset's distinct blocks, none if the table remembers the projector,
    and no sum of blocks for a context already asked."""
    tol = _tolerance(tol, poset.table)
    p = require_projector(projector, tol, "projector")
    return _rows(p, poset.table, tol, inner, poset.contexts)


def _in_context(p: np.ndarray, ctx: Context, tol: Tolerance, inner: bool):
    """``daseinise``'s row for ``ctx`` at its tolerance ``tol``: the row that
    its table (a poset's, a scenario's or its own) remembers (``_rows``)."""
    return _rows(p, ctx.table, tol, inner, (ctx,))[0]


def daseinise_projector(projector, ctx: Context,
                        tol: Tolerance | None = None) -> np.ndarray:
    """Outer approximation: smallest block sum dominating the projector."""
    tol = _tolerance(tol, ctx.table)
    return _in_context(require_projector(projector, tol, "projector"), ctx, tol, False)[1]


def daseinise_projector_inner(projector, ctx: Context,
                              tol: Tolerance | None = None) -> np.ndarray:
    """Inner approximation: largest block sum dominated by the projector."""
    tol = _tolerance(tol, ctx.table)
    return _in_context(require_projector(projector, tol, "projector"), ctx, tol, True)[1]


def delta_subobject(projector, presheaf: SpectralPresheaf,
                    tol: Tolerance | None = None) -> kernel.Subobject:
    """The outer approximation of a projector as a subobject of the presheaf."""
    tol = _tolerance(tol, presheaf.poset.table)
    p = require_projector(projector, tol, "projector")
    x, (table, _, lo, hi) = presheaf.underlying, presheaf.table
    hit = _record(p, table, tol, False).flags
    packed = np.packbits(hit[presheaf._gather], bitorder="little")
    sub = kernel.Subobject(x, int.from_bytes(packed.tobytes(), "little"))
    closed = not (hit[lo] & ~hit[hi]).any()  # else ``kernel.subobject`` raises
    return sub if closed else kernel.subobject(x, sub.parts)


def _unit_state(psi, poset: ContextPoset, tol: Tolerance) -> np.ndarray:
    if not poset.contexts:
        raise ValidationError("cannot place a state on an empty poset")
    vec = as_vector(psi, poset.dim)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > tol.eps:
        raise NotUnitNorm(f"state norm {norm!r} is not 1 within tolerance")
    return vec / norm


@dataclass(frozen=True, eq=False)
class PseudoState:
    """A unit vector as a subobject: its support blocks in every context."""

    psi: np.ndarray
    subobject: kernel.Subobject


def pseudo_state(psi, presheaf: SpectralPresheaf,
                 tol: Tolerance | None = None) -> PseudoState:
    tol = _tolerance(tol, presheaf.poset.table)
    vec = _unit_state(psi, presheaf.poset, tol)
    proj = np.outer(vec, vec.conj())
    sub = delta_subobject(proj, presheaf, tol)
    for key, mask in sub.masks.items():
        if not mask:
            raise ValidationError(f"pseudo-state is empty at context {key}")
    return PseudoState(psi=vec, subobject=sub)


@dataclass(frozen=True, eq=False)
class TruthObject:
    """Per context, the filter of block sums the state almost surely passes.

    A block sum is a set of a context's blocks; it is a member when its
    ``weights`` <psi|p_i|psi>, added in block order as Python's ``sum`` adds
    them (``_column_sums``), come to at least ``1 - eps``.
    """

    psi: np.ndarray
    weights: dict
    tol: Tolerance

    def contains(self, key: str, mask: int) -> bool:
        """Is the block sum ``mask`` (bit i set: block i is in the sum) a
        member at context ``key``?"""
        return (sum(w for i, w in enumerate(self.weights[key]) if mask >> i & 1)
                >= 1.0 - self.tol.eps)


def truth_object(psi, poset: ContextPoset,
                 tol: Tolerance | None = None) -> TruthObject:
    tol = _tolerance(tol, poset.table)
    vec, weights = _weights(psi, poset, tol)
    columns = weights.T.tolist()
    return TruthObject(psi=vec, weights={c.key: column[:len(c.ids)] for c, column
                                         in zip(poset.contexts, columns)}, tol=tol)


def truth_value_pseudo(projector, psi, presheaf: SpectralPresheaf,
                       tol: Tolerance | None = None) -> kernel.LowerSet:
    """Contexts V with the state's support inside the outer approximation on
    all of down(V): ``kernel.truth_value_inclusion``, as ``heyting`` has it.
    That hereditary set is the largest lower set inside the pointwise one
    (w_V inside delta(P)_V), so the two agree whenever the pointwise set is
    down-closed, as it is when restriction maps each w_V onto w_U."""
    state = pseudo_state(psi, presheaf, tol)
    return kernel.truth_value_inclusion(
        state.subobject, delta_subobject(projector, presheaf, tol))


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Each column's sum, its entries added in row order as Python's ``sum``
    adds floats, compensation included from Python 3.12 on, so a comparison
    of a sum gives ``sum``'s verdict.  A zero entry changes no sum (the
    sign of a zero aside)."""
    total = comp = np.zeros(rows.shape[1])
    for x in rows:
        t = total + x
        if _COMPENSATED_SUM:
            comp = comp + np.where(np.abs(total) >= np.abs(x),
                                   (total - t) + x, (x - t) + total)
        total = t
    return total + comp


def _weights(psi, poset: ContextPoset, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The unit state of ``psi`` and its weights <psi|p|psi> on every
    context's blocks, gathered through ``poset._id_rows`` (a pad reads 0):
    row i, column c is the weight of context c's i-th block.  The first
    context whose weights, added by ``_column_sums``, fall short of 1 - eps
    misses the identity, and raises."""
    vec = _unit_state(psi, poset, tol)
    weights = np.append(((poset.table.blocks @ vec) @ vec.conj()).real, 0.0)[poset._id_rows]
    whole = _column_sums(weights) >= 1.0 - tol.eps
    if not whole.all():
        key = poset.contexts[int(whole.argmin())].key
        raise ValidationError(f"identity missing from filter at {key}")
    return vec, weights


def truth_value_truthobject(projector, psi, poset: ContextPoset,
                            tol: Tolerance | None = None) -> kernel.LowerSet:
    """Contexts where the truth object holds the outer approximation.

    A context is in it when the weights of ``_weights`` on the blocks that
    the projector's remembered flags hit, added by ``_column_sums`` as
    Python's ``sum`` adds them in block order, come to 1 - eps or more; a
    context that misses the identity raises the error of ``truth_object``."""
    tol = _tolerance(tol, poset.table)
    weights = _weights(psi, poset, tol)[1]
    p = require_projector(projector, tol, "projector")
    hit = np.append(_record(p, poset.table, tol, False).flags, False)[poset._id_rows]
    held = (_column_sums(np.where(hit, weights, 0.0)) >= 1.0 - tol.eps).tolist()
    return kernel.lowerset(poset.base, [c.key for c, h in zip(poset.contexts, held) if h])


@dataclass(frozen=True, eq=False)
class TruthAssignment:
    """A choice of one block per context."""

    assignments: dict

    def items_sorted(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.assignments.items()))


def validate_assignment(presheaf: SpectralPresheaf,
                        assignment: TruthAssignment) -> bool:
    """Check restriction compatibility of a total assignment, from scratch."""
    x, picks = presheaf.underlying, assignment.assignments
    return (set(picks) == set(x.base.elements)
            and all(block in x.sets[key] for key, block in picks.items())
            and all(x.restrict(picks[v], v, u) == picks[u] for u, v in x.base.strict_pairs()))


@dataclass(frozen=True, eq=False)
class KsResult:
    """Outcome of the global-section search."""

    status: str
    sections: tuple[TruthAssignment, ...]
    nodes_explored: int


def _maximal_presheaf(given: GivenContexts, tops: list[int]) -> kernel.Presheaf:
    """The spectral presheaf on the maximal contexts at ``tops`` (positions
    in ``given.ids``, in ``V..`` key order, named by their rank) and one
    element under each pair of them whose meet is not trivial.  That
    element's points are the components of the bipartite graph of the
    pair's meeting blocks, read off the table as the meet pass reads them
    (``contexts._pair_slices``); each block restricts to its component.
    Its global sections are the closure's picks at the maximal contexts:
    two blocks agree on every common lower context iff they agree on the
    pair's meet, which the component names."""
    names = [f"{r:0{len(str(len(tops) - 1))}d}" for r in range(len(tops))]
    sets = {v: kernel._sorted_points(range(len(given.ids[i]))) for v, i in zip(names, tops)}
    leq, restrictions = {(v, v) for v in names}, {}
    rows = [given.ids[i] for i in tops]
    for a, b, x, y in itertools.chain.from_iterable(_pair_slices(given.table.meets, rows)):
        meet = f"m{names[a]}.{names[b]}"  # sorts after the ranks
        sets[meet] = kernel._sorted_points(set(x))
        leq |= {(meet, meet), (meet, names[a]), (meet, names[b])}
        restrictions[names[a], meet] = dict(enumerate(x))
        restrictions[names[b], meet] = dict(enumerate(y))
    return kernel.Presheaf(kernel.FinPoset(tuple(sorted(sets)), frozenset(leq)),
                           sets, restrictions)


def ks_search(maximal: Sequence[Context], closure: str = "intersections",
              tol: Tolerance = Tolerance(), max_solutions: int = 8) -> KsResult:
    """Global sections of the spectral presheaf of ``build_poset(maximal,
    closure, tol)`` by ``kernel.global_sections``.  A section is fixed by
    its blocks at the maximal contexts, and those need only agree on each
    pair's meet, so the verdict needs no closure: the search runs on the
    maximal contexts and their pairwise meets (``_maximal_presheaf``), read
    off the block table of the given contexts (``GivenContexts``), and a
    ``NoSection`` verdict is the whole answer.

    Blocks are picked at the maximal contexts in ``V..`` key order, block
    indices ascending, keeping every two maximal contexts' blocks
    consistent on their meet (MAC).  A node is one block taken at a maximal
    context; more than ``KS_NODE_LIMIT`` raise ``SizeLimit``.  The first
    ``max_solutions`` sections in that order are listed, sorted by their
    blocks in context key order, and each section's ``assignments`` is
    built in ``poset.base.elements`` (sorted key) order, the order of its
    ``items_sorted``.  Only a listing builds the closure, from the same
    table, and names each context's block by the one its first maximal
    context above it picks (``_block_maps``; that context is found in one
    pass over ``poset.leq``), so a listing past ``POSET_LIMIT`` raises
    ``SizeLimit``.  The closure's other refusals (an ambiguous restriction,
    a cycle among derived contexts) are reached only by a listing.
    ``NoSection`` means the space is exhausted.
    """
    _check_closure(closure)
    given = GivenContexts(maximal, tol)
    if not given.ids:
        raise ValidationError("cannot search an empty poset")
    if max_solutions < 1:
        raise ValidationError("max_solutions must be positive")
    tops = given.maximal()
    budget = kernel.NodeBudget("KS search", KS_NODE_LIMIT)
    found = list(itertools.islice(  # islice takes at most sys.maxsize
        kernel.global_sections(_maximal_presheaf(given, tops), budget),
        min(max_solutions, sys.maxsize)))
    if not found:
        return KsResult(status="NoSection", sections=(), nodes_explored=budget.nodes)
    poset = given.close(closure)
    keys = {c.ids: c.key for c in poset.contexts}
    rank = {keys[tuple(given.ids[i])]: r for r, i in enumerate(tops)}
    at = {c.key: i for i, c in enumerate(poset.contexts)}
    # each context's first maximal context above it: the tops' ranks follow
    # the order of poset.contexts
    first: dict[str, int] = {}
    for u, w in poset.leq:
        if w in rank and first.get(u, len(tops)) > rank[w]:
            first[u] = rank[w]
    up = [first[c.key] for c in poset.contexts]
    top_keys = list(rank)
    rows = poset._id_rows.T
    maps = _block_maps(poset.table, rows[[at[top_keys[r]] for r in up]], rows,
                       lambda c: (top_keys[up[c]], poset.contexts[c].key))
    picks = np.array(found)[:, :len(tops)][:, up]
    # a ContextPoset's elements are its sorted keys, in contexts order: rows
    # sort as their items do
    sections = tuple(TruthAssignment(assignments=dict(zip(poset.base.elements, row)))
                     for row in sorted(map(tuple, maps[np.arange(len(up)), picks].tolist())))
    return KsResult(status="SectionsExist", sections=sections, nodes_explored=budget.nodes)


def daseinise_observable(operator, ctx: Context,
                         tol: Tolerance | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inner and outer spectral-order approximations of a Hermitian operator.

    Returns ``(inner, outer)``.  With eigenvalues a_1 < ... < a_m and
    cumulative spectral projectors E_k, the outer approximation uses the
    inner daseinisation of each E_k and the inner approximation the outer
    one; both lie in the context and ``outer - inner`` is positive
    semidefinite.
    """
    tol = _tolerance(tol, ctx.table)
    pairs = eigensystem(operator, tol)
    dim = ctx.dim
    if pairs[0][1].shape[0] != dim:
        raise DimensionMismatch(
            f"operator dimension {pairs[0][1].shape[0]} != context dimension {dim}")
    e_k = outer = inner = prev_f = prev_g = np.zeros((dim, dim), dtype=complex)
    for value, proj in pairs:
        e_k = e_k + proj
        f_k = _in_context(e_k, ctx, tol, True)[1]
        g_k = _in_context(e_k, ctx, tol, False)[1]
        outer = outer + value * (f_k - prev_f)
        inner = inner + value * (g_k - prev_g)
        prev_f, prev_g = f_k, g_k
    outer = (outer + outer.conj().T) / 2
    inner = (inner + inner.conj().T) / 2
    outer.setflags(write=False)
    inner.setflags(write=False)
    return inner, outer


def value_interval(element: SpectralElement, operator,
                   tol: Tolerance | None = None) -> tuple[float, float]:
    """The [inner, outer] value interval of an observable at an element."""
    inner, outer = daseinise_observable(operator, element.context, tol)
    return (evaluate(element, inner, tol), evaluate(element, outer, tol))
