"""The spectral presheaf and contextual truth values.

This is the quantum layer on top of the generic kernel: each context
contributes its blocks as a finite set, restriction coarsens blocks, and
projectors are approximated per context by the smallest dominating (outer)
or largest dominated (inner) sums of blocks.  Over a poset, the outer hits are
one ``overlaps`` row per distinct block of its table, and closure is checked
on the table's "lies under" edges.  Truth values of propositions land in the
lower sets of the context poset, and the global-section search decides
whether a noncontextual valuation exists at all.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kernel
from .contexts import BlockTable, Context, ContextPoset, _block_values
from .errors import (
    Ambiguity,
    DimensionMismatch,
    NotInContext,
    NotUnitNorm,
    ValidationError,
)
from .numerics import (
    Tolerance,
    as_operator,
    as_vector,
    eigensystem,
    overlaps,
    proj_leq,  # unused here; kept importable for perfbench/tracer.py
    require_projector,
)

KS_NODE_LIMIT = 10 ** 7


@dataclass(frozen=True, eq=False)
class SpectralPresheaf:
    """Blocks per context, restricted by coarsening, at tolerance ``tol``."""

    poset: ContextPoset
    underlying: kernel.Presheaf
    tol: Tolerance = Tolerance()

    @property
    def base(self) -> kernel.FinPoset:
        return self.underlying.base

    @cached_property
    def table(self) -> tuple:
        """The poset's block table at ``tol``, each context's ids into it, and
        as ``lo, hi`` id arrays the distinct edges "block lo restricts to hi"."""
        table, ids = self.poset.blocks_at(self.tol)
        edges = {(ids[frm][x], ids[to][y]) for (frm, to), mapping
                 in self.underlying.restrictions.items() for x, y in mapping.items()}
        return table, ids, *np.array(sorted(edges), dtype=int).reshape(-1, 2).T

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every context's block ids into ``table``, contexts in element order,
        each block's bit in its context's masks, and where each context starts."""
        x, ids = self.underlying, self.table[1]
        pairs = np.array([(ids[v][i], bit) for v in x.base.elements
                          for i, bit in x._bits[v].items()], dtype=np.int64)
        sizes = np.array([len(x.sets[v]) for v in x.base.elements], dtype=np.intp)
        return *pairs.reshape(-1, 2).T, np.cumsum(sizes) - sizes


def spectral_presheaf(poset: ContextPoset,
                      tol: Tolerance = Tolerance()) -> SpectralPresheaf:
    """Build the spectral presheaf of a context poset.

    The component at a context is the tuple of its block indices (in the
    kernel's order); the restriction map to a smaller context sends each
    block to the unique coarser block it meets, and raises ``Ambiguity``
    otherwise.  The maps into one context are read off the poset's block
    table in one gather.  That check is the only one: for w < u < v, let a
    block b of v meet only c of u, and c only e of w.  Blocks partition unity
    within t = eps * d, so ||b - bc|| and ||c - ce|| are at most (d + 1) t,
    and ||b - be|| at most 3 (d + 1) t < 0.85 for eps < 1e-3 and d <= 16:
    b meets e, hence no other block of w, and the maps compose.
    """
    base = poset.base
    table, ids = poset.blocks_at(tol)
    sets = {v: kernel._sorted_points(range(len(ids[v]))) for v in base.elements}
    restrictions = {}
    for to, pairs in itertools.groupby(base.strict_down_pairs(), lambda p: p[1]):
        above = [frm for frm, _ in pairs]
        meets = table.meets[np.ix_([b for frm in above for b in ids[frm]], ids[to])]
        counts, targets = meets.sum(axis=1), meets.argmax(axis=1).tolist()
        bad, start = np.flatnonzero(counts != 1), 0
        for frm in above:
            stop = start + len(ids[frm])
            if bad.size and bad[0] < stop:
                raise Ambiguity(f"block {bad[0] - start} of {frm} meets "
                                f"{counts[bad[0]]} blocks of {to}")
            restrictions[(frm, to)] = dict(enumerate(targets[start:stop]))
            start = stop
    return SpectralPresheaf(poset=poset, tol=tol,
                            underlying=kernel.Presheaf(base, sets, restrictions))


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
             tol: Tolerance = Tolerance()) -> float:
    """The value of an operator of the context at a spectral element."""
    ctx = element.context
    op = as_operator(operator)
    if op.shape[0] != ctx.dim:
        raise DimensionMismatch(
            f"operator dimension {op.shape[0]} != context dimension {ctx.dim}")
    values = _block_values(op, ctx.blocks, tol.scaled(ctx.dim))
    if values is None:
        raise NotInContext(
            f"operator is not a real combination of the blocks of {ctx.key}")
    return values[element.block]


def _outer_hits(p: np.ndarray, stack: BlockTable | Context,
                tol: Tolerance) -> np.ndarray:
    """Which of ``stack.blocks`` (a table's distinct blocks or a context's own)
    meet ``p``, as flags from one ``overlaps`` call."""
    if not len(stack.blocks):
        return np.zeros(0, dtype=bool)
    if p.shape[0] != len(stack.blocks[0]):
        raise DimensionMismatch(f"projector dimension {p.shape[0]} != "
                                f"context dimension {len(stack.blocks[0])}")
    return overlaps(stack.blocks, [p], tol)[:, 0]


def _daseinise(p: np.ndarray, contexts: Sequence[Context], stack, ids, tol: Tolerance,
               inner: bool) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Per context, block indices and matrix of an approximation of ``p``.

    The outer approximation sums the blocks that meet ``p`` (``_outer_hits``);
    the inner one keeps the blocks that miss ``1 - p``.  Its matrix is ``1``
    minus the dropped blocks: reports print the last bits of that difference.
    """
    eye = np.eye(p.shape[0], dtype=complex)
    flags = _outer_hits(eye - p if inner else p, stack, tol).tolist()
    out = []
    for ctx in contexts:
        picked = tuple(i for i, b in enumerate(ids[ctx.key]) if flags[b])
        m = sum((ctx.blocks[i] for i in picked),
                np.zeros((ctx.dim, ctx.dim), dtype=complex))
        if inner:
            m = eye - m
            m = (m + m.conj().T) / 2
            picked = tuple(i for i in range(len(ctx.blocks)) if i not in picked)
        m.setflags(write=False)
        out.append((picked, m))
    return out


def daseinise(projector, poset: ContextPoset, tol: Tolerance = Tolerance(),
              inner: bool = False) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Outer (or ``inner``) daseinisation of a projector over the whole poset:
    per context, in ``poset.contexts`` order, block indices and matrix, from
    one ``overlaps`` call against the poset's distinct blocks."""
    p = require_projector(projector, tol, "projector")
    return _daseinise(p, poset.contexts, *poset.blocks_at(tol), tol, inner)


def _in_context(p: np.ndarray, ctx: Context, tol: Tolerance, inner: bool):
    return _daseinise(p, [ctx], ctx, {ctx.key: range(len(ctx.blocks))}, tol, inner)[0]


def daseinise_projector(projector, ctx: Context,
                        tol: Tolerance = Tolerance()) -> np.ndarray:
    """Outer approximation: smallest block sum dominating the projector."""
    return _in_context(require_projector(projector, tol, "projector"), ctx, tol, False)[1]


def daseinise_projector_inner(projector, ctx: Context,
                              tol: Tolerance = Tolerance()) -> np.ndarray:
    """Inner approximation: largest block sum dominated by the projector."""
    return _in_context(require_projector(projector, tol, "projector"), ctx, tol, True)[1]


def delta_subobject(projector, presheaf: SpectralPresheaf,
                    tol: Tolerance = Tolerance()) -> kernel.Subobject:
    """The outer approximation of a projector as a subobject of the presheaf."""
    p = require_projector(projector, tol, "projector")
    x, (table, _, lo, hi) = presheaf.underlying, presheaf.table
    hit = _outer_hits(p, table, tol)
    flat, bits, starts = presheaf._gather  # Σ(v)'s points are block indices
    masks = np.add.reduceat(np.where(hit[flat], bits, 0), starts)
    sub = kernel.Subobject(x, dict(zip(x.base.elements, masks.tolist())))
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
                 tol: Tolerance = Tolerance()) -> PseudoState:
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

    A block sum is a bitmask over block indices (bit i set means block i is
    in the sum); it is a member when its ``weights`` <psi|p_i|psi> add up to
    at least ``1 - eps``.
    """

    psi: np.ndarray
    weights: dict
    tol: Tolerance

    def contains(self, key: str, mask: int) -> bool:
        return (sum(w for i, w in enumerate(self.weights[key]) if mask >> i & 1)
                >= 1.0 - self.tol.eps)


def truth_object(psi, poset: ContextPoset,
                 tol: Tolerance = Tolerance()) -> TruthObject:
    vec = _unit_state(psi, poset, tol)
    table, ids = poset.blocks_at(tol)
    per_block = ((table.blocks @ vec) @ vec.conj()).real.tolist()
    weights = {c.key: [per_block[b] for b in ids[c.key]] for c in poset.contexts}
    obj = TruthObject(psi=vec, weights=weights, tol=tol)
    for ctx in poset.contexts:
        if not obj.contains(ctx.key, 2 ** len(ctx.blocks) - 1):
            raise ValidationError(f"identity missing from filter at {ctx.key}")
    return obj


def truth_value_pseudo(projector, psi, presheaf: SpectralPresheaf,
                       tol: Tolerance = Tolerance()) -> kernel.LowerSet:
    """Contexts V with the state's support inside the outer approximation on
    all of down(V): ``kernel.truth_value_inclusion``, as ``heyting`` has it.
    That hereditary set is the largest lower set inside the pointwise one
    (w_V inside delta(P)_V), so the two agree whenever the pointwise set is
    down-closed, as it is when restriction maps each w_V onto w_U."""
    state = pseudo_state(psi, presheaf, tol)
    return kernel.truth_value_inclusion(
        state.subobject, delta_subobject(projector, presheaf, tol))


def truth_value_truthobject(projector, psi, poset: ContextPoset,
                            tol: Tolerance = Tolerance()) -> kernel.LowerSet:
    """Contexts where the truth object holds the outer approximation."""
    obj = truth_object(psi, poset, tol)
    p = require_projector(projector, tol, "projector")
    table, ids = poset.blocks_at(tol)
    flags = _outer_hits(p, table, tol).tolist()
    members = {k for k, row in ids.items()
               if obj.contains(k, sum(1 << i for i, b in enumerate(row) if flags[b]))}
    return kernel.lowerset(poset.base, members)


@dataclass(frozen=True, eq=False)
class TruthAssignment:
    """A choice of one block per context."""

    assignments: dict

    def items_sorted(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.assignments.items()))


def validate_assignment(presheaf: SpectralPresheaf,
                        assignment: TruthAssignment) -> bool:
    """Check restriction compatibility of a total assignment, from scratch."""
    x = presheaf.underlying
    picks = assignment.assignments
    if set(picks) != set(x.base.elements):
        return False
    for key, block in picks.items():
        if block not in x.sets[key]:
            return False
    for (u, v) in x.base.strict_pairs():
        if x.restrict(picks[v], v, u) != picks[u]:
            return False
    return True


@dataclass(frozen=True, eq=False)
class KsResult:
    """Outcome of the global-section search."""

    status: str
    sections: tuple[TruthAssignment, ...]
    nodes_explored: int


def ks_search(presheaf: SpectralPresheaf, max_solutions: int = 8) -> KsResult:
    """Global sections by ``kernel.global_sections``: blocks are picked at the
    maximal contexts in key order, block indices ascending, keeping every
    two maximal contexts' blocks consistent on their common lower contexts
    (MAC); smaller contexts take their blocks by restriction.  A node is one
    block taken at a maximal context; more than ``KS_NODE_LIMIT`` raise
    ``SizeLimit``.  The first ``max_solutions`` sections in that order are
    listed, sorted by context key.  ``NoSection`` means the space is
    exhausted.
    """
    if not presheaf.poset.contexts:
        raise ValidationError("cannot search an empty poset")
    if max_solutions < 1:
        raise ValidationError("max_solutions must be positive")
    budget = kernel.NodeBudget("KS search", KS_NODE_LIMIT)
    rows = itertools.islice(  # islice takes at most sys.maxsize
        kernel.global_sections(presheaf.underlying, budget),
        min(max_solutions, sys.maxsize))
    # a ContextPoset's elements are its sorted keys: rows sort as their items do
    found = [TruthAssignment(assignments=dict(zip(presheaf.base.elements, row)))
             for row in sorted(rows)]
    status = "SectionsExist" if found else "NoSection"
    return KsResult(status=status, sections=tuple(found), nodes_explored=budget.nodes)


def daseinise_observable(operator, ctx: Context,
                         tol: Tolerance = Tolerance()) -> tuple[np.ndarray, np.ndarray]:
    """Inner and outer spectral-order approximations of a Hermitian operator.

    Returns ``(inner, outer)``.  With eigenvalues a_1 < ... < a_m and
    cumulative spectral projectors E_k, the outer approximation uses the
    inner daseinisation of each E_k and the inner approximation the outer
    one; both lie in the context and ``outer - inner`` is positive
    semidefinite.
    """
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
                   tol: Tolerance = Tolerance()) -> tuple[float, float]:
    """The [inner, outer] value interval of an observable at an element."""
    inner, outer = daseinise_observable(operator, element.context, tol)
    return (evaluate(element, inner, tol), evaluate(element, outer, tol))
