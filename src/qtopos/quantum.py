"""The spectral presheaf and contextual truth values.

This is the quantum layer on top of the generic kernel: each context
contributes its blocks as a finite set, restriction coarsens blocks, and
projectors are approximated per context by the smallest dominating (outer)
or largest dominated (inner) sums of blocks.  Truth values of propositions
land in the lower sets of the context poset, and the global-section search
decides whether a noncontextual valuation exists at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernel
from .contexts import Context, ContextPoset
from .errors import (
    Ambiguity,
    DimensionMismatch,
    DownwardClosureViolation,
    NotInContext,
    NotUnitNorm,
    ValidationError,
)
from .numerics import (
    Tolerance,
    as_operator,
    as_vector,
    eigensystem,
    frob,
    overlaps,
    proj_leq,  # unused here; kept importable for perfbench/tracer.py
    require_projector,
)

KS_NODE_LIMIT = 10 ** 7


@dataclass(frozen=True, eq=False)
class SpectralPresheaf:
    """Blocks per context, restricted by coarsening."""

    poset: ContextPoset
    underlying: kernel.Presheaf

    @property
    def base(self) -> kernel.FinPoset:
        return self.underlying.base


def spectral_presheaf(poset: ContextPoset,
                      tol: Tolerance = Tolerance()) -> SpectralPresheaf:
    """Build the spectral presheaf of a context poset.

    The component at a context is the tuple of its block indices; the
    restriction map to a smaller context sends each block to the unique
    coarser block it meets, and raises ``Ambiguity`` otherwise.
    """
    base = poset.base
    sets = {c.key: tuple(range(len(c.blocks))) for c in poset.contexts}
    restrictions = {}
    for (frm, to) in base.strict_down_pairs():
        meets = overlaps(poset.context(frm).blocks, poset.context(to).blocks, tol)
        for qi, row in enumerate(meets):
            if row.sum() != 1:
                raise Ambiguity(
                    f"block {qi} of {frm} meets {row.sum()} blocks of {to}")
        restrictions[(frm, to)] = dict(enumerate(meets.argmax(axis=1).tolist()))
    underlying = kernel.presheaf(base, sets, restrictions)
    return SpectralPresheaf(poset=poset, underlying=underlying)


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
    bound = tol.scaled(ctx.dim)
    coeffs = [complex(np.trace(p @ op)) / float(np.trace(p).real)
              for p in ctx.blocks]
    recon = sum(c.real * p for c, p in zip(coeffs, ctx.blocks))
    if frob(recon - op) > bound or max(abs(c.imag) for c in coeffs) > bound:
        raise NotInContext(
            f"operator is not a real combination of the blocks of {ctx.key}")
    return float(coeffs[element.block].real)


def _overlap_indices(proj: np.ndarray, ctx: Context, tol: Tolerance) -> tuple[int, ...]:
    if proj.shape[0] != ctx.dim:
        raise DimensionMismatch(
            f"projector dimension {proj.shape[0]} != context dimension {ctx.dim}")
    return tuple(np.flatnonzero(overlaps(ctx.blocks, [proj], tol)).tolist())


def _daseinise(p: np.ndarray, ctx: Context, tol: Tolerance,
               inner: bool) -> tuple[tuple[int, ...], np.ndarray]:
    """Block indices and matrix of an approximation of a checked projector.

    The outer approximation sums the blocks that meet ``p``; the inner one
    keeps the blocks that miss ``1 - p``.  Its matrix is ``1`` minus the
    dropped blocks: reports print the last bits of that difference.
    """
    if not inner:
        picked = _overlap_indices(p, ctx, tol)
        out = sum((ctx.blocks[i] for i in picked),
                  np.zeros((ctx.dim, ctx.dim), dtype=complex))
        out.setflags(write=False)
        return picked, out
    eye = np.eye(p.shape[0], dtype=complex)
    dropped, outer = _daseinise(eye - p, ctx, tol, False)
    out = eye - outer
    out = (out + out.conj().T) / 2
    out.setflags(write=False)
    return tuple(i for i in range(len(ctx.blocks)) if i not in dropped), out


def daseinise_projector(projector, ctx: Context,
                        tol: Tolerance = Tolerance()) -> np.ndarray:
    """Outer approximation: smallest block sum dominating the projector."""
    return _daseinise(require_projector(projector, tol, "projector"), ctx, tol, False)[1]


def daseinise_projector_inner(projector, ctx: Context,
                              tol: Tolerance = Tolerance()) -> np.ndarray:
    """Inner approximation: largest block sum dominated by the projector."""
    return _daseinise(require_projector(projector, tol, "projector"), ctx, tol, True)[1]


def daseinise_block_indices(projector, ctx: Context,
                            tol: Tolerance = Tolerance(),
                            inner: bool = False) -> tuple[int, ...]:
    """Indices of the blocks summed by the chosen approximation."""
    return _daseinise(require_projector(projector, tol, "projector"), ctx, tol, inner)[0]


def delta_subobject(projector, presheaf: SpectralPresheaf,
                    tol: Tolerance = Tolerance()) -> kernel.Subobject:
    """The outer approximation of a projector as a subobject of the presheaf."""
    p = require_projector(projector, tol, "projector")
    parts = {c.key: _overlap_indices(p, c, tol)
             for c in presheaf.poset.contexts}
    return kernel.subobject(presheaf.underlying, parts)


def _unit_state(psi, poset: ContextPoset, tol: Tolerance) -> np.ndarray:
    if not poset.contexts:
        raise ValidationError("cannot place a state on an empty poset")
    vec = as_vector(psi, poset.dim)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > tol.eps:
        raise NotUnitNorm(f"state norm {norm!r} is not 1 within tolerance")
    return vec


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
    for key, part in sub.parts.items():
        if not part:
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
    weights = {ctx.key: [float(np.vdot(vec, p @ vec).real) for p in ctx.blocks]
               for ctx in poset.contexts}
    obj = TruthObject(psi=vec, weights=weights, tol=tol)
    for ctx in poset.contexts:
        if not obj.contains(ctx.key, 2 ** len(ctx.blocks) - 1):
            raise ValidationError(f"identity missing from filter at {ctx.key}")
    return obj


def truth_value_pseudo(projector, psi, presheaf: SpectralPresheaf,
                       tol: Tolerance = Tolerance()) -> kernel.LowerSet:
    """Contexts where the state's support lies inside the outer approximation."""
    state = pseudo_state(psi, presheaf, tol)
    delta = delta_subobject(projector, presheaf, tol)
    members = {key for key in presheaf.base.elements
               if set(state.subobject.parts[key]) <= set(delta.parts[key])}
    for (u, v) in presheaf.base.strict_pairs():
        if v in members and u not in members:
            raise DownwardClosureViolation(
                f"truth set contains {v} but not {u} below it")
    return kernel.LowerSet(base=presheaf.base, members=frozenset(members))


def truth_value_truthobject(projector, psi, poset: ContextPoset,
                            tol: Tolerance = Tolerance()) -> kernel.LowerSet:
    """Contexts where the truth object holds the outer approximation."""
    obj = truth_object(psi, poset, tol)
    p = require_projector(projector, tol, "projector")
    masks = {ctx.key: sum(1 << i for i in _overlap_indices(p, ctx, tol))
             for ctx in poset.contexts}
    members = {key for key, mask in masks.items() if obj.contains(key, mask)}
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
    """Depth-first search for global sections, on ``kernel.global_sections``.

    A section is fixed by its blocks at the maximal contexts: these are
    picked in key order, block indices ascending, and each smaller context
    takes its block by restriction right after the last context above it.
    A node is one block taken at one context, forced ones included; more
    than ``KS_NODE_LIMIT`` raise ``SizeLimit``.  Beyond ``max_solutions``
    sections, the first ones in that order are listed, sorted by context
    key.  ``NoSection`` is reported only after the whole space is exhausted.
    """
    if not presheaf.poset.contexts:
        raise ValidationError("cannot search an empty poset")
    if max_solutions < 1:
        raise ValidationError("max_solutions must be positive")
    budget = kernel.NodeBudget("KS search", KS_NODE_LIMIT)
    sections = itertools.islice(
        kernel.global_sections(presheaf.underlying, budget), max_solutions)
    found = [TruthAssignment(assignments=s)
             for s in sorted(sections, key=lambda s: tuple(sorted(s.items())))]
    if not all(validate_assignment(presheaf, sec) for sec in found):
        raise ValidationError("search produced an inconsistent section")
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
        f_k = _daseinise(e_k, ctx, tol, True)[1]
        g_k = _daseinise(e_k, ctx, tol, False)[1]
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
