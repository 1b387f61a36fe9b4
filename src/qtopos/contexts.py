"""Commutative operator algebras as partitions of unity, and their poset.

A context is the finite abelian algebra generated by a commuting family of
Hermitian operators, stored concretely as its minimal projectors ("blocks").
Contexts are ordered by algebra inclusion, which on blocks reads: every
block of the larger context meets exactly one block of the smaller one
(see :func:`qtopos.numerics.overlaps`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonCommuting,
    NotProjector,
    SizeLimit,
    TrivialContext,
    UnknownBuiltin,
    ValidationError,
)
from .numerics import (
    Tolerance,
    as_operator,
    eigensystem,
    frob,
    is_projector,
    overlaps,
    proj_leq,  # unused here; kept importable for perfbench/tracer.py
    require_hermitian,
)

POSET_LIMIT = 4096

_key_counter = itertools.count()


def _fresh_key() -> str:
    return f"ctx{next(_key_counter)}"


def _block_sort_key(block: np.ndarray):
    trace = round(float(np.trace(block).real), 6)
    flat = block.reshape(-1)
    entries = tuple(x for z in flat for x in (round(z.real, 6) + 0.0,
                                              round(z.imag, 6) + 0.0))
    return (-trace, entries)


@dataclass(frozen=True, eq=False)
class Context:
    """A partition of unity: pairwise orthogonal projectors summing to 1."""

    key: str
    dim: int
    blocks: tuple[np.ndarray, ...]
    label: str | None = None

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(int(round(float(np.trace(b).real))) for b in self.blocks)

    def __repr__(self) -> str:
        tag = f" label={self.label!r}" if self.label else ""
        return f"<Context {self.key} dim={self.dim} ranks={self.ranks}{tag}>"


def make_context(blocks: Sequence, tol: Tolerance = Tolerance(),
                 key: str | None = None, label: str | None = None) -> Context:
    """Validate and canonically order a partition of unity."""
    mats = [as_operator(b) for b in blocks]
    if len(mats) < 2:
        raise TrivialContext("a context needs at least two blocks")
    dim = mats[0].shape[0]
    bound = tol.scaled(dim)
    for i, b in enumerate(mats):
        if b.shape[0] != dim:
            raise DimensionMismatch(f"block {i} has dimension {b.shape[0]} != {dim}")
        if not is_projector(b, tol):
            raise NotProjector(f"block {i} is not a projector within tolerance")
    meets = np.triu(overlaps(mats, mats, tol), 1)
    if meets.any():
        i, j = np.argwhere(meets)[0]
        raise ValidationError(
            f"blocks {i} and {j} are not orthogonal: "
            f"||p q|| = {frob(mats[i] @ mats[j]):.3e}")
    total = sum(mats)
    defect = frob(total - np.eye(dim))
    if defect > bound:
        raise ValidationError(f"blocks do not sum to identity: defect {defect:.3e}")
    ordered = tuple(sorted(mats, key=_block_sort_key))
    return Context(key=key or _fresh_key(), dim=dim, blocks=ordered, label=label)


def contexts_equal(a: Context, b: Context, tol: Tolerance = Tolerance()) -> bool:
    """Equality of block sets within tolerance: the blocks meet one to one."""
    if a.dim != b.dim or len(a.blocks) != len(b.blocks):
        return False
    meets = overlaps(a.blocks, b.blocks, tol)
    return bool((meets.sum(axis=0) == 1).all() and (meets.sum(axis=1) == 1).all())


def context_from_commuting_set(operators: Sequence, tol: Tolerance = Tolerance(),
                               key: str | None = None,
                               label: str | None = None) -> Context:
    """The context generated by a commuting family of Hermitian operators.

    Blocks are the joint eigenprojectors, obtained as the common refinement
    of each operator's eigenprojectors.
    """
    ops = [require_hermitian(op, tol) for op in operators]
    if not ops:
        raise ValidationError("cannot generate a context from no operators")
    dim = ops[0].shape[0]
    for i, op in enumerate(ops):
        if op.shape[0] != dim:
            raise DimensionMismatch(f"operator {i} has dimension {op.shape[0]} != {dim}")
    bound = tol.scaled(dim)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            norm = frob(ops[i] @ ops[j] - ops[j] @ ops[i])
            if norm > bound:
                raise NonCommuting(
                    f"operators {i} and {j} do not commute: "
                    f"commutator norm {norm:.6e}", i=i, j=j, norm=norm)

    blocks: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for op in ops:
        projs = [proj for _value, proj in eigensystem(op, tol)]
        refined = []
        for b in blocks:
            for proj in projs:
                q = b @ proj
                q = (q + q.conj().T) / 2
                if float(np.trace(q).real) > 0.5:
                    refined.append(q)
        blocks = refined
    if len(blocks) < 2:
        raise TrivialContext("the generated algebra is trivial (one block)")

    ctx = make_context(blocks, tol, key=key, label=label)
    for i, op in enumerate(ops):
        coeffs = [np.trace(p @ op) / np.trace(p).real for p in ctx.blocks]
        recon = sum(c.real * p for c, p in zip(coeffs, ctx.blocks))
        if frob(recon - op) > bound or max(abs(c.imag) for c in coeffs) > bound:
            raise ValidationError(
                f"operator {i} is not a real combination of the refined blocks")
    return ctx


def context_leq(smaller: Context, larger: Context,
                tol: Tolerance = Tolerance()) -> bool:
    """True iff every block of ``smaller`` is a sum of blocks of ``larger``.

    For partitions of unity that holds iff every block of ``larger`` meets
    exactly one block of ``smaller``.
    """
    if smaller.dim != larger.dim:
        raise DimensionMismatch(
            f"dimensions {smaller.dim} and {larger.dim} differ")
    meets = overlaps(smaller.blocks, larger.blocks, tol)
    return bool((meets.sum(axis=0) == 1).all())


def context_intersection(a: Context, b: Context, tol: Tolerance = Tolerance(),
                         key: str | None = None,
                         label: str | None = None) -> Context | None:
    """Largest common coarsening of two contexts, or None when trivial.

    Blocks of either context are joined whenever they overlap; each connected
    component of that bipartite graph contributes one block of the result.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    bound = tol.scaled(a.dim)
    na, nb = len(a.blocks), len(b.blocks)
    parent = list(range(na + nb))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for i, j in np.argwhere(overlaps(a.blocks, b.blocks, tol)):
        union(int(i), na + int(j))
    groups: dict[int, list[int]] = {}
    for node in range(na + nb):
        groups.setdefault(find(node), []).append(node)
    if len(groups) < 2:
        return None

    blocks = []
    for root in sorted(groups):
        members = groups[root]
        from_a = sum(a.blocks[i] for i in members if i < na)
        from_b = sum(b.blocks[j - na] for j in members if j >= na)
        if frob(from_a - from_b) > bound:
            raise ValidationError(
                "inconsistent intersection component: the two sides disagree")
        blocks.append(from_a)
    return make_context(blocks, tol, key=key, label=label)


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def coarsenings(ctx: Context, tol: Tolerance = Tolerance()) -> Iterator[Context]:
    """All proper block-merging coarsenings of a context.

    The all-singletons partition (the context itself) and the one-block
    partition (the excluded trivial algebra) are both skipped.
    """
    indices = list(range(len(ctx.blocks)))
    for part in _set_partitions(indices):
        if len(part) < 2 or len(part) == len(indices):
            continue
        merged = [sum(ctx.blocks[i] for i in group) for group in part]
        yield make_context(merged, tol)


@dataclass(frozen=True, eq=False)
class ContextPoset:
    """Finitely many contexts ordered by algebra inclusion."""

    dim: int
    contexts: tuple[Context, ...]
    leq: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "_index", {c.key: c for c in self.contexts})

    def context(self, key: str) -> Context:
        return self._index[key]

    def keys(self) -> tuple[str, ...]:
        return tuple(c.key for c in self.contexts)

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def __len__(self) -> int:
        return len(self.contexts)


def _context_sort_key(ctx: Context):
    return (len(ctx.blocks), tuple(_block_sort_key(b) for b in ctx.blocks))


def build_poset(maximal: Sequence[Context], closure: str = "intersections",
                tol: Tolerance = Tolerance()) -> ContextPoset:
    """Close a family of contexts under the chosen policy and order it.

    ``intersections`` closes under pairwise intersection to a fixed point;
    ``coarsenings`` additionally adds every block-merging coarsening.
    """
    if closure not in ("intersections", "coarsenings"):
        raise ValidationError(
            f"closure must be 'intersections' or 'coarsenings', got {closure!r}")
    if not maximal:
        return ContextPoset(dim=0, contexts=(), leq=frozenset())
    dim = maximal[0].dim
    ctxs: list[Context] = []

    def absorb(candidate: Context) -> bool:
        if candidate.dim != dim:
            raise DimensionMismatch(
                f"context dimension {candidate.dim} != {dim}")
        if any(contexts_equal(candidate, seen, tol) for seen in ctxs):
            return False
        ctxs.append(candidate)
        if len(ctxs) > POSET_LIMIT:
            raise SizeLimit(f"closure exceeded {POSET_LIMIT} contexts")
        return True

    for ctx in maximal:
        absorb(ctx)

    while True:
        added = False
        size = len(ctxs)
        for i in range(size):
            for j in range(i + 1, size):
                meet = context_intersection(ctxs[i], ctxs[j], tol)
                if meet is not None and absorb(meet):
                    added = True
        if closure == "coarsenings":
            for ctx in list(ctxs):
                for coarse in coarsenings(ctx, tol):
                    if absorb(coarse):
                        added = True
        if not added:
            break

    ordered = sorted(ctxs, key=_context_sort_key)
    width = max(2, len(str(len(ordered) - 1)))
    relabeled = [Context(key=f"V{i:0{width}d}", dim=c.dim, blocks=c.blocks,
                         label=c.label)
                 for i, c in enumerate(ordered)]
    # A subalgebra has no more blocks than the algebra containing it.
    leq = frozenset((a.key, b.key)
                    for a in relabeled for b in relabeled
                    if len(a.blocks) <= len(b.blocks) and context_leq(a, b, tol))
    return ContextPoset(dim=dim, contexts=tuple(relabeled), leq=leq)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def builtin_scenario(name: str, tol: Tolerance = Tolerance()):
    """Return (dim, named operators, maximal contexts) for a builtin setup."""
    if name == "pauli2":
        operators = {"sx": _SX, "sy": _SY, "sz": _SZ}
        contexts = [context_from_commuting_set([op], tol, key=nm, label=nm)
                    for nm, op in operators.items()]
        return 2, operators, contexts
    if name == "mermin-square":
        kron = np.kron
        operators = {
            "XI": kron(_SX, _ID2), "IX": kron(_ID2, _SX), "XX": kron(_SX, _SX),
            "IY": kron(_ID2, _SY), "YI": kron(_SY, _ID2), "YY": kron(_SY, _SY),
            "XY": kron(_SX, _SY), "YX": kron(_SY, _SX), "ZZ": kron(_SZ, _SZ),
        }
        lines = {
            "row0": ("XI", "IX", "XX"),
            "row1": ("IY", "YI", "YY"),
            "row2": ("XY", "YX", "ZZ"),
            "col0": ("XI", "IY", "XY"),
            "col1": ("IX", "YI", "YX"),
            "col2": ("XX", "YY", "ZZ"),
        }
        contexts = [context_from_commuting_set([operators[nm] for nm in names],
                                               tol, key=line, label=line)
                    for line, names in lines.items()]
        return 4, operators, contexts
    raise UnknownBuiltin(f"unknown builtin scenario {name!r}")
