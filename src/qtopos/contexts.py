"""Commutative operator algebras as partitions of unity, and their poset.

A context is the finite abelian algebra generated by a commuting family of
Hermitian operators, stored concretely as its minimal projectors ("blocks").
Contexts are ordered by algebra inclusion, which on blocks reads: every
block of the larger context meets exactly one block of the smaller one
(see :func:`qtopos.numerics.overlaps`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
from .kernel import FinPoset
from .numerics import (
    Tolerance,
    _projector_ok,
    as_operator,
    eigensystem,
    frob,
    is_projector,
    overlaps,
    proj_leq,  # unused here; kept importable for perfbench/tracer.py
    require_hermitian,
    same_blocks,
)

POSET_LIMIT = 4096

_key_counter = itertools.count()


def _fresh_key() -> str:
    return f"ctx{next(_key_counter)}"


def _block_sort_keys(stack: np.ndarray) -> list[tuple]:
    """Per block, minus its trace, then the real and imaginary parts of its
    entries, all rounded to 6 digits (-0.0 reads as 0.0)."""
    traces = np.trace(stack, axis1=1, axis2=2).real.tolist()
    parts = np.round(stack.reshape(len(stack), -1).view(np.float64), 6) + 0.0
    return [(-round(t, 6), tuple(row)) for t, row in zip(traces, parts.tolist())]


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


def _check_partition(mats: Sequence[np.ndarray], meets: np.ndarray,
                     bound: float) -> None:
    """Raise unless blocks that meet as ``meets`` are orthogonal and sum to 1."""
    off = np.triu(meets, 1)
    if off.any():
        i, j = np.argwhere(off)[0]
        raise ValidationError(
            f"blocks {i} and {j} are not orthogonal: "
            f"||p q|| = {frob(mats[i] @ mats[j]):.3e}")
    defect = frob(sum(mats) - np.eye(mats[0].shape[0]))
    if defect > bound:
        raise ValidationError(f"blocks do not sum to identity: defect {defect:.3e}")


def _merge(blocks: Sequence[np.ndarray], group) -> np.ndarray:
    """The sum of the blocks at the indices in ``group``, in that order."""
    return sum(blocks[i] for i in group)


def _meet_blocks(a_blocks, b_blocks, meets: np.ndarray,
                 bound: float) -> list[np.ndarray] | None:
    """The meet of two partitions whose blocks meet as ``meets``: one block,
    summed on ``a``'s side, per connected component (union-find)."""
    na = len(a_blocks)
    parent = list(range(na + len(b_blocks)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in np.argwhere(meets):
        parent[find(int(i))] = find(na + int(j))
    groups: dict[int, list[int]] = {}
    for node in range(len(parent)):
        groups.setdefault(find(node), []).append(node)
    if len(groups) < 2:
        return None
    blocks = []
    for root in sorted(groups):
        from_a = _merge(a_blocks, [i for i in groups[root] if i < na])
        from_b = _merge(b_blocks, [j - na for j in groups[root] if j >= na])
        if frob(from_a - from_b) > bound:
            raise ValidationError(
                "inconsistent intersection component: the two sides disagree")
        blocks.append(from_a)
    return blocks


def _block_values(op: np.ndarray, blocks, bound: float) -> list[float] | None:
    """tr(p op) / tr(p) per block p, or None unless ``op`` is the real
    combination of the blocks with these values, within ``bound``."""
    coeffs = [complex(np.trace(p @ op)) / float(np.trace(p).real) for p in blocks]
    recon = sum(c.real * p for c, p in zip(coeffs, blocks))
    bad = frob(recon - op) > bound or max(abs(c.imag) for c in coeffs) > bound
    return None if bad else [c.real for c in coeffs]


def make_context(blocks: Sequence, tol: Tolerance = Tolerance(),
                 label: str | None = None) -> Context:
    """Validate and canonically order a partition of unity, keyed by its
    ``label`` or, without one, by a fresh ``ctxN`` key."""
    mats = [as_operator(b) for b in blocks]
    if len(mats) < 2:
        raise TrivialContext("a context needs at least two blocks")
    dim = mats[0].shape[0]
    for i, b in enumerate(mats):
        if b.shape[0] != dim:
            raise DimensionMismatch(f"block {i} has dimension {b.shape[0]} != {dim}")
        if not is_projector(b, tol):
            raise NotProjector(f"block {i} is not a projector within tolerance")
    _check_partition(mats, overlaps(mats, mats, tol), tol.scaled(dim))
    keys = _block_sort_keys(np.stack(mats))
    ordered = tuple(mats[i] for i in sorted(range(len(mats)), key=keys.__getitem__))
    return Context(key=label or _fresh_key(), dim=dim, blocks=ordered, label=label)


def contexts_equal(a: Context, b: Context, tol: Tolerance = Tolerance()) -> bool:
    """Equality of block sets within tolerance: the blocks meet one to one."""
    if a.dim != b.dim or len(a.blocks) != len(b.blocks):
        return False
    meets = overlaps(a.blocks, b.blocks, tol)
    return bool((meets.sum(axis=0) == 1).all() and (meets.sum(axis=1) == 1).all())


def context_from_commuting_set(operators: Sequence, tol: Tolerance = Tolerance(),
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

    ctx = make_context(blocks, tol, label=label)
    for i, op in enumerate(ops):
        if _block_values(op, ctx.blocks, bound) is None:
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
                         label: str | None = None) -> Context | None:
    """Largest common coarsening of two contexts, or None when trivial.

    Blocks of either context are joined whenever they overlap; each connected
    component of that bipartite graph contributes one block of the result.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    blocks = _meet_blocks(a.blocks, b.blocks, overlaps(a.blocks, b.blocks, tol),
                          tol.scaled(a.dim))
    if blocks is None:
        return None
    return make_context(blocks, tol, label=label)


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def _proper_partitions(k: int) -> tuple[list[tuple], list[tuple]]:
    """The proper coarsenings of ``k`` blocks as groups of block positions,
    in ``_set_partitions`` order, and the groups of two or more blocks in
    order of first appearance.  The all-singletons partition (the context
    itself) and the one-block partition (the trivial algebra) are skipped."""
    parts = [tuple(map(tuple, part)) for part in _set_partitions(list(range(k)))
             if 1 < len(part) < k]
    sums = dict.fromkeys(group for part in parts for group in part if len(group) > 1)
    return parts, list(sums)


def _bell(k: int) -> int:
    """The number of partitions of ``k`` things (Bell triangle)."""
    row = [1]
    for _ in range(k - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


def coarsenings(ctx: Context, tol: Tolerance = Tolerance()) -> Iterator[Context]:
    """All proper block-merging coarsenings of a context, one at a time."""
    k = len(ctx.blocks)
    for part in _set_partitions(list(range(k))):
        if 1 < len(part) < k:
            yield make_context([_merge(ctx.blocks, group) for group in part], tol)


class BlockTable:
    """Distinct blocks (:func:`qtopos.numerics.same_blocks`) at one
    tolerance, with their sort keys and which of them meet."""

    def __init__(self, dim: int, tol: Tolerance):
        self.tol = tol
        self.mats = np.empty((16, dim, dim), dtype=complex)
        self.meets = np.zeros((16, 16), dtype=bool)
        self.keys: list[tuple] = []
        self.blocks = self.mats[:0]  # the distinct blocks, stacked in id order

    def intern(self, blocks: Sequence[np.ndarray]) -> list[int]:
        """The ids of a context's blocks, adding the blocks not yet held: a
        last row of ones sends ``argmax`` to ``n`` for each of those."""
        stack, n = np.asarray(blocks), len(self.keys)
        same = same_blocks(self.mats[:n], stack, self.tol)
        ids = np.concatenate([same, np.ones((1, len(stack)), bool)]).argmax(axis=0)
        new = np.flatnonzero(ids == n)
        if not new.size:
            return ids.tolist()
        if not _projector_ok(stack[new], self.tol).all():
            raise NotProjector("a block is not a projector within tolerance")
        m = n + len(new)
        if m > len(self.mats):
            self.mats = np.concatenate([self.mats, self.mats, stack])
            self.meets = np.pad(self.meets, (0, len(self.mats) - len(self.meets)))
        self.mats[n:m] = stack[new]
        hits = overlaps(self.mats[:m], self.mats[n:m], self.tol)
        self.meets[n:m, :m] = hits.T
        self.meets[:m, n:m] = hits
        self.keys += _block_sort_keys(self.mats[n:m])
        self.blocks = self.mats[:m]
        ids[new] = np.arange(n, m)
        return ids.tolist()


@dataclass(frozen=True, eq=False)
class ContextPoset:
    """Finitely many contexts ordered by algebra inclusion; ``base`` is the
    kernel poset on the sorted keys.  ``leq`` must already be closed, as
    ``build_poset`` returns it: a hand-built poset is taken as given.
    ``build_poset`` leaves its ``table`` and ``block_ids`` (see ``blocks_at``)."""

    dim: int
    contexts: tuple[Context, ...]
    leq: frozenset[tuple[str, str]]
    table: BlockTable | None = field(default=None, repr=False)
    block_ids: dict[str, list[int]] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {c.key: c for c in self.contexts})
        object.__setattr__(self, "base", FinPoset(
            elements=tuple(sorted(self._index)), leq=self.leq))

    def blocks_at(self, tol: Tolerance) -> tuple[BlockTable, dict[str, list[int]]]:
        """The block table at ``tol`` and each context's ids into it; a
        table built at another tolerance, or none, is interned afresh."""
        if self.table is not None and self.table.tol == tol:
            return self.table, self.block_ids
        table = BlockTable(self.dim, tol)
        return table, {c.key: table.intern(c.blocks) for c in self.contexts}

    def context(self, key: str) -> Context:
        return self._index[key]

    def __len__(self) -> int:
        return len(self.contexts)


def build_poset(maximal: Sequence[Context], closure: str = "intersections",
                tol: Tolerance = Tolerance()) -> ContextPoset:
    """Close a family of contexts under the chosen policy and order it.

    ``intersections`` closes under pairwise intersection to a fixed point;
    a pass skips the pairs that the pass before already met.
    ``coarsenings`` takes one meet pass over the given contexts, then every
    block-merging coarsening of each context so far, in list order.  That
    set is closed: if X <= A and Y <= B then X ^ Y <= A ^ B, so the meet of
    two coarsenings lies under a given context or under the meet of two,
    and every subalgebra of a finite commutative algebra is a coarsening of
    it.  A coarsening of a coarsening is a coarsening.

    Each distinct block is interned once in a :class:`BlockTable`, so a
    context is a list of block ids and a duplicate is one set lookup; the
    poset keeps the table.  A context keeps the matrices it was first formed
    with.  ``V..`` ids sort contexts by block count, then by block entries
    rounded to 6 digits: near a rounding boundary ids can change (say under
    a global unitary); shape, order and verdict hold.

    The coarsenings of a context of k blocks are its Bell(k) - 2 proper set
    partitions, but their blocks are only its 2^k - k - 2 proper subset
    sums.  Those are formed once, groups in ascending positions in order of
    first appearance, and interned in one call; memos from a group's
    positions to its sum and block id give each partition's matrices and
    ids, so a duplicate is one set lookup.  Such a context forces
    Bell(k) - 1 contexts, so one that would pass ``POSET_LIMIT`` trips it
    before any sum is formed.
    """
    if closure not in ("intersections", "coarsenings"):
        raise ValidationError(
            f"closure must be 'intersections' or 'coarsenings', got {closure!r}")
    if not maximal:
        return ContextPoset(dim=0, contexts=(), leq=frozenset())
    dim = maximal[0].dim
    bound = tol.scaled(dim)
    table = BlockTable(dim, tol)
    ctxs: list[Context] = []
    ids_of: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()

    def add(mats: Sequence[np.ndarray], label: str | None = None,
            ids: list[int] | None = None) -> None:
        ids = table.intern(mats) if ids is None else ids
        found = tuple(sorted(ids))
        if found in seen:
            return
        _check_partition(mats, table.meets[ids][:, ids], bound)
        for m in mats:
            m.setflags(write=False)
        order = sorted(range(len(ids)), key=lambda i: table.keys[ids[i]])
        seen.add(found)
        ids_of.append([ids[i] for i in order])
        ctxs.append(Context(key="", dim=dim, label=label,
                            blocks=tuple(mats[i] for i in order)))
        if len(ctxs) > POSET_LIMIT:
            raise SizeLimit(f"closure exceeded {POSET_LIMIT} contexts")

    for ctx in maximal:
        if ctx.dim != dim:
            raise DimensionMismatch(f"context dimension {ctx.dim} != {dim}")
        add(ctx.blocks, ctx.label)
    done = 0  # every pair of ctxs[:done] has been met
    while done < len(ctxs):
        size = len(ctxs)
        for i in range(size):
            for j in range(max(i + 1, done), size):
                mats = _meet_blocks(ctxs[i].blocks, ctxs[j].blocks,
                                    table.meets[ids_of[i]][:, ids_of[j]], bound)
                if mats is not None:
                    add(mats)
        done = size if closure == "intersections" else len(ctxs)
    for i in range(len(ctxs) if closure == "coarsenings" else 0):
        atoms, blocks = ids_of[i], ctxs[i].blocks
        if _bell(len(atoms)) - 1 > POSET_LIMIT:
            raise SizeLimit(f"closure exceeded {POSET_LIMIT} contexts")
        parts, groups = _proper_partitions(len(atoms))
        sums = {group: _merge(blocks, group) for group in groups}
        memo = dict(zip(groups, table.intern(list(sums.values())) if sums else ()))
        sums.update(((j,), b) for j, b in enumerate(blocks))
        memo.update(((j,), a) for j, a in enumerate(atoms))
        for part in parts:
            ids = [memo[group] for group in part]
            if tuple(sorted(ids)) not in seen:
                add([sums[group] for group in part], ids=ids)

    n = len(table.keys)
    order = sorted(range(len(ctxs)), key=lambda i: (
        len(ids_of[i]), [table.keys[b] for b in ids_of[i]]))
    width = max(2, len(str(len(order) - 1)))
    relabeled = []
    member = np.zeros((len(order), n), dtype=np.float32)
    for r, i in enumerate(order):
        relabeled.append(Context(key=f"V{r:0{width}d}", dim=dim,
                                 blocks=ctxs[i].blocks, label=ctxs[i].label))
        member[r, ids_of[i]] = 1
    # C <= D iff every block of D meets exactly one block of C (then D has
    # at least as many blocks, since every block of C meets one of D).
    misfit = (member @ table.meets[:n, :n] != 1).astype(np.float32)
    leq = set()
    for lo in range(0, len(order), 512):
        rows, cols = np.nonzero(misfit[lo:lo + 512] @ member.T == 0)
        leq.update((relabeled[lo + r].key, relabeled[c].key)
                   for r, c in zip(rows, cols))
    return ContextPoset(dim=dim, contexts=tuple(relabeled), leq=frozenset(leq),
                        table=table, block_ids={
                            c.key: ids_of[i] for c, i in zip(relabeled, order)})


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def builtin_scenario(name: str, tol: Tolerance = Tolerance()):
    """Return (dim, named operators, maximal contexts) for a builtin setup."""
    if name == "pauli2":
        operators = {"sx": _SX, "sy": _SY, "sz": _SZ}
        contexts = [context_from_commuting_set([op], tol, label=nm)
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
                                               tol, label=line)
                    for line, names in lines.items()]
        return 4, operators, contexts
    raise UnknownBuiltin(f"unknown builtin scenario {name!r}")
