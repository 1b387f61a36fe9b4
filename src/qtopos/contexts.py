"""Commutative operator algebras as partitions of unity, and their poset.

A context is the finite abelian algebra generated by a commuting family of
Hermitian operators, stored concretely as its minimal projectors ("blocks").
Contexts are ordered by algebra inclusion, which on blocks reads: every
block of the larger context meets exactly one block of the smaller one
(see :func:`qtopos.numerics.overlaps`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NonCommuting,
    NotProjector,
    SizeLimit,
    ToposError,
    TrivialContext,
    UnknownBuiltin,
    ValidationError,
)
from .kernel import FinPoset
from .numerics import (
    PAIR_ENTRIES,
    Tolerance,
    _projector_ok,
    as_operator,
    eigensystem,  # unused here; kept importable for perfbench/tracer.py
    eigensystems,
    frob,
    overlaps,
    proj_leq,  # unused here; kept importable for perfbench/tracer.py
    require_hermitian,
    same_blocks,
    sq_frob,
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
    """A partition of unity: pairwise orthogonal projectors summing to 1.
    A context of a poset from ``build_poset`` also holds the poset's block
    ``table`` and its blocks' ``ids`` in it; one from ``make_context`` neither."""

    key: str
    dim: int
    blocks: tuple[np.ndarray, ...]
    label: str | None = None
    table: BlockTable | None = field(default=None, repr=False)
    ids: tuple[int, ...] | None = field(default=None, repr=False)

    @functools.cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple(round(t) for t in np.einsum("kaa->k", self.blocks).real.tolist())

    @functools.cached_property
    def stack(self) -> np.ndarray:
        """The blocks as one read-only array, stacked on first use."""
        stack = np.stack(self.blocks)
        stack.setflags(write=False)
        return stack

    def __repr__(self) -> str:
        tag = f" label={self.label!r}" if self.label else ""
        return f"<Context {self.key} dim={self.dim} ranks={self.ranks}{tag}>"


def _check_partition(blocks: Sequence[np.ndarray], meets: np.ndarray, bound: float,
                     member: np.ndarray | None = None) -> np.ndarray:
    """Per row of the 0/1 matrix ``member`` (by default one row of all): do the
    ``blocks`` it picks, which meet as ``meets``, fail to be orthogonal or to
    sum to 1?  Without ``member`` a fault raises, naming the first pair that
    meets or the defect of ``sum(blocks)``; with it, nothing is raised."""
    stack = np.asarray(blocks)
    rows = np.ones((1, len(stack))) if member is None else member
    clash = (rows @ (meets & ~np.eye(len(meets), dtype=bool)) * rows).any(axis=1)
    totals = rows @ stack.reshape(len(stack), -1) - np.eye(stack.shape[-1]).reshape(-1)
    faults = clash | (sq_frob(totals.reshape(-1, *stack.shape[1:])) > bound ** 2)
    if member is not None or not faults[0]:
        return faults
    pairs = np.argwhere(np.triu(meets, 1))
    if len(pairs):
        i, j = pairs[0]
        raise ValidationError(f"blocks {i} and {j} are not orthogonal: "
                              f"||p q|| = {frob(blocks[i] @ blocks[j]):.3e}")
    defect = frob(sum(blocks) - np.eye(stack.shape[-1]))
    if defect > bound:
        raise ValidationError(f"blocks do not sum to identity: defect {defect:.3e}")
    return faults


def _merge(blocks: Sequence[np.ndarray], group) -> np.ndarray:
    """The sum of the blocks at the indices in ``group``, in that order."""
    return sum(blocks[i] for i in group)


def _meet_blocks(a_blocks, b_blocks, meets: np.ndarray, bound: float):
    """The meet of two partitions whose blocks meet as ``meets``: one block,
    summed on ``a``'s side, per connected component (union-find), and each
    block's positions in ``a``; None when the meet is trivial."""
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
    blocks, sides = [], []
    for root in sorted(groups):
        side = [i for i in groups[root] if i < na]
        from_a = _merge(a_blocks, side)
        from_b = _merge(b_blocks, [j - na for j in groups[root] if j >= na])
        if frob(from_a - from_b) > bound:
            raise ValidationError(
                "inconsistent intersection component: the two sides disagree")
        blocks.append(from_a)
        sides.append(side)
    return blocks, sides


def _connected(meets: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of the block id arrays ``a`` and ``b`` (padded with -1): is
    the bipartite graph that joins a's and b's blocks where ``meets`` says
    they meet connected, that is, is the two contexts' meet trivial?  Two
    of a's blocks are a step apart when they meet a common block of b; with
    k of them, log2(k - 1) squarings of that step matrix reach every path."""
    va, vb = a >= 0, b >= 0
    graph = (meets[a[:, :, None], b[:, None, :]]
             & va[:, :, None] & vb[:, None, :]).astype(np.float32)
    reach = (graph @ graph.swapaxes(1, 2) > 0) | np.eye(a.shape[1], dtype=bool)
    for _ in range((a.shape[1] - 2).bit_length()):
        step = reach.astype(np.float32)
        reach = step @ step > 0
    seen = reach[:, 0]  # a's blocks reached from its first one
    hit = np.einsum("sx,sxy->sy", seen.astype(np.float32), graph) > 0
    return (seen | ~va).all(axis=1) & (hit | ~vb).all(axis=1)


def _block_values(ops: np.ndarray, blocks, bound: float):
    """Per operator of the stack ``ops``: tr(p op) / tr(p) per block p, and
    whether it is the real combination of the blocks with those values."""
    blocks = np.asarray(blocks)
    coeffs = np.einsum("kab,nba->nk", blocks, ops) / np.einsum("kaa->k", blocks).real
    recon = np.einsum("nk,kab->nab", coeffs.real, blocks)
    return coeffs.real, ((sq_frob(recon - ops) <= bound ** 2)
                         & (np.abs(coeffs.imag).max(axis=1) <= bound))


def make_context(blocks: Sequence, tol: Tolerance = Tolerance(),
                 label: str | None = None) -> Context:
    """Validate and canonically order a partition of unity, keyed by its
    ``label`` or, without one, by a fresh ``ctxN`` key: the blocks as
    projectors, then their dimensions and traces, then the partition."""
    mats = [as_operator(b) for b in blocks]
    if len(mats) < 2:
        raise TrivialContext("a context needs at least two blocks")
    dim = mats[0].shape[0]
    size = next((i for i, b in enumerate(mats) if b.shape[0] != dim), len(mats))
    stack = np.stack(mats[:size])
    bad = np.flatnonzero(~_projector_ok(stack, tol))
    if bad.size:
        raise NotProjector(f"block {bad[0]} is not a projector within tolerance")
    if size < len(mats):
        raise DimensionMismatch(f"block {size} has dimension {mats[size].shape[0]} != {dim}")
    traces = np.trace(stack, axis1=1, axis2=2).real
    empty = np.flatnonzero(traces <= 0.5)  # generation's rule for keeping a block
    if empty.size:
        raise ValidationError(
            f"block {empty[0]} is empty: trace {traces[empty[0]]:.3e} is below 0.5")
    _check_partition(stack, overlaps(stack, stack, tol), tol.scaled(dim))
    keys = _block_sort_keys(stack)
    stack = stack[sorted(range(len(stack)), key=keys.__getitem__)]
    stack.setflags(write=False)
    return Context(key=label or _fresh_key(), dim=dim, blocks=tuple(stack), label=label)


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
    of each operator's eigenprojectors: the one-group case of ``_generate``.
    """
    ops = [require_hermitian(op, tol) for op in operators]
    if not ops:
        raise ValidationError("cannot generate a context from no operators")
    dim = ops[0].shape[0]
    for i, op in enumerate(ops):
        if op.shape[0] != dim:
            raise DimensionMismatch(f"operator {i} has dimension {op.shape[0]} != {dim}")
    found = eigensystems(ops, tol)
    for result in found:
        if isinstance(result, ToposError):
            raise result
    made = _generate(np.stack(ops), found, [range(len(ops))], tol, [label])[0]
    if isinstance(made, ToposError):
        raise made
    return made


@functools.cache
def _pairs(k: int) -> np.ndarray:
    """The positions (i, j), i < j, of ``k`` things, as two read-only rows."""
    pairs = np.array(np.triu_indices(k, 1))
    pairs.setflags(write=False)
    return pairs


def _generate(ops: np.ndarray, found: Sequence, groups: Sequence[Sequence[int]],
              tol: Tolerance, labels: Sequence[str | None]) -> list:
    """Per group of rows of the stack ``ops`` of Hermitian operators, the
    context that the group generates, or the error that generating it
    alone raises; ``found[r]`` is row r's eigenvalues and eigenprojectors
    (:func:`qtopos.numerics.eigensystems`).

    Each step runs on all groups at once and names the error of a group it
    flags; a flagged group drops out of the later steps.  The steps, in the
    order their errors take: all commutators in one gathered product (the
    first non-commuting pair in row order), the refinement of the joint
    eigenprojectors in one gathered product per operator position, at least
    two blocks, every block a projector, then orthogonality and sum to
    identity over all blocks at once (a flagged group is checked again
    alone, which names its fault), the canonical order, and every
    operator's reconstruction from its group's blocks.  Each block is the
    product that one group at a time forms, bit for bit.  Groups go in runs
    whose products hold about ``PAIR_ENTRIES`` matrix entries.
    """
    d = ops.shape[-1]
    projs = np.concatenate([pairs[1] for pairs in found])
    starts = np.cumsum([0] + [len(pairs[1]) for pairs in found])
    out: list = []
    lo = size = 0
    for hi, rows in enumerate(groups):
        weight = (len(rows) + 2 * d) ** 2 * d * d  # bounds each product's entries
        if hi > lo and size + weight > PAIR_ENTRIES:
            out += _generate_run(ops, projs, starts, groups[lo:hi], tol, labels[lo:hi])
            lo, size = hi, 0
        size += weight
    return out + _generate_run(ops, projs, starts, groups[lo:], tol, labels[lo:])


def _generate_run(ops: np.ndarray, projs: np.ndarray, starts: np.ndarray,
                  groups: Sequence[Sequence[int]], tol: Tolerance,
                  labels: Sequence[str | None]) -> list:
    """``_generate`` on one run of groups, operator r's eigenprojectors
    being ``projs[starts[r]:starts[r + 1]]``."""
    d = ops.shape[-1]
    bound = tol.scaled(d)
    out: list = [None] * len(groups)

    pairs = [(g, i, j, rows[i], rows[j]) for g, rows in enumerate(groups)
             for i, j in itertools.combinations(range(len(rows)), 2)]
    # Operators whose squared norms are finite can still have a commutator
    # past float range: it is flagged (a NaN too), and its norm prints as inf.
    with np.errstate(over="ignore", invalid="ignore"):
        if pairs:
            a, b = np.array([p[3:] for p in pairs]).T
            ab, ba = ops[a] @ ops[b], ops[b] @ ops[a]
            bad = ~(sq_frob(ab - ba) <= bound ** 2)
            for x in np.flatnonzero(bad).tolist():
                g, i, j = pairs[x][:3]
                if out[g] is None:
                    norm = frob(ab[x] - ba[x])
                    out[g] = NonCommuting(f"operators {i} and {j} do not commute: "
                                          f"commutator norm {norm:.6e}", i=i, j=j, norm=norm)

    # Refine one identity per group by each operator of the group in turn;
    # blocks stay grouped by ``owner``, in the order one group alone has.
    started = [g for g in range(len(groups)) if out[g] is None]
    owner = np.array(started, dtype=int)
    blocks = np.broadcast_to(np.eye(d, dtype=complex), (len(owner), d, d))
    for stage in range(max((len(groups[g]) for g in started), default=0)):
        at = np.array([rows[stage] if len(rows) > stage else -1 for rows in groups])[owner]
        go = at >= 0
        first, count = starts[at[go]], starts[at[go] + 1] - starts[at[go]]
        left = np.repeat(np.flatnonzero(go), count)
        right = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
        q = blocks[left] @ projs[right]
        q = (q + q.conj().swapaxes(1, 2)) / 2
        keep = np.trace(q, axis1=1, axis2=2).real > 0.5
        if go.all():
            blocks, owner = q[keep], owner[left][keep]
        else:  # groups with fewer operators keep their blocks
            order = np.argsort(np.concatenate([owner[~go], owner[left][keep]]), kind="stable")
            blocks = np.concatenate([blocks[~go], q[keep]])[order]
            owner = np.concatenate([owner[~go], owner[left][keep]])[order]

    counts = np.bincount(owner, minlength=len(groups))
    for g in started:
        if counts[g] < 2:
            out[g] = TrivialContext("the generated algebra is trivial (one block)")
    bad = ~_projector_ok(blocks, tol)
    begin = np.searchsorted(owner, owner)  # the position of each block's group
    for k in np.flatnonzero(bad).tolist():
        if out[owner[k]] is None:
            out[owner[k]] = NotProjector(
                f"block {k - begin[k]} is not a projector within tolerance")

    def live() -> tuple[list[int], list[int], list[int]]:
        """Drop the blocks of groups with an error; the groups left, and
        where each one's blocks begin and end."""
        nonlocal blocks, owner
        keep = np.array([out[g] is None for g in owner.tolist()], dtype=bool)
        blocks, owner = blocks[keep], owner[keep]
        cuts = np.flatnonzero(np.diff(owner, prepend=-1))
        return owner[cuts].tolist(), cuts.tolist(), cuts[1:].tolist() + [len(owner)]

    gs, cuts, ends = live()
    if not gs:
        return out
    i, j = np.concatenate([_pairs(e - c) + c for c, e in zip(cuts, ends)], axis=1)
    clash = set(owner[i[sq_frob(blocks[i] @ blocks[j]) > bound ** 2]].tolist())
    defect = sq_frob(np.add.reduceat(blocks, cuts) - np.eye(d)) > bound ** 2
    for g, c, e, off in zip(gs, cuts, ends, defect.tolist()):
        if off or g in clash:  # named by the check of one group alone
            try:
                _check_partition(blocks[c:e], overlaps(blocks[c:e], blocks[c:e], tol), bound)
            except ToposError as exc:
                out[g] = exc

    gs, cuts, ends = live()
    if not gs:
        return out
    keys = _block_sort_keys(blocks)
    blocks = blocks[[k for c, e in zip(cuts, ends)
                     for k in sorted(range(c, e), key=keys.__getitem__)]]
    blocks.setflags(write=False)
    for g, c, e in zip(gs, cuts, ends):
        out[g] = Context(key=labels[g] or _fresh_key(), dim=d, blocks=tuple(blocks[c:e]),
                         label=labels[g])

    # Each operator of each group against the group's blocks: one segment
    # of (operator, block) terms per operator, in group order.
    who = [(g, n) for g in gs for n in range(len(groups[g]))]
    rows = np.array([groups[g][n] for g, n in who])
    sizes = [len(groups[g]) for g in gs]
    first = np.repeat(cuts, sizes)
    width = np.repeat(np.subtract(ends, cuts), sizes)
    seg = np.cumsum(width) - width
    k = np.arange(width.sum()) + np.repeat(first - seg, width)
    coeffs = (np.einsum("xab,xba->x", blocks[k], ops[np.repeat(rows, width)])
              / np.einsum("xaa->x", blocks[k]).real)
    recon = np.add.reduceat(coeffs.real[:, None, None] * blocks[k], seg)
    with np.errstate(over="ignore", invalid="ignore"):
        fits = ((sq_frob(recon - ops[rows]) <= bound ** 2)
                & (np.maximum.reduceat(np.abs(coeffs.imag), seg) <= bound))
    for x in np.flatnonzero(~fits).tolist():
        g, n = who[x]
        if isinstance(out[g], Context):
            out[g] = ValidationError(
                f"operator {n} is not a real combination of the refined blocks")
    return out


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
    met = _meet_blocks(a.blocks, b.blocks, overlaps(a.blocks, b.blocks, tol),
                       tol.scaled(a.dim))
    if met is None:
        return None
    return make_context(met[0], tol, label=label)


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


@functools.cache
def _proper_partitions(k: int) -> tuple[list[tuple], list[tuple], np.ndarray]:
    """The proper coarsenings of ``k`` blocks (not the blocks themselves nor
    the trivial algebra) as groups of positions, in ``_set_partitions``
    order; the groups of two or more, in order of first appearance; and a
    0/1 matrix of which of those groups, then singletons, each one takes."""
    parts = [tuple(map(tuple, part)) for part in _set_partitions(list(range(k)))
             if 1 < len(part) < k]
    groups = list(dict.fromkeys(g for part in parts for g in part if len(g) > 1))
    cols = groups + [(j,) for j in range(k)]
    return parts, groups, np.array([[g in part for g in cols] for part in parts], float)


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
    tolerance, with their sort keys and which of them meet.

    A block that sums held blocks, which are pairwise orthogonal (a meet
    component, a coarsening block), takes its meets from theirs: for
    pairwise orthogonal projectors a_i and any projector X,
    ``||(sum a_i) X||_F^2 = sum ||a_i X||_F^2``, so the sum meets X exactly
    when one of its parts does, and two such sums meet when two of their
    parts do.  The products can disagree (beyond rounding) only on a knife
    edge: none of the k overlaps passes eps * d but their root sum of
    squares does, so every overlap is at most eps * d and the largest lies
    within a factor sqrt(k) below it.
    """

    def __init__(self, dim: int, tol: Tolerance):
        self.tol = tol
        self.mats = np.empty((16, dim, dim), dtype=complex)
        self.meets = np.zeros((16, 16), dtype=bool)
        self.keys: list[tuple] = []
        self.blocks = self.mats[:0]  # the distinct blocks, stacked in id order
        self.hits: dict[tuple, np.ndarray] = {}  # quantum._outer_hits's flags

    def intern(self, blocks: Sequence[np.ndarray],
               parts: Sequence[Sequence[int]] | None = None) -> list[int]:
        """The ids of ``blocks``, adding in order those not yet held; a block
        equal to an earlier new one of the batch takes its id, so one call
        gives the ids, keys and order of one call per block.  ``parts[r]``,
        if given, lists the held ids that block r sums: a block of one part
        is that part, and the new blocks' meets are a boolean product over
        the held meets instead of :func:`qtopos.numerics.overlaps`."""
        stack, n = np.asarray(blocks), len(self.keys)
        ids = np.full(len(stack), n)
        if parts is not None:
            ids[:] = [p[0] if len(p) == 1 else n for p in parts]
        rest = np.flatnonzero(ids == n)
        same = same_blocks(self.mats[:n], stack[rest], self.tol)
        ids[rest] = np.concatenate([same, np.ones((1, len(rest)), bool)]).argmax(axis=0)
        fresh = rest[ids[rest] == n]
        if not fresh.size:
            return ids.tolist()
        self.hits.clear()  # its flags cover the blocks held so far
        # twin[a, c]: new blocks a < c are the same block; c is added unless
        # it is the twin of an earlier block that was added, whose id it takes
        twin = np.triu(same_blocks(stack[fresh], stack[fresh], self.tol), 1)
        added = ~twin.any(axis=0)
        for c in np.flatnonzero(~added):
            added[c] = not (twin[:, c] & added).any()
        first = (twin & added[:, None]).argmax(axis=0)
        new = fresh[added]
        if not _projector_ok(stack[new], self.tol).all():
            raise NotProjector("a block is not a projector within tolerance")
        m = n + len(new)
        if m > len(self.mats):
            self.mats = np.concatenate([self.mats, self.mats, stack])
            self.meets = np.pad(self.meets, (0, len(self.mats) - len(self.meets)))
        self.mats[n:m] = stack[new]
        if parts is None:
            hits = overlaps(self.mats[:m], self.mats[n:m], self.tol)
        else:
            sums = np.zeros((len(new), n), dtype=np.float32)
            for row, r in enumerate(new.tolist()):
                sums[row, parts[r]] = 1
            held = sums @ self.meets[:n, :n].astype(np.float32)
            hits = np.concatenate([held.T, held @ sums.T]) > 0
        self.meets[n:m, :m] = hits.T
        self.meets[:m, n:m] = hits
        self.keys += _block_sort_keys(self.mats[n:m])
        self.blocks = self.mats[:m]
        ids[new] = np.arange(n, m)
        ids[fresh[~added]] = ids[fresh[first[~added]]]
        return ids.tolist()


@dataclass(frozen=True, eq=False)
class ContextPoset:
    """Finitely many contexts ordered by algebra inclusion; ``base`` is the
    kernel poset on the sorted keys.  ``leq`` must already be closed, as
    ``build_poset`` returns it: a hand-built poset is taken as given.
    ``build_poset`` leaves its ``table``, and each context's ids into it on
    the context (see ``blocks_at``)."""

    dim: int
    contexts: tuple[Context, ...]
    leq: frozenset[tuple[str, str]]
    table: BlockTable | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {c.key: c for c in self.contexts})
        object.__setattr__(self, "base", FinPoset(
            elements=tuple(sorted(self._index)), leq=self.leq))

    def blocks_at(self, tol: Tolerance) -> tuple[BlockTable, dict[str, Sequence[int]]]:
        """The block table at ``tol`` and each context's ids into it, read
        off the contexts; a table built at another tolerance, or none, is
        interned afresh."""
        if self.table is not None and self.table.tol == tol:
            return self.table, {c.key: c.ids for c in self.contexts}
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
    a pass skips the pairs that the pass before already met.  A meet is
    trivial exactly when the bipartite graph of the two contexts' blocks,
    joined where they meet, is connected; a pass reads that off the table's
    meets for a slice of at most ``PAIR_ENTRIES`` entries of pairs at a
    time, in batched boolean products (``_connected``), and only a pair
    whose meet is not trivial reaches ``_meet_blocks``, so every error
    stays where it was.
    ``coarsenings`` takes the given contexts, then every block-merging
    coarsening of each, in list order: every subalgebra of a finite
    commutative algebra is a coarsening of it, and the set is closed under
    meets, since the meet of two subalgebras of given contexts is a
    subalgebra of each.  Two distinct contexts that lie under each other
    raise the meet pass's ``inconsistent intersection component`` error:
    blocks a little more than eps * d apart are distinct yet can meet one
    to one (see :mod:`qtopos.numerics`), and without a meet pass nothing
    else refuses that cycle.

    Each distinct block is interned once in a :class:`BlockTable`, so a
    context is a list of block ids and a duplicate is one set lookup; the
    poset and its contexts keep the table, and each context its block ids.
    A context keeps the matrices it was first formed with.  ``V..`` ids
    sort contexts by block count, then by block entries rounded to 6
    digits: near a rounding boundary ids can change (say under a global
    unitary); shape, order and verdict hold.

    Each phase interns one stack: the given contexts' blocks, the meets of
    a meet pass or the subset sums of the coarsening pass.  Only the given
    blocks are multiplied out (:func:`qtopos.numerics.overlaps`); every
    other block sums blocks of one held context (a meet component on its
    ``a`` side, a coarsening block) and takes its meets from theirs, by
    ``||(sum a_i) X||_F^2 = sum ||a_i X||_F^2`` (see :class:`BlockTable`
    for the one knife edge where this can differ from the products).

    The coarsenings of a context of k blocks are its Bell(k) - 2 proper set
    partitions, but their blocks are only its 2^k - k - 2 proper subset
    sums.  Those are formed once, groups in ascending positions in order of
    first appearance; memos from a group's positions to its sum and block
    id give each partition's matrices and ids, so a duplicate is one set
    lookup.  A context's new partitions are checked at once, with a 0/1
    matrix of their groups over the sums and the table's meets; only a
    flagged one is checked again alone, to be named.  Such a context
    forces Bell(k) - 1 contexts, so one that would pass ``POSET_LIMIT``
    trips it before any sum is formed.

    A phase is cut into runs that hold no more candidate contexts than
    there is room for under ``POSET_LIMIT`` (a meet counts 1, an expanded
    k-block context Bell(k) - 2; a run holds one at least), so a closure
    past the limit forms at most one run more than one candidate at a time
    would, and reads no slice of pairs past the one that trips it.  A run
    in hand is finished before an error met while forming the next one
    propagates, so an earlier candidate's error still comes first; only a
    block that is not a projector, found as its run is interned, can now
    come before the error of an earlier candidate of its run.
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

    def add(mats: Sequence[np.ndarray], label: str | None, ids: list[int],
            checked: bool = False) -> None:
        found = tuple(sorted(ids))
        if found in seen:
            return
        if not checked:
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

    def add_run(run: list[tuple]) -> None:
        """Intern the blocks of candidate contexts ``(mats, label, parts)``
        in one call, then add the contexts in order."""
        if not run:
            return
        ids = table.intern([m for mats, _, _ in run for m in mats],
                           None if run[0][2] is None else
                           [p for _, _, parts in run for p in parts])
        at = 0
        for mats, label, _ in run:
            add(mats, label, ids[at:at + len(mats)])
            at += len(mats)

    def expand_run(run: list[int]) -> None:
        """Intern the proper subset sums of the contexts at ``run`` in one
        call, then add each context's new coarsenings in order."""
        sums = [{group: _merge(ctxs[i].blocks, group)
                 for group in _proper_partitions(len(ids_of[i]))[1]} for i in run]
        flat = [s for own in sums for s in own.values()]
        made = table.intern(flat, [[ids_of[i][j] for j in group] for i, own
                                   in zip(run, sums) for group in own]) if flat else []
        at = 0
        for i, own in zip(run, sums):
            atoms = ids_of[i]
            parts, groups, picks = _proper_partitions(len(atoms))
            memo = dict(zip(groups, made[at:at + len(groups)]))
            at += len(groups)
            own.update(((j,), b) for j, b in enumerate(ctxs[i].blocks))
            memo.update(((j,), a) for j, a in enumerate(atoms))
            rows = [r for r, part in enumerate(parts)
                    if tuple(sorted(memo[group] for group in part)) not in seen]
            if not rows:
                continue
            ids = list(memo.values())
            faults = _check_partition(list(own.values()),
                                      table.meets[np.ix_(ids, ids)], bound, picks[rows])
            for r, fault in zip(rows, faults.tolist()):
                add([own[group] for group in parts[r]], None,
                    [memo[group] for group in parts[r]], checked=not fault)

    def feed(items: Iterator[tuple[int, object]], flush: Callable) -> None:
        """``flush`` the ``(weight, item)`` pairs of ``items`` in runs whose
        weights fit the room left under ``POSET_LIMIT`` (one item at least).
        A run past the room is flushed before the next item is asked for,
        since no item can join it: a closure that trips the limit forms no
        candidate past the run that trips it."""
        run: list = []
        room = POSET_LIMIT - len(ctxs)
        try:
            for weight, item in items:
                if run and weight > room:
                    full, run = run, []
                    flush(full)
                    room = POSET_LIMIT - len(ctxs)
                run.append(item)
                room -= weight
                if room < 0:
                    full, run = run, []
                    flush(full)
                    room = POSET_LIMIT - len(ctxs)
        except ToposError:
            flush(run)  # an earlier candidate's error comes first
            raise
        flush(run)

    def given() -> Iterator[tuple[int, tuple]]:
        for ctx in maximal:
            if ctx.dim != dim:
                raise DimensionMismatch(f"context dimension {ctx.dim} != {dim}")
            yield 1, (ctx.blocks, ctx.label, None)

    def meet_pass(done: int, size: int) -> Iterator[tuple[int, tuple]]:
        """The meets of the pairs i < j < size with j >= done, in that
        order; a slice of pairs at a time is read off the table, and only a
        pair whose meet is not trivial is met."""
        width = max(len(ids) for ids in ids_of[:size])
        padded = np.full((size, width), -1)
        for c, ids in enumerate(ids_of[:size]):
            padded[c, :len(ids)] = ids
        first = np.maximum(np.arange(1, size + 1), done)  # each row's first j
        count = size - first
        ends = np.cumsum(count)
        step = max(1, PAIR_ENTRIES // (width * width))
        for lo in range(0, int(ends[-1]), step):
            flat = np.arange(lo, min(lo + step, int(ends[-1])))
            left = np.searchsorted(ends, flat, side="right")
            right = flat - ends[left] + count[left] + first[left]
            kept = ~_connected(table.meets, padded[left], padded[right])
            for i, j in zip(left[kept].tolist(), right[kept].tolist()):
                met = _meet_blocks(ctxs[i].blocks, ctxs[j].blocks,
                                   table.meets[ids_of[i]][:, ids_of[j]], bound)
                if met is not None:
                    yield 1, (met[0], None,
                              [[ids_of[i][a] for a in side] for side in met[1]])

    def expansions() -> Iterator[tuple[int, int]]:
        for i in range(len(ctxs)):
            forced = _bell(len(ids_of[i])) - 1
            if forced > POSET_LIMIT:
                raise SizeLimit(f"closure exceeded {POSET_LIMIT} contexts")
            yield forced - 1, i

    feed(given(), add_run)
    done = 0  # every pair of ctxs[:done] has been met
    while closure == "intersections" and done < len(ctxs):
        size = len(ctxs)
        feed(meet_pass(done, size), add_run)
        done = size
    if closure == "coarsenings":
        feed(expansions(), expand_run)

    n = len(table.keys)
    order = sorted(range(len(ctxs)), key=lambda i: (
        len(ids_of[i]), [table.keys[b] for b in ids_of[i]]))
    width = max(2, len(str(len(order) - 1)))
    relabeled = []
    member = np.zeros((len(order), n), dtype=np.float32)
    for r, i in enumerate(order):
        relabeled.append(Context(key=f"V{r:0{width}d}", dim=dim, blocks=ctxs[i].blocks,
                                 label=ctxs[i].label, table=table, ids=tuple(ids_of[i])))
        member[r, ids_of[i]] = 1
    # C <= D iff every block of D meets exactly one block of C (then D has
    # at least as many blocks, since every block of C meets one of D).
    misfit = (member @ table.meets[:n, :n] != 1).astype(np.float32)
    leq = set()
    for lo in range(0, len(order), 512):
        rows, cols = np.nonzero(misfit[lo:lo + 512] @ member.T == 0)
        leq.update((relabeled[lo + r].key, relabeled[c].key)
                   for r, c in zip(rows, cols))
    if any(a != b and (b, a) in leq for a, b in leq):
        raise ValidationError(
            "inconsistent intersection component: the two sides disagree")
    return ContextPoset(dim=dim, contexts=tuple(relabeled), leq=frozenset(leq),
                        table=table)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def _builtin_lines(name: str) -> tuple[int, dict, dict[str, tuple[str, ...]]]:
    """(dim, named operators, operator names per maximal context label)."""
    if name == "pauli2":
        return 2, {"sx": _SX, "sy": _SY, "sz": _SZ}, {
            "sx": ("sx",), "sy": ("sy",), "sz": ("sz",)}
    if name == "mermin-square":
        kron = np.kron
        operators = {
            "XI": kron(_SX, _ID2), "IX": kron(_ID2, _SX), "XX": kron(_SX, _SX),
            "IY": kron(_ID2, _SY), "YI": kron(_SY, _ID2), "YY": kron(_SY, _SY),
            "XY": kron(_SX, _SY), "YX": kron(_SY, _SX), "ZZ": kron(_SZ, _SZ),
        }
        return 4, operators, {
            "row0": ("XI", "IX", "XX"), "row1": ("IY", "YI", "YY"),
            "row2": ("XY", "YX", "ZZ"), "col0": ("XI", "IY", "XY"),
            "col1": ("IX", "YI", "YX"), "col2": ("XX", "YY", "ZZ")}
    raise UnknownBuiltin(f"unknown builtin scenario {name!r}")


def builtin_scenario(name: str, tol: Tolerance = Tolerance()):
    """Return (dim, named operators, maximal contexts) for a builtin setup."""
    dim, operators, lines = _builtin_lines(name)
    names = list(operators)
    ops = np.stack(list(operators.values()))
    made = _generate(ops, eigensystems(ops, tol), [[names.index(nm) for nm in line]
                                                   for line in lines.values()],
                     tol, list(lines))
    for result in made:
        if isinstance(result, ToposError):
            raise result
    return dim, operators, made
