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
import operator
from dataclasses import dataclass
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
    """A partition of unity: pairwise orthogonal projectors summing to 1,
    held as a block ``table`` and its blocks' ``ids`` in it, in key order;
    its ``blocks`` are the table's read-only rows.  A poset's contexts share
    the poset's table and a scenario's the table they were generated into;
    one from ``make_context`` holds a table of its own blocks alone."""

    key: str
    dim: int
    label: str | None
    table: BlockTable
    ids: tuple[int, ...]

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.table.blocks[b] for b in self.ids)

    @functools.cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple(map(self.table.ranks.__getitem__, self.ids))

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


def _staged_sums(blocks: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Per group, the rows of ``blocks`` at its indices added in group order
    from 0, ``0 + b0 + b1 + ...``: one stage of adds for all groups at a time."""
    sizes = np.array([len(g) for g in groups])
    at = np.zeros((len(groups), sizes.max()), dtype=int)
    at[np.repeat(np.arange(len(groups)), sizes),
       np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = (
        list(itertools.chain.from_iterable(groups)))
    sums = blocks[at[:, 0]]
    sums += 0  # sum's start: -0.0 reads as 0.0
    for stage in range(1, at.shape[1]):
        live = np.flatnonzero(sizes > stage)
        sums[live] += blocks[at[live, stage]]
    return sums


def _check_run(table: BlockTable, stack: np.ndarray, ids: Sequence[int],
               picks: Sequence[np.ndarray], bound: float) -> list[bool]:
    """The flags of ``_check_partition`` for every row of the 0/1 matrices
    ``picks``: matrix p picks among the next ``p.shape[1]`` matrices of
    ``stack``, whose block ids are those of ``ids``.  All rows are checked
    at once over the block-diagonal matrix of ``picks`` and the table's
    meets among ``ids``, cut where it would pass ``PAIR_ENTRIES`` entries."""
    flags: list[bool] = []
    lo = col = 0
    while lo < len(picks):
        hi, (rows, cols) = lo + 1, picks[lo].shape
        while hi < len(picks):
            more, wider = rows + len(picks[hi]), cols + picks[hi].shape[1]
            if max(more, wider) * wider > PAIR_ENTRIES:
                break
            hi, rows, cols = hi + 1, more, wider
        member = np.zeros((rows, cols))
        r = c = 0
        for p in picks[lo:hi]:
            member[r:r + len(p), c:c + p.shape[1]] = p
            r, c = r + len(p), c + p.shape[1]
        span = ids[col:col + cols]
        flags += _check_partition(stack[col:col + cols], table.meets[np.ix_(span, span)],
                                  bound, member).tolist()
        lo, col = hi, col + cols
    return flags


def _reach(meets: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per row of the block id arrays ``a`` and ``b`` (padded with -1): the
    bipartite graph that joins a's and b's blocks where ``meets`` says they
    meet, and which of a's blocks reach which in it.  Two of a's blocks are
    a step apart when they meet a common block of b; with k of them,
    log2(k - 1) squarings of that step matrix reach every path."""
    graph = (meets[a[:, :, None], b[:, None, :]]
             & (a >= 0)[:, :, None] & (b >= 0)[:, None, :]).astype(np.float32)
    reach = (graph @ graph.swapaxes(1, 2) > 0) | np.eye(a.shape[1], dtype=bool)
    for _ in range((a.shape[1] - 2).bit_length()):
        step = reach.astype(np.float32)
        reach = step @ step > 0
    return graph, reach


def _components(meets: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per row of the block id arrays ``a`` and ``b`` (padded with -1), each
    block's component in the bipartite graph of their meeting blocks
    (``_reach``), named by its first block of ``a``: one label per position
    of ``a``, then of ``b`` (a pad's label is meaningless).  The meet of the
    two contexts is trivial when every block of ``a`` is labelled 0; else
    its blocks are the components, and a block of either context lies under
    the one it is labelled by.  Every block of a partition of unity meets
    some block of another, so a block of ``b`` is labelled by the first
    block of ``a`` it meets.  The meet pass, ``context_intersection`` and
    the KS search's pairwise meets all read it (``_pair_slices``)."""
    graph, reach = _reach(meets, a, b)
    left = reach.argmax(axis=2)
    return left, np.take_along_axis(left, graph.argmax(axis=1), axis=1)


def _padded(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """The block id lists ``rows`` as the rows of one array, padded with -1."""
    out = np.full((len(rows), max(map(len, rows), default=0)), -1)
    for r, ids in enumerate(rows):
        out[r, :len(ids)] = ids
    return out


def _pair_slices(meets: np.ndarray, rows: Sequence[Sequence[int]],
                 done: int = 0) -> Iterator[list[tuple]]:
    """The pairs i < j of the block id lists ``rows`` with j >= ``done``, in
    that order, a slice of at most ``PAIR_ENTRIES`` block pairs at a time:
    per slice, ``(i, j, x, y)`` per pair whose meet is not trivial, where
    ``x`` and ``y`` label the blocks of ``rows[i]`` and ``rows[j]``, which
    meet as ``meets``, by their component (``_components``)."""
    padded = _padded(rows)
    size, width = padded.shape
    first = np.maximum(np.arange(1, size + 1), done)  # each row's first j
    count = size - first
    ends = np.cumsum(count)
    step = max(1, PAIR_ENTRIES // (width * width))
    for lo in range(0, int(ends[-1]), step):
        flat = np.arange(lo, min(lo + step, int(ends[-1])))
        left = np.searchsorted(ends, flat, side="right")
        right = flat - ends[left] + count[left] + first[left]
        mine, theirs = _components(meets, padded[left], padded[right])
        kept = ((mine > 0) & (padded[left] >= 0)).any(axis=1)
        yield [(i, j, x[:len(rows[i])], y[:len(rows[j])]) for i, j, x, y in zip(
            left[kept].tolist(), right[kept].tolist(), mine[kept].tolist(),
            theirs[kept].tolist())]


def _meets(blocks: np.ndarray, rows: Sequence[Sequence[int]], pairs: Sequence[tuple],
           bound: float) -> Iterator[tuple[np.ndarray, list[list[int]]]]:
    """The meets of the pairs ``(i, j, x, y)`` of a slice of ``_pair_slices``,
    in order: per pair, a stack of one block per component, in label order,
    and the ids of ``rows[i]`` that each sums.  Both sides of every
    component are summed off ``blocks`` (``_staged_sums``, ids in row
    order) and compared at once, for as many pairs as hold about
    ``PAIR_ENTRIES`` entries of sums; the first pair whose sides disagree
    raises when it is reached, after the meets before it."""
    step = max(1, PAIR_ENTRIES // (2 * blocks[0].size * len(blocks[0])))  # <= 2 d sums a pair
    for lo in range(0, len(pairs), step):
        sides = []  # per pair, the ids of each component on a's side and on b's
        for i, j, x, y in pairs[lo:lo + step]:
            mine, theirs = {}, {}  # in label order: a label is its first position
            for ids, labels, out in ((rows[i], x, mine), (rows[j], y, theirs)):
                for b, label in zip(ids, labels):
                    out.setdefault(label, []).append(b)
            sides.append((list(mine.values()), [theirs[label] for label in mine]))
        groups = [g for mine, _ in sides for g in mine]
        sums = _staged_sums(blocks, groups + [g for _, theirs in sides for g in theirs])
        bad = sq_frob(sums[:len(groups)] - sums[len(groups):]) > bound ** 2
        at = 0
        for mine, _ in sides:
            if bad[at:at + len(mine)].any():
                raise ValidationError(
                    "inconsistent intersection component: the two sides disagree")
            yield sums[at:at + len(mine)], mine
            at += len(mine)


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
    projectors, then their dimensions and traces, then the partition.  The
    context holds a table at ``tol`` of its blocks alone, in the order
    given, and their ids in key order: the stack, ``overlaps`` product and
    sort keys of the checks are the table's rows, meets and keys, and it
    records the context as checked.  The blocks are pairwise far apart
    (orthogonal, each of trace above 0.5), so no two are the same block."""
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
    meets = overlaps(stack, stack, tol)
    _check_partition(stack, meets, tol.scaled(dim))
    keys = _block_sort_keys(stack)
    table = BlockTable(dim, tol, stack, meets, keys)
    table.checked.add(tuple(range(len(stack))))
    return Context(key=label or _fresh_key(), dim=dim, label=label, table=table,
                   ids=tuple(sorted(range(len(stack)), key=keys.__getitem__)))


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
    two blocks, every block a projector, the canonical order, then
    orthogonality and sum to identity, and every operator's reconstruction
    from its group's blocks.  Groups go in runs whose products hold about
    ``PAIR_ENTRIES`` matrix entries.

    All runs share one :class:`BlockTable` at ``tol``: a run interns its
    groups' blocks in one call, in group order and key order within a
    group, and checks the partitions off the table (``_check_run``); a
    flagged group is checked again alone on its blocks in refinement order,
    which names its fault.  A context is the table and its ids: each block
    is the product one group alone forms, bit for bit, but a block within
    eps * d of an earlier group's reads that group's row, as in build_poset.
    """
    d = ops.shape[-1]
    projs = np.concatenate([pairs[1] for pairs in found])
    starts = np.cumsum([0] + [len(pairs[1]) for pairs in found])
    table = BlockTable(d, tol)
    out: list = []
    lo = size = 0
    for hi, rows in enumerate(groups):
        weight = (len(rows) + 2 * d) ** 2 * d * d  # bounds each product's entries
        if hi > lo and size + weight > PAIR_ENTRIES:
            out += _generate_run(ops, projs, starts, groups[lo:hi], labels[lo:hi], table)
            lo, size = hi, 0
        size += weight
    return out + _generate_run(ops, projs, starts, groups[lo:], labels[lo:], table)


def _generate_run(ops: np.ndarray, projs: np.ndarray, starts: np.ndarray,
                  groups: Sequence[Sequence[int]], labels: Sequence[str | None],
                  table: BlockTable) -> list:
    """``_generate`` on one run of groups into ``table``, operator r's
    eigenprojectors being ``projs[starts[r]:starts[r + 1]]``."""
    d, tol = ops.shape[-1], table.tol
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

    # Drop the groups with an error; where each one left begins and ends.
    keep = np.array([out[g] is None for g in owner.tolist()], dtype=bool)
    blocks, owner = blocks[keep], owner[keep]
    if not len(owner):
        return out
    cuts = np.flatnonzero(np.diff(owner, prepend=-1))
    gs, cuts, ends = owner[cuts].tolist(), cuts.tolist(), cuts[1:].tolist() + [len(owner)]
    keys = _block_sort_keys(blocks)
    order = [k for c, e in zip(cuts, ends) for k in sorted(range(c, e), key=keys.__getitem__)]
    refined, blocks = blocks, blocks[order]
    ids = table.intern(blocks, keys=[keys[k] for k in order])
    flags = _check_run(table, blocks, ids, [np.ones((1, e - c)) for c, e in zip(cuts, ends)],
                       bound)
    for g, c, e, flag in zip(gs, cuts, ends, flags):
        try:
            if flag:  # named by the check of one group alone
                _check_partition(refined[c:e], overlaps(refined[c:e], refined[c:e], tol), bound)
            out[g] = Context(key=labels[g] or _fresh_key(), dim=d, label=labels[g],
                             table=table, ids=tuple(ids[c:e]))
            table.checked.add(tuple(sorted(ids[c:e])))
        except ToposError as exc:
            out[g] = exc

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
    component of that bipartite graph contributes one block of the result,
    in order of its first block of ``a``.  The components are those of the
    meet pass (``_pair_slices`` and ``_meets`` on the two contexts' blocks);
    two sides of a component that differ raise ``ValidationError``.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} and {b.dim} differ")
    na, nb = len(a.blocks), len(b.blocks)
    rows = [range(na), range(na, na + nb)]
    joint = np.zeros((na + nb, na + nb), dtype=bool)
    joint[:na, na:] = overlaps(a.blocks, b.blocks, tol)
    pairs = next(_pair_slices(joint, rows))  # the one pair, if its meet is not trivial
    for mats, _ in _meets(np.concatenate([a.blocks, b.blocks]), rows, pairs, tol.scaled(a.dim)):
        return make_context(mats, tol, label=label)
    return None


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
def _proper_partitions(k: int) -> tuple[list[tuple], list[tuple], np.ndarray, list]:
    """The proper coarsenings of ``k`` blocks (not the blocks themselves nor
    the trivial algebra) as groups of positions, in ``_set_partitions``
    order; the groups of two or more, in order of first appearance; a 0/1
    matrix of which of those groups, then singletons, each one takes; and
    per coarsening, a getter of its groups' entries, in its order, from a
    list over those groups and then singletons."""
    parts = [tuple(map(tuple, part)) for part in _set_partitions(list(range(k)))
             if 1 < len(part) < k]
    groups = list(dict.fromkeys(g for part in parts for g in part if len(g) > 1))
    cols = groups + [(j,) for j in range(k)]
    return (parts, groups, np.array([[g in part for g in cols] for part in parts], float),
            [operator.itemgetter(*map(cols.index, part)) for part in parts])


def _bell(k: int) -> int:
    """The number of partitions of ``k`` things (Bell triangle)."""
    row = [1]
    for _ in range(k - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


def coarsenings(ctx: Context, tol: Tolerance = Tolerance()) -> Iterator[Context]:
    """All proper block-merging coarsenings of a context, one at a time."""
    k, stack = len(ctx.blocks), np.asarray(ctx.blocks)
    for part in _set_partitions(list(range(k))):
        if 1 < len(part) < k:
            yield make_context(_staged_sums(stack, part), tol)


class BlockTable:
    """Distinct blocks (:func:`qtopos.numerics.same_blocks`) at one
    tolerance, with their sort keys, their ranks (``ranks``, which every
    context of the table reads) and which of them meet.  ``intern`` takes
    one run of candidate contexts' blocks at a time: the given contexts,
    the meets of a meet pass or the subset sums of a run of the coarsening
    pass.

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

    def __init__(self, dim: int, tol: Tolerance, blocks: np.ndarray | None = None,
                 meets: np.ndarray | None = None, keys: Sequence[tuple] = ()):
        """An empty table at ``tol`` of ``dim``-square blocks, or one of the
        stack ``blocks`` (taken, not copied, and made read-only), meeting as
        ``meets``, with the sort keys ``keys``; either has no records."""
        self.tol = tol
        # the distinct blocks in id order, read-only: intern replaces the stack
        self.blocks = np.empty((0, dim, dim), dtype=complex) if blocks is None else blocks
        self.blocks.setflags(write=False)
        self.meets = np.zeros((0, 0), dtype=bool) if meets is None else meets
        self.keys: list[tuple] = list(keys)
        # per block, its rank: its key's trace, rounded
        self.ranks: list[int] = [round(-key[0]) for key in self.keys]
        # the sorted block ids of each context checked as a partition of
        # unity on this table (by make_context, _generate or GivenContexts)
        self.checked: set[tuple[int, ...]] = set()
        # quantum._record's records, one per tested matrix and variant: its
        # read-only flags, one per held block, and the daseinisation rows of
        # the contexts asked so far, ``held_rows`` of them in all; quantum
        # keeps at most 128 records and POSET_LIMIT rows (one poset's)
        self.hits: dict[tuple, tuple] = {}
        self.held_rows = 0

    def copy(self) -> BlockTable:
        """A table of the same blocks (shared: they are read-only), keys, ranks
        and meets, with no records and no context checked."""
        return BlockTable(self.blocks.shape[-1], self.tol, self.blocks, self.meets.copy(),
                          self.keys)

    def forget(self) -> None:
        """Drop every record of ``hits``."""
        self.hits.clear()
        self.held_rows = 0

    def intern(self, blocks: Sequence[np.ndarray], parts: Sequence[Sequence[int]] | None = None,
               keys: Sequence[tuple] | None = None) -> list[int]:
        """The ids of ``blocks``, adding in order those not yet held; a block
        equal to an earlier new one of the batch takes its id, so one call
        gives the ids, keys and order of one call per block.  ``parts[r]``,
        if given, lists the held ids that block r sums: a block of one part
        is that part, and the new blocks' meets are a boolean product over
        the held meets instead of :func:`qtopos.numerics.overlaps`.
        ``keys``, if given, are the blocks' ``_block_sort_keys``."""
        stack, n = np.asarray(blocks), len(self.keys)
        ids = np.full(len(stack), n)
        if parts is not None:
            ids[:] = [p[0] if len(p) == 1 else n for p in parts]
        rest = np.flatnonzero(ids == n)
        if n:
            same = same_blocks(self.blocks, stack[rest], self.tol)
            ids[rest] = np.concatenate([same, np.ones((1, len(rest)), bool)]).argmax(axis=0)
        fresh = rest[ids[rest] == n]
        if not fresh.size:
            return ids.tolist()
        self.forget()  # its flags cover the blocks held so far
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
        self.blocks = np.concatenate([self.blocks, stack[new]])
        self.blocks.setflags(write=False)
        if parts is None:
            hits = overlaps(self.blocks, self.blocks[n:], self.tol)
        else:
            picked = [parts[r] for r in new.tolist()]
            sizes = [len(p) for p in picked]
            sums = np.zeros((len(new), n), dtype=np.float32)
            sums[np.repeat(np.arange(len(new)), sizes),
                 list(itertools.chain.from_iterable(picked))] = 1
            held = sums @ self.meets.astype(np.float32)
            hits = np.concatenate([held.T, held @ sums.T]) > 0
        meets = np.zeros((m, m), dtype=bool)
        meets[:n, :n] = self.meets
        meets[n:] = hits.T
        meets[:, n:] = hits
        self.meets = meets
        keys = (_block_sort_keys(self.blocks[n:]) if keys is None
                else list(map(keys.__getitem__, new.tolist())))
        self.keys += keys
        self.ranks += [round(-key[0]) for key in keys]
        ids[new] = np.arange(n, m)
        ids[fresh[~added]] = ids[fresh[first[~added]]]
        return ids.tolist()


@dataclass(frozen=True, eq=False)
class ContextPoset:
    """Finitely many contexts ordered by algebra inclusion, at one tolerance
    ``tol``; ``base`` is the kernel poset on the sorted keys.  ``leq`` must
    already be closed, as ``build_poset`` returns it: a hand-built poset is
    taken as given, but a pair of ``leq`` that names a key of none of its
    contexts raises ``ValidationError`` (the first such pair in sorted
    order).  Every context holds the poset's block ``table`` and its
    blocks' ``ids`` in it: the table that the contexts share at ``tol`` (as
    ``build_poset``'s or a scenario's do), or, for any other contexts
    (``make_context``'s, or another poset's at another tolerance), a fresh
    one at ``tol`` held by copies of them.  A context whose dimension is
    not ``dim`` raises ``DimensionMismatch``."""

    dim: int
    contexts: tuple[Context, ...]
    leq: frozenset[tuple[str, str]]
    tol: Tolerance = Tolerance()

    def __post_init__(self):
        for c in self.contexts:
            if c.dim != self.dim:
                raise DimensionMismatch(
                    f"context {c.key} has dimension {c.dim} != {self.dim}")
        table = self.contexts[0].table if self.contexts else BlockTable(self.dim, self.tol)
        if table.tol != self.tol or any(c.table is not table for c in self.contexts):
            table = BlockTable(self.dim, self.tol)
            blocks = [b for c in self.contexts for b in c.blocks]
            ids = iter(table.intern(blocks) if blocks else ())
            object.__setattr__(self, "contexts", tuple(Context(
                key=c.key, dim=c.dim, label=c.label, table=table,
                ids=tuple(itertools.islice(ids, len(c.blocks)))) for c in self.contexts))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_index", {c.key: c for c in self.contexts})
        stray = sorted(p for p in self.leq if not self._index.keys() >= set(p))
        if stray:
            raise ValidationError(f"order pair {stray[0]!r} names a key that is not one "
                                  "of the poset's contexts")
        object.__setattr__(self, "base", FinPoset(
            elements=tuple(sorted(self._index)), leq=self.leq))

    def context(self, key: str) -> Context:
        return self._index[key]

    @functools.cached_property
    def _id_rows(self) -> np.ndarray:
        """Row i holds the id of each context's i-th block, contexts in
        ``contexts`` order; a context with fewer blocks reads -1 there."""
        rows = _padded([c.ids for c in self.contexts]).T
        rows.setflags(write=False)
        return rows

    def __len__(self) -> int:
        return len(self.contexts)


def _check_closure(closure: str) -> None:
    if closure not in ("intersections", "coarsenings"):
        raise ValidationError(
            f"closure must be 'intersections' or 'coarsenings', got {closure!r}")


def _under(table: BlockTable, rows: Sequence[Sequence[int]]) -> set[tuple[int, int]]:
    """The pairs ``(r, c)``, ``r == c`` included, of the contexts whose block
    ids are ``rows[r]`` and ``rows[c]`` with ``r`` under ``c``: every block of
    c meets exactly one block of r (then c has at least as many blocks,
    since every block of r meets one of c); 512 rows at a time."""
    n = len(table.keys)
    member = np.zeros((len(rows), n), dtype=np.float32)
    member[np.repeat(np.arange(len(rows)), [len(ids) for ids in rows]),
           list(itertools.chain.from_iterable(rows))] = 1
    misfit = (member @ table.meets != 1).astype(np.float32)
    pairs: set[tuple[int, int]] = set()
    for lo in range(0, len(rows), 512):
        r, c = np.nonzero(misfit[lo:lo + 512] @ member.T == 0)
        pairs.update(zip((r + lo).tolist(), c.tolist()))
    return pairs


def _refuse_cycles(pairs: set[tuple[int, int]]) -> None:
    """Two distinct contexts that lie under each other raise the meet pass's
    error (see :func:`build_poset`)."""
    if any(a != b and (b, a) in pairs for a, b in pairs):
        raise ValidationError(
            "inconsistent intersection component: the two sides disagree")


class GivenContexts:
    """The first phase of :func:`build_poset`: the given contexts' blocks
    interned in one :class:`BlockTable` at ``tol`` and each context checked
    as a partition of unity, a context equal to an earlier one dropped.
    ``ids`` holds each kept context's block ids in key order and ``labels``
    its label, in given order.  The contexts are fed in runs
    (``_feed``), and a run is the unit of work here and in ``close``: one
    intern of its blocks, one batched partition check (``_check_run``),
    then each candidate added in order, a flagged one checked again alone
    so that its error and the order of errors are those of one candidate
    at a time.

    Contexts that share one table at ``tol``, that the table records as
    checked (``BlockTable.checked``) and whose ids, read in order, first
    meet it as 0, 1, ..., n - 1 (a scenario's maximal contexts) were
    interned and checked as they were generated: their ids are added as
    they are, to a copy of the table that ``close`` grows.  Other contexts
    (most ``make_context``'s, a subset or reordering of a scenario's, two
    tables', another tolerance's, one built by hand on a table) are
    interned and checked afresh.  The contexts kept here are the ones the
    new table records as checked.

    ``maximal`` reads the given contexts under no other off the table, which
    is all that :func:`qtopos.quantum.ks_search` needs for a verdict, and
    ``close`` continues the closure from here, so a caller that needs both
    interns and checks the given contexts once.  ``close`` takes the object
    over: it adds the derived contexts to its table and lists.
    """

    def __init__(self, maximal: Sequence[Context], tol: Tolerance = Tolerance()):
        self.tol = tol
        self.dim = maximal[0].dim if maximal else 0
        self.bound = tol.scaled(self.dim)
        self.labels: list[str | None] = []
        self.ids: list[list[int]] = []  # per context, its block ids in key order
        table = maximal[0].table if maximal else None
        found = [tuple(sorted(c.ids)) for c in maximal]
        if (table is not None and table.tol == tol and all(c.table is table for c in maximal)
                and table.checked.issuperset(found)
                and list(dict.fromkeys(b for c in maximal for b in c.ids))
                == list(range(len(table.keys)))):
            self.table = table.copy()
            self.seen = self.table.checked  # sorted ids of the contexts held
            for ctx, ids in zip(maximal, found):
                self._add(ctx.ids, ids, ctx.label)
            return
        self.table = BlockTable(self.dim, tol)
        self.seen = self.table.checked

        def given() -> Iterator[tuple[int, tuple]]:
            for ctx in maximal:
                if ctx.dim != self.dim:
                    raise DimensionMismatch(f"context dimension {ctx.dim} != {self.dim}")
                yield 1, (ctx.blocks, ctx.label, None)

        self._feed(given(), self._add_run)

    def _add(self, ids: Sequence[int], found: tuple[int, ...], label: str | None = None,
             flagged: Sequence[np.ndarray] | None = None) -> None:
        """Add the candidate context with block ids ``ids`` (``found`` is
        them sorted) unless it is held.  ``flagged`` is the matrices of a
        candidate that its run's check flagged: checked alone, they raise
        the error that names the fault."""
        if found in self.seen:
            return
        if flagged is not None:
            _check_partition(flagged, self.table.meets[np.ix_(ids, ids)], self.bound)
        self.seen.add(found)
        self.ids.append(sorted(ids, key=self.table.keys.__getitem__))
        self.labels.append(label)
        if len(self.ids) > POSET_LIMIT:
            raise SizeLimit(f"closure exceeded {POSET_LIMIT} contexts")

    def _add_run(self, run: list[tuple]) -> None:
        """Intern the blocks of candidate contexts ``(mats, label, parts)``
        in one call, check them at once, then add them in order."""
        if not run:
            return
        stack = np.concatenate([np.asarray(mats) for mats, _, _ in run])
        ids = self.table.intern(stack, None if run[0][2] is None else
                                [p for _, _, parts in run for p in parts])
        sizes = [len(mats) for mats, _, _ in run]
        flags = _check_run(self.table, stack, ids, [np.ones((1, k)) for k in sizes], self.bound)
        at = 0
        for (mats, label, _), size, flag in zip(run, sizes, flags):
            own = ids[at:at + size]
            at += size
            self._add(own, tuple(sorted(own)), label, mats if flag else None)

    def _feed(self, items: Iterator[tuple[int, object]], flush: Callable) -> None:
        """``flush`` the ``(weight, item)`` pairs of ``items`` in runs whose
        weights fit the room left under ``POSET_LIMIT`` (one item at least).
        A run past the room is flushed before the next item is asked for,
        since no item can join it: a closure that trips the limit forms no
        candidate past the run that trips it."""
        run: list = []
        room = POSET_LIMIT - len(self.ids)
        try:
            for weight, item in items:
                if run and weight > room:
                    full, run = run, []
                    flush(full)
                    room = POSET_LIMIT - len(self.ids)
                run.append(item)
                room -= weight
                if room < 0:
                    full, run = run, []
                    flush(full)
                    room = POSET_LIMIT - len(self.ids)
        except ToposError:
            flush(run)  # an earlier candidate's error comes first
            raise
        flush(run)

    def _in_key_order(self, positions) -> list[int]:
        """``positions`` in ``ids`` sorted stably in ``V..`` order: block
        count, then the blocks' sort keys, compared as their dense ranks
        among the table's keys (equal keys, equal ranks)."""
        keys = self.table.keys
        rank = [0] * len(keys)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        for a, b in zip(order, order[1:]):
            rank[b] = rank[a] + (keys[b] != keys[a])
        return sorted(positions, key=lambda i: (len(self.ids[i]),
                                                tuple(map(rank.__getitem__, self.ids[i]))))

    def maximal(self) -> list[int]:
        """The positions in ``ids`` of the contexts under no other, in
        ``V..`` key order (ties in given order): the maximal contexts of
        either closure, since every derived context lies under a given one.
        Two given contexts that lie under each other raise the error that
        ``close`` would."""
        pairs = _under(self.table, self.ids)
        _refuse_cycles(pairs)
        below = {r for r, c in pairs if r != c}
        return self._in_key_order(i for i in range(len(self.ids)) if i not in below)

    def close(self, closure: str) -> ContextPoset:
        """The poset of :func:`build_poset`, closed from the given contexts."""
        _check_closure(closure)
        if not self.ids:
            return ContextPoset(dim=0, contexts=(), leq=frozenset(), tol=self.tol)
        dim, table, ids_of, bound = self.dim, self.table, self.ids, self.bound

        def expand_run(run: list[int]) -> None:
            """Intern the proper subset sums of the contexts at ``run`` in one
            call, check their new coarsenings at once, then add them in order."""
            plans = [_proper_partitions(len(ids_of[i])) for i in run]
            sides = [[ids_of[i][j] for j in group] for i, plan in zip(run, plans)
                     for group in plan[1]]
            if not sides:  # contexts of two blocks have no proper coarsening
                return
            sums = _staged_sums(table.blocks, sides)
            made = table.intern(sums, sides)
            owns, cols, picks, todo = [], [], [], []
            at = 0
            for i, (_, groups, pick, getters) in zip(run, plans):
                atoms = ids_of[i]
                ids = made[at:at + len(groups)] + atoms  # per group, then singleton
                cands = []
                for r, get in enumerate(getters):
                    got = get(ids)
                    found = tuple(sorted(got))
                    if found not in self.seen:
                        cands.append((r, got, found))
                if cands:
                    owns.append(np.concatenate([sums[at:at + len(groups)], table.blocks[atoms]]))
                    cols += ids
                    picks.append(pick[[r for r, _, _ in cands]])
                    todo.append((owns[-1], getters, cands))
                at += len(groups)
            if not todo:
                return
            flags = iter(_check_run(table, np.concatenate(owns), cols, picks, bound))
            for own, getters, cands in todo:
                for (r, got, found), flag in zip(cands, flags):
                    self._add(got, found, None, getters[r](own) if flag else None)

        def meet_pass(done: int, size: int) -> Iterator[tuple[int, tuple]]:
            """The meets of the pairs i < j < size with j >= done, in that
            order; a slice of pairs at a time is read off the table, and only a
            pair whose meet is not trivial is met."""
            for pairs in _pair_slices(table.meets, ids_of[:size], done):
                for mats, parts in _meets(table.blocks, ids_of, pairs, bound):
                    yield 1, (mats, None, parts)

        def expansions() -> Iterator[tuple[int, int]]:
            for i in range(len(ids_of)):
                forced = _bell(len(ids_of[i])) - 1
                if forced > POSET_LIMIT:
                    raise SizeLimit(f"closure exceeded {POSET_LIMIT} contexts")
                yield forced - 1, i

        done = 0  # every pair of the first done contexts has been met
        while closure == "intersections" and done < len(ids_of):
            size = len(ids_of)
            self._feed(meet_pass(done, size), self._add_run)
            done = size
        if closure == "coarsenings":
            self._feed(expansions(), expand_run)

        order = self._in_key_order(range(len(ids_of)))
        width = max(2, len(str(len(order) - 1)))
        relabeled = [Context(key=f"V{r:0{width}d}", dim=dim, label=self.labels[i],
                             table=table, ids=tuple(ids_of[i]))
                     for r, i in enumerate(order)]
        pairs = _under(table, [ids_of[i] for i in order])
        _refuse_cycles(pairs)
        leq = frozenset((relabeled[r].key, relabeled[c].key) for r, c in pairs)
        return ContextPoset(dim=dim, contexts=tuple(relabeled), leq=leq, tol=self.tol)


def build_poset(maximal: Sequence[Context], closure: str = "intersections",
                tol: Tolerance = Tolerance()) -> ContextPoset:
    """Close a family of contexts under the chosen policy and order it.

    ``intersections`` closes under pairwise intersection to a fixed point;
    a pass skips the pairs that the pass before already met.  A meet's
    blocks are the components of the bipartite graph of the two contexts'
    blocks, joined where they meet; a pass labels them off the table's
    meets for a slice of at most ``PAIR_ENTRIES`` entries of pairs at a
    time, in batched boolean products (``_pair_slices``), and sums and
    checks only the meets that are not trivial (``_meets``), raising at
    the first bad pair in pass order, so every error stays where it was.
    ``coarsenings`` takes the given contexts, then every block-merging
    coarsening of each, in list order: every subalgebra of a finite
    commutative algebra is a coarsening of it, and the set is closed under
    meets, since the meet of two subalgebras of given contexts is a
    subalgebra of each.  Two distinct contexts that lie under each other
    raise the meet pass's ``inconsistent intersection component`` error:
    blocks a little more than eps * d apart are distinct yet can meet one
    to one (see :mod:`qtopos.numerics`), and without a meet pass nothing
    else refuses that cycle.

    Each distinct block is interned once in a :class:`BlockTable` at
    ``tol``, so a context is a list of block ids and a duplicate is one set
    lookup; the poset, built at ``tol``, and its contexts keep the table,
    and each context its block ids, whose rows are its matrices: a
    candidate is checked on the matrices it was formed with, then dropped.
    Given contexts that share one table in order, as a scenario's maximal
    contexts do, were interned and checked as they were generated: the
    closure grows a copy of their table (:class:`GivenContexts`).  ``V..``
    ids sort contexts by block count, then by block entries rounded to 6
    digits, compared as dense ranks of the table's keys (equal keys, equal
    ranks): near a rounding boundary ids can change (say under a global
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
    lookup.  The sums of a run are formed by staged adds from the table's
    rows (``_staged_sums``, bit for bit ``0 + b0 + b1 + ...``) and
    interned in one call.  A run's new partitions are checked at once,
    with a block-diagonal 0/1 matrix of each context's partitions over its
    sums and the table's meets; only a flagged one is checked again alone,
    to be named.  The given contexts are checked as one run the same way.
    A k-block context forces Bell(k) - 1 contexts, so one that would pass
    ``POSET_LIMIT`` trips it before any sum is formed.

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
    _check_closure(closure)
    return GivenContexts(maximal, tol).close(closure)


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
