"""Context generation and partition checks on stacks agree with the
per-matrix code they replaced.

``reference_context_from_commuting_set``, ``reference_make_context``,
``reference_block_values`` and ``reference_eigensystem`` below are the
earlier loops, kept verbatim, as is the earlier ``_check_partition``
(``reference_check_partition``): one eigensystem per call, commutators pair
by pair, the joint eigenprojectors refined block by block, each block
validated on its own, each operator reconstructed on its own, one partition
checked at a time.  The stacked versions in ``qtopos.contexts`` and
``qtopos.numerics`` must give bit-equal blocks under the same keys and
labels, the same verdicts, and the same error type and message, whether
one group is generated or a whole scenario's groups at once.  A generated
context's blocks are the rows of its one block table, so the reference's
contexts of a scenario are read as the rows of one table into which they
are interned in group order (``in_one_table``), as ``build_poset`` reads
them.
"""
from __future__ import annotations

import json
import pathlib
import sys
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import contexts as C
from qtopos import numerics
from qtopos.errors import (
    DimensionMismatch,
    NonCommuting,
    NotHermitian,
    NotProjector,
    ToposError,
    TrivialContext,
    ValidationError,
)
from qtopos.numerics import (
    Tolerance,
    as_operator,
    eigensystem,
    eigensystems,
    frob,
    is_projector,
    overlaps,
    require_hermitian,
)
from qtopos.scenario import _matrix, parse_scenario
from tests.conftest import SX, SZ, random_unitary

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
TOL = Tolerance()


def reference_check_partition(mats: Sequence[np.ndarray], meets: np.ndarray,
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


def reference_eigensystem(matrix, tol: Tolerance = Tolerance()) -> list:
    """Spectral decomposition as (eigenvalue, eigenprojector) pairs."""
    a = require_hermitian(matrix, tol)
    dim = a.shape[0]
    evals, vecs = np.linalg.eigh(a)
    gap = tol.eps * max(1.0, frob(a))
    pairs = []
    start = 0
    for stop in range(1, dim + 1):
        if stop == dim or evals[stop] - evals[stop - 1] > gap:
            cols = vecs[:, start:stop]
            proj = cols @ cols.conj().T
            proj = (proj + proj.conj().T) / 2
            proj.setflags(write=False)
            pairs.append((float(np.mean(evals[start:stop])), proj))
            start = stop
    return pairs


def reference_block_values(op: np.ndarray, blocks, bound: float) -> list[float] | None:
    """tr(p op) / tr(p) per block p, or None unless ``op`` is the real
    combination of the blocks with these values, within ``bound``."""
    coeffs = [complex(np.trace(p @ op)) / float(np.trace(p).real) for p in blocks]
    recon = sum(c.real * p for c, p in zip(coeffs, blocks))
    bad = frob(recon - op) > bound or max(abs(c.imag) for c in coeffs) > bound
    return None if bad else [c.real for c in coeffs]


def reference_make_context(blocks: Sequence, tol: Tolerance = Tolerance(),
                           label: str | None = None) -> C.Context:
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
    reference_check_partition(mats, overlaps(mats, mats, tol), tol.scaled(dim))
    keys = C._block_sort_keys(np.stack(mats))
    ordered = tuple(mats[i] for i in sorted(range(len(mats)), key=keys.__getitem__))
    return C.Context(key=label or C._fresh_key(), dim=dim, blocks=ordered, label=label)


def reference_context_from_commuting_set(operators: Sequence,
                                         tol: Tolerance = Tolerance(),
                                         label: str | None = None) -> C.Context:
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
        projs = [proj for _value, proj in reference_eigensystem(op, tol)]
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

    ctx = reference_make_context(blocks, tol, label=label)
    for i, op in enumerate(ops):
        if reference_block_values(op, ctx.blocks, bound) is None:
            raise ValidationError(
                f"operator {i} is not a real combination of the refined blocks")
    return ctx


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ToposError as exc:
        return exc


def assert_same(new, old) -> None:
    """Bit-equal blocks with the same key and label, or the same error.  An
    unlabelled context takes the next ``ctxN`` key, so only its form is
    compared."""
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (new, old)
        if isinstance(old, NonCommuting):
            assert (new.i, new.j) == (old.i, old.j)
        return
    assert not isinstance(new, Exception), new
    assert (new.label, new.dim) == (old.label, old.dim)
    if old.label is None:
        assert new.key.startswith("ctx") and old.key.startswith("ctx")
    else:
        assert new.key == old.key
    assert len(new.blocks) == len(old.blocks)
    for a, b in zip(new.blocks, old.blocks):
        assert np.array_equal(a, b)


def in_one_table(made: list, tol: Tolerance = TOL) -> list:
    """``made``, contexts generated one group at a time (or errors), with
    each context's blocks read as the rows of one ``BlockTable`` at ``tol``
    into which all their blocks were interned in order: the rows that
    ``build_poset`` reads for them, and that generation now gives."""
    held = [ctx for ctx in made if isinstance(ctx, C.Context)]
    if not held:
        return made
    table = C.BlockTable(held[0].dim, tol)
    ids = iter(table.intern([b for c in held for b in c.blocks]))
    return [C.Context(key=ctx.key, dim=ctx.dim, label=ctx.label, table=table,
                      ids=tuple(next(ids) for _ in ctx.blocks))
            if isinstance(ctx, C.Context) else ctx for ctx in made]


def assert_generation_parity(ops, tol=TOL, label="family") -> None:
    assert_same(_outcome(C.context_from_commuting_set, ops, tol, label=label),
                _outcome(reference_context_from_commuting_set, ops, tol, label=label))


def _maximal_by_reference(scenario_text: str) -> list:
    """The maximal contexts of a scenario, each generated by the reference
    from the operators the parser settled on."""
    doc = json.loads(scenario_text)
    scn = parse_scenario(scenario_text)
    families = []
    for name in doc.get("builtins", []):
        _dim, ops, lines = C._builtin_lines(name)
        families += [([ops[nm] for nm in names], line) for line, names in lines.items()]
    families += [([scn.operators[nm] for nm in group], ",".join(group))
                 for group in doc.get("groups", [])]
    expected = [reference_context_from_commuting_set(ops, scn.tolerance, label=label)
                for ops, label in families]
    return scn.maximal_contexts, in_one_table(expected, scn.tolerance)


@pytest.mark.parametrize("name", ["pauli2", "mermin-square"])
def test_builtins(name):
    _dim, ops, lines = C._builtin_lines(name)
    expected = in_one_table([reference_context_from_commuting_set(
        [ops[nm] for nm in names], TOL, label=line) for line, names in lines.items()])
    for ctx, old in zip(C.builtin_scenario(name, TOL)[2], expected, strict=True):
        assert_same(ctx, old)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                         ids=lambda p: p.name)
def test_bundled_scenarios(path):
    got, expected = _maximal_by_reference(path.read_text(encoding="utf-8"))
    assert len(got) == len(expected) > 0
    for new, old in zip(got, expected):
        assert_same(new, old)


@pytest.mark.parametrize("workload", ["poset-closure", "ks-search"])
def test_seed_one_benchmark_families(workload, tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    manifest = gen.make_inputs(workload, 1, tmp_path)
    paths = sorted({op["argv"][1] for op in manifest["ops"]})
    assert paths
    for path in paths:
        got, expected = _maximal_by_reference(pathlib.Path(path).read_text("utf-8"))
        assert len(got) == len(expected) > 0
        for new, old in zip(got, expected):
            assert_same(new, old)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
       count=st.integers(1, 4), levels=st.integers(1, 3))
def test_drawn_commuting_families(seed, dim, count, levels):
    """A random unitary times diagonals whose entries repeat: the operators
    commute, and their eigenspaces overlap in every pattern of ranks."""
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    ops = [u @ np.diag(rng.integers(-levels, levels + 1, size=dim).astype(float))
           @ u.conj().T for _ in range(count)]
    assert_generation_parity(ops)
    assert_generation_parity(ops[::-1], label=None)


@pytest.mark.parametrize("ops, error", [
    ([np.kron(SZ, np.eye(2)), np.kron(np.eye(2), SZ), np.kron(SX, np.eye(2))],
     "operators 0 and 2 do not commute"),
    ([SZ, np.array([[0, 1], [0, 0]])], "hermiticity defect"),
    ([np.eye(3), 2 * np.eye(3)], "trivial"),
    ([], "no operators"),
    ([SZ, np.kron(SZ, SZ)], "operator 1 has dimension 4 != 2"),
    # 0 and 0.5 sit closer than eps * ||A||_F and merge into one
    # eigenprojector, so the refined blocks cannot reconstruct the operator.
    ([np.diag([1.0, 1.0, -1.0]), np.diag([0.0, 0.5, 1e9])],
     "operator 1 is not a real combination of the refined blocks"),
], ids=["non-commuting", "non-hermitian", "trivial", "empty", "dimension",
        "not-a-combination"])
def test_generation_errors(ops, error):
    new = _outcome(C.context_from_commuting_set, ops, TOL)
    assert error in str(new)
    assert_same(new, _outcome(reference_context_from_commuting_set, ops, TOL))


@pytest.mark.parametrize("blocks", [
    [np.diag([1.0, 0, 0]), np.diag([0, 0.9, 0]), np.diag([0, 0, 1.0])],
    [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0, 0])],
    [np.diag([0.5, 0, 0, 0]), np.diag([0, 1.0, 0])],
    [np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 0.5, 0])],
    [np.diag([1.0, 1.0, 0]), np.diag([0, 1.0, 1.0])],
    [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])],
    [np.diag([1.0, 0])],
    [np.diag([0.0, 0, 1.0]), np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])],
], ids=["non-projector", "dimension", "non-projector-before-dimension",
        "dimension-before-non-projector", "not-orthogonal", "defect",
        "one-block", "valid"])
def test_make_context_parity(blocks):
    assert_same(_outcome(C.make_context, blocks, TOL, label="m"),
                _outcome(reference_make_context, blocks, TOL, label="m"))


def test_block_values_verdicts_per_operator():
    ctx = C.context_from_commuting_set([np.kron(SZ, SZ)], TOL)
    ops = [np.kron(SZ, SZ), np.kron(SZ, np.eye(2)), np.eye(4), np.kron(SX, SX)]
    values, ok = C._block_values(np.stack(ops), ctx.blocks, TOL.scaled(4))
    for op, row, good in zip(ops, values, ok):
        want = reference_block_values(op, ctx.blocks, TOL.scaled(4))
        assert good == (want is not None)
        if good:
            assert row == pytest.approx(want, abs=1e-12)


# The batched partition check: rows of a 0/1 matrix over a stack of blocks.

E = [np.diag(np.eye(4)[i]).astype(complex) for i in range(4)]
TILTED = np.full((4, 4), 0.0, complex)
TILTED[:2, :2] = 0.5  # projector onto (e0 + e1) / sqrt(2): meets e0 and e1
HAND_STACK = np.stack(E + [E[0] + E[1], TILTED, E[2] + E[3]])
HAND_ROWS = [
    [1, 1, 1, 1, 0, 0, 0],  # the four atoms
    [0, 0, 1, 1, 1, 0, 0],  # e0 + e1, e2, e3
    [0, 0, 0, 0, 1, 0, 1],  # e0 + e1, e2 + e3
    [1, 0, 1, 1, 0, 1, 0],  # e0 and the tilted block are not orthogonal
    [1, 1, 1, 0, 0, 0, 0],  # e3 is missing: defect 1
    [0, 0, 0, 0, 1, 1, 1],  # overlapping and summing past the identity
    [1, 0, 1, 1, 0, 0, 0],  # e1 is missing
]


def test_batched_partition_verdicts_agree_row_by_row():
    meets = overlaps(HAND_STACK, HAND_STACK, TOL)
    bound = TOL.scaled(4)
    faults = C._check_partition(HAND_STACK, meets, bound, np.array(HAND_ROWS, float))
    assert faults.tolist() == [False, False, False, True, True, True, True]
    for row, fault in zip(HAND_ROWS, faults):
        pick = np.flatnonzero(row)
        mats, sub = list(HAND_STACK[pick]), meets[np.ix_(pick, pick)]
        old = _outcome(reference_check_partition, mats, sub, bound)
        new = _outcome(C._check_partition, mats, sub, bound)
        assert isinstance(old, ValidationError) == isinstance(new, Exception) == fault
        if fault:
            assert_same(new, old)


def test_build_poset_names_a_bad_coarsening_as_before(monkeypatch):
    """A valid context whose subset sums are formed wrong (the last block of
    each group of two or more dropped from its staged sum): the first
    coarsening is flagged in its run's check and ``build_poset`` raises the
    per-context check's message."""
    ctx = C.make_context(E, TOL, label="atoms")
    merge, staged = C._merge, C._staged_sums

    def wrong(blocks, group):
        return merge(blocks, group[:-1] or group)

    monkeypatch.setattr(C, "_staged_sums", lambda blocks, groups: staged(
        blocks, [group[:-1] or group for group in groups]))
    mats = [wrong(ctx.blocks, group) for group in C._proper_partitions(4)[0][0]]
    want = _outcome(reference_check_partition, mats, overlaps(mats, mats, TOL),
                    TOL.scaled(4))
    assert str(want).startswith("blocks do not sum to identity")
    with pytest.raises(ValidationError) as info:
        C.build_poset([ctx], "coarsenings", TOL)
    assert str(info.value) == str(want)


@pytest.mark.parametrize("blocks", [
    [E[0], TILTED, E[2], E[3]],
    [E[0], E[1], E[2]],
], ids=["not-orthogonal", "defect"])
def test_build_poset_refuses_a_bad_context_as_before(blocks):
    bad = C.Context(key="bad", dim=4, blocks=tuple(blocks), label="bad")
    old = _outcome(reference_check_partition, blocks,
                   overlaps(blocks, blocks, TOL), TOL.scaled(4))
    assert isinstance(old, ValidationError)
    assert_same(_outcome(C.build_poset, [bad], "coarsenings", TOL), old)


def test_parse_generates_without_make_context_or_per_block_copies(monkeypatch):
    """Generated blocks are checked on their stack: no ``make_context`` call,
    and ``as_operator`` only once per named operator, by its eigensystem."""
    calls = {"make_context": 0, "as_operator": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(C, "make_context")
    count(C, "as_operator")
    count(numerics, "as_operator")
    scn = parse_scenario((SCENARIOS / "mermin_square.json").read_text("utf-8"))
    blocks = sum(len(ctx.blocks) for ctx in scn.maximal_contexts)
    assert (len(scn.maximal_contexts), blocks) == (6, 24)
    assert calls == {"make_context": 0, "as_operator": 9}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                         ids=lambda p: p.name)
def test_parsed_blocks_are_read_only(path):
    scn = parse_scenario(path.read_text(encoding="utf-8"))
    assert scn.maximal_contexts
    for ctx in scn.maximal_contexts:
        assert not any(b.flags.writeable for b in ctx.blocks), ctx


# One eigh for many matrices, and one generation pass for many groups.

def _drawn_operators(rng, dim: int, count: int) -> list[np.ndarray]:
    """Operators diagonal in one of two random bases, with few distinct
    eigenvalues (so groups commute, refine and reconstruct in every
    pattern, or do not commute across bases), and now and then a multiple
    of the identity, a non-Hermitian matrix or a large one."""
    bases = [random_unitary(dim, rng) for _ in range(2)]
    ops = []
    for _ in range(count):
        kind = rng.choice(["identity", "skew", "large", "other", "same"],
                          p=[0.06, 0.04, 0.06, 0.12, 0.72])
        if kind == "identity":
            ops.append(float(rng.integers(-2, 3)) * np.eye(dim, dtype=complex))
        elif kind == "skew":
            ops.append(np.triu(rng.normal(size=(dim, dim))).astype(complex))
        else:
            u = bases[kind == "other"]
            levels = rng.integers(-2, 3, size=dim).astype(float)
            op = u @ np.diag(levels * (1e60 if kind == "large" else 1)) @ u.conj().T
            ops.append((op + op.conj().T) / 2)
    return ops


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), count=st.integers(1, 8))
def test_eigensystems_match_one_matrix_at_a_time(seed, dim, count):
    rng = np.random.default_rng(seed)
    mats = _drawn_operators(rng, dim, count)
    big = int(rng.integers(count))  # its squared norm overflows
    mats[big] = np.diag([1e300] + [1.0] * (dim - 1)).astype(complex)
    for r, (found, mat) in enumerate(zip(eigensystems(mats, TOL), mats)):
        if r == big:
            assert str(found) == ("matrix is too large: its squared Frobenius "
                                  "norm overflows float64")
            continue
        old = _outcome(reference_eigensystem, mat, TOL)
        if isinstance(old, Exception):
            assert_same(found, old)
        else:
            values, projs = found
            assert values == [value for value, _ in old]
            assert all(type(v) is float for v in values) and not projs.flags.writeable
            assert len(projs) == len(old)
            assert all(np.array_equal(p, q) for p, (_, q) in zip(projs, old))
            assert all(np.array_equal(p, q) for (_, p), (_, q)
                       in zip(eigensystem(mat, TOL), old))


def _scenario(ops: list[np.ndarray], groups: list[list[int]]) -> str:
    dim = ops[0].shape[0]
    return json.dumps({
        "dimension": dim,
        "operators": {f"o{i}": [[[z.real, z.imag] for z in row] for row in op]
                      for i, op in enumerate(ops)},
        "groups": [[f"o{i}" for i in group] for group in groups]})


def reference_groups(text: str):
    """The maximal contexts that the earlier per-group loop of
    ``parse_scenario`` made of a scenario of operators and groups, each
    generated alone by the reference, or that loop's first error."""
    doc = json.loads(text)
    ops = {name: _matrix(node, doc["dimension"], name)
           for name, node in doc["operators"].items()}
    made = []
    for gi, group in enumerate(doc["groups"]):
        try:
            for name in group:  # the Hermitian check, in group order
                reference_eigensystem(ops[name], TOL)
            made.append(reference_context_from_commuting_set(
                [ops[name] for name in group], TOL, label=",".join(group)))
        except NotHermitian as exc:
            return ValidationError(f"group {gi}: {exc}")
        except NonCommuting as exc:
            return ValidationError(
                f"group {gi}: operators {group[exc.i]!r} and {group[exc.j]!r} do "
                f"not commute; commutator norm {exc.norm:.6e}")
        except TrivialContext as exc:
            return ValidationError(f"group {gi} generates the trivial algebra: {exc}")
        except ToposError as exc:
            return exc
    return in_one_table(made)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5),
       sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_groups_generated_together_match_each_alone(seed, dim, sizes):
    """A scenario of 1-6 groups of mixed sizes parses to the contexts, or
    the first error, of its groups generated one at a time; ``_generate``
    on all groups gives each group's own context or error."""
    rng = np.random.default_rng(seed)
    ops = _drawn_operators(rng, dim, 6)
    groups = [rng.integers(0, 6, size).tolist() for size in sizes]
    text = _scenario(ops, groups)
    want = reference_groups(text)
    got = _outcome(lambda: parse_scenario(text).maximal_contexts)
    if isinstance(want, Exception):
        assert_same(got, want)
    else:
        assert not isinstance(got, Exception), got
        assert len(got) == len(want)
        for new, old in zip(got, want):
            assert_same(new, old)
    found = eigensystems(ops, TOL)
    rows = [r for r, pairs in enumerate(found) if not isinstance(pairs, ToposError)]
    kept = [group for group in groups if set(group) <= set(rows)]
    if kept:
        labels = [None if k % 2 else f"g{k}" for k in range(len(kept))]
        made = C._generate(np.stack([ops[r] for r in rows]), [found[r] for r in rows],
                           [[rows.index(r) for r in group] for group in kept], TOL, labels)
        expected = in_one_table([_outcome(reference_context_from_commuting_set,
                                          [ops[r] for r in group], TOL, label=label)
                                 for group, label in zip(kept, labels)])
        for new, old in zip(made, expected, strict=True):
            assert_same(new, old)


SX2, SZ2, BAD = [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [0, 0]]


@pytest.mark.parametrize("doc, error", [
    ({"operators": {"a": SX2, "b": SZ2, "bad": BAD}, "groups": [["a", "b"], ["bad"]]},
     "group 0: operators 'a' and 'b' do not commute; commutator norm 2.828427e+00"),
    ({"operators": {"a": SX2, "b": SZ2}, "groups": [["b"], ["a", "b"], "a"]},
     "group 1: operators 'a' and 'b' do not commute; commutator norm 2.828427e+00"),
    ({"operators": {"a": SX2, "one": np.eye(2).tolist()},
      "groups": [["a"], ["one"], ["nope"]]},
     "group 1 generates the trivial algebra: the generated algebra is trivial "
     "(one block)"),
    ({"operators": {"one": np.eye(2).tolist(), "bad": BAD}, "groups": [["one"], ["bad"]]},
     "group 0 generates the trivial algebra: the generated algebra is trivial "
     "(one block)"),
    ({"operators": {"a": SX2, "b": SZ2, "bad": BAD, "worse": [[0, 2], [0, 0]]},
      "groups": [["a", "worse", "b", "bad"]]},
     "group 0: hermiticity defect 2.828e+00 exceeds 2.000e-09"),
    ({"operators": {"a": SX2, "b": SZ2, "bad": BAD},
      "projectors": {"P": {"operator": "bad", "eigenvalues": [1]}},
      "groups": [["a", "b"], "x"]},
     "projector 'P': operator 'bad' is not Hermitian: hermiticity defect "
     "1.414e+00 exceeds 2.000e-09"),
    ({"operators": {"a": SX2, "b": SZ2},
      "projectors": {"P": {"operator": "a", "eigenvalues": [3]}, "Q": 5},
      "groups": [["a", "b"]]},
     "projector 'P': 'a' has no eigenvalue within 1e-6 of 3"),
], ids=["non-commuting-before-a-later-non-hermitian",
        "generation-before-a-later-parse-error", "trivial-before-a-later-unknown-name",
        "trivial-before-a-later-non-hermitian", "first-non-hermitian-in-group-order",
        "non-hermitian-projector-source-before-groups",
        "projector-before-a-later-malformed-projector"])
def test_error_precedence_across_groups_and_projectors(doc, error):
    with pytest.raises(ToposError) as info:
        parse_scenario(json.dumps({"dimension": 2, **doc}))
    assert str(info.value) == error


def test_a_projector_of_a_projector_of_the_same_section():
    # Q's source is P, read just before it: P is formed first
    scn = parse_scenario(json.dumps({
        "dimension": 2, "operators": {"a": SX2},
        "projectors": {"P": {"operator": "a", "eigenvalues": [1]},
                       "Q": {"operator": "P", "eigenvalues": [0]}},
        "groups": [["P", "Q"]]}))
    assert np.allclose(scn.operators["Q"], np.eye(2) - scn.operators["P"])
    assert [c.ranks for c in scn.maximal_contexts] == [(1, 1)]


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
def test_runs_of_groups_change_no_bit(path, monkeypatch):
    # groups go through ``_generate`` in runs of bounded size; one group
    # per run gives the same contexts
    text = path.read_text(encoding="utf-8")
    whole = parse_scenario(text).maximal_contexts
    monkeypatch.setattr(C, "PAIR_ENTRIES", 1)
    for new, old in zip(parse_scenario(text).maximal_contexts, whole, strict=True):
        assert_same(new, old)
