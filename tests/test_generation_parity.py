"""Context generation and partition checks on stacks agree with the
per-matrix code they replaced.

``reference_context_from_commuting_set``, ``reference_make_context`` and
``reference_block_values`` below are the earlier loops, kept verbatim, as
is the earlier ``_check_partition`` (``reference_check_partition``):
commutators pair by pair, the joint eigenprojectors refined block by
block, each block validated on its own, each operator reconstructed on its
own, one partition checked at a time.  The stacked versions in
``qtopos.contexts`` must give bit-equal blocks under the same keys and
labels, the same verdicts, and the same error type and message.
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
    NotProjector,
    ToposError,
    TrivialContext,
    ValidationError,
)
from qtopos.numerics import (
    Tolerance,
    as_operator,
    eigensystem,
    frob,
    is_projector,
    overlaps,
    require_hermitian,
)
from qtopos.scenario import parse_scenario
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
    return scn.maximal_contexts, expected


@pytest.mark.parametrize("name", ["pauli2", "mermin-square"])
def test_builtins(name):
    _dim, ops, lines = C._builtin_lines(name)
    for (line, names), ctx in zip(lines.items(), C.builtin_scenario(name, TOL)[2]):
        assert_same(ctx, reference_context_from_commuting_set(
            [ops[nm] for nm in names], TOL, label=line))


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
    each group of two or more dropped): the first coarsening is flagged in
    the batch and ``build_poset`` raises the per-context check's message."""
    ctx = C.make_context(E, TOL, label="atoms")
    merge = C._merge

    def wrong(blocks, group):
        return merge(blocks, group[:-1] or group)

    monkeypatch.setattr(C, "_merge", wrong)
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
