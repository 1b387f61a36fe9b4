"""A poset's block table remembers each context's daseinisation row.

``BlockTable.hits`` holds one record per tested matrix and variant: its
flags, and the ``(indices, matrix)`` row of every context asked so far,
keyed by the context's block ids.  A remembered row must have the indices
and bytes of ``reference_row`` (each block normed on its own) and of a fresh
``_approximation``; asking again returns the same read-only objects, and
the poset-wide ``daseinise`` returns the rows the per-context calls do.  The
rows are bounded by ``POSET_LIMIT`` in all and dropped with the flags when
the table grows.

``truth_value_truthobject`` sums each context's weights as arrays; its
verdicts must be those of ``reference_truth_object`` (``conftest.contains``,
Python's ``sum`` over per-context weights), also at 8 blocks, where numpy's
own contiguous sum would switch to pairwise order, and at a weight sum a
few ulps from ``1 - eps``.
"""
from __future__ import annotations

import pathlib

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.errors import ValidationError
from qtopos.numerics import Tolerance, is_projector, require_projector
from qtopos.scenario import parse_scenario
from tests.conftest import random_projector, random_state
from tests.test_closure import OVER_LIMIT
from tests.test_daseinise_batch import reference_row
from tests.test_delta_table import reference_truth_object, reference_weights

TOL = Tolerance()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CLOSURES = ("intersections", "coarsenings")
FILES = sorted(path.name for path in SCENARIOS.glob("*.json"))


def _held(table):
    return sum(len(r.rows) for r in table.hits.values())


def _probes(poset, rng):
    """Haar projectors of ranks 1 and d - 1 and block sums of three contexts."""
    dim = poset.dim
    probes = [random_projector(dim, rng, 1), random_projector(dim, rng, dim - 1)]
    for i in rng.choice(len(poset), min(3, len(poset)), replace=False):
        ctx = poset.contexts[i]
        keep = np.arange(len(ctx.blocks)) % 2 == 0
        probes.append(sum(b for b, k in zip(ctx.blocks, keep) if k))
    return probes


@pytest.mark.parametrize("inner", [False, True])
@pytest.mark.parametrize("name, closure", [(name, closure) for name in FILES
                                           for closure in CLOSURES
                                           if (name, closure) not in OVER_LIMIT])
def test_rows_are_remembered(name, closure, inner):
    scn = parse_scenario((SCENARIOS / name).read_text())
    tol = scn.tolerance
    poset = C.build_poset(scn.maximal_contexts, closure, tol)
    table = poset.table
    public = Q.daseinise_projector_inner if inner else Q.daseinise_projector
    named = [op for op in scn.operators.values() if is_projector(op, tol)]
    for p in named[:4] + _probes(poset, np.random.default_rng(len(poset))):
        p = require_projector(p, tol)
        flags = Q._record(p, table.copy(), tol, inner).flags  # a record elsewhere
        first = [Q._in_context(p, ctx, tol, inner) for ctx in poset.contexts]
        for ctx, (indices, matrix) in zip(poset.contexts, first):
            want_indices, want = reference_row(p, ctx, tol, inner)
            fresh = Q._approximation(ctx, flags[list(ctx.ids)].tolist(), inner)
            assert indices == want_indices == fresh[0]
            assert matrix.tobytes() == want.tobytes() == fresh[1].tobytes()
            assert not matrix.flags.writeable
        again = [Q._in_context(p, ctx, tol, inner) for ctx in poset.contexts]
        assert all(a is b for a, b in zip(again, first))
        assert all(public(p, ctx, tol) is row[1] for ctx, row in zip(poset.contexts, first))
        whole = Q.daseinise(p, poset, inner=inner)
        assert all(a is b for a, b in zip(whole, first))
        record = table.hits[(inner, p.shape, p.tobytes())]
        assert list(record.rows) == [ctx.ids for ctx in poset.contexts]
    assert table.held_rows == _held(table)


def test_daseinise_fills_the_rows_the_contexts_read():
    scn = parse_scenario((SCENARIOS / "mermin_square.json").read_text())
    poset = C.build_poset(scn.maximal_contexts, "coarsenings", scn.tolerance)
    p = require_projector(scn.operator("Pzz_plus"), scn.tolerance)
    for inner in (False, True):
        whole = Q.daseinise(p, poset, scn.tolerance, inner)
        for ctx, row in zip(poset.contexts, whole):
            assert Q._in_context(p, ctx, scn.tolerance, inner) is row
    assert poset.table.held_rows == 2 * len(poset)


def test_the_rows_are_bounded():
    scn = parse_scenario((SCENARIOS / "mermin_square.json").read_text())
    tol = scn.tolerance
    poset = C.build_poset(scn.maximal_contexts, "coarsenings", tol)
    table, rng = poset.table, np.random.default_rng(11)
    assert Q._ROWS_CAP == C.POSET_LIMIT
    asked = held = 0
    while asked <= Q._ROWS_CAP + 3 * len(poset):
        p = require_projector(random_projector(4, rng, int(rng.integers(1, 4))), tol)
        for inner in (False, True):
            rows = Q.daseinise(p, poset, tol, inner)
            asked += len(rows)
            held = _held(table)
            assert held == table.held_rows <= Q._ROWS_CAP
            for ctx in poset.contexts[::15]:  # one at a time, after the bound too
                want = reference_row(p, ctx, tol, inner)
                got = Q._in_context(p, ctx, tol, inner)
                assert (got[0], got[1].tobytes()) == (want[0], want[1].tobytes())
    assert asked > Q._ROWS_CAP and held < asked
    assert len(table.hits) <= Q._HITS_CAP


def test_growing_the_table_drops_the_rows():
    scn = parse_scenario((SCENARIOS / "mermin_square.json").read_text())
    tol = scn.tolerance
    poset = C.build_poset(scn.maximal_contexts, "coarsenings", tol)
    table, p = poset.table, scn.operator("Pxx_plus")
    before = Q.daseinise(p, poset, tol, True)
    assert table.held_rows == len(poset)
    table.intern([poset.contexts[0].blocks[0]])  # a held block: nothing drops
    assert table.held_rows == len(poset)
    table.intern([random_projector(4, np.random.default_rng(3), 2)])
    assert table.hits == {} and table.held_rows == 0
    after = Q.daseinise(p, poset, tol, True)
    assert all(a is not b for a, b in zip(after, before))
    assert ([(i, m.tobytes()) for i, m in after]
            == [(i, m.tobytes()) for i, m in before])
    (record,) = table.hits.values()
    assert len(record.flags) == len(table.keys) and len(record.rows) == len(poset)


I2 = np.eye(2, dtype=complex)
PAULI = {"I": I2, "X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]).astype(complex)}


def _pauli(word):
    m = np.eye(1, dtype=complex)
    for letter in word:
        m = np.kron(m, PAULI[letter])
    return m


def _basis(*words):
    """The 8 rank-1 joint eigenprojectors of three independent commuting
    three-qubit Pauli operators."""
    blocks = []
    for signs in np.ndindex(2, 2, 2):
        b = np.eye(8, dtype=complex)
        for s, word in zip(signs, words):
            b = b @ (np.eye(8) + (-1) ** s * _pauli(word)) / 2
        blocks.append(b)
    return C.make_context(blocks, TOL)


@pytest.fixture(scope="module")
def three_qubits():
    """Four 8-block contexts, the computational basis first, and their meets."""
    maximal = [_basis("ZII", "IZI", "IIZ"), _basis("XII", "IXI", "IIX"),
               _basis("ZZI", "IZZ", "XXX"), _basis("ZII", "IXI", "IIY")]
    poset = C.build_poset(maximal, "intersections", TOL)
    assert sum(len(c.ids) == 8 for c in poset.contexts) == 4
    (diagonal,) = [c for c in poset.contexts if len(c.ids) == 8 and all(
        np.count_nonzero(b) == 1 for b in c.blocks)]
    return poset, diagonal


def test_truth_object_at_eight_blocks(three_qubits):
    poset, _ = three_qubits
    rng = np.random.default_rng(8)
    projectors = [(np.eye(8) + _pauli(w)) / 2 for w in ("ZII", "XXX", "ZZI")]
    projectors += [random_projector(8, rng, rank) for rank in (1, 4, 7)]
    projectors += [sum(c.blocks[:5]) for c in poset.contexts if len(c.ids) == 8]
    states = [random_state(8, rng) for _ in range(4)] + [np.eye(8)[0]]
    for p in projectors:
        for psi in states:
            assert (Q.truth_value_truthobject(p, psi, poset, TOL).members
                    == reference_truth_object(p, psi, poset, TOL))


def test_truth_object_at_the_knife_edge(three_qubits):
    # a real state whose weight off |111> is 1 - eps up to a few ulps: in
    # the computational basis the projector onto the other 7 basis states
    # holds the state exactly when that sum passes 1 - eps
    poset, diagonal = three_qubits
    edge = 1.0 - TOL.eps
    p = np.diag([1.0] * 7 + [0.0]).astype(complex)
    amps = np.random.default_rng(17).random(7) + 0.5
    picked = [i for i, b in enumerate(diagonal.blocks) if b[7, 7] == 0]
    verdicts, orders_differ = set(), False
    for j in range(-6, 7):
        delta = TOL.eps + j * 2.0 ** -54
        psi = np.append(amps / np.linalg.norm(amps) * np.sqrt(1 - delta), np.sqrt(delta))
        members = Q.truth_value_truthobject(p, psi, poset, TOL).members
        assert members == reference_truth_object(p, psi, poset, TOL)
        weights = reference_weights(Q._unit_state(psi, poset, TOL), poset)[diagonal.key]
        terms = [w for i, w in enumerate(weights) if i in picked]
        assert abs(sum(terms) - edge) <= 8 * 2.0 ** -53
        verdicts.add(diagonal.key in members)
        padded = np.array([w if i in picked else 0.0 for i, w in enumerate(weights)])
        plain = 0.0
        for w in terms:
            plain += w
        orders_differ |= len({sum(terms) >= edge, plain >= edge,
                              float(np.sum(padded)) >= edge}) > 1
    assert verdicts == {False, True} and orders_differ


def test_column_sums_add_as_python_sum():
    rng = np.random.default_rng(4)
    cols = rng.random((9, 500)) ** 4 * np.where(rng.random((9, 500)) < 0.3, 0.0, 1.0)
    cols[:, :100] *= 1e-9
    cols /= cols.sum(axis=0) + (cols.sum(axis=0) == 0)
    got = Q._column_sums(cols).tolist()
    assert got == [sum(w for w in col if w) for col in cols.T.tolist()]


@pytest.mark.parametrize("compensated, want", [(False, [0.9999999999999999, 0.0]),
                                               (True, [1.0, 1.0])])
def test_column_sums_of_either_python(monkeypatch, compensated, want):
    # what ``sum`` gives before 3.12 (left to right) and from 3.12 on (Neumaier)
    monkeypatch.setattr(Q, "_COMPENSATED_SUM", compensated)
    cols = np.zeros((10, 2))
    cols[:, 0] = 0.1
    cols[:3, 1] = [1e16, 1.0, -1e16]
    assert Q._column_sums(cols).tolist() == want


def test_a_context_that_misses_the_identity_is_named():
    # blocks a little short of a partition of unity, still inside eps * d:
    # the state's weights in the first two contexts add up below 1 - eps
    def diag(*v):
        return np.diag(v).astype(complex)

    short = 1 - 3e-9
    fine = C.make_context([diag(1, 0, 0, 0), diag(0, short, 0, 0),
                           diag(0, 0, 1, 0), diag(0, 0, 0, 1)], TOL)
    coarse = C.make_context([diag(1, short, 0, 0), diag(0, 0, 1, 1)], TOL)
    other = C.make_context([diag(1, 0, 1, 0), diag(0, 1, 0, 1)], TOL)
    poset = C.build_poset([fine, coarse, other], "intersections", TOL)
    psi = np.eye(4)[1]
    with pytest.raises(ValidationError) as old:
        Q.truth_object(psi, poset, TOL)
    with pytest.raises(ValidationError) as new:
        Q.truth_value_truthobject(np.eye(4), psi, poset, TOL)
    assert str(new.value) == str(old.value) == (
        f"identity missing from filter at {poset.contexts[0].key}")
