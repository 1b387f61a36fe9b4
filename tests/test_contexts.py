from __future__ import annotations

import itertools

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos.errors import (
    NonCommuting,
    NotHermitian,
    SizeLimit,
    TrivialContext,
    UnknownBuiltin,
    ValidationError,
)
from qtopos.numerics import proj_leq
from tests.conftest import SX, SY, SZ, random_context

P_EVEN = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
P_ODD = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)


def _blocks_match(ctx, expected, tol):
    found = list(ctx.blocks)
    for want in expected:
        hits = [i for i, b in enumerate(found)
                if np.linalg.norm(b - want) <= tol.scaled(ctx.dim)]
        assert len(hits) == 1, f"block not matched uniquely: {want}"
        found.pop(hits[0])
    assert not found


class TestContextFromCommutingSet:
    def test_sigma_z(self, tol):
        ctx = C.context_from_commuting_set([SZ], tol)
        _blocks_match(ctx, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], tol)

    def test_identity_is_trivial(self, tol):
        with pytest.raises(TrivialContext):
            C.context_from_commuting_set([np.eye(2)], tol)

    def test_zz_parity_blocks(self, tol):
        zz = np.kron(SZ, SZ)
        ctx = C.context_from_commuting_set([zz], tol)
        _blocks_match(ctx, [P_EVEN, P_ODD], tol)
        assert ctx.ranks == (2, 2)

    def test_refinement_of_pair(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        ctx = C.context_from_commuting_set([z1, z2], tol)
        assert len(ctx.blocks) == 4
        assert ctx.ranks == (1, 1, 1, 1)

    def test_noncommuting_reports_pair_and_norm(self, tol):
        with pytest.raises(NonCommuting) as info:
            C.context_from_commuting_set([SX, SZ], tol)
        assert (info.value.i, info.value.j) == (0, 1)
        assert info.value.norm == pytest.approx(2 * np.sqrt(2))

    def test_not_hermitian(self, tol):
        with pytest.raises(NotHermitian):
            C.context_from_commuting_set([np.array([[0, 1], [0, 0]])], tol)


class TestContextLeq:
    def test_reflexive(self, tol):
        ctx = C.context_from_commuting_set([SZ], tol)
        assert C.context_leq(ctx, ctx, tol)

    def test_coarse_below_fine(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        fine = C.context_from_commuting_set([z1, z2], tol)
        coarse = C.context_from_commuting_set([np.kron(SZ, SZ)], tol)
        assert C.context_leq(coarse, fine, tol)
        assert not C.context_leq(fine, coarse, tol)

    def test_incomparable_qubit_bases(self, tol):
        zctx = C.context_from_commuting_set([SZ], tol)
        xctx = C.context_from_commuting_set([SX], tol)
        assert not C.context_leq(zctx, xctx, tol)
        assert not C.context_leq(xctx, zctx, tol)


class TestContextIntersection:
    def test_disjoint_qubit_bases(self, tol):
        zctx = C.context_from_commuting_set([SZ], tol)
        xctx = C.context_from_commuting_set([SX], tol)
        assert C.context_intersection(zctx, xctx, tol) is None

    def test_self_intersection(self, tol):
        ctx = C.context_from_commuting_set([SZ], tol)
        meet = C.context_intersection(ctx, ctx, tol)
        assert meet is not None
        assert C.contexts_equal(meet, ctx, tol)

    def test_shared_observable_survives(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        x2 = np.kron(np.eye(2), SX)
        a = C.context_from_commuting_set([z1, z2], tol)
        b = C.context_from_commuting_set([z1, x2], tol)
        meet = C.context_intersection(a, b, tol)
        assert meet is not None
        expected = C.context_from_commuting_set([z1], tol)
        assert C.contexts_equal(meet, expected, tol)

    def test_below_both_arguments_and_commutative(self, tol, rng):
        for _ in range(10):
            a = random_context(4, rng, tol)
            b = random_context(4, rng, tol)
            ab = C.context_intersection(a, b, tol)
            ba = C.context_intersection(b, a, tol)
            if ab is None:
                assert ba is None
                continue
            assert ba is not None
            assert C.contexts_equal(ab, ba, tol)
            assert C.context_leq(ab, a, tol)
            assert C.context_leq(ab, b, tol)


class TestCoarsenings:
    def test_four_block_context_has_13_proper_coarsenings(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        fine = C.context_from_commuting_set([z1, z2], tol)
        coarser = list(C.coarsenings(fine, tol))
        # Bell(4) = 15 partitions, minus all-singletons and all-in-one.
        assert len(coarser) == 13
        for ctx in coarser:
            assert C.context_leq(ctx, fine, tol)
            assert not C.contexts_equal(ctx, fine, tol)

    def test_two_block_context_has_none(self, tol):
        ctx = C.context_from_commuting_set([SZ], tol)
        assert list(C.coarsenings(ctx, tol)) == []


class TestBuildPoset:
    def test_pauli2_antichain(self, tol):
        _, _, maximal = C.builtin_scenario("pauli2", tol)
        poset = C.build_poset(maximal, "intersections", tol)
        assert len(poset) == 3
        strict = [(a, b) for (a, b) in poset.leq if a != b]
        assert strict == []

    def test_mermin_square_closure_count(self, tol):
        _, _, maximal = C.builtin_scenario("mermin-square", tol)
        poset = C.build_poset(maximal, "intersections", tol)
        assert len(poset) == 15
        sizes = sorted(len(ctx.blocks) for ctx in poset.contexts)
        assert sizes == [2] * 9 + [4] * 6

    def test_mermin_row_column_intersections(self, tol):
        _, operators, maximal = C.builtin_scenario("mermin-square", tol)
        rows = {c.label: c for c in maximal if c.label.startswith("row")}
        cols = {c.label: c for c in maximal if c.label.startswith("col")}
        shared = {("row0", "col0"): "XI", ("row0", "col1"): "IX",
                  ("row0", "col2"): "XX", ("row1", "col0"): "IY",
                  ("row1", "col1"): "YI", ("row1", "col2"): "YY",
                  ("row2", "col0"): "XY", ("row2", "col1"): "YX",
                  ("row2", "col2"): "ZZ"}
        for (rname, cname), op_name in shared.items():
            meet = C.context_intersection(rows[rname], cols[cname], tol)
            assert meet is not None
            expected = C.context_from_commuting_set([operators[op_name]], tol)
            assert C.contexts_equal(meet, expected, tol)

    def test_leq_transitive_exhaustively(self, tol):
        _, _, maximal = C.builtin_scenario("mermin-square", tol)
        poset = C.build_poset(maximal, "intersections", tol)
        keys, le = poset.base.elements, poset.base.le
        for a, b, c in itertools.product(keys, repeat=3):
            if le(a, b) and le(b, c):
                assert le(a, c)
        for a, b in itertools.product(keys, repeat=2):
            ca, cb = poset.context(a), poset.context(b)
            assert le(a, b) == C.context_leq(ca, cb, tol)

    def test_coarsening_closure_of_four_block_context(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        fine = C.context_from_commuting_set([z1, z2], tol)
        poset = C.build_poset([fine], "coarsenings", tol)
        assert len(poset) == 14

    def test_empty_input(self, tol):
        poset = C.build_poset([], "intersections", tol)
        assert len(poset) == 0

    def test_duplicate_inputs_deduped(self, tol):
        a = C.context_from_commuting_set([SZ], tol)
        b = C.context_from_commuting_set([SZ + 2 * np.eye(2)], tol)
        poset = C.build_poset([a, b], "intersections", tol)
        assert len(poset) == 1

    def test_bad_closure_policy(self, tol):
        with pytest.raises(ValidationError):
            C.build_poset([], "nonsense", tol)

    def test_size_limit(self, tol, monkeypatch):
        monkeypatch.setattr(C, "POSET_LIMIT", 4)
        _, _, maximal = C.builtin_scenario("mermin-square", tol)
        with pytest.raises(SizeLimit):
            C.build_poset(maximal, "intersections", tol)

    def test_relabeling_deterministic(self, tol):
        _, _, maximal = C.builtin_scenario("mermin-square", tol)
        first = C.build_poset(maximal, "intersections", tol)
        second = C.build_poset(list(reversed(maximal)), "intersections", tol)
        keys = [c.key for c in first.contexts]
        assert keys == [c.key for c in second.contexts]
        assert first.leq == second.leq
        for key in keys:
            assert C.contexts_equal(first.context(key), second.context(key), tol)


class TestBuiltinScenario:
    def test_pauli2(self, tol):
        dim, operators, maximal = C.builtin_scenario("pauli2", tol)
        assert dim == 2
        assert sorted(operators) == ["sx", "sy", "sz"]
        assert len(maximal) == 3
        assert all(len(ctx.blocks) == 2 for ctx in maximal)

    def test_mermin_square(self, tol):
        dim, operators, maximal = C.builtin_scenario("mermin-square", tol)
        assert dim == 4
        assert len(operators) == 9
        assert len(maximal) == 6
        assert all(ctx.ranks == (1, 1, 1, 1) for ctx in maximal)
        labels = sorted(ctx.label for ctx in maximal)
        assert labels == ["col0", "col1", "col2", "row0", "row1", "row2"]

    def test_unknown(self, tol):
        with pytest.raises(UnknownBuiltin):
            C.builtin_scenario("nonsense", tol)


class TestContextBlocks:
    def test_blocks_form_partition(self, tol, rng):
        for _ in range(10):
            ctx = random_context(5, rng, tol)
            total = sum(ctx.blocks)
            assert np.linalg.norm(total - np.eye(5)) <= tol.scaled(5)
            for i, p in enumerate(ctx.blocks):
                for q in ctx.blocks[i + 1:]:
                    assert np.linalg.norm(p @ q) <= tol.scaled(5)

    def test_operators_recoverable(self, tol):
        ctx = C.context_from_commuting_set([SZ], tol)
        rebuilt = sum(coeff * blk for coeff, blk in
                      zip([1.0, -1.0], ctx.blocks))
        assert np.linalg.norm(rebuilt - SZ) <= tol.scaled(2) or \
            np.linalg.norm(rebuilt + SZ) <= tol.scaled(2)

    def test_block_under_context_leq(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        fine = C.context_from_commuting_set([z1, z2], tol)
        coarse = C.context_from_commuting_set([np.kron(SZ, SZ)], tol)
        for small in coarse.blocks:
            parts = [b for b in fine.blocks if proj_leq(b, small, tol)]
            assert np.linalg.norm(sum(parts) - small) <= tol.scaled(4)

    def test_zero_block_is_refused(self, tol):
        # a zero matrix is a projector that meets nothing and leaves the sum
        # at 1, so only the trace rule of generation tells it apart
        with pytest.raises(ValidationError, match="^block 1 is empty: trace "
                           r"0\.000e\+00 is below 0\.5$"):
            C.make_context([np.eye(2), np.zeros((2, 2))], tol)
        with pytest.raises(ValidationError, match="^block 0 is empty"):
            C.make_context([np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))], tol)
