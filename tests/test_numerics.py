from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import numerics
from qtopos.errors import (
    DimensionMismatch,
    NotHermitian,
    NotProjector,
    ValidationError,
)
from qtopos.numerics import (
    Tolerance,
    apply_function,
    as_operator,
    as_vector,
    eigensystem,
    is_projector,
    proj_leq,
    require_hermitian,
    require_projector,
    same_blocks,
)
from tests.conftest import SX, SZ, random_hermitian, random_projector


class TestTolerance:
    def test_default(self):
        assert Tolerance().eps == 1e-9

    def test_scaled(self):
        assert Tolerance(1e-8).scaled(4) == pytest.approx(4e-8)

    @pytest.mark.parametrize("bad", [
        0.0, -1e-9, 1e-3, 0.5, True, math.nan, math.inf,
        pytest.param(10 ** 20, id="1e20"), pytest.param(10 ** 400, id="1e400"),
        pytest.param(10 ** 5000, id="1e5000")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            Tolerance(bad)


class TestAsOperator:
    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            as_operator([[1, 0], [1]])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            as_operator([[1, 0, 0], [0, 1, 0]])

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            as_operator(np.eye(17))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            as_operator([[np.nan, 0], [0, 1]])

    def test_result_read_only(self):
        mat = as_operator(np.eye(2))
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1, 0, 0], dim=2)


class TestIsProjector:
    def test_identity(self, tol):
        assert is_projector(np.eye(2), tol)

    def test_half_mixing(self, tol):
        assert is_projector(np.array([[0.5, 0.5], [0.5, 0.5]]), tol)

    def test_non_idempotent(self, tol):
        assert not is_projector(np.diag([1.0, 0.5]), tol)

    def test_non_hermitian(self, tol):
        assert not is_projector(np.array([[1, 1], [0, 0]]), tol)

    def test_require_projector_names_offender(self, tol):
        with pytest.raises(NotProjector, match="^witness is not a projector "
                                               "within tolerance$"):
            require_projector(np.diag([1.0, 0.5]), tol, "witness")

    def test_require_projector_coerces_once(self, tol, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return as_operator(matrix)

        monkeypatch.setattr(numerics, "as_operator", counting)
        for matrix in (np.eye(2), [[0.5, 0.5], [0.5, 0.5]], np.diag([1.0, 0.5]),
                       np.array([[1, 1], [0, 0]])):
            before = len(calls)
            try:
                require_projector(matrix, tol)
            except NotProjector:
                pass
            assert len(calls) - before == 1
        assert is_projector(np.eye(2), tol) and len(calls) == 5



class TestRememberedVerdicts:
    """``require_projector`` remembers the complex128 C-contiguous matrices it
    has accepted, keyed by tolerance, shape and bytes; nothing else is kept."""

    @pytest.fixture
    def checks(self, monkeypatch):
        numerics._accepted.clear()
        seen, check = [], numerics._projector_ok

        def counting(p, tol):
            seen.append(p)
            return check(p, tol)

        monkeypatch.setattr(numerics, "_projector_ok", counting)
        yield seen
        numerics._accepted.clear()

    def test_a_hit_skips_both_checks(self, tol, checks, monkeypatch):
        coerced = []

        def counting(matrix):
            coerced.append(matrix)
            return as_operator(matrix)

        monkeypatch.setattr(numerics, "as_operator", counting)
        p = np.diag([1, 0]).astype(complex)
        for _ in range(3):
            assert np.array_equal(require_projector(p, tol), p)
        assert len(checks) == len(coerced) == 1

    def test_an_edited_matrix_is_checked_again(self, tol, checks):
        p = np.diag([1, 0]).astype(complex)
        require_projector(p, tol, "witness")
        p[1, 1] = 0.5
        with pytest.raises(NotProjector, match="^witness is not a projector "
                                               "within tolerance$"):
            require_projector(p, tol, "witness")
        assert len(checks) == 2

    def test_a_verdict_holds_only_at_its_tolerance(self, checks):
        p = np.diag([1, 1e-5]).astype(complex)
        loose, tight = Tolerance(1e-4), Tolerance(1e-9)
        require_projector(p, loose)
        with pytest.raises(NotProjector):
            require_projector(p, tight)
        require_projector(p, loose)
        assert not is_projector(p, tight)
        assert len(checks) == 3

    def test_a_hit_is_a_read_only_view_of_its_input(self, tol, checks):
        p = random_projector(3, np.random.default_rng(7), 1)
        kept = p.copy()
        first, second = require_projector(p, tol), require_projector(p, tol)
        assert len(checks) == 1
        assert not np.shares_memory(first, p)  # the miss validated a copy
        assert np.shares_memory(second, p) and second.base is p
        for out in (first, second):
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0, 0] = 7.0
        assert p.flags.writeable and np.array_equal(p, kept)

    def test_a_hit_answers_as_a_fresh_validation_would(self, tol, checks):
        p = random_projector(4, np.random.default_rng(5), 2)
        hit = [require_projector(p, tol) for _ in range(2)][1]
        numerics._accepted.clear()
        fresh = require_projector(p.copy(), tol)
        assert len(checks) == 2
        for out in (hit, fresh):
            assert type(out) is np.ndarray and out.dtype == np.complex128
            assert out.shape == (4, 4) and out.flags.c_contiguous
            assert not out.flags.writeable
        assert hit.tobytes() == fresh.tobytes()

    def test_changed_bytes_miss_and_are_validated_again(self, tol, checks):
        p = np.diag([1, 0, 0]).astype(complex)
        first = require_projector(p, tol)
        p[1, 1] = 1.0  # another projector: its bytes are a new key
        second = require_projector(p, tol)
        assert len(checks) == 2 and len(numerics._accepted) == 2
        assert np.array_equal(first, np.diag([1, 0, 0]))
        assert np.array_equal(second, np.diag([1, 1, 0]))
        assert not np.shares_memory(second, p)

    def test_the_table_stays_within_its_cap(self, tol, checks):
        rng = np.random.default_rng(11)
        cap = numerics._ACCEPTED_CAP
        for count in range(1, cap + 11):
            require_projector(random_projector(16, rng, 1 + count % 15), tol)
            assert len(numerics._accepted) == (count - 1) % cap + 1
            if count == cap:  # full, at the largest dimension: under 1 MB
                assert sum(map(sys.getsizeof, numerics._accepted)) + sum(
                    sys.getsizeof(key[2]) for key in numerics._accepted) < 10 ** 6
        assert len(checks) == cap + 10

    @pytest.mark.parametrize("make", [
        pytest.param(lambda p: p.tolist(), id="list"),
        pytest.param(lambda p: p.real.copy(), id="float"),
        pytest.param(lambda p: np.asfortranarray(p), id="fortran"),
        pytest.param(lambda p: np.kron(p, np.ones((1, 2)))[:, ::2], id="strided"),
        pytest.param(lambda p: p.astype(">c16"), id="big-endian"),
        pytest.param(lambda p: p.view(_Sub), id="subclass"),
    ])
    def test_other_inputs_are_checked_every_time(self, make, tol, checks):
        p = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]], dtype=complex)
        matrix = make(p)
        for _ in range(3):
            assert np.array_equal(require_projector(matrix, tol), p)
        assert len(checks) == 3 and not numerics._accepted

    def test_refusals_are_not_remembered(self, tol, checks):
        bad = np.diag([1.0, 0.5]).astype(complex)
        for _ in range(2):
            with pytest.raises(NotProjector):
                require_projector(bad, tol)
            assert not is_projector(bad, tol)
        assert len(checks) == 4 and not numerics._accepted

    def test_is_projector_reads_the_same_verdicts(self, tol, checks):
        p = np.diag([0, 1]).astype(complex)
        require_projector(p, tol)
        assert is_projector(p, tol) and len(checks) == 1
        with pytest.raises(ValidationError, match="^expected a square matrix"):
            is_projector(np.ones((2, 3)), tol)


class _Sub(np.ndarray):
    pass


class TestEigensystem:
    def test_diagonal(self, tol):
        pairs = eigensystem(np.diag([1.0, -1.0]), tol)
        assert [value for value, _ in pairs] == pytest.approx([-1.0, 1.0])
        assert np.allclose(pairs[0][1], np.diag([0.0, 1.0]))
        assert np.allclose(pairs[1][1], np.diag([1.0, 0.0]))

    def test_pauli_x(self, tol):
        pairs = eigensystem(SX, tol)
        assert [value for value, _ in pairs] == pytest.approx([-1.0, 1.0])
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(pairs[0][1], minus)
        assert np.allclose(pairs[1][1], plus)

    def test_degenerate_identity(self, tol):
        pairs = eigensystem(np.eye(3), tol)
        assert len(pairs) == 1
        value, proj = pairs[0]
        assert value == pytest.approx(1.0)
        assert np.allclose(proj, np.eye(3))

    def test_near_degenerate_merges(self, tol):
        pairs = eigensystem(np.diag([1.0, 1.0 + 1e-12]), tol)
        assert len(pairs) == 1

    def test_not_hermitian(self, tol):
        with pytest.raises(NotHermitian):
            eigensystem(np.array([[0, 1], [0, 0]], dtype=complex), tol)

    def test_reconstruction_random(self, tol, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            mat = random_hermitian(dim, rng)
            pairs = eigensystem(mat, tol)
            rebuilt = sum(value * proj for value, proj in pairs)
            assert np.linalg.norm(rebuilt - mat) <= 1e-7
            values = [value for value, _ in pairs]
            assert values == sorted(values)
            assert all(b > a for a, b in zip(values, values[1:]))
            total = sum(proj for _, proj in pairs)
            assert np.linalg.norm(total - np.eye(dim)) <= 1e-7
            for i, (_, p) in enumerate(pairs):
                assert is_projector(p, tol)
                for _, q in pairs[i + 1:]:
                    assert np.linalg.norm(p @ q) <= 1e-7


class TestApplyFunction:
    def test_square_of_involution(self, tol):
        out = apply_function(np.diag([1.0, -1.0]), lambda x: x * x, tol)
        assert np.allclose(out, np.eye(2))

    def test_identity_map_reconstructs(self, tol):
        assert np.allclose(apply_function(SX, lambda x: x, tol), SX)

    def test_diagonal_shift(self, tol):
        out = apply_function(np.diag([2.0, 3.0]), lambda x: x - 2, tol)
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_composition(self, tol, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            mat = random_hermitian(dim, rng)
            g = lambda x: 2 * x - 1
            h = lambda x: x * x + 0.5
            direct = apply_function(mat, lambda x: h(g(x)), tol)
            staged = apply_function(apply_function(mat, g, tol), h, tol)
            assert np.linalg.norm(direct - staged) <= 1e-7

    def test_result_hermitian(self, tol, rng):
        mat = random_hermitian(4, rng)
        out = apply_function(mat, lambda x: x ** 3, tol)
        require_hermitian(out, tol)


class TestProjLeq:
    def test_under_identity(self, tol):
        assert proj_leq(np.diag([1.0, 0.0]), np.eye(2), tol)

    def test_reflexive(self, tol):
        p = np.diag([1.0, 0.0])
        assert proj_leq(p, p, tol)

    def test_orthogonal_incomparable(self, tol):
        assert not proj_leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), tol)

    def test_rejects_non_projector(self, tol):
        with pytest.raises(NotProjector):
            proj_leq(SZ, np.eye(2), tol)

    def test_partial_order_on_generated_set(self, tol, rng):
        projs = [np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)]
        projs += [random_projector(3, rng, rank=r) for r in (1, 1, 2, 2)]
        n = len(projs)
        rel = [[proj_leq(projs[i], projs[j], tol) for j in range(n)]
               for i in range(n)]
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                if rel[i][j] and rel[j][i]:
                    assert np.linalg.norm(projs[i] - projs[j]) <= tol.scaled(3)
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]


class TestSameBlocks:
    def test_distance_bound(self, tol, rng):
        p = random_projector(4, rng, rank=2)
        nudge = np.zeros((4, 4), dtype=complex)
        nudge[0, 1] = nudge[1, 0] = 1.0
        bound = tol.scaled(4)  # ||nudge|| = sqrt(2), so scale by 1/sqrt(2)
        near = p + 0.9 * bound / np.sqrt(2) * nudge
        far = p + 1.1 * bound / np.sqrt(2) * nudge
        blocks = [np.eye(4) - p, near, far, p]
        assert same_blocks(blocks, [p], tol)[:, 0].tolist() == [
            False, True, False, True]
        # every query at once: one column per query
        assert same_blocks(blocks, [far, p], tol).tolist() == [
            [False, False], [True, True], [True, False], [False, True]]

    def test_empty_table(self, tol):
        empty = np.empty((0, 2, 2), dtype=complex)
        assert same_blocks(empty, [np.eye(2)], tol).shape == (0, 1)

    @pytest.mark.parametrize("entries", [1, 160, 1440])
    def test_bounded_batches_change_no_bit(self, tol, rng, monkeypatch, entries):
        # one batch of 37 x 5 pairs against batches of 1, 2 and 18 rows
        ps = np.array([random_projector(4, rng, rank=2) for _ in range(37)])
        qs = np.array([random_projector(4, rng, rank=1) for _ in range(5)])
        ps[3], qs[2] = qs[1], ps[5]  # equal pairs, far from the bounds
        whole = [f(ps, qs, tol) for f in (numerics.overlaps, same_blocks)]
        monkeypatch.setattr(numerics, "PAIR_ENTRIES", entries)
        for f, expected in zip((numerics.overlaps, same_blocks), whole):
            assert np.array_equal(f(ps, qs, tol), expected)
        assert whole[1][3, 1] and whole[1][5, 2] and whole[1].sum() == 2


def reference_same_blocks(ps, qs, tol):
    """Every pair differenced, as ``same_blocks`` did before its prefilter."""
    gap = (np.asarray(ps)[:, None] - np.asarray(qs)[None]).view(np.float64)
    return np.einsum("ijkl,ijkl->ij", gap, gap) <= tol.scaled(gap.shape[2]) ** 2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 16), rows=st.integers(0, 12), cols=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-3, 3),
       eps=st.floats(-12, -3.5))
def test_same_blocks_differences_every_pair_that_can_be_close(
        dim, rows, cols, seed, scale, eps):
    # copies of the rows moved by about the bound, among unrelated matrices
    # of any size: the prefilter may drop no pair that is within the bound
    rng = np.random.default_rng(seed)
    tol = Tolerance(10 ** eps)
    shape = (rows, dim, dim)
    ps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10 ** scale
    qs = rng.normal(size=(cols, dim, dim)) + 0j
    if rows:
        picks = rng.integers(0, rows, cols)
        moves = rng.normal(size=(cols, dim, dim)) + 1j * rng.normal(size=(cols, dim, dim))
        moves *= tol.scaled(dim) * rng.uniform(0.5, 1.5, (cols, 1, 1)) / np.linalg.norm(
            moves, axis=(1, 2), keepdims=True)
        qs = np.where(rng.random((cols, 1, 1)) < 0.8, ps[picks] + moves, qs)
    assert np.array_equal(same_blocks(ps, qs, tol), reference_same_blocks(ps, qs, tol))


def reference_overlap_norms(ps, qs) -> np.ndarray:
    """``||p q||_F`` of every pair, each product formed and normed on its own."""
    return np.array([[np.linalg.norm(np.asarray(p) @ np.asarray(q)) for q in qs]
                     for p in ps]).reshape(len(ps), len(qs))


def _overlap_stacks(rng, dim, rows, cols, bound, real):
    """``rows`` projectors and ``cols`` matrices: unrelated ones, ones
    orthogonal to a row's projector and ones scaled so that their product
    with it lies within a factor 2 of ``bound``.  No product near the bound
    is a cancellation, so its rounding is far below 1e-6 of the bound."""
    def normal(*shape):
        x = rng.normal(size=shape)
        return x if real else x + 1j * rng.normal(size=shape)

    ps = np.zeros((rows, dim, dim), dtype=float if real else complex)
    for r in range(rows):
        basis = np.linalg.qr(normal(dim, dim))[0][:, :rng.integers(0, dim + 1)]
        ps[r] = basis @ basis.conj().T
    qs = normal(cols, dim, dim)
    for c in range(cols if rows else 0):
        p, kind = ps[rng.integers(rows)], rng.integers(3)
        if kind == 1:
            qs[c] = (np.eye(dim) - p) @ qs[c]
        elif kind == 2 and np.linalg.norm(p @ qs[c]):
            qs[c] *= bound * rng.uniform(0.5, 1.5) / np.linalg.norm(p @ qs[c])
    return ps, qs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 16), rows=st.integers(0, 8), cols=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(-12, -3.5),
       form=st.sampled_from(("array", "list", "tuple", "real")),
       batch=st.integers(1, 3))
def test_overlaps_matches_per_pair_products(dim, rows, cols, seed, eps, form, batch):
    rng = np.random.default_rng(seed)
    tol = Tolerance(10 ** eps)
    bound = tol.scaled(dim)
    ps, qs = _overlap_stacks(rng, dim, rows, cols, bound, real=form == "real")
    if rows and cols and form == "list":
        ps, qs = list(ps), list(qs)
    elif rows and cols and form == "tuple":
        ps, qs = tuple(ps.tolist()), tuple(qs.tolist())
    got = numerics.overlaps(ps, qs, tol)
    assert got.shape == (rows, cols) and got.dtype == bool
    norms = reference_overlap_norms(ps, qs)
    clear = np.abs(norms - bound) > 1e-6 * bound  # the only pairs skipped
    assert np.array_equal(got[clear], (norms > bound)[clear])
    # ``batch`` rows per slice: every call of more rows is sliced
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "PAIR_ENTRIES", batch * max(1, cols * dim * dim))
        assert np.array_equal(numerics.overlaps(ps, qs, tol), got)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lead=st.lists(st.integers(0, 4), max_size=2), dim=st.integers(1, 16),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(-100, 100),
       real=st.booleans(), strided=st.booleans())
def test_sq_frob_matches_squared_norms(lead, dim, seed, scale, real, strided):
    rng = np.random.default_rng(seed)
    shape = (*lead, dim, dim)
    x = rng.normal(size=shape) * 10 ** scale
    if not real:
        x = x + 1j * rng.normal(size=shape) * 10 ** scale
    if strided:
        x = x.swapaxes(-2, -1)
    got = numerics.sq_frob(x)
    assert got.shape == tuple(lead)
    np.testing.assert_allclose(got, np.linalg.norm(x, axis=(-2, -1)) ** 2,
                               rtol=1e-12, atol=0)
