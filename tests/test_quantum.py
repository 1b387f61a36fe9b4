from __future__ import annotations

import pathlib
import warnings

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import kernel as K
from qtopos import quantum as Q
from qtopos.errors import (
    Ambiguity,
    DimensionMismatch,
    NotInContext,
    NotProjector,
    NotUnitNorm,
    SizeLimit,
    ValidationError,
)
from qtopos.numerics import eigensystem, proj_leq
from qtopos.scenario import parse_scenario
from tests.conftest import SX, SZ, random_projector, random_state

ZPLUS = np.array([1, 0], dtype=complex)
P_ZPLUS = np.diag([1.0, 0.0]).astype(complex)
P_XPLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
P_XMINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
LOOSE = Q.Tolerance(1e-7)
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def pauli_poset():
    tol = Q.Tolerance()
    _, _, maximal = C.builtin_scenario("pauli2", tol)
    return C.build_poset(maximal, "intersections", tol)


@pytest.fixture(scope="module")
def pauli_presheaf(pauli_poset):
    return Q.spectral_presheaf(pauli_poset, Q.Tolerance())


@pytest.fixture(scope="module")
def mermin_poset():
    tol = Q.Tolerance()
    _, _, maximal = C.builtin_scenario("mermin-square", tol)
    return C.build_poset(maximal, "intersections", tol)


def _labeled(poset, label):
    return next(c for c in poset.contexts if c.label == label)


def _block_of(ctx, projector, tol):
    """Index of the unique block equal to the given rank-1 projector."""
    hits = [i for i, b in enumerate(ctx.blocks)
            if np.linalg.norm(b - projector) <= tol.scaled(ctx.dim)]
    assert len(hits) == 1
    return hits[0]


class TestSpectralPresheaf:
    def test_pauli2_shape(self, pauli_poset, pauli_presheaf):
        x = pauli_presheaf.underlying
        assert all(x.sets[key] == (0, 1) for key in x.base.elements)
        assert x.restrictions == {}

    def test_coarsening_merges_two_to_one(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        fine = C.context_from_commuting_set([z1, z2], tol)
        coarse = C.context_from_commuting_set([np.kron(SZ, SZ)], tol)
        poset = C.build_poset([fine, coarse], "intersections", tol)
        presheaf = Q.spectral_presheaf(poset, tol)
        (pair,) = presheaf.base.strict_down_pairs()
        mapping = presheaf.underlying.restrictions[pair]
        assert sorted(mapping) == [0, 1, 2, 3]
        fibers = sorted(list(mapping.values()).count(v) for v in set(mapping.values()))
        assert fibers == [2, 2]

    def test_mermin_restrictions_land_on_shared_observable(self, tol, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        strict = presheaf.base.strict_down_pairs()
        # 6 maximal contexts each cover 3 two-block intersections.
        assert len(strict) == 18
        for (frm, to) in strict:
            assert len(mermin_poset.context(frm).blocks) == 4
            assert len(mermin_poset.context(to).blocks) == 2

    def test_bogus_order_is_ambiguous(self, tol):
        zctx = C.context_from_commuting_set([SZ], tol)
        xctx = C.context_from_commuting_set([SX], tol)
        keys = [zctx.key, xctx.key]
        leq = frozenset([(k, k) for k in keys] + [(keys[0], keys[1])])
        bogus = C.ContextPoset(dim=2, contexts=(zctx, xctx), leq=leq)
        with pytest.raises(Ambiguity):
            Q.spectral_presheaf(bogus, tol)


class TestEvaluate:
    def test_sigma_z_read_off(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        plus = _block_of(zctx, P_ZPLUS, tol)
        lam = Q.SpectralElement(context=zctx, block=plus)
        assert Q.evaluate(lam, SZ, tol) == pytest.approx(1.0)

    def test_identity_everywhere(self, tol, pauli_poset):
        for ctx in pauli_poset.contexts:
            for i in range(len(ctx.blocks)):
                lam = Q.SpectralElement(context=ctx, block=i)
                assert Q.evaluate(lam, np.eye(2), tol) == pytest.approx(1.0)

    def test_square_matches_func(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        minus = _block_of(zctx, np.diag([0.0, 1.0]).astype(complex), tol)
        lam = Q.SpectralElement(context=zctx, block=minus)
        value = Q.evaluate(lam, SZ, tol)
        squared = Q.evaluate(lam, SZ @ SZ, tol)
        assert squared == pytest.approx(value ** 2)
        assert squared == pytest.approx(1.0)

    def test_not_in_context(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        lam = Q.SpectralElement(context=zctx, block=0)
        with pytest.raises(NotInContext):
            Q.evaluate(lam, SX, tol)

    def test_bad_block_index(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        with pytest.raises(ValidationError):
            Q.SpectralElement(context=zctx, block=5)

    def test_value_in_spectrum(self, tol, rng):
        from tests.conftest import random_context
        for _ in range(20):
            ctx = random_context(4, rng, tol)
            coeffs = rng.normal(size=len(ctx.blocks))
            op = sum(c * b for c, b in zip(coeffs, ctx.blocks))
            spectrum = [value for value, _ in eigensystem(op, tol)]
            for i in range(len(ctx.blocks)):
                lam = Q.SpectralElement(context=ctx, block=i)
                got = Q.evaluate(lam, op, tol)
                assert min(abs(got - s) for s in spectrum) <= 1e-7


class TestDaseinisation:
    def test_member_is_fixed(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        assert np.allclose(Q.daseinise_projector(P_ZPLUS, zctx, tol), P_ZPLUS)
        assert np.allclose(
            Q.daseinise_projector_inner(P_ZPLUS, zctx, tol), P_ZPLUS)

    def test_outer_in_skew_context_is_identity(self, tol, pauli_poset):
        xctx = _labeled(pauli_poset, "sx")
        assert np.allclose(Q.daseinise_projector(P_ZPLUS, xctx, tol), np.eye(2))

    def test_inner_in_skew_context_is_zero(self, tol, pauli_poset):
        xctx = _labeled(pauli_poset, "sx")
        assert np.allclose(
            Q.daseinise_projector_inner(P_ZPLUS, xctx, tol), np.zeros((2, 2)))

    def test_extremes(self, tol, pauli_poset):
        for ctx in pauli_poset.contexts:
            assert np.allclose(
                Q.daseinise_projector(np.zeros((2, 2)), ctx, tol), 0)
            assert np.allclose(
                Q.daseinise_projector(np.eye(2), ctx, tol), np.eye(2))
            assert np.allclose(
                Q.daseinise_projector_inner(np.eye(2), ctx, tol), np.eye(2))

    def test_rejects_non_projector(self, tol, pauli_poset):
        with pytest.raises(NotProjector):
            Q.daseinise_projector(SZ + 1e-3, pauli_poset.contexts[0], tol)

    def test_dimension_mismatch(self, tol, mermin_poset):
        with pytest.raises(DimensionMismatch):
            Q.daseinise_projector(P_ZPLUS, mermin_poset.contexts[0], tol)

    def test_outer_dominates_inner_dominated(self, tol, rng, mermin_poset):
        contexts = mermin_poset.contexts
        for _ in range(30):
            p = random_projector(4, rng)
            ctx = contexts[int(rng.integers(0, len(contexts)))]
            outer = Q.daseinise_projector(p, ctx, tol)
            inner = Q.daseinise_projector_inner(p, ctx, tol)
            assert proj_leq(p, outer, tol)
            assert proj_leq(inner, p, tol)
            assert proj_leq(inner, outer, tol)

    def test_outer_monotone_in_projector(self, tol, rng, mermin_poset):
        for _ in range(20):
            small = random_projector(4, rng, rank=1)
            # A nested pair: the bigger projector adds an orthogonal ray.
            basis = np.linalg.svd(np.eye(4) - small)[0][:, :3]
            ray = basis[:, 0:1]
            big = small + ray @ ray.conj().T
            assert proj_leq(small, big, tol)
            ctx = mermin_poset.contexts[int(rng.integers(0, 15))]
            d_small = Q.daseinise_projector(small, ctx, tol)
            d_big = Q.daseinise_projector(big, ctx, tol)
            assert proj_leq(d_small, d_big, tol)

    def test_outer_antitone_in_context(self, tol, rng, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        pairs = presheaf.base.strict_down_pairs()
        for _ in range(20):
            p = random_projector(4, rng, rank=int(rng.integers(1, 4)))
            frm, to = pairs[int(rng.integers(0, len(pairs)))]
            fine = Q.daseinise_projector(p, mermin_poset.context(frm), tol)
            coarse = Q.daseinise_projector(p, mermin_poset.context(to), tol)
            assert proj_leq(fine, coarse, tol)

    def test_idempotent_on_members(self, tol, rng, mermin_poset):
        for ctx in mermin_poset.contexts:
            mask = int(rng.integers(1, 2 ** len(ctx.blocks) - 1))
            member = sum(b for i, b in enumerate(ctx.blocks) if mask >> i & 1)
            assert np.allclose(Q.daseinise_projector(member, ctx, tol), member)
            assert np.allclose(
                Q.daseinise_projector_inner(member, ctx, tol), member)

    def test_block_indices_agree_with_matrices(self, tol, rng, mermin_poset):
        for _ in range(10):
            p = random_projector(4, rng)
            ctx = mermin_poset.contexts[int(rng.integers(0, 15))]
            for inner in (False, True):
                indices = Q.daseinise_block_indices(p, ctx, tol, inner=inner)
                total = sum((ctx.blocks[i] for i in indices),
                            np.zeros((4, 4), dtype=complex))
                if inner:
                    want = Q.daseinise_projector_inner(p, ctx, tol)
                else:
                    want = Q.daseinise_projector(p, ctx, tol)
                assert np.linalg.norm(total - want) <= tol.scaled(4)


class TestDeltaSubobject:
    def test_identity_gives_whole(self, tol, pauli_presheaf):
        sub = Q.delta_subobject(np.eye(2), pauli_presheaf, tol)
        assert sub.parts == K.full_subobject(pauli_presheaf.underlying).parts

    def test_zero_gives_empty(self, tol, pauli_presheaf):
        sub = Q.delta_subobject(np.zeros((2, 2)), pauli_presheaf, tol)
        assert sub.parts == K.empty_subobject(pauli_presheaf.underlying).parts

    def test_z_plus_support(self, tol, pauli_poset, pauli_presheaf):
        sub = Q.delta_subobject(P_ZPLUS, pauli_presheaf, tol)
        zctx = _labeled(pauli_poset, "sz")
        plus = _block_of(zctx, P_ZPLUS, tol)
        assert sub.parts[zctx.key] == (plus,)
        for label in ("sx", "sy"):
            ctx = _labeled(pauli_poset, label)
            assert sub.parts[ctx.key] == (0, 1)

    def test_dimension_mismatch(self, tol, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        with pytest.raises(DimensionMismatch):
            Q.delta_subobject(P_ZPLUS, presheaf, tol)

    def test_closure_holds_randomly(self, tol, rng, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        for _ in range(15):
            p = random_projector(4, rng)
            sub = Q.delta_subobject(p, presheaf, tol)
            K.subobject(presheaf.underlying, sub.parts)


class TestPseudoState:
    def test_z_plus_supports(self, tol, pauli_poset, pauli_presheaf):
        state = Q.pseudo_state(ZPLUS, pauli_presheaf, tol)
        zctx = _labeled(pauli_poset, "sz")
        assert state.subobject.parts[zctx.key] == \
            (_block_of(zctx, P_ZPLUS, tol),)
        for label in ("sx", "sy"):
            ctx = _labeled(pauli_poset, label)
            assert state.subobject.parts[ctx.key] == (0, 1)

    def test_never_empty(self, tol, rng, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        for _ in range(10):
            state = Q.pseudo_state(random_state(4, rng), presheaf, tol)
            assert all(state.subobject.parts[key]
                       for key in presheaf.base.elements)

    def test_product_state_in_product_context(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        ctx = C.context_from_commuting_set([z1, z2], tol)
        poset = C.build_poset([ctx], "intersections", tol)
        presheaf = Q.spectral_presheaf(poset, tol)
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        state = Q.pseudo_state(ket00, presheaf, tol)
        key = poset.contexts[0].key
        picked = state.subobject.parts[key]
        assert len(picked) == 1
        block = poset.contexts[0].blocks[picked[0]]
        assert np.allclose(block, np.diag([1.0, 0, 0, 0]))

    def test_norm_checked(self, tol, pauli_presheaf):
        with pytest.raises(NotUnitNorm):
            Q.pseudo_state([1, 1], pauli_presheaf, tol)


def _filter(obj, ctx):
    """The truth object's members at a context, as a set of block masks."""
    return frozenset(mask for mask in range(1, 2 ** len(ctx.blocks))
                     if obj.contains(ctx.key, mask))


class TestTruthObject:
    def test_identity_always_member(self, tol, rng, mermin_poset):
        obj = Q.truth_object(random_state(4, rng), mermin_poset, tol)
        for ctx in mermin_poset.contexts:
            full = 2 ** len(ctx.blocks) - 1
            assert obj.contains(ctx.key, full)

    def test_z_plus_filters(self, tol, pauli_poset):
        obj = Q.truth_object(ZPLUS, pauli_poset, tol)
        zctx = _labeled(pauli_poset, "sz")
        plus = _block_of(zctx, P_ZPLUS, tol)
        assert _filter(obj, zctx) == frozenset({1 << plus, 3})
        for label in ("sx", "sy"):
            ctx = _labeled(pauli_poset, label)
            assert _filter(obj, ctx) == frozenset({3})

    def test_filters_upward_closed(self, tol, rng, mermin_poset):
        obj = Q.truth_object(random_state(4, rng), mermin_poset, tol)
        for ctx in mermin_poset.contexts:
            full = 2 ** len(ctx.blocks)
            members = _filter(obj, ctx)
            for mask in members:
                for bigger in range(1, full):
                    if bigger & mask == mask:
                        assert bigger in members

    def test_norm_checked(self, tol, pauli_poset):
        with pytest.raises(NotUnitNorm):
            Q.truth_object([1, 1], pauli_poset, tol)

    def test_overflowing_norm_is_an_error_not_a_warning(self, tol, pauli_poset):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitNorm, match="^state norm inf is not 1"):
                Q.truth_object([1e300, 0], pauli_poset, tol)


class TestTruthValues:
    def test_identity_totally_true(self, tol, rng, pauli_presheaf, pauli_poset):
        psi = random_state(2, rng)
        assert Q.truth_value_pseudo(np.eye(2), psi, pauli_presheaf, tol).is_full
        assert Q.truth_value_truthobject(np.eye(2), psi, pauli_poset, tol).is_full

    def test_zero_totally_false(self, tol, rng, pauli_poset):
        psi = random_state(2, rng)
        value = Q.truth_value_truthobject(np.zeros((2, 2)), psi, pauli_poset, tol)
        assert value.is_empty

    def test_certain_proposition(self, tol, pauli_presheaf, pauli_poset):
        assert Q.truth_value_pseudo(P_ZPLUS, ZPLUS, pauli_presheaf, tol).is_full
        assert Q.truth_value_truthobject(P_ZPLUS, ZPLUS, pauli_poset, tol).is_full

    def test_skew_proposition_partial(self, tol, pauli_presheaf, pauli_poset):
        value = Q.truth_value_pseudo(P_XPLUS, ZPLUS, pauli_presheaf, tol)
        xkey = _labeled(pauli_poset, "sx").key
        expected = tuple(sorted(set(pauli_presheaf.base.elements) - {xkey}))
        assert value.sorted_members == expected

    def test_two_routes_agree_spot(self, tol, rng, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        for _ in range(20):
            psi = random_state(4, rng)
            p = random_projector(4, rng, rank=int(rng.integers(1, 4)))
            via_pseudo = Q.truth_value_pseudo(p, psi, presheaf, tol)
            via_truth = Q.truth_value_truthobject(p, psi, mermin_poset, tol)
            assert via_pseudo.members == via_truth.members


class TestKsSearch:
    def test_pauli2_eight_sections(self, tol, pauli_presheaf):
        result = Q.ks_search(pauli_presheaf, max_solutions=8)
        assert result.status == "SectionsExist"
        assert len(result.sections) == 8
        seen = {sec.items_sorted() for sec in result.sections}
        assert len(seen) == 8

    def test_single_context_counts_blocks(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        ctx = C.context_from_commuting_set([z1, z2], tol)
        poset = C.build_poset([ctx], "intersections", tol)
        presheaf = Q.spectral_presheaf(poset, tol)
        result = Q.ks_search(presheaf, max_solutions=10)
        assert result.status == "SectionsExist"
        assert len(result.sections) == 4

    def test_mermin_has_no_section(self, tol, mermin_poset):
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        result = Q.ks_search(presheaf)
        assert result.status == "NoSection"
        assert result.sections == ()
        assert result.nodes_explored > 0

    def test_max_solutions_truncates(self, tol, pauli_presheaf):
        result = Q.ks_search(pauli_presheaf, max_solutions=3)
        assert result.status == "SectionsExist"
        assert len(result.sections) == 3

    def test_sections_validate_independently(self, tol, pauli_presheaf):
        result = Q.ks_search(pauli_presheaf)
        for sec in result.sections:
            assert Q.validate_assignment(pauli_presheaf, sec)
            broken = dict(sec.assignments)
            first = next(iter(broken))
            broken[first] = 1 - broken[first]
            tampered = Q.TruthAssignment(assignments=broken)
            # Flipping one choice on an antichain still validates, so only
            # structural breakage is guaranteed to fail: drop a context.
            del broken[first]
            assert not Q.validate_assignment(
                pauli_presheaf, Q.TruthAssignment(assignments=broken))

    def test_restriction_matching_on_comparable_pairs(self, tol):
        z1 = np.kron(SZ, np.eye(2))
        z2 = np.kron(np.eye(2), SZ)
        fine = C.context_from_commuting_set([z1, z2], tol)
        poset = C.build_poset([fine], "coarsenings", tol)
        presheaf = Q.spectral_presheaf(poset, tol)
        result = Q.ks_search(presheaf, max_solutions=8)
        assert result.status == "SectionsExist"
        x = presheaf.underlying
        for sec in result.sections:
            picks = sec.assignments
            for (u, v) in x.base.strict_pairs():
                assert x.restrict(picks[v], v, u) == picks[u]

    def test_node_limit(self, tol, mermin_poset, monkeypatch):
        monkeypatch.setattr(Q, "KS_NODE_LIMIT", 10)
        presheaf = Q.spectral_presheaf(mermin_poset, tol)
        with pytest.raises(SizeLimit):
            Q.ks_search(presheaf)

    @pytest.mark.parametrize("name", ["pauli2", "two_qubit_parity", "mermin_square"])
    @pytest.mark.parametrize("closure", ["intersections", "coarsenings"])
    def test_agrees_with_global_elements(self, name, closure):
        scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        poset = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
        presheaf = Q.spectral_presheaf(poset, scn.tolerance)
        result = Q.ks_search(presheaf, max_solutions=10 ** 6)
        elements = K.global_elements(presheaf.underlying)
        assert len(result.sections) == len(elements)
        assert ({sec.items_sorted() for sec in result.sections}
                == {tuple((v, g.at(v, "*")) for v in presheaf.base.elements)
                    for g in elements})

    def test_empty_poset_rejected(self, tol):
        poset = C.build_poset([], "intersections", tol)
        presheaf = Q.SpectralPresheaf(
            poset=poset, underlying=K.presheaf(K.finposet([]), {}, {}))
        with pytest.raises(ValidationError):
            Q.ks_search(presheaf)


class TestObservableDaseinisation:
    def test_member_collapses(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        inner, outer = Q.daseinise_observable(SZ, zctx, tol)
        assert np.allclose(inner, SZ)
        assert np.allclose(outer, SZ)

    def test_skew_context_bounds(self, tol, pauli_poset):
        xctx = _labeled(pauli_poset, "sx")
        inner, outer = Q.daseinise_observable(SZ, xctx, tol)
        assert np.allclose(inner, -np.eye(2))
        assert np.allclose(outer, np.eye(2))

    def test_scalar_operator(self, tol, pauli_poset):
        for ctx in pauli_poset.contexts:
            inner, outer = Q.daseinise_observable(2.5 * np.eye(2), ctx, tol)
            assert np.allclose(inner, 2.5 * np.eye(2))
            assert np.allclose(outer, 2.5 * np.eye(2))

    def test_outer_minus_inner_psd(self, tol, rng, mermin_poset):
        from tests.conftest import random_hermitian
        for _ in range(20):
            op = random_hermitian(4, rng)
            ctx = mermin_poset.contexts[int(rng.integers(0, 15))]
            inner, outer = Q.daseinise_observable(op, ctx, tol)
            gap = np.linalg.eigvalsh(outer - inner)
            assert gap.min() >= -1e-9


class TestValueInterval:
    def test_collapse_in_own_context(self, tol, pauli_poset):
        zctx = _labeled(pauli_poset, "sz")
        plus = _block_of(zctx, P_ZPLUS, tol)
        lam = Q.SpectralElement(context=zctx, block=plus)
        lo, hi = Q.value_interval(lam, SZ, tol)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_skew_interval_spans_spectrum(self, tol, pauli_poset):
        xctx = _labeled(pauli_poset, "sx")
        lam = Q.SpectralElement(context=xctx, block=0)
        lo, hi = Q.value_interval(lam, SZ, tol)
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(1.0)

    def test_identity_interval(self, tol, pauli_poset):
        for ctx in pauli_poset.contexts:
            lam = Q.SpectralElement(context=ctx, block=0)
            lo, hi = Q.value_interval(lam, np.eye(2), tol)
            assert lo == pytest.approx(1.0)
            assert hi == pytest.approx(1.0)


class TestLatticeContrast:
    """The ambient projector lattice is not distributive; Sub of the
    spectral presheaf is (the exhaustive check lives in the acceptance
    suite)."""

    @staticmethod
    def _meet(p, q):
        pairs = eigensystem(p + q, LOOSE)
        hits = [proj for value, proj in pairs if abs(value - 2) <= 1e-7]
        return hits[0] if hits else np.zeros_like(p)

    @staticmethod
    def _join(p, q):
        eye = np.eye(p.shape[0], dtype=complex)
        return eye - TestLatticeContrast._meet(eye - p, eye - q)

    def test_projector_lattice_not_distributive(self):
        meet, join = self._meet, self._join
        top = join(P_XPLUS, P_XMINUS)
        assert np.allclose(top, np.eye(2))
        left = meet(P_ZPLUS, top)
        right = join(meet(P_ZPLUS, P_XPLUS), meet(P_ZPLUS, P_XMINUS))
        assert np.allclose(left, P_ZPLUS)
        assert np.allclose(right, np.zeros((2, 2)))
        assert not np.allclose(left, right)
