"""End-to-end acceptance gate.

Each test prints one PASS/FAIL verdict line and checks one guarantee the
package is sold on, with its own independent oracle where one exists.
"""
from __future__ import annotations

import contextlib
import itertools
import pathlib
import subprocess
import sys
import time

import numpy as np

from qtopos import contexts as C
from qtopos import kernel as K
from qtopos import quantum as Q
from qtopos.numerics import Tolerance, apply_function, eigensystem, proj_leq
from tests.conftest import (
    random_context,
    random_hermitian,
    random_projector,
    random_state,
)

TOL = Tolerance()
ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


@contextlib.contextmanager
def _verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {num} ({label}): PASS", flush=True)


def _builtin_presheaf(name: str):
    _, _, maximal = C.builtin_scenario(name, TOL)
    poset = C.build_poset(maximal, "intersections", TOL)
    return poset, Q.spectral_presheaf(poset, TOL)


def test_criterion_1_ks_verdicts():
    with _verdict(1, "Kochen-Specker verdicts"):
        _, pauli = _builtin_presheaf("pauli2")
        start = time.perf_counter()
        res = Q.ks_search(C.builtin_scenario("pauli2", TOL)[2], "intersections", TOL,
                          max_solutions=100)
        assert time.perf_counter() - start < 10.0
        assert res.status == "SectionsExist"
        assert len(res.sections) == 8
        assert len({s.items_sorted() for s in res.sections}) == 8
        assert all(Q.validate_assignment(pauli, s) for s in res.sections)
        # independent count: three incomparable 2-block contexts admit
        # exactly 2**3 compatible choices
        per_context = [len(pauli.underlying.sets[v])
                       for v in pauli.base.elements]
        assert int(np.prod(per_context)) == 8

        start = time.perf_counter()
        res = Q.ks_search(C.builtin_scenario("mermin-square", TOL)[2], "intersections", TOL)
        assert time.perf_counter() - start < 10.0
        assert res.status == "NoSection"
        assert res.sections == ()
        assert res.nodes_explored > 0

        # independent oracle: no +/-1 assignment to the nine observables
        # respects the six triple products, so no section can exist
        _, ops, _ = C.builtin_scenario("mermin-square", TOL)
        names = sorted(ops)
        lines = [trip for trip in itertools.combinations(names, 3)
                 if all(np.allclose(ops[a] @ ops[b], ops[b] @ ops[a])
                        for a, b in itertools.combinations(trip, 2))]
        assert len(lines) == 6
        signs = {trip: round(np.trace(
            ops[trip[0]] @ ops[trip[1]] @ ops[trip[2]]).real) / 4
            for trip in lines}
        assert sorted(signs.values()) == [-1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        satisfying = 0
        for bits in itertools.product((1, -1), repeat=9):
            val = dict(zip(names, bits))
            if all(val[a] * val[b] * val[c] == signs[trip]
                   for trip in lines for a, b, c in [trip]):
                satisfying += 1
        assert satisfying == 0


def test_criterion_2_func_identities():
    with _verdict(2, "FUNC identities, 500 trials"):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for _ in range(500):
            dim = int(rng.integers(2, 9))
            ctx = random_context(dim, rng, TOL)
            k = len(ctx.blocks)
            elem = Q.SpectralElement(ctx, int(rng.integers(0, k)))
            c1 = rng.uniform(-3, 3, size=k)
            c2 = rng.uniform(-3, 3, size=k)
            a1 = sum(c * p for c, p in zip(c1, ctx.blocks))
            a2 = sum(c * p for c, p in zip(c2, ctx.blocks))
            coeffs = rng.uniform(-2, 2, size=4)
            h = lambda x: float(np.polyval(coeffs, x))  # noqa: E731
            lam = Q.evaluate(elem, a1, TOL)
            assert abs(Q.evaluate(elem, apply_function(a1, h, TOL), TOL)
                       - h(lam)) < 1e-6
            assert abs(Q.evaluate(elem, a1 + a2, TOL)
                       - (lam + Q.evaluate(elem, a2, TOL))) < 1e-6
            assert abs(Q.evaluate(elem, a1 @ a2, TOL)
                       - lam * Q.evaluate(elem, a2, TOL)) < 1e-6
        assert time.perf_counter() - start < 5.0


def _composition_violations(x: K.Presheaf) -> tuple[int, int]:
    checked = violations = 0
    for w in x.base.elements:
        for v in x.base.elements:
            if not x.base.le(v, w):
                continue
            for u in x.base.elements:
                if not x.base.le(u, v):
                    continue
                for point in x.component(w):
                    checked += 1
                    two_step = x.restrict(x.restrict(point, w, v), v, u)
                    if two_step != x.restrict(point, w, u):
                        violations += 1
    return checked, violations


def test_criterion_3_restriction_composition():
    with _verdict(3, "restriction maps compose"):
        _, pauli = _builtin_presheaf("pauli2")
        _, mermin = _builtin_presheaf("mermin-square")
        basis = [np.diag([float(i == j) for i in range(4)]).astype(complex)
                 for j in range(4)]
        four = C.make_context(basis, TOL)
        coarse_poset = C.build_poset([four], "coarsenings", TOL)
        assert len(coarse_poset.contexts) == 14
        coarse = Q.spectral_presheaf(coarse_poset, TOL)

        strict_triples = sum(
            1 for w in coarse.base.elements for v in coarse.base.elements
            for u in coarse.base.elements
            if u != v and v != w and coarse.base.le(u, v)
            and coarse.base.le(v, w))
        assert strict_triples > 0

        for x in (pauli.underlying, mermin.underlying, coarse.underlying):
            checked, violations = _composition_violations(x)
            assert checked > 0
            assert violations == 0


def test_criterion_4_heyting_laws():
    with _verdict(4, "Heyting laws on Sub(Sigma)"):
        start = time.perf_counter()
        _, pauli = _builtin_presheaf("pauli2")
        sigma = pauli.underlying
        subs = K.all_subobjects(sigma)
        assert len(subs) == 64

        def key(s):
            return tuple(sorted((v, tuple(pts)) for v, pts in s.parts.items()))

        index = {key(s): i for i, s in enumerate(subs)}
        n = len(subs)
        bot = index[key(K.empty_subobject(sigma))]
        top = index[key(K.full_subobject(sigma))]
        leq = [[K.subobject_leq(a, b) for b in subs] for a in subs]
        meet = [[index[key(K.heyting_meet(a, b))] for b in subs] for a in subs]
        join = [[index[key(K.heyting_join(a, b))] for b in subs] for a in subs]
        imp = [[index[key(K.heyting_implies(a, b))] for b in subs]
               for a in subs]

        for a in range(n):
            assert meet[a][top] == a and join[a][bot] == a
            assert meet[a][bot] == bot and join[a][top] == top
            assert leq[bot][a] and leq[a][top]
            for b in range(n):
                assert meet[a][b] == meet[b][a] and join[a][b] == join[b][a]
                for c in range(n):
                    assert leq[c][imp[a][b]] == leq[meet[c][a]][b]
                    assert (meet[a][join[b][c]]
                            == join[meet[a][b]][meet[a][c]])
                    assert (join[a][meet[b][c]]
                            == meet[join[a][b]][join[a][c]])

        # excluded middle fails on the two-element chain
        base = K.finposet(("bottom", "top"), (("bottom", "top"),))
        one = K.terminal(base)
        j = K.subobject(one, {"bottom": one.component("bottom"), "top": ()})
        neg = K.heyting_not(j)
        assert neg.parts == K.empty_subobject(one).parts
        lem = K.heyting_join(j, neg)
        assert lem.parts == j.parts
        assert lem.parts != K.full_subobject(one).parts
        assert time.perf_counter() - start < 30.0


def _presheaves_small(base: K.FinPoset) -> list[K.Presheaf]:
    """All presheaves on base with components of at most two points."""
    points = {0: (), 1: ("0",), 2: ("0", "1")}
    pairs = base.strict_down_pairs()
    out = []
    for combo in itertools.product((0, 1, 2), repeat=len(base.elements)):
        sets = {v: points[s] for v, s in zip(base.elements, combo)}
        choices = []
        for frm, to in pairs:
            src, dst = sets[frm], sets[to]
            if src and not dst:
                choices = None
                break
            if not src:
                choices.append([{}])
            else:
                choices.append([dict(zip(src, img)) for img in
                                itertools.product(dst, repeat=len(src))])
        if choices is None:
            continue
        for picked in itertools.product(*choices):
            restr = dict(zip(pairs, picked))
            try:
                out.append(K.presheaf(base, sets, restr))
            except Exception:
                continue
    return out


def _three_counts(x: K.Presheaf) -> tuple[int, int, int]:
    return (len(K.all_subobjects(x)),
            len(K.hom_set(x, K.omega(x.base))),
            len(K.global_elements(K.power_object(x))))


def test_criterion_5_counting_bijections():
    with _verdict(5, "subobject and exponential counts"):
        chain = K.finposet(("b", "t"), (("b", "t"),))
        anti = K.finposet(("p", "q"))
        families = {chain: _presheaves_small(chain),
                    anti: _presheaves_small(anti)}
        assert len(families[chain]) == 11
        assert len(families[anti]) == 9

        for base, xs in families.items():
            for x in xs:
                n_sub, n_chi, n_power = _three_counts(x)
                assert n_sub == n_chi == n_power
            for a, b, c in itertools.product(xs, repeat=3):
                lhs = len(K.hom_set(c, K.exponential(a, b)))
                rhs = len(K.hom_set(K.product(c, a), b))
                assert lhs == rhs

        # spot case on a three-element chain
        chain3 = K.finposet(("b", "m", "t"),
                            (("b", "m"), ("m", "t")))
        x = K.presheaf(chain3,
                       {"t": ("0", "1"), "m": ("0", "1"), "b": ("0",)},
                       {("t", "m"): {"0": "1", "1": "0"},
                        ("m", "b"): {"0": "0", "1": "0"},
                        ("t", "b"): {"0": "0", "1": "0"}})
        y = K.presheaf(chain3,
                       {"t": ("0",), "m": ("0", "1"), "b": ("0", "1")},
                       {("t", "m"): {"0": "0"},
                        ("m", "b"): {"0": "0", "1": "1"},
                        ("t", "b"): {"0": "0"}})
        for z in (x, y):
            n_sub, n_chi, n_power = _three_counts(z)
            assert n_sub == n_chi == n_power
        assert (len(K.hom_set(x, K.exponential(x, y)))
                == len(K.hom_set(K.product(x, x), y)))


def test_criterion_6_truth_value_routes():
    with _verdict(6, "pseudo-state and truth-object routes agree"):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        for dim in (2, 3, 4):
            done = 0
            while done < 200:
                first = random_context(dim, rng, TOL, n_blocks=dim)
                second = random_context(dim, rng, TOL)
                if dim == 2:
                    third = random_context(dim, rng, TOL)
                else:
                    third = next(iter(C.coarsenings(first, TOL)))
                poset = C.build_poset([first, second, third],
                                      "intersections", TOL)
                presheaf = Q.spectral_presheaf(poset, TOL)
                for _ in range(20):
                    psi = random_state(dim, rng)
                    p = random_projector(dim, rng,
                                         rank=int(rng.integers(1, dim + 1)))
                    via_state = Q.truth_value_pseudo(p, psi, presheaf, TOL)
                    via_tobj = Q.truth_value_truthobject(p, psi, poset, TOL)
                    assert via_state == via_tobj
                    done += 1
        assert time.perf_counter() - start < 60.0


def test_criterion_7_daseinisation_minimality():
    with _verdict(7, "daseinisation extremality by brute force"):
        rng = np.random.default_rng(11)
        for name, dim in (("pauli2", 2), ("mermin-square", 4)):
            poset, _ = _builtin_presheaf(name)
            sums = {}
            for ctx in poset.contexts:
                k = len(ctx.blocks)
                sums[ctx.key] = [
                    sum((ctx.blocks[i] for i in range(k) if mask >> i & 1),
                        np.zeros((dim, dim), dtype=complex))
                    for mask in range(2 ** k)]
            for _ in range(50):
                p = random_projector(dim, rng,
                                     rank=int(rng.integers(0, dim + 1)))
                for ctx in poset.contexts:
                    outer = Q.daseinise_projector(p, ctx, TOL)
                    inner = Q.daseinise_projector_inner(p, ctx, TOL)
                    dominating = [q for q in sums[ctx.key]
                                  if proj_leq(p, q, TOL)]
                    dominated = [q for q in sums[ctx.key]
                                 if proj_leq(q, p, TOL)]
                    assert any(np.allclose(outer, q) for q in dominating)
                    assert all(proj_leq(outer, q, TOL) for q in dominating)
                    assert sum(np.allclose(outer, q)
                               for q in sums[ctx.key]) == 1
                    assert any(np.allclose(inner, q) for q in dominated)
                    assert all(proj_leq(q, inner, TOL) for q in dominated)
                    assert sum(np.allclose(inner, q)
                               for q in sums[ctx.key]) == 1


def test_criterion_8_value_intervals():
    with _verdict(8, "value intervals sandwich the spectrum"):
        rng = np.random.default_rng(23)
        nested_checked = 0
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            ctx = random_context(dim, rng, TOL, n_blocks=dim)
            a = random_hermitian(dim, rng)
            lo_spec = float(np.linalg.eigvalsh(a)[0])
            hi_spec = float(np.linalg.eigvalsh(a)[-1])
            intervals = {}
            for i in range(len(ctx.blocks)):
                lo, hi = Q.value_interval(Q.SpectralElement(ctx, i), a, TOL)
                assert lo_spec - 1e-9 <= lo <= hi <= hi_spec + 1e-9
                intervals[i] = (lo, hi)

            coeffs = rng.uniform(-3, 3, size=len(ctx.blocks))
            member = sum(c * p for c, p in zip(coeffs, ctx.blocks))
            for i in range(len(ctx.blocks)):
                lo, hi = Q.value_interval(Q.SpectralElement(ctx, i),
                                          member, TOL)
                assert abs(hi - lo) <= 1e-8
                assert abs(lo - coeffs[i]) <= 1e-8

            if dim >= 3:
                coarse = next(iter(C.coarsenings(ctx, TOL)))
                for i, block in enumerate(ctx.blocks):
                    parents = [j for j, q in enumerate(coarse.blocks)
                               if proj_leq(block, q, TOL)]
                    assert len(parents) == 1
                    lo_c, hi_c = Q.value_interval(
                        Q.SpectralElement(coarse, parents[0]), a, TOL)
                    lo, hi = intervals[i]
                    assert lo_c <= lo + 1e-9
                    assert hi <= hi_c + 1e-9
                    nested_checked += 1
        assert nested_checked > 0


GOLDEN_COMMANDS = [
    ["validate", "scenarios/pauli2.json"],
    ["poset", "scenarios/mermin_square.json"],
    ["daseinise", "scenarios/pauli2.json", "--projector", "Pxplus"],
    ["truth", "scenarios/two_qubit_parity.json", "--state", "bell",
     "--projector", "Peven", "--via", "truth-object"],
    ["ks", "scenarios/mermin_square.json"],
    ["heyting", "scenarios/pauli2.json", "--expr", "!Pzplus => Pxplus",
     "--state", "xplus"],
    ["kernel-demo", "--poset", "chain2"],
]


def test_criterion_9_cli_determinism():
    with _verdict(9, "CLI reports are byte-identical across runs"):
        for args in GOLDEN_COMMANDS:
            runs = [subprocess.run([sys.executable, "-m", "qtopos", *args],
                                   capture_output=True, cwd=ROOT)
                    for _ in range(2)]
            assert runs[0].returncode == 0, runs[0].stderr
            assert runs[0].returncode == runs[1].returncode
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stderr == runs[1].stderr
            assert runs[0].stdout.endswith(b"\n")
