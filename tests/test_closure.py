"""The block-table closure agrees with the closure it replaced.

``reference_build_poset`` below is the earlier ``build_poset``: it absorbs
each candidate by comparing it with every context kept so far
(``contexts_equal``), re-meets every pair and re-coarsens every context on
each pass until a pass adds nothing, and orders contexts pairwise with
``context_leq``.  It sorts blocks by ``reference_block_sort_key``, the
earlier per-entry sort key.  The closure in ``qtopos.contexts`` must give
the same contexts, under the same ids, and the same order.  Its contexts'
matrices are rows of its block table, where a block shared by many contexts
is held once, while the reference keeps each context's matrices as it
formed them: the two agree within ``MATRIX_SLACK`` (Frobenius).
"""
from __future__ import annotations

import importlib.util
import json
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import cli
from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.errors import SizeLimit, TrivialContext, ValidationError
from qtopos.numerics import Tolerance, overlaps
from qtopos.scenario import parse_scenario
from tests.conftest import random_context, random_hermitian, random_unitary

TOL = Tolerance()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CLOSURES = ("intersections", "coarsenings")
MATRIX_SLACK = 1e-13


def reference_block_sort_key(block: np.ndarray):
    trace = round(float(np.trace(block).real), 6)
    flat = block.reshape(-1)
    entries = tuple(x for z in flat for x in (round(z.real, 6) + 0.0,
                                              round(z.imag, 6) + 0.0))
    return (-trace, entries)


def reference_build_poset(maximal, closure, tol=TOL) -> C.ContextPoset:
    if not maximal:
        return C.ContextPoset(dim=0, contexts=(), leq=frozenset())
    ctxs = []

    def absorb(candidate) -> bool:
        if any(C.contexts_equal(candidate, seen, tol) for seen in ctxs):
            return False
        ctxs.append(candidate)
        return True

    for ctx in maximal:
        absorb(ctx)
    while True:
        added = False
        size = len(ctxs)
        for i in range(size):
            for j in range(i + 1, size):
                meet = C.context_intersection(ctxs[i], ctxs[j], tol)
                if meet is not None and absorb(meet):
                    added = True
        if closure == "coarsenings":
            for ctx in list(ctxs):
                for coarse in C.coarsenings(ctx, tol):
                    if absorb(coarse):
                        added = True
        if not added:
            break

    ordered = sorted(ctxs, key=lambda c: (
        len(c.blocks), tuple(reference_block_sort_key(b) for b in c.blocks)))
    width = max(2, len(str(len(ordered) - 1)))
    relabeled = [C.Context(key=f"V{i:0{width}d}", dim=c.dim, blocks=c.blocks,
                           label=c.label)
                 for i, c in enumerate(ordered)]
    leq = frozenset((a.key, b.key) for a in relabeled for b in relabeled
                    if len(a.blocks) <= len(b.blocks) and C.context_leq(a, b, tol))
    return C.ContextPoset(dim=ordered[0].dim, contexts=tuple(relabeled), leq=leq)


def assert_is_order(poset):
    # ``ContextPoset.base`` trusts ``leq`` without closing it again
    keys = set(poset.base.elements)
    above = {k: set() for k in keys}
    for a, b in poset.leq:
        assert b in keys
        above[a].add(b)
    assert all(k in above[k] for k in keys)
    assert all(a == b or a not in above[b] for a, b in poset.leq)
    assert all(above[b] <= above[a] for a, b in poset.leq)


def assert_same_poset(maximal, closure, tol=TOL):
    new = C.build_poset(maximal, closure, tol)
    assert_is_order(new)
    old = reference_build_poset(maximal, closure, tol)
    assert [c.key for c in new.contexts] == [c.key for c in old.contexts]
    assert new.leq == old.leq
    for a, b in zip(new.contexts, old.contexts):
        assert a.label == b.label
        assert len(a.blocks) == len(b.blocks)
        assert all(np.linalg.norm(p - q) <= MATRIX_SLACK for p, q in zip(a.blocks, b.blocks))
    return new


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name", ["pauli2", "mermin-square"])
def test_builtin_scenarios(name, closure):
    _, _, maximal = C.builtin_scenario(name, TOL)
    assert_same_poset(maximal, closure)


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name", ["pauli2", "mermin_square", "two_qubit_parity",
                                  "peres33", "cabello18"])
def test_bundled_scenario_files(name, closure):
    scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
    assert_same_poset(scn.maximal_contexts, closure, scn.tolerance)


def _tricky_entries(size, rng):
    """Entries at a 6-digit rounding tie, within 1e-12 of one, -0.0 or 0.0,
    or anywhere in [-1, 1]."""
    ties = (rng.integers(-2 * 10 ** 6, 2 * 10 ** 6, size) + 0.5) * 1e-6
    kind = rng.integers(0, 5, size)
    return np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [ties, ties + rng.uniform(-1e-12, 1e-12, size), np.full(size, -0.0),
         rng.uniform(-1, 1, size)], 0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 16), count=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), rotated=st.booleans())
def test_block_sort_keys_match_the_per_entry_key(dim, count, seed, rotated):
    rng = np.random.default_rng(seed)
    if rotated:  # the blocks of a context after a global unitary
        ctx = random_context(max(dim, 2), rng, TOL)
        u = random_unitary(ctx.dim, rng)
        stack = np.array([u @ b @ u.conj().T for b in ctx.blocks])
    else:
        stack = _tricky_entries(2 * count * dim * dim, rng).view(complex)
        stack = stack.reshape(count, dim, dim)
    expected = [(trace, tuple(float(x) for x in entries))
                for trace, entries in map(reference_block_sort_key, stack)]
    # repr tells -0.0 from 0.0, which == does not
    assert repr(C._block_sort_keys(stack)) == repr(expected)


def _grouping(basis, groups):
    return C.make_context([basis[:, g] @ basis[:, g].conj().T for g in groups], TOL)


def test_meets_of_meets_need_a_second_pass():
    # A ^ B = 012|3|4|5 meets C in 012|34|5, which no pair of A, B, C gives.
    basis = random_unitary(6, np.random.default_rng(3))
    maximal = [_grouping(basis, [[0, 1], [2], [3], [4], [5]]),
               _grouping(basis, [[0], [1, 2], [3], [4], [5]]),
               _grouping(basis, [[0], [1], [2], [3, 4], [5]])]
    poset = assert_same_poset(maximal, "intersections")
    assert sorted(c.ranks for c in poset.contexts if len(c.blocks) == 3) == [
        (3, 2, 1)]


def _random_grouping(dim, rng, basis, most):
    cuts = sorted(rng.choice(range(1, dim), size=int(rng.integers(1, most)),
                             replace=False))
    order = rng.permutation(dim)
    return _grouping(basis, [order[lo:hi] for lo, hi in
                             zip([0, *cuts], [*cuts, dim])])


def _rotated(ctx, u):
    return C.make_context([u @ b @ u.conj().T for b in ctx.blocks], TOL)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), count=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_contexts_before_and_after_a_global_unitary(dim, count, seed):
    # Groupings of one shared basis meet nontrivially; a context from a
    # fresh basis usually meets them trivially.  Coarsenings stay below
    # five blocks, so the reference closure stays fast.
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    u = random_unitary(dim, rng)
    for closure in CLOSURES:
        most = dim if closure == "intersections" else min(dim, 4)
        maximal = [_random_grouping(dim, rng, basis, most)
                   if rng.random() < 0.8 else
                   random_context(dim, rng, TOL, int(rng.integers(2, most + 1)))
                   for _ in range(count)]
        shapes = [(len(p), len(p.leq)) for p in (
            assert_same_poset(maximal, closure),
            assert_same_poset([_rotated(c, u) for c in maximal], closure))]
        assert shapes[0] == shapes[1]


def _ks_invariants(maximal, closure, tol):
    poset = C.build_poset(maximal, closure, tol)
    result = Q.ks_search(maximal, closure, tol, max_solutions=64)
    return (len(poset), sorted(c.ranks for c in poset.contexts),
            len(poset.leq), result.status, len(result.sections))


def _bundled_maximal_contexts():
    for name in ("pauli2", "mermin-square"):
        yield name, C.builtin_scenario(name, TOL)[2], TOL
    for name in ("pauli2", "mermin_square", "two_qubit_parity"):
        scn = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        yield name, scn.maximal_contexts, scn.tolerance


@pytest.mark.parametrize("closure", CLOSURES)
def test_kochen_specker_invariants_under_a_global_unitary(closure):
    # V.. ids follow the rounded block sort key and may move under U; the
    # shape, the order and the verdict may not
    rng = np.random.default_rng(6)
    for name, maximal, tol in _bundled_maximal_contexts():
        expected = _ks_invariants(maximal, closure, tol)
        for _ in range(3):
            u = random_unitary(maximal[0].dim, rng)
            rotated = [_rotated(c, u) for c in maximal]
            assert _ks_invariants(rotated, closure, tol) == expected, name


def _near_identity(dim, rng):
    """exp(i t H) for a random Hermitian H of unit norm, 1e-13 <= t <= 1e-11."""
    h = random_hermitian(dim, rng)
    values, vectors = np.linalg.eigh(h / np.linalg.norm(h, 2))
    t = 10 ** rng.uniform(-13, -11)
    return (vectors * np.exp(1j * t * values)) @ vectors.conj().T


@pytest.mark.parametrize("closure", CLOSURES)
def test_kochen_specker_invariants_under_a_perturbation_below_the_tolerance(
        closure):
    # each maximal context moves by its own unitary, so blocks that two
    # contexts shared now differ by far less than the tolerance
    rng = np.random.default_rng(11)
    for name, maximal, tol in _bundled_maximal_contexts():
        expected = _ks_invariants(maximal, closure, tol)
        for _ in range(3):
            perturbed = [_rotated(c, _near_identity(c.dim, rng))
                         for c in maximal]
            assert _ks_invariants(perturbed, closure, tol) == expected, name


def _generic_observable(levels):
    rng = np.random.default_rng(levels)
    u = random_unitary(levels, rng)
    op = u @ np.diag(np.arange(1.0, levels + 1)) @ u.conj().T
    return C.context_from_commuting_set([op], TOL)


def test_seven_level_observable_under_coarsenings():
    # Bell(7) - 1 contexts; order pairs include the reflexive ones
    start = time.perf_counter()
    poset = C.build_poset([_generic_observable(7)], "coarsenings", TOL)
    assert (len(poset), len(poset.leq)) == (876, 18425)
    assert time.perf_counter() - start < 60
    assert_is_order(poset)


def test_seven_level_observable_presheaf_and_search():
    # A section picks one block of the one maximal context and is forced
    # below it, so there are exactly 7, fewer than the 8 asked for.
    start = time.perf_counter()
    poset = C.build_poset([_generic_observable(7)], "coarsenings", TOL)
    assert len(Q.spectral_presheaf(poset, TOL).underlying.restrictions) == 18425 - 876
    result = Q.ks_search([_generic_observable(7)], "coarsenings", TOL, max_solutions=8)
    assert (result.status, len(result.sections)) == ("SectionsExist", 7)
    assert time.perf_counter() - start < 60


def test_eight_level_observable_trips_the_limit():
    # Bell(8) - 1 = 4139 contexts, over POSET_LIMIT
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="^closure exceeded 4096 contexts$"):
        C.build_poset([_generic_observable(8)], "coarsenings", TOL)
    assert time.perf_counter() - start < 60


# The closure as it was before the coarsening pass interned each context's
# subset sums at once: one ``BlockTable.intern`` per proper partition.


def per_partition_coarsened(blocks):
    for part in C._set_partitions(list(range(len(blocks)))):
        if 1 < len(part) < len(blocks):
            yield [C._merge(blocks, group) for group in part]


def per_partition_build_poset(maximal, closure="coarsenings", tol=TOL):
    dim = maximal[0].dim
    bound = tol.scaled(dim)
    table = C.BlockTable(dim, tol)
    ctxs, ids_of, seen = [], [], set()

    def add(mats, label=None):
        ids = table.intern(mats)
        found = tuple(sorted(ids))
        if found in seen:
            return
        C._check_partition(mats, table.meets[np.ix_(ids, ids)], bound)
        for m in mats:
            m.setflags(write=False)
        order = sorted(range(len(ids)), key=lambda i: table.keys[ids[i]])
        seen.add(found)
        ids_of.append([ids[i] for i in order])
        ctxs.append(C.Context(key="", dim=dim, label=label,
                              blocks=tuple(table.blocks[ids[i]] for i in order)))
        if len(ctxs) > C.POSET_LIMIT:
            raise SizeLimit(f"closure exceeded {C.POSET_LIMIT} contexts")

    for ctx in maximal:
        add(ctx.blocks, ctx.label)
    done = 0
    while done < len(ctxs):
        size = len(ctxs)
        for i in range(size):
            for j in range(max(i + 1, done), size):
                mats = C._meet_blocks(ctxs[i].blocks, ctxs[j].blocks,
                                      table.meets[np.ix_(ids_of[i], ids_of[j])],
                                      bound)
                if mats is not None:
                    add(mats[0])
        done = size if closure == "intersections" else len(ctxs)
    for ctx in list(ctxs) if closure == "coarsenings" else ():
        for mats in per_partition_coarsened(ctx.blocks):
            add(mats)

    n = len(table.keys)
    order = sorted(range(len(ctxs)), key=lambda i: (
        len(ids_of[i]), [table.keys[b] for b in ids_of[i]]))
    width = max(2, len(str(len(order) - 1)))
    relabeled = []
    member = np.zeros((len(order), n), dtype=np.float32)
    for r, i in enumerate(order):
        relabeled.append(C.Context(key=f"V{r:0{width}d}", dim=dim, blocks=ctxs[i].blocks,
                                   label=ctxs[i].label, table=table, ids=tuple(ids_of[i])))
        member[r, ids_of[i]] = 1
    misfit = (member @ table.meets[:n, :n] != 1).astype(np.float32)
    leq = set()
    for lo in range(0, len(order), 512):
        rows, cols = np.nonzero(misfit[lo:lo + 512] @ member.T == 0)
        leq.update((relabeled[lo + r].key, relabeled[c].key)
                   for r, c in zip(rows, cols))
    return C.ContextPoset(dim=dim, contexts=tuple(relabeled), leq=frozenset(leq), tol=tol)


def _counting_interns(monkeypatch):
    """Log ``intern`` calls, and an ``expand`` as the coarsening pass takes
    up each context (``_bell`` is asked once per context)."""
    events = []
    intern, bell = C.BlockTable.intern, C._bell
    monkeypatch.setattr(C.BlockTable, "intern", lambda self, blocks, parts=None: (
        events.append("intern"), intern(self, blocks, parts))[1])
    monkeypatch.setattr(C, "_bell", lambda k: (events.append("expand"), bell(k))[1])
    return events


def _in_key_order(poset):
    """Each context's block keys, then the table's keys, meets and matrices
    in key order: table ids follow the order blocks were first interned,
    which the closures need not share."""
    table = poset.table
    n = len(table.keys)
    assert len(set(table.keys)) == n  # the keys name the blocks
    order = sorted(range(n), key=table.keys.__getitem__)
    return ({c.key: [table.keys[b] for b in c.ids] for c in poset.contexts},
            [table.keys[b] for b in order], table.meets[np.ix_(order, order)],
            table.blocks[order])


def assert_same_closure(maximal, tol, monkeypatch):
    reference = per_partition_build_poset(maximal, "coarsenings", tol)
    events = _counting_interns(monkeypatch)
    new = C.build_poset(maximal, "coarsenings", tol)
    monkeypatch.undo()
    assert [c.key for c in new.contexts] == [c.key for c in reference.contexts]
    for a, b in zip(new.contexts, reference.contexts):
        assert a.label == b.label
        assert len(a.blocks) == len(b.blocks)
        assert all(np.array_equal(p, q) for p, q in zip(a.blocks, b.blocks))
    assert new.leq == reference.leq
    ids, keys, meets, blocks = _in_key_order(new)
    ref_ids, ref_keys, ref_meets, ref_blocks = _in_key_order(reference)
    assert ids == ref_ids
    assert keys == ref_keys
    assert np.array_equal(meets, ref_meets)
    assert np.array_equal(blocks, ref_blocks)
    # at most one intern per context the coarsening pass takes up
    pass_events = events[events.index("expand"):] if "expand" in events else []
    assert "intern intern" not in " ".join(pass_events)
    return events


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", SCENARIOS.parent / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _family(workload, path):
    """The maximal contexts and tolerance of each seed-1 ``workload`` family."""
    _load_gen().make_inputs(workload, 1, path)
    for doc in sorted(path.glob("*.json")):
        scn = parse_scenario(doc.read_text(encoding="utf-8"))
        yield scn.maximal_contexts, scn.tolerance


NAMED = ["builtin:pauli2", "builtin:mermin-square", *sorted(
    path.name for path in SCENARIOS.glob("*.json"))]
# The bundled scenarios whose closure passes POSET_LIMIT: each of the five
# contexts of the GHZ-Mermin star has 8 blocks, so Bell(8) - 1 coarsenings.
# ``test_a_closure_over_the_limit_is_refused`` checks the refusal; the tests
# that take a bundled poset apart take the others.
OVER_LIMIT = {("mermin_star.json", "coarsenings")}
BUILT = [(name, closure) for name in NAMED for closure in CLOSURES
         if (name, closure) not in OVER_LIMIT]
COARSENED = [name for name, closure in BUILT if closure == "coarsenings"]


@pytest.mark.parametrize("name, closure", sorted(OVER_LIMIT))
def test_a_closure_over_the_limit_is_refused(name, closure, tmp_path):
    maximal, tol = _named_maximal(name)
    with pytest.raises(SizeLimit, match=f"^closure exceeded {C.POSET_LIMIT} contexts$"):
        C.build_poset(maximal, closure, tol)
    path = tmp_path / name
    path.write_text(json.dumps({**json.loads((SCENARIOS / name).read_text()),
                                "closure": closure}))
    assert cli.run_command(["poset", str(path)]) == (
        2, "", f"error: size limit: closure exceeded {C.POSET_LIMIT} contexts\n")


def _named_maximal(name):
    """The maximal contexts and tolerance of a builtin or bundled scenario."""
    if name.startswith("builtin:"):
        return C.builtin_scenario(name[8:], TOL)[2], TOL
    scn = parse_scenario((SCENARIOS / name).read_text())
    return scn.maximal_contexts, scn.tolerance


@pytest.mark.parametrize("name", COARSENED)
def test_subset_sums_match_the_per_partition_closure_on_scenarios(
        name, monkeypatch):
    assert_same_closure(*_named_maximal(name), monkeypatch)


@pytest.mark.parametrize("workload", ["poset-closure", "ks-search"])
def test_subset_sums_match_the_per_partition_closure_on_families(
        workload, tmp_path, monkeypatch):
    for maximal, tol in _family(workload, tmp_path):
        assert_same_closure(maximal, tol, monkeypatch)


@pytest.mark.parametrize("levels", range(2, 8))
def test_subset_sums_match_the_per_partition_closure_on_observables(
        levels, monkeypatch):
    events = assert_same_closure([_generic_observable(levels)], TOL, monkeypatch)
    # the maximal context was interned as it was generated: one intern for
    # its 2^k - k - 2 sums
    assert events == ["expand"] + ["intern"] * (levels > 2)


@pytest.mark.parametrize("levels", [12, 16])
def test_large_observables_trip_the_limit_before_any_subset_sum(levels):
    observable = _generic_observable(levels)
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match="^closure exceeded 4096 contexts$"):
        C.build_poset([observable], "coarsenings", TOL)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("levels", range(2, 8))
def test_the_early_trip_agrees_with_the_per_partition_count(levels, monkeypatch):
    # a k-block context forces Bell(k) - 1 contexts: the trip fires exactly
    # when the count of the per-partition closure passes the limit
    maximal = [_generic_observable(levels)]
    bell = C._bell(levels)
    for limit in (bell - 2, bell - 1):
        monkeypatch.setattr(C, "POSET_LIMIT", limit)
        verdicts = []
        for build in (per_partition_build_poset, C.build_poset):
            try:
                verdicts.append(len(build(maximal, "coarsenings", TOL)))
            except SizeLimit as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0] == (bell - 1 if limit == bell - 1 else
                               f"closure exceeded {limit} contexts")


# The block table reads the meets of a derived block off its parts' meets
# and interns a whole phase in one call.


def assert_meets_are_the_products(poset, tol):
    table = poset.table
    n = len(table.keys)
    assert np.array_equal(table.meets[:n, :n],
                          overlaps(table.blocks, table.blocks, tol))


@pytest.mark.parametrize("name, closure", BUILT)
def test_derived_meets_are_the_products_on_scenarios(name, closure):
    maximal, tol = _named_maximal(name)
    assert_meets_are_the_products(C.build_poset(maximal, closure, tol), tol)


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("workload", ["poset-closure", "ks-search"])
def test_derived_meets_are_the_products_on_families(workload, closure, tmp_path):
    for maximal, tol in _family(workload, tmp_path):
        assert_meets_are_the_products(C.build_poset(maximal, closure, tol), tol)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), groups=st.lists(st.lists(
    st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=4),
    seed=st.integers(0, 2 ** 32 - 1))
def test_derived_meets_are_the_products_on_commuting_families(dim, groups, seed):
    # operators diagonal in one rotated basis, with few distinct eigenvalues,
    # so the groups generate contexts of 2 to 6 blocks that meet nontrivially
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    ops = [basis @ np.diag(rng.integers(0, 3, dim).astype(float)) @ basis.conj().T
           for _ in range(6)]
    maximal = []
    for group in groups:
        try:
            maximal.append(C.context_from_commuting_set([ops[i] for i in group], TOL))
        except TrivialContext:
            pass
    if maximal:
        for closure in CLOSURES:
            assert_meets_are_the_products(C.build_poset(maximal, closure, TOL), TOL)


def _intern_in_pieces(table, blocks, parts, cuts):
    ids = []
    for lo, hi in zip([0, *cuts], [*cuts, len(blocks)]):
        if hi > lo:
            ids += table.intern(blocks[lo:hi], None if parts is None else parts[lo:hi])
    return ids


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), size=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1), with_parts=st.booleans())
def test_one_intern_call_is_the_calls_of_its_pieces(dim, size, seed, with_parts):
    # held: the rank-one blocks of a rotated basis; the batch: sums of them,
    # some repeated exactly or within far less than the tolerance, and some
    # already held
    rng = np.random.default_rng(seed)
    basis = random_unitary(dim, rng)
    atoms = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(dim)]
    blocks, parts = [], []
    for _ in range(size):
        if blocks and rng.random() < 0.3:
            r = int(rng.integers(len(blocks)))
            twin = blocks[r] + (rng.random() < 0.5) * 1e-13 * atoms[0]
            blocks.append(twin)
            parts.append(parts[r])
            continue
        group = sorted(rng.choice(dim, int(rng.integers(1, dim + 1)), replace=False))
        blocks.append(sum(atoms[i] for i in group))
        parts.append([int(i) for i in group])
    parts = parts if with_parts else None
    tables = []
    for cuts in ([], list(range(1, size)),
                 sorted(rng.choice(range(1, size + 1), int(rng.integers(0, size + 1)))
                        .tolist())):
        table = C.BlockTable(dim, TOL)
        assert table.intern(atoms) == list(range(dim))
        tables.append((_intern_in_pieces(table, blocks, parts, cuts), table))
    ids, table = tables[0]
    n = len(table.keys)
    for other_ids, other in tables[1:]:
        assert other_ids == ids
        assert other.keys == table.keys
        assert np.array_equal(other.blocks, table.blocks)
        assert np.array_equal(other.meets[:n, :n], table.meets[:n, :n])
    assert np.array_equal(table.meets[:n, :n], overlaps(table.blocks, table.blocks, TOL))
    # a repeated block takes the id of the block it repeats
    if parts is not None:
        assert all(len(set(ids[r] for r in range(size) if parts[r] == p)) == 1
                   for p in parts)


def test_a_chain_of_near_twins_interns_as_one_call_per_block():
    # b is within eps * d of a and of c, but c is not within it of a: one
    # call per block gives a, a, c, and so must one call for all three
    a = np.diag([1.0, 0.0]).astype(complex)
    step = 1.2e-9 * np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    chain = [a, a + step, a + 2 * step]
    one_by_one = C.BlockTable(2, TOL)
    assert [one_by_one.intern([m])[0] for m in chain] == [0, 0, 1]
    table = C.BlockTable(2, TOL)
    assert table.intern(chain) == [0, 0, 1]
    assert np.array_equal(table.blocks, one_by_one.blocks)


def test_an_earlier_candidates_error_comes_first():
    # the given contexts are interned as one run, yet the first one's fault
    # still wins over the second one's dimension, as one at a time
    short = C.Context(key="short", dim=2, blocks=(np.diag([1.0, 0.0]).astype(complex),))
    other = C.context_from_commuting_set([np.diag([1.0, 2.0, 3.0])], TOL)
    with pytest.raises(ValidationError, match="^blocks do not sum to identity"):
        C.build_poset([short, other], "intersections", TOL)


def _outcome(build, *args):
    try:
        return build(*args)
    except ValidationError as exc:
        return exc


# A run is checked at once; only a flagged candidate is checked again alone.

MIXED = [[[0, 1, 2], [3], [4], [5]], [[0, 1], [2, 3], [4, 5]],
         [[0], [1], [2], [3], [4], [5]], [[0, 1, 2], [3, 4, 5]],
         [[0, 1], [2], [3], [4], [5]]]


def test_a_flagged_coarsening_late_in_a_run_is_named_as_one_at_a_time(monkeypatch):
    # Contexts of 4, 3, 6, 2 and 5 blocks, each from its own basis, expand
    # as one run.  The groups that start at the first block of the second
    # and of the last context sum without their last block, so a coarsening
    # of each fails to sum to 1 (defects sqrt(2) and 1): the run's check
    # must name the second context's first bad coarsening, as the closure
    # that checks one partition at a time does.
    rng = np.random.default_rng(37)
    maximal = [_grouping(random_unitary(6, rng), groups) for groups in MIXED]
    events = _counting_interns(monkeypatch)
    C.build_poset(maximal, "coarsenings", TOL)
    assert events == ["intern"] + ["expand"] * len(MIXED) + ["intern"]
    monkeypatch.undo()
    marked = [maximal[1].blocks[0], maximal[4].blocks[0]]

    def cut(blocks, group):
        bad = len(group) > 1 and any(np.array_equal(blocks[group[0]], m) for m in marked)
        return group[:-1] if bad else group

    merge, staged = C._merge, C._staged_sums
    monkeypatch.setattr(C, "_merge", lambda blocks, group: merge(blocks, cut(blocks, group)))
    monkeypatch.setattr(C, "_staged_sums", lambda blocks, groups: staged(
        blocks, [cut(blocks, group) for group in groups]))
    new = _outcome(C.build_poset, maximal, "coarsenings", TOL)
    old = _outcome(per_partition_build_poset, maximal, "coarsenings", TOL)
    assert isinstance(old, ValidationError)
    assert str(old) == "blocks do not sum to identity: defect 1.414e+00"
    assert type(new) is type(old) and str(new) == str(old)


@pytest.mark.parametrize("entries", [1, 3000, C.PAIR_ENTRIES])
def test_a_run_check_flags_what_each_context_alone_flags(entries, monkeypatch):
    # Contexts of 4, 3, 6, 2 and 5 blocks as one run, their groups summed
    # without their last block in every other context: the flags of the
    # run, its block-diagonal matrix cut where it would pass ``entries``
    # entries, are those of each context's partitions checked on their own.
    rng = np.random.default_rng(37)
    given = C.GivenContexts([_grouping(random_unitary(6, rng), groups)
                             for groups in MIXED], TOL)
    table, bound = given.table, TOL.scaled(6)
    stacks, ids, picks, alone = [], [], [], []
    for n, atoms in enumerate(given.ids):
        _, groups, pick, _ = C._proper_partitions(len(atoms))
        sides = [[atoms[j] for j in (g[:-1] if n % 2 else g)] for g in groups]
        sums = C._staged_sums(table.blocks, sides) if sides else table.blocks[:0]
        stacks.append(np.concatenate([sums, table.blocks[atoms]]))
        ids.append((table.intern(sums) if sides else []) + atoms)
        picks.append(pick.reshape(-1, len(ids[-1])))
        alone += C._check_partition(stacks[-1], table.meets[np.ix_(ids[-1], ids[-1])],
                                    bound, picks[-1]).tolist()
    assert any(alone) and not all(alone)
    monkeypatch.setattr(C, "PAIR_ENTRIES", entries)
    assert C._check_run(table, np.concatenate(stacks), sum(ids, []), picks, bound) == alone


def test_a_given_run_names_its_first_bad_context():
    # the given contexts are interned and checked as one run: the second
    # one's fault (two blocks that meet) comes before the third one's (a
    # missing block), as one context at a time
    atoms = [np.diag(np.eye(4)[i]).astype(complex) for i in range(4)]
    tilted = np.zeros((4, 4), complex)
    tilted[:2, :2] = 0.5  # onto (e0 + e1) / sqrt(2): meets e0 and e1
    good = C.Context(key="good", dim=4, blocks=tuple(atoms), label="good")
    meets = C.Context(key="meets", dim=4, blocks=(atoms[0], tilted, atoms[2], atoms[3]))
    short = C.Context(key="short", dim=4, blocks=tuple(atoms[:3]))
    for closure in CLOSURES:
        new = _outcome(C.build_poset, [good, meets, short], closure, TOL)
        old = _outcome(per_partition_build_poset, [good, meets, short], closure, TOL)
        assert str(old).startswith("blocks 0 and 1 are not orthogonal")
        assert type(new) is type(old) and str(new) == str(old)
        assert str(_outcome(C.build_poset, [good, short, meets], closure, TOL)) == (
            "blocks do not sum to identity: defect 1.000e+00")


def test_dense_ranks_order_contexts_as_their_key_tuples():
    # The bases of three contexts turn by 1e-8 apart: their blocks are
    # distinct at the tolerance, yet their sort keys, rounded to 6 digits,
    # tie.  Contexts sort by block count, then by their blocks' keys
    # compared as tuples, ties kept in the order given.
    rng = np.random.default_rng(5)
    basis = random_unitary(3, rng)
    maximal = []
    for t in (2e-8, 0.0, 1e-8):
        turn = np.eye(3, dtype=complex)
        turn[np.ix_([0, 2], [0, 2])] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        for groups in ([[0], [1], [2]], [[0, 1], [2]], [[0], [1, 2]]):
            maximal.append(_grouping(basis @ turn, groups))
    given = C.GivenContexts(maximal, TOL)
    keys = given.table.keys
    assert len(given.ids) == len(maximal) and len(set(keys)) < len(keys)
    for _ in range(5):
        positions = rng.permutation(len(given.ids)).tolist()
        assert given._in_key_order(positions) == sorted(positions, key=lambda i: (
            len(given.ids[i]), [keys[b] for b in given.ids[i]]))


@pytest.mark.parametrize("closure", CLOSURES)
def test_a_limit_anywhere_in_a_run_trips_as_one_at_a_time(closure, monkeypatch):
    # runs are cut at the room left under the limit: a closure of S contexts
    # trips exactly when the limit is below S, as one candidate at a time
    maximal = C.builtin_scenario("mermin-square", TOL)[2]
    size = len(C.build_poset(maximal, closure, TOL))
    for limit in sorted({1, 5, 6, 7, 13, 14, 20, size // 2, size - 1, size}):
        monkeypatch.setattr(C, "POSET_LIMIT", limit)
        verdicts = []
        for build in (per_partition_build_poset, C.build_poset):
            try:
                verdicts.append(len(build(maximal, closure, TOL)))
            except SizeLimit as exc:
                verdicts.append(str(exc))
        assert verdicts == 2 * [size if limit >= size else
                                f"closure exceeded {limit} contexts"]


def test_the_square_is_two_interns_and_one_product(monkeypatch):
    # over generation and closure: the given contexts as they are
    # generated, then the coarsening pass, with no meet pass; only the given
    # blocks are multiplied out
    calls = []
    intern, products = C.BlockTable.intern, C.overlaps
    monkeypatch.setattr(C.BlockTable, "intern", lambda self, blocks, parts=None, **kw: (
        calls.append("intern"), intern(self, blocks, parts, **kw))[1])
    monkeypatch.setattr(C, "overlaps", lambda *args: (
        calls.append("overlaps"), products(*args))[1])
    maximal = C.builtin_scenario("mermin-square", TOL)[2]
    poset = C.build_poset(maximal, "coarsenings", TOL)
    assert sorted(calls) == ["intern"] * 2 + ["overlaps"]
    monkeypatch.undo()
    assert_meets_are_the_products(poset, TOL)


@pytest.mark.parametrize("closure", CLOSURES)
def test_the_reference_closure_on_the_poset_closure_families(closure, tmp_path):
    for maximal, tol in _family("poset-closure", tmp_path):
        assert_same_poset(maximal, closure, tol)


def assert_meets_lie_among_the_coarsenings(maximal, tol):
    # every subalgebra of a given context is one of its coarsenings, so the
    # coarsenings closure holds every context the meets make
    coarse = C.build_poset(maximal, "coarsenings", tol).contexts
    for ctx in C.build_poset(maximal, "intersections", tol).contexts:
        assert any(C.contexts_equal(ctx, other, tol) for other in coarse)


@pytest.mark.parametrize("name", COARSENED)
def test_meets_lie_among_the_coarsenings_on_scenarios(name):
    assert_meets_lie_among_the_coarsenings(*_named_maximal(name))


def test_meets_lie_among_the_coarsenings_on_families(tmp_path):
    for maximal, tol in _family("poset-closure", tmp_path):
        assert_meets_lie_among_the_coarsenings(maximal, tol)


# At the edge of the tolerance, block equality (``same_blocks``) and meeting
# one to one (``overlaps``) can disagree: two blocks that differ by a little
# more than eps * d still meet only each other.  Two contexts made of such
# blocks lie under each other, and ``build_poset`` refuses that cycle.

KNIFE_EDGE_ERROR = "inconsistent intersection component: the two sides disagree"


def _knife_edge_operators(dim, sin):
    """A and B of one knife-edge case: in d = 2, sigma_z and the reflection
    through (cos t, sin t); in d = 3, diag(0, 1, 2) and the operator that is
    +1 on span(e0, cos t e1 + sin t e2) and -1 elsewhere."""
    v = np.array([np.sqrt(1 - sin ** 2), sin])
    if dim == 2:
        return np.diag([1.0, -1.0]), 2 * np.outer(v, v) - np.eye(2)
    plus = np.diag([1.0, 0, 0])
    plus[1:, 1:] = np.outer(v, v)
    return np.diag([0.0, 1.0, 2.0]), 2 * plus - np.eye(3)


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("dim, sin, sizes", [
    (2, 1.2e-9, (1, 1)), (2, 1.8e-9, None), (2, 2.5e-9, (2, 2)),
    (3, 1.5e-9, (4, 2)), (3, 2.5e-9, None), (3, 3.5e-9, (5, 2))])
def test_a_knife_edge_is_refused_not_ordered_in_a_cycle(dim, sin, sizes, closure,
                                                         tmp_path):
    # ``sizes``: the contexts under coarsenings and under intersections, or
    # None where the two blocks are distinct yet meet one to one
    tol = Tolerance(1e-9)
    ops = _knife_edge_operators(dim, sin)
    maximal = [C.context_from_commuting_set([op], tol) for op in ops]
    path = tmp_path / "knife.json"
    path.write_text(json.dumps({
        "dimension": dim, "tolerance": 1e-9, "closure": closure,
        "operators": {name: [[[x, 0.0] for x in row] for row in op.tolist()]
                      for name, op in zip("AB", ops)},
        "groups": [["A"], ["B"]]}))
    runs = [cli.run_command(["poset", str(path)]),
            cli.run_command(["ks", str(path), "--max-solutions", "4"])]
    if sizes is None:
        with pytest.raises(ValidationError, match=f"^{KNIFE_EDGE_ERROR}$"):
            C.build_poset(maximal, closure, tol)
        assert runs == 2 * [(1, "", f"error: {KNIFE_EDGE_ERROR}\n")]
        return
    poset = C.build_poset(maximal, closure, tol)
    assert_is_order(poset)
    assert len(poset) == sizes[closure == "intersections"]
    assert [(code, err) for code, _, err in runs] == 2 * [(0, "")]


# The meet pass reads which pairs meet trivially off the table, a slice of
# pairs at a time, and forms only the other meets.

def reference_trivial(meets, a, b) -> bool:
    """Union-find over the bipartite graph of two id rows (padded with -1):
    are all of their blocks one component?"""
    a, b = [x for x in a if x >= 0], [y for y in b if y >= 0]
    parent = list(range(len(a) + len(b)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if meets[x, y]:
                parent[find(i)] = find(len(a) + j)
    return len({find(x) for x in range(len(parent))}) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(2, 40),
       width=st.integers(2, 16), pairs=st.integers(1, 12),
       density=st.floats(0.0, 0.5))
def test_batched_triviality_matches_a_per_pair_union_find(seed, blocks, width,
                                                          pairs, density):
    rng = np.random.default_rng(seed)
    meets = rng.random((blocks, blocks)) < density
    meets |= meets.T
    rows = np.full((2 * pairs, width), -1)
    for r in range(2 * pairs):
        size = int(rng.integers(2, min(width, blocks) + 1))
        rows[r, :size] = rng.choice(blocks, size, replace=False)
    a, b = rows[:pairs], rows[pairs:]
    got = C._connected(meets, a, b).tolist()
    assert got == [reference_trivial(meets, x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("k", [2, 3, 5, 9, 16])
def test_a_path_through_every_block_is_one_component(k):
    # a_0 - b_0 - a_1 - b_1 - ... - a_{k-1}: the longest path that the
    # squarings must cover; cutting any edge splits it
    meets = np.zeros((2 * k, 2 * k), dtype=bool)
    a, b = np.arange(k), np.arange(k, 2 * k)
    for x in range(k):
        meets[a[x], b[x]] = True
        if x + 1 < k:
            meets[a[x + 1], b[x]] = True
    meets |= meets.T
    assert C._connected(meets, a[None], b[None]).tolist() == [True]
    for x in range(2 * k - 1):
        cut = meets.copy()
        y, z = (a[x // 2], b[x // 2]) if x % 2 == 0 else (a[x // 2 + 1], b[x // 2])
        cut[y, z] = cut[z, y] = False
        assert C._connected(cut, a[None], b[None]).tolist() == [False]


@pytest.mark.parametrize("name, pairs, calls", [
    ("mermin_square.json", 105, 27), ("cabello18.json", 351, 54),
    ("peres33.json", 2628, 192),
])
def test_only_nontrivial_meets_are_formed(name, pairs, calls, monkeypatch):
    # before the batched verdicts every pair was met: 105, 351 and 2,628
    maximal, tol = _named_maximal(name)
    counts = {"pairs": 0, "calls": 0}
    connected, meet = C._connected, C._meet_blocks

    def batched(meets, a, b):
        counts["pairs"] += len(a)
        return connected(meets, a, b)

    def one(*args):
        counts["calls"] += 1
        return meet(*args)

    monkeypatch.setattr(C, "_connected", batched)
    monkeypatch.setattr(C, "_meet_blocks", one)
    C.build_poset(maximal, "intersections", tol)
    assert counts == {"pairs": pairs, "calls": calls}


def test_a_pass_that_trips_the_limit_reads_slices_lazily(monkeypatch):
    # One pair per slice: a build that trips the limit reads the slices and
    # forms the meets of the full build in the same order, stops at most one
    # slice past the last meet it forms, and interns every meet it forms.
    maximal, tol = _named_maximal("peres33.json")
    monkeypatch.setattr(C, "PAIR_ENTRIES", 1)
    events = []
    connected, meet, intern = C._connected, C._meet_blocks, C.BlockTable.intern

    def met(*args):
        result = meet(*args)
        events.append(("meet", len(result[0])))
        return result

    monkeypatch.setattr(C, "_connected", lambda *args: (
        events.append(("slice", 0)), connected(*args))[1])
    monkeypatch.setattr(C, "_meet_blocks", met)
    monkeypatch.setattr(C.BlockTable, "intern", lambda self, blocks, parts=None: (
        events.append(("intern", len(blocks))), intern(self, blocks, parts))[1])
    size = len(C.build_poset(maximal, "intersections", tol))
    full = [kind for kind, _ in events if kind != "intern"]
    checked = 0
    for limit in range(size - 1, 0, -5):
        events.clear()
        monkeypatch.setattr(C, "POSET_LIMIT", limit)
        with pytest.raises(SizeLimit):
            C.build_poset(maximal, "intersections", tol)
        kinds = [kind for kind, _ in events if kind != "intern"]
        if "meet" not in kinds:  # tripped by the given contexts
            break
        assert kinds == full[:len(kinds)]
        assert kinds[::-1].index("meet") <= 1
        tail = events[next(at for at, (kind, _) in enumerate(events) if kind == "meet"):]
        assert (sum(n for kind, n in tail if kind == "intern")
                == sum(n for kind, n in tail if kind == "meet"))
        checked += 1
    assert checked >= 3 and kinds.count("slice") < full.count("slice") / 2
