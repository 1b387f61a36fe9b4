"""A scenario's maximal contexts are generated into the block table that
closes them: a command interns and checks its given blocks once.

``parse_scenario`` interns every group's blocks into one ``BlockTable``
and checks the partitions off it; ``build_poset`` and ``ks_search`` take
contexts that share one table, met in order, as they are, and close a copy
of it.  Any other input is interned afresh and must give the poset it gave
before, leaving the scenario's table as it was.
"""
from __future__ import annotations

import pathlib

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.numerics import Tolerance
from qtopos.scenario import parse_scenario
from tests.test_closure import assert_same_poset

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _scenario(name: str):
    return parse_scenario((SCENARIOS / name).read_text(encoding="utf-8"))


def _counting(monkeypatch) -> list[str]:
    """Log each ``intern`` (of given blocks, or of sums of held ones), each
    run's partition check and each pass of sort keys."""
    events: list[str] = []
    intern, check, keys = C.BlockTable.intern, C._check_run, C._block_sort_keys
    monkeypatch.setattr(C.BlockTable, "intern", lambda self, blocks, parts=None, **kw: (
        events.append("intern" if parts is None else "intern sums"),
        intern(self, blocks, parts, **kw))[1])
    monkeypatch.setattr(C, "_check_run", lambda *args: (
        events.append("check"), check(*args))[1])
    monkeypatch.setattr(C, "_block_sort_keys", lambda stack: (
        events.append("keys"), keys(stack))[1])
    return events


def _snapshot(table: C.BlockTable):
    n = len(table.keys)
    return (n, list(table.keys), list(table.ranks), table.blocks.tobytes(),
            table.meets[:n, :n].tobytes())


def _own(contexts):
    """Copies that keep their own blocks and hold no table."""
    return [C.Context(key=c.key, dim=c.dim, blocks=c.blocks, label=c.label)
            for c in contexts]


def assert_same_build(new: C.ContextPoset, old: C.ContextPoset) -> None:
    """The same contexts under the same keys, labels, block ids and order,
    and tables of bit-identical rows, keys and meets."""
    assert [(c.key, c.label, c.ids) for c in new.contexts] == [
        (c.key, c.label, c.ids) for c in old.contexts]
    assert new.leq == old.leq
    assert _snapshot(new.table) == _snapshot(old.table)


def test_a_command_interns_and_checks_its_given_blocks_once(monkeypatch):
    events = _counting(monkeypatch)
    scn = _scenario("mermin_square.json")
    assert events == ["keys", "intern", "check"]
    events.clear()
    C.build_poset(scn.maximal_contexts, "coarsenings", scn.tolerance)
    # the coarsening pass's run: its new sums' keys, then its check
    assert events == ["intern sums", "keys", "check"]
    events.clear()
    result = Q.ks_search(scn.maximal_contexts, "coarsenings", scn.tolerance)
    assert result.status == "NoSection" and events == []


@pytest.mark.parametrize("name", ["mermin_square.json", "cabello18.json", "peres33.json"])
def test_the_poset_reads_the_rows_generation_made(name):
    scn = _scenario(name)
    table = scn.maximal_contexts[0].table
    assert all(c.table is table for c in scn.maximal_contexts)
    before = _snapshot(table)
    poset = C.build_poset(scn.maximal_contexts, scn.closure, scn.tolerance)
    assert poset.table is not table and _snapshot(table) == before
    assert_same_build(poset, C.build_poset(_own(scn.maximal_contexts), scn.closure,
                                           scn.tolerance))
    held = {c.ids for c in poset.contexts}
    for ctx in scn.maximal_contexts:
        assert ctx.ids in held
        for b, block in zip(ctx.ids, ctx.blocks, strict=True):
            assert block.tobytes() == poset.table.blocks[b].tobytes()


def _inputs(scn, other):
    maximal = scn.maximal_contexts
    return {
        "subset": (maximal[1:], scn.tolerance),
        "prefix": (maximal[:-1], scn.tolerance),
        "reordering": (maximal[::-1], scn.tolerance),
        "two scenarios": (maximal[:4] + other.maximal_contexts[:3], scn.tolerance),
        "another tolerance": (maximal, Tolerance(scn.tolerance.eps * 10)),
        "make_context": ([C.make_context(c.blocks, scn.tolerance, label=c.label)
                          for c in maximal], scn.tolerance),
    }


@pytest.mark.parametrize("kind", ["subset", "prefix", "reordering", "two scenarios",
                                  "another tolerance", "make_context"])
def test_other_inputs_are_interned_afresh(kind):
    scn, other = _scenario("cabello18.json"), _scenario("mermin_square.json")
    maximal, tol = _inputs(scn, other)[kind]
    before = _snapshot(scn.maximal_contexts[0].table)
    poset = assert_same_poset(maximal, "intersections", tol)
    assert_same_build(poset, C.build_poset(_own(maximal), "intersections", tol))
    assert _snapshot(scn.maximal_contexts[0].table) == before


@pytest.mark.parametrize("name", ["mermin_square.json", "cabello18.json"])
def test_two_builds_on_one_scenario_give_one_poset(name):
    scn = _scenario(name)
    for closure in ("intersections", "coarsenings"):
        first = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
        second = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
        assert first.table is not second.table
        assert_same_build(first, second)


def test_a_maximal_context_remembers_its_daseinisation_rows():
    # single-context daseinisation reads the scenario table's record of the
    # projector: the poset's row for the same blocks, kept for a second ask
    scn = _scenario("mermin_square.json")
    poset = C.build_poset(scn.maximal_contexts, "coarsenings", scn.tolerance)
    p = np.kron(np.array([[1, 0], [0, 0]]), np.eye(2)).astype(complex)
    rows = {c.ids: row for c, row in zip(poset.contexts, Q.daseinise(p, poset))}
    table = scn.maximal_contexts[0].table
    for ctx in scn.maximal_contexts:
        got = Q.daseinise_projector(p, ctx)
        assert got is Q.daseinise_projector(p, ctx)
        assert got.tobytes() == rows[ctx.ids][1].tobytes()
    assert len(table.hits) == 1 and table.held_rows == len(scn.maximal_contexts)
