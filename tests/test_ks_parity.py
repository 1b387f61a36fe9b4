"""The Kochen-Specker search on the maximal contexts agrees with the search
on the whole spectral presheaf that it replaced.

``reference_ks_search`` is the earlier ``quantum.ks_search``: it takes the
spectral presheaf of the closure and runs ``kernel.global_sections`` on all
of it.  ``quantum.ks_search`` runs the same engine on the maximal contexts
and one element per nontrivial pairwise meet, and closes only to list
sections.  Both must give the same verdict, ``nodes_explored`` and sections,
in order, on every bundled scenario under both closures and on the
``ks-search`` families of seeds 1-3, for 1, 3 and 64 sections asked.
Where the closure passes ``POSET_LIMIT`` (the GHZ-Mermin star under
``coarsenings``), the reference has no presheaf to search; there the new
search must give the reference's answer under ``intersections``, whose
sections extend uniquely to the larger closure.
"""
from __future__ import annotations

import importlib.util
import itertools
import json
import pathlib
import sys
import tempfile

import pytest

from qtopos import cli, kernel
from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.errors import SizeLimit, ValidationError
from qtopos.numerics import Tolerance
from qtopos.scenario import parse_scenario
from tests.test_closure import CLOSURES, KNIFE_EDGE_ERROR, SCENARIOS, _knife_edge_operators

ROOT = pathlib.Path(__file__).resolve().parent.parent
ASKED = (1, 3, 64)


def reference_ks_search(presheaf: Q.SpectralPresheaf, max_solutions: int = 8) -> Q.KsResult:
    """Global sections of the whole spectral presheaf, the first
    ``max_solutions`` in search order, sorted by their rows."""
    if not presheaf.poset.contexts:
        raise ValidationError("cannot search an empty poset")
    if max_solutions < 1:
        raise ValidationError("max_solutions must be positive")
    budget = kernel.NodeBudget("KS search", Q.KS_NODE_LIMIT)
    rows = itertools.islice(kernel.global_sections(presheaf.underlying, budget),
                            min(max_solutions, sys.maxsize))
    found = [Q.TruthAssignment(assignments=dict(zip(presheaf.base.elements, row)))
             for row in sorted(rows)]
    status = "SectionsExist" if found else "NoSection"
    return Q.KsResult(status=status, sections=tuple(found), nodes_explored=budget.nodes)


def outcome(result: Q.KsResult) -> tuple:
    return (result.status, result.nodes_explored,
            [s.items_sorted() for s in result.sections])


def _documents():
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.stem, json.loads(path.read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (1, 2, 3):
            for name, doc, _ in corpus._family_documents("ks-search", seed, pathlib.Path(tmp)):
                yield name, doc


DOCUMENTS = list(_documents())


def _scenario(doc: dict, closure: str):
    return parse_scenario(json.dumps({**doc, "closure": closure}))


def reference_outcomes(scn, closure: str) -> dict:
    poset = C.build_poset(scn.maximal_contexts, closure, scn.tolerance)
    presheaf = Q.spectral_presheaf(poset, scn.tolerance)
    return {n: outcome(reference_ks_search(presheaf, n)) for n in ASKED}


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("name, doc", DOCUMENTS, ids=[name for name, _ in DOCUMENTS])
def test_the_search_matches_the_full_presheaf_search(name, doc, closure):
    scn = _scenario(doc, closure)
    try:
        expected = reference_outcomes(scn, closure)
    except SizeLimit:
        expected = reference_outcomes(_scenario(doc, "intersections"), "intersections")
        assert {status for status, _, _ in expected.values()} == {"NoSection"}
    for n in ASKED:
        result = Q.ks_search(scn.maximal_contexts, closure, scn.tolerance, max_solutions=n)
        assert outcome(result) == expected[n], (name, n)


def test_the_star_answers_under_both_closures():
    for closure in CLOSURES:
        scn = _scenario(dict(DOCUMENTS)["mermin_star"], closure)
        result = Q.ks_search(scn.maximal_contexts, closure, scn.tolerance)
        assert outcome(result) == ("NoSection", 104, [])


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("dim, sin", [(2, 1.8e-9), (3, 2.5e-9)])
def test_a_knife_edge_cycle_is_refused(dim, sin, closure):
    # In d = 2 the two given contexts meet one to one and lie under each
    # other: the check of the given contexts refuses them before any search.
    # In d = 3 the 2-block context lies under the 3-block one, and the cycle
    # is with a context derived from both; the one maximal context has
    # sections, and the closure that lists them refuses it.
    tol = Tolerance(1e-9)
    maximal = [C.context_from_commuting_set([op], tol)
               for op in _knife_edge_operators(dim, sin)]
    given = C.GivenContexts(maximal, tol)
    if dim == 2:
        with pytest.raises(ValidationError, match=f"^{KNIFE_EDGE_ERROR}$"):
            given.maximal()
    else:
        assert [len(given.ids[i]) for i in given.maximal()] == [3]
    with pytest.raises(ValidationError, match=f"^{KNIFE_EDGE_ERROR}$"):
        Q.ks_search(maximal, closure, tol)


def test_sections_past_the_limit_are_refused(tmp_path):
    # one 8-level observable has 8 sections to list, and its closure under
    # coarsenings passes POSET_LIMIT
    doc = {"dimension": 8, "closure": "coarsenings", "groups": [["A"]],
           "operators": {"A": [[float(i) if i == j else 0.0 for j in range(8)]
                               for i in range(8)]}}
    path = tmp_path / "levels8.json"
    path.write_text(json.dumps(doc))
    assert cli.run_command(["ks", str(path)]) == (
        2, "", f"error: size limit: closure exceeded {C.POSET_LIMIT} contexts\n")
    scn = parse_scenario(json.dumps({**doc, "closure": "intersections"}))
    result = Q.ks_search(scn.maximal_contexts, "intersections", scn.tolerance)
    assert (result.status, len(result.sections)) == ("SectionsExist", 8)


def test_a_listing_builds_the_closure_from_the_given_table(monkeypatch):
    # the given contexts are interned once: a listing closes the table that
    # the search read, and no spectral presheaf is built
    interned, built = [], []
    intern = C.BlockTable.intern

    def counting(self, blocks, parts=None):
        interned.append(parts is None)
        return intern(self, blocks, parts)

    monkeypatch.setattr(C.BlockTable, "intern", counting)
    monkeypatch.setattr(Q, "spectral_presheaf", lambda *a, **k: built.append(a))
    code, out, _ = cli.run_command(["ks", str(SCENARIOS / "pauli2.json")])
    assert code == 0 and json.loads(out)["section_count"] == 8
    assert interned.count(True) == 1 and built == []


@pytest.mark.parametrize("closure", CLOSURES)
def test_assignments_are_built_in_element_order(closure):
    # ``qtopos ks`` renders each section's assignments as built: they must
    # already be in ``poset.base.elements`` order, as ``items_sorted`` reads
    listed = 0
    for name, doc in DOCUMENTS:
        scn = _scenario(doc, closure)
        try:
            result = Q.ks_search(scn.maximal_contexts, closure, scn.tolerance, max_solutions=3)
        except SizeLimit:
            continue
        for sec in result.sections:
            assert tuple(sec.assignments.items()) == sec.items_sorted(), name
            listed += 1
    assert listed > 0
