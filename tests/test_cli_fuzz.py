"""Mutated scenario documents end in an answer, exit 1 or exit 2: never a
traceback.

Each draw takes one bundled scenario, applies a few mutations (drop a key or
item, swap a value's type, perturb a number, rename a reference, retype a
matrix row or a complex entry) and runs
every scenario command on it through ``cli.run_command``, with names taken
from the unmutated document; the projector and state commands run only when
it names them, so a copy of ``cabello18`` without projectors or states is
fuzzed too.  A second test runs that copy unmutated, through these commands
and through the runs ``tools/cli_corpus.py`` lists for it.  The last test
runs ``heyting`` on ``pauli2`` with expressions, well formed or not, nested
up to 10,000 levels deep.
"""
from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
_SPEC = importlib.util.spec_from_file_location("cli_corpus",
                                               ROOT / "tools" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_corpus)
DOCUMENTS = {path.name: json.loads(path.read_text())
             for path in sorted(SCENARIOS.glob("*.json"))}
# a KS set as it may be bundled: operators and groups only
BARE = {key: value for key, value in DOCUMENTS["cabello18.json"].items()
        if key not in ("projectors", "states")}
FUZZED = {**DOCUMENTS, "cabello18-bare.json": BARE}
OTHER_TYPES = (None, True, "x", 0, -1, 2.5, [], {}, [[1, 0]], {"x": 1})
MUTATIONS = ("drop", "swap type", "perturb number", "rename reference",
             "retype matrix part")
# a matrix row that is no list, a complex entry that is no [re, im] pair
ROW_SWAPS = (0, 2.5, "x", "ab")
ENTRY_SWAPS = ("x", [1, 2, 3], None)


def _paths(node, path=()):
    """Every path to a value inside ``node``, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _names(doc) -> list:
    """Every dict key and string in ``doc``: the names a document uses."""
    found = set()
    for path in _paths(doc):
        found.update(x for x in (path[-1], _at(doc, path)) if isinstance(x, str))
    return sorted(found)


def _matrix_part(path) -> tuple:
    """The replacements for a matrix row or a complex entry at ``path``."""
    if path[0] == "operators" and len(path) == 3:
        return ROW_SWAPS
    if (path[0], len(path)) in (("operators", 4), ("states", 3)):
        return ENTRY_SWAPS
    return ()


def _applies(kind, doc, path) -> bool:
    value = _at(doc, path)
    if kind == "retype matrix part":
        return bool(_matrix_part(path))
    if kind == "perturb number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "rename reference":  # a name, or the key of a named entry
        return isinstance(value, str) or isinstance(_at(doc, path[:-1]), dict)
    return True


def _mutate(doc, rng: random.Random) -> None:
    kind = rng.choice(MUTATIONS)
    paths = [path for path in _paths(doc) if _applies(kind, doc, path)]
    if not paths:
        return
    # one depth first, so top-level keys are hit as often as matrix cells
    depth = rng.choice(sorted({len(path) for path in paths}))
    path = rng.choice([path for path in paths if len(path) == depth])
    parent, key = _at(doc, path[:-1]), path[-1]
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "swap type":
        parent[key] = rng.choice(OTHER_TYPES)
    elif kind == "perturb number":
        parent[key] = rng.choice((value + 1e-3, -value, value * 1e6, 0, 17, 1e300))
    elif kind == "retype matrix part":
        parent[key] = rng.choice(_matrix_part(path))
    else:
        name = rng.choice(_names(doc) + ["nope"])
        if isinstance(value, str):
            parent[key] = name
        else:
            parent[name] = parent.pop(key)


def _commands(path: str, original: dict, rng: random.Random) -> list[list[str]]:
    """``validate``, ``poset`` and ``ks``, then the projector and state
    commands for the names ``original`` has."""
    argvs = [["validate", path], ["poset", path],
             ["ks", path, "--max-solutions", "8"]]
    projectors = sorted(original.get("projectors", {}))
    if not projectors:
        return argvs
    first, second = projectors[0], projectors[-1]
    via = rng.choice(["pseudo-state", "truth-object"])
    inner = rng.choice([[], ["--inner"]])
    for state in sorted(original.get("states", {}))[:1]:
        argvs += [["truth", path, "--state", state, "--projector", first,
                   "--via", via],
                  ["heyting", path, "--expr", f"{first} => !{second}",
                   "--state", state]]
    return argvs + [["daseinise", path, "--projector", second, *inner]]


# A state entry near the float limit overflows numpy's norm on its way to
# the unit-norm check, which then rejects the state with exit 1.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(FUZZED)), seed=st.integers(0, 2 ** 32 - 1))
def test_mutated_scenarios_end_in_an_answer_or_an_error(name, seed):
    rng = random.Random(seed)
    original = FUZZED[name]
    doc = json.loads(json.dumps(original))
    for _ in range(rng.randint(1, 3)):
        _mutate(doc, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / name)
        pathlib.Path(path).write_text(json.dumps(doc))
        for argv in _commands(path, original, rng):
            code, out, err = cli.run_command(argv)
            assert code in (0, 1, 2), (argv, doc)
            assert (code == 0) == bool(out) and (code == 0) != bool(err)


def test_a_scenario_without_projectors_or_states_runs():
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "bare.json")
        pathlib.Path(path).write_text(json.dumps(BARE))
        argvs = _commands(path, BARE, random.Random(0))
        assert [argv[0] for argv in argvs] == ["validate", "poset", "ks"]
        corpus = cli_corpus._runs(path, BARE, [])
        assert [argv[0] for argv in corpus] == ["validate", "poset", "ks", "ks"]
        for argv in argvs + corpus:
            assert cli.run_command(argv)[0] == 0, argv


PAULI2 = str(SCENARIOS / "pauli2.json")
# the document's projectors, a name it lacks, and an operator that is not a
# projector
LEAVES = [*sorted(DOCUMENTS["pauli2.json"]["projectors"]), "nope", "sx"]
_SYMBOLS = ["!", "&", "|", "=>", "(", ")"]
_GRAMMATICAL = st.recursive(
    st.sampled_from(LEAVES),
    lambda inner: st.one_of(
        inner.map(lambda text: "!" + text),
        inner.map(lambda text: f"({text})"),
        st.tuples(inner, st.sampled_from([" & ", " | ", " => "]),
                  inner).map("".join)),
    max_leaves=6)
_NOISE = st.lists(st.sampled_from(_SYMBOLS + LEAVES), max_size=2).map(" ".join)
# a well-formed expression with up to two stray tokens on either side
_BODY = st.tuples(_NOISE, _GRAMMATICAL, _NOISE).map(" ".join)
# depth 300 already overflows a recursive parser or evaluator
_NESTING = st.tuples(st.sampled_from([0, 1, 2, 300, 10_000]),
                     st.sampled_from([("(", ")"), ("!", ""), ("!(", ")")]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(body=_BODY, nesting=_NESTING,
       state=st.sampled_from(["zplus", "xplus"]))
def test_expressions_end_in_an_answer_or_an_error(body, nesting, state):
    depth, (opener, closer) = nesting
    expr = opener * depth + body + closer * depth
    code, out, err = cli.run_command(["heyting", PAULI2, "--expr", expr,
                                      "--state", state])
    assert code in (0, 1)
    assert (code == 0) == bool(out) and (code == 0) != bool(err)
