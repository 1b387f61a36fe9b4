"""The CLI's report renderer writes what ``json.dumps(x, indent=2)`` writes.

``cli._render`` replaces that call: with ``indent``, Python's ``json`` uses
its pure-Python encoder.  Reports are trees of dicts with str keys, lists,
str, int, float, bool and None; the trees drawn here cover those, with
non-ASCII and escaped strings and the float edge cases.
"""
from __future__ import annotations

import json
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import cli

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324,
                                        1e-09, 0.1, 1e16, 123456789012.0])
ATOMS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
         | FLOATS | st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00", "é✓😀", "/"]))
TREES = st.recursive(ATOMS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                     max_leaves=30)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_render_is_json_dumps_indent_2(tree):
    assert cli._render(tree) == json.dumps(tree, indent=2)


def test_render_of_reports():
    for argv in (["poset", str(SCENARIOS / "mermin_square.json")],
                 ["ks", str(SCENARIOS / "pauli2.json")],
                 ["daseinise", str(SCENARIOS / "pauli2.json"), "--projector", "Pxplus"],
                 ["kernel-demo", "--poset", "chain2"]):
        code, out, _ = cli.run_command(argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
