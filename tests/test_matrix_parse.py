"""The one-array parse of matrices and vectors agrees with the per-entry walk.

``reference_entry``, ``reference_matrix`` and ``reference_vector`` below are
the earlier entry-by-entry parsers, kept verbatim but for their names.  On
accepted input ``scenario._matrix`` and ``scenario._vector`` must give the
same bits (a -0.0 stays a -0.0); on rejected input the same exception type,
message and JSON path.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtopos import scenario as S
from qtopos.errors import ParseError
from qtopos.scenario import _is_number, _real


def reference_entry(node, path: str) -> complex:
    if _is_number(node):
        return complex(_real(node, path))
    if (isinstance(node, list) and len(node) == 2
            and all(_is_number(part) for part in node)):
        return complex(_real(node[0], path), _real(node[1], path))
    raise ParseError(f"malformed complex entry {node!r}", path)


def reference_matrix(node, dim: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"expected a {dim}x{dim} matrix", path)
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"expected a row of {dim} entries", f"{path}[{i}]")
        rows.append([reference_entry(cell, f"{path}[{i}][{j}]")
                     for j, cell in enumerate(row)])
    return np.array(rows, dtype=complex)


def reference_vector(node, dim: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"expected a vector of {dim} entries", path)
    return np.array([reference_entry(cell, f"{path}[{i}]")
                     for i, cell in enumerate(node)], dtype=complex)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ParseError as exc:
        return exc


def assert_same_parse(node, dim: int, vector: bool) -> None:
    """Bit-equal arrays, or the same error at the same path."""
    new_fn, old_fn = (S._vector, reference_vector) if vector else (S._matrix, reference_matrix)
    new = _outcome(new_fn, node, dim, "operators.A")
    old = _outcome(old_fn, node, dim, "operators.A")
    if isinstance(old, ParseError):
        assert type(new) is type(old), (new, old)
        assert (str(new), new.position) == (str(old), old.position)
        return
    assert not isinstance(new, Exception), new
    assert new.shape == old.shape and new.dtype == old.dtype == complex
    assert np.array_equal(np.ascontiguousarray(new).view(np.uint64),
                          old.view(np.uint64))


BIG = [2**53 + 1, -(2**53 + 3), 2**63 + 1, -(2**64 + 7), 10**300]
NUMBERS = st.one_of(st.integers(-2**70, 2**70), st.sampled_from(BIG + [0, -0.0, 0.0]),
                    st.floats(allow_nan=False, allow_infinity=False))
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
BAD_CELLS = st.sampled_from([True, False, [True, 1], [0.5, False], "1", ["1", 0],
                             None, [None, 0], [1, 2, 3], [1], [], 10**400,
                             [1, -10**400], [[1, 2], 3], {}])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dim=st.integers(1, 4), vector=st.booleans(),
       cells=st.sampled_from(["bare", "pairs", "mixed"]),
       fault=st.sampled_from(["none", "cell", "short-row", "long-row", "row",
                              "short-outer", "long-outer"]))
def test_fast_parse_matches_the_walk(data, dim, vector, cells, fault):
    cell = {"bare": NUMBERS, "pairs": PAIRS, "mixed": st.one_of(NUMBERS, PAIRS)}[cells]
    row = st.lists(cell, min_size=dim, max_size=dim)
    node = data.draw(row if vector else st.lists(row, min_size=dim, max_size=dim))
    if fault == "cell":
        i = data.draw(st.integers(0, dim - 1))
        bad = data.draw(BAD_CELLS)
        if vector:
            node[i] = bad
        else:
            node[i][data.draw(st.integers(0, dim - 1))] = bad
    elif fault in ("short-row", "long-row", "row") and not vector:
        i = data.draw(st.integers(0, dim - 1))
        node[i] = {"short-row": node[i][:-1], "long-row": node[i] + [0],
                   "row": 1.0}[fault]
    elif fault == "short-outer":
        node = node[:-1]
    elif fault == "long-outer":
        node = node + [node[0]]
    assert_same_parse(node, dim, vector)


@pytest.mark.parametrize("node", [
    [[1, -0.0], [0.0, 2**53 + 1]],
    [[[-0.0, -0.0], [0, 1]], [[2**64 + 1, -2**63 - 1], [0.5, -0.0]]],
    [[1, [0, 1]], [[0, -1], -0.0]],
    [[True, 0], [0, 1]],
    [[[1, True], 0], [0, 1]],
    [[1, "0"], [0, 1]],
    [[1, None], [0, 1]],
    [[[1, 2, 3], 0], [0, 1]],
    [[1, 0], [0]],
    [[1, 0]],
    [[1, 0], [0, 1], [0, 0]],
    [[1, 10**400], [0, 1]],
    [[1, [0, -10**400]], [0, 1]],
    [[1, 0], [10**400, True]],
], ids=["bare", "pairs", "mixed", "true", "true-in-pair", "string", "null",
        "three-part-cell", "short-row", "short-outer", "long-outer",
        "past-float-range", "past-float-range-in-pair", "overflow-before-bool"])
def test_named_cases(node):
    assert_same_parse(node, 2, vector=False)
    assert_same_parse(node[0], 2, vector=True)


@pytest.mark.parametrize("node, plain", [
    ([[1, -0.0], [0.0, 2**64 + 1]], True),
    ([[[1, 0], [0, 1]], [[0, -1], [2.5, 0]]], True),
    ([[1, [0, 1]], [[0, -1], 1]], False),
    ([[True, 0], [0, 1]], False),
    ([[1, 10**400], [0, 1]], False),
], ids=["bare", "pairs", "mixed", "bool", "past-float-range"])
def test_plain_matrices_take_the_one_array_path(node, plain):
    assert (S._plain(node, (2, 2)) is not None) == plain
