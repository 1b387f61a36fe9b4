from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import scenario as S
from qtopos.errors import ParseError, ValidationError
from qtopos.numerics import Tolerance, eigensystem
from qtopos.scenario import EIGENVALUE_MATCH, parse_scenario

MINIMAL = '{"dimension": 2, "builtins": ["pauli2"]}'


def _doc(**overrides) -> str:
    doc = {"dimension": 2, "builtins": ["pauli2"]}
    doc.update(overrides)
    return json.dumps(doc)


class TestMinimalDocument:
    def test_builtin_injects_operators(self):
        scn = parse_scenario(MINIMAL)
        assert scn.dimension == 2
        assert sorted(scn.operators) == ["sx", "sy", "sz"]
        assert len(scn.maximal_contexts) == 3
        assert scn.closure == "intersections"
        assert scn.tolerance.eps == 1e-9

    def test_digest_is_stable_content_hash(self):
        first = parse_scenario(MINIMAL)
        second = parse_scenario(MINIMAL)
        other = parse_scenario(_doc(tolerance=1e-8))
        assert first.digest == second.digest
        assert first.digest != other.digest
        assert len(first.digest) == 64


class TestStructuralErrors:
    def test_invalid_json_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_scenario('{"dimension": 2,,}')

    def test_non_object(self):
        with pytest.raises(ParseError):
            parse_scenario("[1, 2]")

    def test_unknown_keys(self):
        with pytest.raises(ParseError, match="mystery"):
            parse_scenario('{"dimension": 2, "mystery": 1}')

    def test_missing_dimension(self):
        with pytest.raises(ParseError, match="dimension"):
            parse_scenario("{}")

    @pytest.mark.parametrize("dim", [0, 17, -1])
    def test_dimension_range(self, dim):
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps({"dimension": dim}))

    def test_dimension_must_be_integer(self):
        with pytest.raises(ParseError):
            parse_scenario('{"dimension": 2.0}')
        with pytest.raises(ParseError):
            parse_scenario('{"dimension": true}')

    def test_nonfinite_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario('{"dimension": 2, "tolerance": NaN}')

    def test_tolerance_validated(self):
        with pytest.raises(ValidationError):
            parse_scenario(_doc(tolerance=0.5))

    def test_closure_validated(self):
        with pytest.raises(ValidationError):
            parse_scenario(_doc(closure="everything"))


class TestMatrixEntries:
    def test_malformed_complex_entry(self):
        text = json.dumps({
            "dimension": 2,
            "operators": {"bad": [[[1], [0, 0]], [[0, 0], [1, 0]]]},
        })
        with pytest.raises(ParseError, match=r"bad\[0\]\[0\]"):
            parse_scenario(text)

    def test_bare_reals_accepted(self):
        text = json.dumps({
            "dimension": 2,
            "operators": {"sz": [[1, 0], [0, -1]]},
            "groups": [["sz"]],
        })
        scn = parse_scenario(text)
        assert np.allclose(scn.operator("sz"), np.diag([1.0, -1.0]))

    def test_complex_pairs_accepted(self):
        text = json.dumps({
            "dimension": 2,
            "operators": {"sy": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]},
        })
        scn = parse_scenario(text)
        assert np.allclose(scn.operator("sy"),
                           np.array([[0, -1j], [1j, 0]]))

    def test_wrong_shape(self):
        text = json.dumps({"dimension": 2, "operators": {"bad": [[1, 0]]}})
        with pytest.raises(ParseError):
            parse_scenario(text)


class TestGroups:
    def test_noncommuting_named(self):
        text = _doc(groups=[["sx", "sz"]])
        with pytest.raises(ValidationError) as info:
            parse_scenario(text)
        message = str(info.value)
        assert "'sx'" in message and "'sz'" in message
        assert "2.8284" in message

    def test_unknown_operator_in_group(self):
        with pytest.raises(ValidationError, match="ghost"):
            parse_scenario(_doc(groups=[["ghost"]]))

    def test_group_builds_context(self):
        scn = parse_scenario(_doc(groups=[["sz"]]))
        labels = [ctx.label for ctx in scn.maximal_contexts]
        assert labels.count("sz") == 2  # builtin plus the explicit group

    def test_trivial_group_rejected(self):
        text = json.dumps({
            "dimension": 2,
            "operators": {"one": [[1, 0], [0, 1]]},
            "groups": [["one"]],
        })
        with pytest.raises(ValidationError):
            parse_scenario(text)


class TestStates:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError, match="norm"):
            parse_scenario(_doc(states={"bad": [1, 1]}))

    def test_vector_entry_paths(self):
        with pytest.raises(ParseError, match=r"states\.bad\[1\]"):
            parse_scenario(_doc(states={"bad": [1, [2]]}))

    def test_good_state(self):
        scn = parse_scenario(_doc(states={"zplus": [1, 0]}))
        assert np.allclose(scn.state("zplus"), [1, 0])

    def test_unknown_lookup(self):
        scn = parse_scenario(MINIMAL)
        with pytest.raises(ValidationError):
            scn.state("nope")
        with pytest.raises(ValidationError):
            scn.operator("nope")


class TestProjectorHelper:
    def test_spectral_projector_from_eigenvalues(self):
        scn = parse_scenario(_doc(
            projectors={"Pzplus": {"operator": "sz", "eigenvalues": [1]}}))
        assert np.allclose(scn.operator("Pzplus"), np.diag([1.0, 0.0]))

    def test_multiple_eigenvalues_sum(self):
        scn = parse_scenario(_doc(
            projectors={"Pall": {"operator": "sz", "eigenvalues": [1, -1]}}))
        assert np.allclose(scn.operator("Pall"), np.eye(2))

    def test_repeated_eigenvalue(self):
        # 1 and 1 + 1e-7 both match the +1 eigenprojector of sz
        for values in ([1, 1], [1, -1, 1 + 1e-7]):
            with pytest.raises(ValidationError, match="'Pdup'"):
                parse_scenario(_doc(
                    projectors={"Pdup": {"operator": "sz", "eigenvalues": values}}))

    def test_unknown_eigenvalue(self):
        with pytest.raises(ValidationError, match="0.5"):
            parse_scenario(_doc(
                projectors={"bad": {"operator": "sz", "eigenvalues": [0.5]}}))

    @pytest.mark.parametrize("tolerance", [1e-12, 1e-9, 1e-4])
    def test_eigenvalue_match_ignores_the_tolerance(self, tolerance):
        def projector(value):
            return parse_scenario(_doc(tolerance=tolerance, projectors={
                "P": {"operator": "sz", "eigenvalues": [value]}})).operator("P")

        for inside in (1 + 0.9 * EIGENVALUE_MATCH, 1 - 0.9 * EIGENVALUE_MATCH):
            assert np.allclose(projector(inside), np.diag([1.0, 0.0]))
        for outside in (1 + 1.1 * EIGENVALUE_MATCH, 1 - 1.1 * EIGENVALUE_MATCH):
            with pytest.raises(ValidationError, match="has no eigenvalue within"):
                projector(outside)

    def test_unknown_source_operator(self):
        with pytest.raises(ValidationError, match="ghost"):
            parse_scenario(_doc(
                projectors={"bad": {"operator": "ghost", "eigenvalues": [1]}}))

    def test_shape_of_helper_node(self):
        with pytest.raises(ParseError):
            parse_scenario(_doc(projectors={"bad": {"operator": "sz"}}))


class TestNameCollisions:
    def test_duplicate_operator(self):
        text = json.dumps({
            "dimension": 2,
            "builtins": ["pauli2"],
            "operators": {"sz": [[1, 0], [0, -1]]},
        })
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scenario(text)

    def test_builtin_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            parse_scenario('{"dimension": 4, "builtins": ["pauli2"]}')

    def test_unknown_builtin(self):
        with pytest.raises(Exception):
            parse_scenario('{"dimension": 2, "builtins": ["nonsense"]}')



SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
# The pauli2 lines name sx, sy and sz; the groups name the projectors 'Pz'
# (from 'sz') and 'Px' (from 'sx'), 'Px' twice, and 'sz' again: five
# distinct operators.
WITH_PROJECTORS = _doc(
    projectors={"Pz": {"operator": "sz", "eigenvalues": [1]},
                "Px": {"operator": "sx", "eigenvalues": [-1]}},
    groups=[["Pz"], ["Px", "Px"], ["sz", "Pz"]])


@pytest.mark.parametrize("text, distinct", [
    ((SCENARIOS / "mermin_square.json").read_text(encoding="utf-8"), 9),
    ((SCENARIOS / "two_qubit_parity.json").read_text(encoding="utf-8"), 4),
    (WITH_PROJECTORS, 5),
], ids=["mermin_square", "two_qubit_parity", "projectors-in-groups"])
def test_one_eigensystem_per_named_operator(text, distinct, monkeypatch):
    """Groups, builtin lines and projectors share each operator's spectrum:
    the Mermin square's 6 lines of 3 and its 2 projectors take 9, not 20."""
    calls = []

    def counting(matrix, tol=Tolerance()):
        calls.append(1)
        return eigensystem(matrix, tol)

    for module in (C, S):
        monkeypatch.setattr(module, "eigensystem", counting)
    parse_scenario(text)
    assert len(calls) == distinct
