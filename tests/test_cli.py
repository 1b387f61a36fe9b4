from __future__ import annotations

import hashlib
import json
import pathlib
import time
import warnings

import pytest

from qtopos import cli, quantum

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
PAULI2 = str(SCENARIOS / "pauli2.json")
MERMIN = str(SCENARIOS / "mermin_square.json")
PARITY = str(SCENARIOS / "two_qubit_parity.json")
DEPTH = 10_000


def _run(argv):
    code, out, err = cli.run_command(argv)
    doc = json.loads(out) if out else None
    return code, doc, err


class TestValidate:
    def test_pauli2_report(self):
        code, doc, err = _run(["validate", PAULI2])
        assert code == 0 and err == ""
        assert doc["command"] == "validate"
        assert doc["dimension"] == 2
        assert doc["closure"] == "intersections"
        assert doc["operators"] == ["Pxplus", "Pzplus", "sx", "sy", "sz"]
        assert doc["states"] == ["xplus", "zplus"]
        assert [c["label"] for c in doc["maximal_contexts"]] == ["sx", "sy", "sz"]
        assert all(c["block_ranks"] == [1, 1] for c in doc["maximal_contexts"])

    def test_digest_is_sha256_of_file_text(self):
        code, doc, _ = _run(["validate", PAULI2])
        text = pathlib.Path(PAULI2).read_text()
        assert doc["scenario_digest"] == hashlib.sha256(text.encode()).hexdigest()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2,}')
        code, doc, err = _run(["validate", str(bad)])
        assert code == 1 and doc is None
        assert "invalid JSON" in err

    def test_missing_file(self, tmp_path):
        code, doc, err = _run(["validate", str(tmp_path / "nope.json")])
        assert code == 1 and "cannot read" in err

    def test_validation_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2, "builtins": ["pauli2"],'
                       ' "groups": [["sx", "sz"]]}')
        code, doc, err = _run(["validate", str(bad)])
        assert code == 1
        assert "do not commute" in err

    @pytest.mark.parametrize("command", ["validate", "poset", "ks"])
    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_deeply_nested_document(self, tmp_path, command, depth):
        # json.loads recurses once per level of nesting
        deep = tmp_path / "deep.json"
        deep.write_text('{"dimension": 2, "operators": {"a": '
                        + "[" * depth + "]" * depth + "}}")
        assert cli.run_command([command, str(deep)]) == (
            1, "", "error: invalid JSON: nested too deeply (at document)\n")


class TestPoset:
    def test_pauli2_antichain(self):
        code, doc, _ = _run(["poset", PAULI2])
        assert code == 0
        assert doc["context_count"] == 3
        assert [c["id"] for c in doc["contexts"]] == ["V00", "V01", "V02"]
        assert sorted(c["label"] for c in doc["contexts"]) == ["sx", "sy", "sz"]
        assert doc["relation"] == []

    def test_mermin_square_closure(self):
        code, doc, _ = _run(["poset", MERMIN])
        assert code == 0
        assert doc["context_count"] == 15
        ranks = sorted(len(c["block_ranks"]) for c in doc["contexts"])
        assert ranks == [2] * 9 + [4] * 6
        assert len(doc["relation"]) == 18
        ids = {c["id"] for c in doc["contexts"]}
        assert all(lo in ids and hi in ids for lo, hi in doc["relation"])

    def test_parity_scenario(self):
        code, doc, _ = _run(["poset", PARITY])
        assert code == 0
        assert doc["context_count"] == 3
        assert doc["relation"] == [["V00", "V01"], ["V00", "V02"]]


class TestDaseinise:
    def test_outer_blocks(self):
        code, doc, _ = _run(["daseinise", PAULI2, "--projector", "Pzplus"])
        assert code == 0
        assert doc["variant"] == "outer"
        assert [c["blocks"] for c in doc["per_context"]] == [[1], [0, 1], [0, 1]]

    def test_inner_blocks(self):
        code, doc, _ = _run(
            ["daseinise", PAULI2, "--projector", "Pzplus", "--inner"])
        assert doc["variant"] == "inner"
        assert [c["blocks"] for c in doc["per_context"]] == [[1], [], []]

    def test_matrix_entries_are_real_imag_pairs(self):
        _, doc, _ = _run(["daseinise", PAULI2, "--projector", "Pzplus"])
        own = doc["per_context"][0]["matrix"]
        assert own == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

    def test_unknown_projector(self):
        code, _, err = _run(["daseinise", PAULI2, "--projector", "nope"])
        assert code == 1 and "nope" in err


class TestTruth:
    def test_certain_proposition(self):
        code, doc, _ = _run(["truth", PAULI2, "--state", "zplus",
                             "--projector", "Pzplus", "--via", "pseudo-state"])
        assert code == 0
        assert doc["truth_value"] == ["V00", "V01", "V02"]
        assert doc["totally_true"] is True

    def test_partial_proposition(self):
        code, doc, _ = _run(["truth", PAULI2, "--state", "zplus",
                             "--projector", "Pxplus", "--via", "truth-object"])
        assert code == 0
        assert doc["truth_value"] == ["V00", "V02"]
        assert doc["totally_true"] is False
        holds = {c["id"]: c["holds"] for c in doc["per_context"]}
        assert holds == {"V00": True, "V01": False, "V02": True}

    def test_routes_agree(self):
        _, via_state, _ = _run(["truth", PAULI2, "--state", "zplus",
                                "--projector", "Pxplus", "--via", "pseudo-state"])
        _, via_tobj, _ = _run(["truth", PAULI2, "--state", "zplus",
                               "--projector", "Pxplus", "--via", "truth-object"])
        assert via_state["truth_value"] == via_tobj["truth_value"]
        assert via_state["per_context"] == via_tobj["per_context"]

    def test_bad_via(self):
        code, _, err = _run(["truth", PAULI2, "--state", "zplus",
                             "--projector", "Pzplus", "--via", "magic"])
        assert code == 1 and "magic" in err

    def test_overflowing_state_norm_prints_one_error_line(self, tmp_path):
        # the norm of a state entry near the float limit overflows to inf;
        # numpy's overflow warning must not reach stderr
        doc = json.loads(pathlib.Path(PAULI2).read_text())
        doc["states"]["zplus"] = [[1e300, 0], [0, 0]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["validate", str(path)],
                         ["truth", str(path), "--state", "zplus",
                          "--projector", "Pzplus", "--via", "pseudo-state"]):
                code, out, err = cli.run_command(argv)
                assert (code, out) == (1, "")
                assert err == ("error: state 'zplus' has norm inf, "
                               "not 1 within tolerance\n")

    def test_state_just_inside_the_norm_tolerance(self, tmp_path):
        # norm 1 - 0.9e-9 passes the check; unnormalised, its weights would
        # sum to 1 - 1.8e-9 and miss the truth object's 1 - eps filter
        doc = json.loads(pathlib.Path(PAULI2).read_text())
        doc["states"]["edge"] = [[1 - 0.9e-9, 0], [0, 0]]
        path = str(tmp_path / "edge.json")
        pathlib.Path(path).write_text(json.dumps(doc))
        assert _run(["validate", path])[0] == 0
        docs = []
        for via in ("pseudo-state", "truth-object"):
            code, out, err = _run(["truth", path, "--state", "edge",
                                   "--projector", "Pzplus", "--via", via])
            assert (code, err) == (0, "")
            docs.append(out)
        assert docs[0]["truth_value"] == docs[1]["truth_value"] == [
            "V00", "V01", "V02"]
        assert docs[0]["per_context"] == docs[1]["per_context"]


class TestEmptyPoset:
    """A scenario with no groups and no builtins closes to an empty poset."""

    @pytest.fixture
    def empty(self, tmp_path):
        doc = json.loads(pathlib.Path(PARITY).read_text())
        del doc["groups"]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["truth", "--state", "bell", "--projector", "Peven", "--via", "pseudo-state"],
        ["truth", "--state", "bell", "--projector", "Peven", "--via", "truth-object"],
        ["heyting", "--expr", "Peven | !Peven", "--state", "bell"],
    ])
    def test_state_commands_name_the_empty_poset(self, empty, argv):
        code, doc, err = _run([argv[0], empty, *argv[1:]])
        assert code == 1 and doc is None
        assert "empty poset" in err


class TestKs:
    def test_pauli2_sections(self):
        code, doc, _ = _run(["ks", PAULI2])
        assert code == 0
        assert doc["status"] == "SectionsExist"
        assert doc["section_count"] == 8
        expected = [{"V00": a, "V01": b, "V02": c}
                    for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        assert doc["sections"] == expected

    def test_max_solutions_truncates(self):
        code, doc, _ = _run(["ks", PAULI2, "--max-solutions", "3"])
        assert code == 0
        assert doc["section_count"] == 3
        assert len(doc["sections"]) == 3

    def test_mermin_obstruction(self):
        code, doc, _ = _run(["ks", MERMIN])
        assert code == 0
        assert doc["status"] == "NoSection"
        assert doc["section_count"] == 0
        assert doc["sections"] == []
        assert doc["nodes_explored"] == 412

    @pytest.mark.parametrize("scenario, max_solutions, nodes", [
        (PAULI2, 1, 3), (PAULI2, 3, 6), (PAULI2, 8, 14),
        (PARITY, 1, 5), (PARITY, 3, 10), (PARITY, 8, 28)])
    def test_nodes_explored_on_early_stop(self, scenario, max_solutions, nodes):
        code, doc, _ = _run(["ks", scenario, "--max-solutions", str(max_solutions)])
        assert code == 0
        assert doc["nodes_explored"] == nodes

    def test_mermin_coarsenings_has_no_section(self, tmp_path):
        # 75 contexts: searching only the 6 maximal ones stays far below the cap
        doc = json.loads(pathlib.Path(MERMIN).read_text())
        doc["closure"] = "coarsenings"
        path = tmp_path / "mermin_coarsenings.json"
        path.write_text(json.dumps(doc))
        code, doc, err = _run(["ks", str(path)])
        assert code == 0, err
        assert doc["status"] == "NoSection"
        assert doc["nodes_explored"] == 2196

    def test_node_limit_is_size_error(self, monkeypatch):
        monkeypatch.setattr(quantum, "KS_NODE_LIMIT", 10)
        code, doc, err = _run(["ks", MERMIN])
        assert code == 2 and doc is None
        assert "size limit" in err


class TestHeyting:
    def test_excluded_middle_on_antichain(self):
        code, doc, _ = _run(["heyting", PAULI2, "--expr", "Pzplus | !Pzplus",
                             "--state", "zplus"])
        assert code == 0
        assert doc["totally_true"] is True
        assert [c["blocks"] for c in doc["subobject"]] == [[0, 1]] * 3

    def test_implication(self):
        code, doc, _ = _run(["heyting", PAULI2, "--expr", "Pzplus => Pxplus",
                             "--state", "zplus"])
        assert code == 0
        assert doc["truth_value"] == ["V00", "V02"]
        assert [c["blocks"] for c in doc["subobject"]] == [[0, 1], [1], [0, 1]]

    def test_unknown_name_in_expr(self):
        code, _, err = _run(["heyting", PAULI2, "--expr", "P & Q",
                             "--state", "zplus"])
        assert code == 1 and "'P'" in err

    def test_syntax_error_gives_column(self):
        code, _, err = _run(["heyting", PAULI2, "--expr", "Pzplus &",
                             "--state", "zplus"])
        assert code == 1 and "column 9" in err

    # Each deep expression equals a shallow one in any Heyting algebra:
    # !!!!p = !!p, a chain of & or | is idempotent, and
    # a => (b => c) = (a & b) => c.
    @pytest.mark.parametrize("deep, shallow", [
        ("(" * DEPTH + "Pzplus" + ")" * DEPTH, "Pzplus"),
        ("!" * DEPTH + "Pzplus", "!!Pzplus"),
        (" & ".join(["Pzplus", "Pxplus"] * (DEPTH // 2)), "Pzplus & Pxplus"),
        (" | ".join(["Pzplus", "Pxplus"] * (DEPTH // 2)), "Pzplus | Pxplus"),
        (" => ".join(["Pzplus", "Pxplus"] * (DEPTH // 2)),
         "Pzplus & Pxplus => Pxplus"),
    ], ids=["parentheses", "negations", "and", "or", "implies"])
    def test_deep_expression_answers(self, deep, shallow):
        start = time.perf_counter()
        answers = []
        for expr in (deep, shallow):
            code, doc, err = _run(["heyting", PAULI2, "--expr", expr,
                                   "--state", "xplus"])
            assert code == 0, err
            answers.append((doc["subobject"], doc["truth_value"]))
        assert answers[0] == answers[1]
        assert time.perf_counter() - start < 60


class TestKernelDemo:
    def test_chain2_structure(self):
        code, doc, _ = _run(["kernel-demo", "--poset", "chain2"])
        assert code == 0
        assert doc["elements"] == ["bottom", "top"]
        assert doc["omega_sizes"] == {"bottom": 2, "top": 3}
        assert doc["subobjects_of_terminal"] == 3
        assert doc["global_elements_of_omega"] == 3
        em = doc["excluded_middle"]
        assert em["witness_found"] is True
        assert em["subobject"] == {"bottom": ["*"], "top": []}
        assert em["negation"] == {"bottom": [], "top": []}
        assert em["join"] == em["subobject"]
        assert em["join"] != em["whole"]
        assert em["double_negation"] == em["whole"]

    def test_antichain3_is_boolean(self):
        code, doc, _ = _run(["kernel-demo", "--poset", "antichain3"])
        assert code == 0
        assert doc["omega_sizes"] == {"a": 2, "b": 2, "c": 2}
        assert doc["subobjects_of_terminal"] == 8
        assert doc["global_elements_of_omega"] == 8
        assert doc["excluded_middle"] == {"witness_found": False}

    def test_rejects_scenario_argument(self):
        code, _, err = _run(["kernel-demo", PAULI2, "--poset", "chain2"])
        assert code == 1 and "unrecognized" in err


class TestCliContract:
    def test_unknown_subcommand(self):
        code, doc, err = _run(["frobnicate", PAULI2])
        assert code == 1 and doc is None and "invalid choice" in err

    def test_missing_required_flag(self):
        code, _, err = _run(["truth", PAULI2, "--state", "zplus",
                             "--projector", "Pzplus"])
        assert code == 1 and "--via" in err

    def test_no_arguments(self):
        code, _, err = _run([])
        assert code == 1 and "command" in err

    @pytest.mark.parametrize("argv", [
        ["validate", PAULI2],
        ["poset", MERMIN],
        ["daseinise", PAULI2, "--projector", "Pxplus"],
        ["truth", PARITY, "--state", "bell", "--projector", "Peven",
         "--via", "truth-object"],
        ["ks", MERMIN],
        ["heyting", PAULI2, "--expr", "!Pzplus => Pxplus", "--state", "xplus"],
        ["kernel-demo", "--poset", "chain2"],
    ])
    def test_repeated_runs_are_byte_identical(self, argv):
        first = cli.run_command(argv)
        second = cli.run_command(argv)
        assert first == second
        assert first[0] == 0

    def test_output_ends_with_newline(self):
        _, out, _ = cli.run_command(["validate", PAULI2])
        assert out.endswith("\n")

    def test_no_negative_zero_in_reports(self):
        _, out, _ = cli.run_command(
            ["daseinise", MERMIN, "--projector", "Pxx_plus"])
        assert "-0.0" not in out
