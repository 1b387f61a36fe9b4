from __future__ import annotations

import hashlib
import json
import pathlib
import time
import warnings

import pytest

from qtopos import cli, numerics, props, quantum
from qtopos.scenario import parse_scenario

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

    def test_file_that_is_not_utf8(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"dimension": 2}')
        code, doc, err = _run(["validate", str(bad)])
        assert code == 1 and doc is None
        assert err == ("error: scenario file is not UTF-8: invalid start byte "
                       f"(at {bad})\n")

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

    @pytest.mark.parametrize("field, path", [
        ('"operators": {"a": [[BIG, 0], [0, 1]]}', "operators.a[0][0]"),
        ('"states": {"s": [[1, BIG], 0]}', "states.s[0]"),
        ('"tolerance": BIG', "tolerance"),
        ('"projectors": {"P": {"operator": "sz", "eigenvalues": [BIG]}}',
         "projectors.P.eigenvalues[0]"),
    ], ids=["operator", "state", "tolerance", "eigenvalue"])
    def test_number_beyond_float_range(self, tmp_path, field, path):
        doc = tmp_path / "big.json"
        doc.write_text('{"dimension": 2, "builtins": ["pauli2"], '
                       + field.replace("BIG", str(10 ** 400)) + "}")
        assert cli.run_command(["validate", str(doc)]) == (
            1, "", f"error: number beyond float range (at {path})\n")

    @pytest.mark.parametrize("operators, groups, projectors", [
        ({"A": [[1e200, 0], [0, -1e200]], "B": [[0, 1e200], [1e200, 0]]},
         [["A", "B"]], {}),
        ({"A": [[1e300, 0], [0, 1]]}, [["A"]], {}),
        ({"A": [[1e300, 0], [0, 1]]}, [], {"P": {"operator": "A", "eigenvalues": [1]}}),
    ], ids=["non-commuting-pair", "alone", "projector-source"])
    def test_operator_past_the_float_limit(self, tmp_path, operators, groups,
                                           projectors):
        # Its squared Frobenius norm overflows: the pair's commutator norm is
        # not a number and the gap between eigenvalues is inf, so each used
        # to pass as the trivial algebra after numpy's overflow warnings.
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"dimension": 2, "operators": operators,
                                   "groups": groups, "projectors": projectors}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = cli.run_command(["validate", str(doc)])
        assert (code, out) == (1, "")
        assert err == ("error: operator 'A' is too large: its squared "
                       "Frobenius norm overflows float64\n")

    def test_operator_near_the_float_limit_validates(self, tmp_path):
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"dimension": 2, "groups": [["A"]],
                                   "operators": {"A": [[1e150, 0], [0, 1]]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, err = _run(["validate", str(doc)])
        assert (code, err) == (0, "")
        assert report["maximal_contexts"][0]["block_ranks"] == [1, 1]

    def test_integer_with_too_many_digits(self, tmp_path):
        # json.loads raises a bare ValueError past int()'s 4300-digit limit
        doc = tmp_path / "long.json"
        doc.write_text('{"dimension": 2, "tolerance": ' + "1" * 5000 + "}")
        assert cli.run_command(["validate", str(doc)]) == (
            1, "", "error: invalid JSON: integer has too many digits"
                   " (at document)\n")


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

    @pytest.mark.parametrize("name, code, message", [
        ("nosuch", 1, "unknown operator 'nosuch'"),
        ("A", 1, "A is not a projector within tolerance"),
        ("P0", 2, "size limit: closure exceeded 4096 contexts"),
    ])
    def test_projector_is_checked_before_the_poset(self, tmp_path, name, code,
                                                   message):
        # the coarsenings of one 8-level observable trip POSET_LIMIT at once
        doc = {"dimension": 8, "closure": "coarsenings", "groups": [["A"]],
               "operators": {"A": [[float(i) if i == j else 0.0 for j in range(8)]
                                   for i in range(8)]},
               "projectors": {"P0": {"operator": "A", "eigenvalues": [0]}}}
        path = tmp_path / "levels8.json"
        path.write_text(json.dumps(doc))
        assert cli.run_command(["daseinise", str(path), "--projector", name]) == (
            code, "", f"error: {message}\n")


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


class TestEachProjectorIsCheckedOnce:
    """``daseinise`` and ``truth`` check the named projector before building
    the poset; ``quantum`` checks it again, which the remembered verdict
    answers without a second ``_projector_ok``.  The pseudo-state route
    also checks the state's own projector, once."""

    @pytest.fixture
    def checked(self, monkeypatch):
        numerics._accepted.clear()
        seen, check = [], numerics._projector_ok

        def counting(p, tol):
            seen.append(p.tobytes())
            return check(p, tol)

        monkeypatch.setattr(numerics, "_projector_ok", counting)
        yield seen
        numerics._accepted.clear()

    @pytest.mark.parametrize("argv, checks", [
        (["daseinise", MERMIN, "--projector", "Pzz_plus"], 1),
        (["daseinise", MERMIN, "--projector", "Pzz_plus", "--inner"], 1),
        (["truth", MERMIN, "--state", "bell", "--projector", "Pxx_plus",
          "--via", "truth-object"], 1),
        (["truth", MERMIN, "--state", "bell", "--projector", "Pxx_plus",
          "--via", "pseudo-state"], 2),
    ])
    def test_one_check_per_projector(self, argv, checks, checked):
        assert cli.run_command(argv)[0] == 0
        named = parse_scenario(pathlib.Path(MERMIN).read_text()).operator(
            argv[argv.index("--projector") + 1])
        assert checked.count(named.tobytes()) == 1
        assert len(checked) == len(set(checked)) == checks


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

    @pytest.mark.parametrize("huge", [2 ** 63, 10 ** 30])
    def test_max_solutions_beyond_sys_maxsize(self, huge):
        # itertools.islice refuses a stop above sys.maxsize
        expected = cli.run_command(["ks", PAULI2, "--max-solutions", "64"])
        assert expected[0] == 0
        assert cli.run_command(
            ["ks", PAULI2, "--max-solutions", str(huge)]) == expected
        scn = cli._load_scenario(PAULI2)
        presheaf = quantum.spectral_presheaf(cli._poset_of(scn), scn.tolerance)
        big, small = (quantum.ks_search(presheaf, n) for n in (huge, 64))
        assert (big.status, big.nodes_explored) == (small.status,
                                                    small.nodes_explored)
        assert ([s.items_sorted() for s in big.sections]
                == [s.items_sorted() for s in small.sections])

    def test_mermin_obstruction(self):
        code, doc, _ = _run(["ks", MERMIN])
        assert code == 0
        assert doc["status"] == "NoSection"
        assert doc["section_count"] == 0
        assert doc["sections"] == []
        assert doc["nodes_explored"] == 28

    @pytest.mark.parametrize("scenario, max_solutions, nodes", [
        (PAULI2, 1, 3), (PAULI2, 3, 6), (PAULI2, 8, 14),
        (PARITY, 1, 2), (PARITY, 3, 5), (PARITY, 8, 12)])
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
        assert doc["nodes_explored"] == 28

    @pytest.mark.parametrize("closure", ["intersections", "coarsenings"])
    @pytest.mark.parametrize("name, nodes", [("peres33", 20), ("cabello18", 45)])
    def test_kochen_specker_sets_have_no_section(self, tmp_path, name, nodes,
                                                 closure):
        # Peres' 33 rays took the search past its 10M-node cap (about 45 s)
        # before each pick kept the arcs between maximal contexts consistent
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        doc["closure"] = closure
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, doc, err = _run(["ks", str(path)])
        assert time.perf_counter() - start < 20
        assert code == 0, err
        assert doc["status"] == "NoSection" and doc["sections"] == []
        assert doc["nodes_explored"] == nodes

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

    def test_each_name_is_built_once(self, monkeypatch):
        calls = []
        delta = quantum.delta_subobject

        def counting(*args, **kwargs):
            calls.append(args[0])
            return delta(*args, **kwargs)

        monkeypatch.setattr(quantum, "delta_subobject", counting)
        expr = " & ".join(["Pzplus", "Pxplus"] * 5000)
        scn = cli._load_scenario(PAULI2)
        presheaf = quantum.spectral_presheaf(cli._poset_of(scn), scn.tolerance)
        cli._eval_prop(props.parse_prop(expr), scn, presheaf)
        assert len(calls) == 2
        code, out, err = cli.run_command(["heyting", PAULI2, "--expr", expr,
                                          "--state", "zplus"])
        assert (code, err) == (0, "")
        # the report as it was when every leaf built its own delta
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "aaccdf3fe14912dddba5ac38bd211f2bfb40c74d323eaab14b92fbbfd38a290f")

    @pytest.mark.parametrize("expr, message", [
        ("Pzplus & sx & nope & sx", "error: 'sx' is not a projector\n"),
        ("Pzplus & nope & sx & Pzplus", "error: unknown operator 'nope'\n"),
    ])
    def test_first_bad_leaf_is_named(self, expr, message):
        assert cli.run_command(["heyting", PAULI2, "--expr", expr,
                                "--state", "zplus"]) == (1, "", message)

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

    def test_one_parser_serves_every_run(self):
        # a failed parse leaves nothing behind in the process-wide parser
        cli._build_parser.cache_clear()
        valid = [["poset", MERMIN], ["ks", MERMIN]]
        first = [cli.run_command(argv) for argv in valid]
        assert [run[0] for run in first] == [0, 0]
        code, out, err = cli.run_command(["poset", MERMIN, "--bogus"])
        assert (code, out) == (1, "")
        assert err == "error: unrecognized arguments: --bogus (at command line)\n"
        assert [cli.run_command(argv) for argv in valid] == first
        assert cli._build_parser.cache_info().misses == 1

    def test_output_ends_with_newline(self):
        _, out, _ = cli.run_command(["validate", PAULI2])
        assert out.endswith("\n")

    def test_no_negative_zero_in_reports(self):
        _, out, _ = cli.run_command(
            ["daseinise", MERMIN, "--projector", "Pxx_plus"])
        assert "-0.0" not in out
