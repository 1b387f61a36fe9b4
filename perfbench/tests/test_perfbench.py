"""Tests of the benchmark itself: generator, oracles, tracing and a smoke run.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# Failed ops of one pass at the seed commit, by op shape.  A change that
# removes one of these failures updates this table and says so.
KERNEL_REFUSED_SLOTS = (4, 20, 23, 41, 44, 53, 59, 65, 91, 101, 113, 116, 128,
                        143, 149, 154, 157, 178, 179, 182)
KNOWN_FAILURES = {
    "poset-closure": {},
    "ks-search": {("square/coarsenings", "refused"): 1},
    "prop-logic": {},
    "kernel-count": {(f"poset{5 + slot % 3}/slot{slot}", "refused"): 1
                     for slot in KERNEL_REFUSED_SLOTS},
}


def _inputs(workload: str, seed: int, tmp: Path) -> tuple[dict, dict]:
    tmp.mkdir()
    manifest = gen.make_inputs(workload, seed, tmp)
    files = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
    text = json.dumps(manifest, sort_keys=True).replace(str(tmp), "<dir>")
    return json.loads(text), files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    again = _inputs(workload, 5, tmp_path / "b")
    other = _inputs(workload, 6, tmp_path / "c")
    assert first == again
    assert first != other


def test_sign_table_counts():
    assert gen.sign_table_count(gen.ROWS + gen.COLS) == 0
    for rows in (("row0", "row1"), ("row0", "row2"), ("row1", "row2")):
        for col in gen.COLS:
            assert gen.sign_table_count(rows + (col,)) == 16


def _functorial(case: dict) -> bool:
    maps = {(frm, to): dict(mapping)
            for frm, to, mapping in case["restrictions"]}
    for (v, u), step in maps.items():
        for (u2, w), via in maps.items():
            if u2 == u and (v, w) in maps:
                if any(maps[(v, w)][x] != via[step[x]] for x in step):
                    return False
    return True


def test_kernel_presheaves_are_functorial_and_relabelled():
    rng = np.random.default_rng(3)
    for slot in range(gen.KERNEL_SLOTS):
        case = gen.kernel_case(slot, rng)
        for key in "XABC":
            assert _functorial(case[key])
            sizes = [len(points) for points in case[key]["sets"].values()]
            assert 1 <= min(sizes) and max(sizes) <= 3
    a = gen.kernel_case(7, np.random.default_rng(1))
    b = gen.kernel_case(7, np.random.default_rng(2))
    assert sorted(len(p) for p in a["X"]["sets"].values()) == sorted(
        len(p) for p in b["X"]["sets"].values())


@pytest.mark.parametrize("shape,closure", [
    ("square", "intersections"), ("two_rows_one_col", "coarsenings")])
def test_rotation_keeps_poset_invariants(shape, closure, tmp_path):
    from qtopos.cli import run_command

    expected = gen.POSET_INVARIANTS[f"{shape}/{closure}"]
    for seed in (1, 2):
        fam = gen.mermin_scenario(shape, closure, np.random.default_rng(seed))
        path = tmp_path / f"{seed}.json"
        path.write_text(fam["text"])
        code, out, _ = run_command(["poset", str(path)])
        assert code == 0
        assert oracles.check_poset_report(out, expected, None) is None


def _ks_report(count: int, listed: int | None = None) -> str:
    sections = [{"V00": 0}] * (count if listed is None else listed)
    return json.dumps({"status": "SectionsExist" if count else "NoSection",
                       "section_count": count, "sections": sections})


def test_ks_oracle_rejects_planted_counts():
    assert oracles.check_ks_report(_ks_report(16), 16) is None
    assert oracles.check_ks_report(_ks_report(0), 0) is None
    assert oracles.check_ks_report(_ks_report(15), 16) is not None
    assert oracles.check_ks_report(_ks_report(1), 0) is not None
    assert oracles.check_ks_report(_ks_report(16, listed=15), 16) is not None


def test_counting_oracle_rejects_broken_bijections():
    assert oracles.check_counting(325, 325, 325, 12, 12) is None
    assert oracles.check_counting(325, 324, 325, 12, 12) is not None
    assert oracles.check_counting(325, 325, 326, 12, 12) is not None
    assert oracles.check_counting(325, 325, 325, 12, 13) is not None


def test_truth_and_bracket_oracles_reject_planted_answers():
    assert oracles.check_truth_routes({"V01", "V02"}, {"V02", "V01"}) is None
    assert oracles.check_truth_routes({"V01"}, {"V01", "V02"}) is not None
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    eye = np.eye(4, dtype=complex)
    assert oracles.check_bracket(p, eye, q) is None
    assert oracles.check_bracket(p, q, q) is not None      # outer too small
    assert oracles.check_bracket(p, eye, eye) is not None  # inner too big


def test_poset_oracle_rejects_planted_reports():
    report = {"context_count": 2, "contexts": [{}, {}],
              "relation": [["V0", "V1"]]}
    text = json.dumps(report)
    good = {"contexts": 2, "order_pairs": 1}
    assert oracles.check_poset_report(text, good, None) is None
    assert oracles.check_poset_report(text, good, text) is None
    assert oracles.check_poset_report(text, good, text + " ") is not None
    assert oracles.check_poset_report(
        text, {"contexts": 3, "order_pairs": 1}, None) is not None
    assert oracles.check_poset_report(
        text, {"contexts": 2, "order_pairs": 2}, None) is not None


def test_worker_counts_a_wrong_ks_answer_as_failed(tmp_path):
    fam = gen.mermin_scenario("square", "intersections",
                              np.random.default_rng(4))
    path = tmp_path / "square.json"
    path.write_text(fam["text"])
    op = {"argv": ["ks", str(path), "--max-solutions", "64"]}
    workload = worker.CliWorkload({})
    assert worker.run_op(workload, {**op, "sections": 0}) == (worker.OK, "")
    outcome, detail = worker.run_op(workload, {**op, "sections": 1})
    assert outcome == worker.WRONG and "sign table" in detail


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 41)]
    assert run.percentile(values, 75) == 30.0
    assert run.percentile(values, 90) == 36.0
    assert run.percentile(values, 50) == 20.5
    assert run.percentile([3.0], 90) == 3.0


_FAILURE_LINE = re.compile(r"^\s+(\d+) x (\S+): (\w+): ")


def _failures(stdout: str) -> dict:
    """Parse the '   <n> x <shape>: <outcome>: ...' lines per workload."""
    out, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = line.split()[1]
            out[current] = {}
        elif (match := _FAILURE_LINE.match(line)) and current is not None:
            count, shape, outcome = match.groups()
            out[current][(shape, outcome)] = int(count)
    return out


def test_smoke_run_reproduces_known_failures():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--seed", "11", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert _failures(proc.stdout) == KNOWN_FAILURES
    assert result["failed"] == sum(
        n for shapes in KNOWN_FAILURES.values() for n in shapes.values())
    for name in gen.WORKLOADS:
        for metric in run.END_TO_END:
            assert result["metrics"][f"{name}.{metric}"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ks-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
