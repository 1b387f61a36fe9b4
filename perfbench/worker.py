"""One workload in one single-threaded process: set up, then a closed loop.

Run by ``run.py``, never by hand: it reads the op list that ``gen`` wrote,
makes the program ready (``--mode setup`` stops there), then runs whole
passes over the ops, one at a time, for about ``--seconds``.  The last
line of its standard output is a JSON record of every op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from qtopos import cli, kernel, props, quantum
from qtopos.contexts import build_poset
from qtopos.errors import SizeLimit
from qtopos.scenario import parse_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
from probe import PROBE_EVERY_S, probe_burst  # noqa: E402

OK, REFUSED, ERROR, WRONG = "ok", "refused", "error", "wrong"


def _cli_outcome(code: int, stdout: str, stderr: str, check) -> tuple[str, str]:
    if code == 2:
        return REFUSED, stderr.strip()
    if code != 0:
        return ERROR, stderr.strip()
    reason = check(stdout)
    return (WRONG, reason) if reason else (OK, "")


class CliWorkload:
    """``poset-closure`` and ``ks-search``: one ``run_command`` per op."""

    trace: tracing.Tracer | None = None

    def __init__(self, manifest: dict):
        self.first: dict = {}

    def check(self, op: dict, stdout: str) -> str | None:
        if op["argv"][0] == "ks":
            return oracles.check_ks_report(stdout, op["sections"])
        first = self.first.setdefault(op["family"], stdout)
        return oracles.check_poset_report(
            stdout, op["expect"], None if first is stdout else first)

    def run(self, op: dict) -> tuple[str, str]:
        if self.trace is None:
            code, out, err = cli.run_command(op["argv"])
        else:
            index = self.trace.start("cli.run_command")
            try:
                code, out, err = cli.run_command(op["argv"])
            finally:
                self.trace.stop(index)
            self.trace.counts["cli.report_bytes"] += len(out)
        return _cli_outcome(code, out, err,
                            lambda stdout: self.check(op, stdout))


def _count_leaves(expr) -> int:
    if isinstance(expr, props.Name):
        return 1
    if isinstance(expr, props.Not):
        return _count_leaves(expr.operand)
    return _count_leaves(expr.left) + _count_leaves(expr.right)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class PropWorkload:
    """``prop-logic``: presheaves built in setup; one query per op."""

    trace: tracing.Tracer | None = None

    def __init__(self, manifest: dict):
        self.families = []
        for fam in manifest["families"]:
            scn = parse_scenario(Path(fam["path"]).read_text(encoding="utf-8"))
            poset = build_poset(scn.maximal_contexts, scn.closure, scn.tolerance)
            sheaf = quantum.spectral_presheaf(poset, scn.tolerance)
            self.families.append((scn, poset, sheaf))

    def fold(self, expr, scn, sheaf) -> kernel.Subobject:
        """Evaluate an expression the way ``qtopos heyting`` does."""
        if isinstance(expr, props.Name):
            return quantum.delta_subobject(scn.operator(expr.ident), sheaf,
                                           scn.tolerance)
        if isinstance(expr, props.Not):
            return kernel.heyting_not(self.fold(expr.operand, scn, sheaf))
        left = self.fold(expr.left, scn, sheaf)
        right = self.fold(expr.right, scn, sheaf)
        if isinstance(expr, props.And):
            return kernel.heyting_meet(left, right)
        if isinstance(expr, props.Or):
            return kernel.heyting_join(left, right)
        return kernel.heyting_implies(left, right)

    def run(self, op: dict) -> tuple[str, str]:
        scn, poset, sheaf = self.families[op["family"]]
        tol = scn.tolerance
        expr = props.parse_prop(op["expr"])
        leaves = _count_leaves(expr)
        if self.trace is not None:
            self.trace.counts["props.leaves"] += leaves
        if leaves != op["leaves"]:
            return WRONG, f"parsed {leaves} leaves, generated {op['leaves']}"
        result = self.fold(expr, scn, sheaf)
        psi = scn.state(op["state"])
        state = quantum.pseudo_state(psi, sheaf, tol)
        kernel.truth_value_inclusion(state.subobject, result)
        proj = scn.operator(op["projector"])
        by_state = quantum.truth_value_pseudo(proj, psi, sheaf, tol)
        by_object = quantum.truth_value_truthobject(proj, psi, poset, tol)
        reason = oracles.check_truth_routes(by_state.members, by_object.members)
        own = _matrix(op["projector_matrix"])
        for ctx in poset.contexts:
            outer = quantum.daseinise_projector(proj, ctx, tol)
            inner = quantum.daseinise_projector_inner(proj, ctx, tol)
            reason = reason or oracles.check_bracket(own, outer, inner)
        return (WRONG, reason) if reason else (OK, "")


def _presheaf(base, desc: dict) -> kernel.Presheaf:
    restrictions = {(frm, to): dict(mapping)
                    for frm, to, mapping in desc["restrictions"]}
    return kernel.presheaf(base, desc["sets"], restrictions)


class KernelWorkload:
    """``kernel-count``: both counting bijections on one seeded poset per op."""

    def __init__(self, manifest: dict):
        pass

    def run(self, op: dict) -> tuple[str, str]:
        base = kernel.finposet(op["elements"], op["pairs"])
        x, a, b, c = (_presheaf(base, op[key]) for key in "XABC")
        n_sub = len(kernel.all_subobjects(x))
        n_chi = len(kernel.hom_set(x, kernel.omega(base)))
        n_power = len(kernel.global_elements(kernel.power_object(x)))
        n_exp = len(kernel.hom_set(c, kernel.exponential(a, b)))
        n_prod = len(kernel.hom_set(kernel.product(c, a), b))
        reason = oracles.check_counting(n_sub, n_chi, n_power, n_exp, n_prod)
        return (WRONG, reason) if reason else (OK, "")


WORKLOADS = {"poset-closure": CliWorkload, "ks-search": CliWorkload,
             "prop-logic": PropWorkload, "kernel-count": KernelWorkload}


def run_op(workload, op: dict) -> tuple[str, str]:
    """One op; a size-limit refusal or any exception is a failed op."""
    try:
        return workload.run(op)
    except SizeLimit as exc:
        return REFUSED, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - every op failure is data here
        return ERROR, f"{type(exc).__name__}: {exc}"


def run_passes(workload, ops: list, seconds: float,
               trace: tracing.Tracer | None = None) -> dict:
    """Whole passes over ``ops``, ending at the pass boundary nearest to
    ``seconds`` (after at least one pass)."""
    records = []
    bursts = []  # (time, median probe) of each probe burst
    probing = 0.0  # loop time spent in probes, left out of wall_s
    passes = 0
    start = time.perf_counter()

    def burst(busy_s: float) -> float:
        samples: list[float] = []
        spent = probe_burst(samples, busy_s)
        bursts.append((time.perf_counter() - start,
                       statistics.median(samples)))
        return spent

    probing += burst(PROBE_EVERY_S)
    last_probe = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            if trace is not None:
                trace.begin_op()
            begin = time.perf_counter()
            outcome, detail = run_op(workload, op)
            end = time.perf_counter()
            records.append({"shape": op["shape"], "outcome": outcome,
                            "detail": detail, "seconds": end - begin,
                            "begin": begin - start})
            if end - last_probe >= PROBE_EVERY_S:
                probing += burst(end - last_probe)
                last_probe = time.perf_counter()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break
    probing += burst(PROBE_EVERY_S)
    return {"records": records, "passes": passes, "bursts": bursts,
            "wall_s": time.perf_counter() - start - probing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", choices=["setup", "run"], default="run")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    load_s = time.perf_counter() - begin
    workload = WORKLOADS[args.workload](manifest)
    ready_wall = time.time()
    setup_probes: list[float] = []
    probe_burst(setup_probes, max(0.5, time.perf_counter() - begin))
    out = {"ready_wall": ready_wall, "load_s": load_s,
           "setup_probe_s": statistics.median(setup_probes)}
    if args.mode == "run":
        ops = manifest["ops"]
        if args.trace:
            half = args.seconds / 2
            plain = run_passes(workload, ops, half)
            trace = tracing.Tracer()
            tracing.install(trace)
            workload.trace = trace
            traced = run_passes(workload, ops, half, trace)
            if args.trace_out:
                trace.write(args.trace_out)
            out.update(plain=plain, traced=traced,
                       layers=tracing.summarize(trace.op_metrics(),
                                                traced["passes"]))
        else:
            out.update(plain=run_passes(workload, ops, args.seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
