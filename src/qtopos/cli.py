"""Command-line interface producing deterministic JSON reports.

Every report embeds the scenario digest and the effective tolerance, keeps
all listings canonically ordered, and rounds floats to 12 significant
digits, so repeated runs are byte-identical.  Exit codes: 0 success (a
``NoSection`` outcome is data, not an error), 1 syntax or validation
problem, 2 size limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import kernel, props, quantum
from .contexts import ContextPoset, build_poset
from .errors import NotProjector, ParseError, SizeLimit, ToposError
from .numerics import require_projector
from .scenario import Scenario, parse_scenario


def _round12(x: float) -> float:
    value = float(f"{float(x):.12g}")
    return 0.0 if value == 0 else value


def _clean(node):
    """Normalise floats recursively so rendering is deterministic."""
    if isinstance(node, bool) or node is None or isinstance(node, (int, str)):
        return node
    if isinstance(node, float):
        return _round12(node)
    if isinstance(node, (list, tuple)):
        return [_clean(item) for item in node]
    if isinstance(node, dict):
        return {key: _clean(value) for key, value in node.items()}
    raise TypeError(f"cannot serialise {type(node).__name__}")


def _render(report: dict) -> str:
    return json.dumps(_clean(report), indent=2) + "\n"


def _matrix_json(matrix: np.ndarray) -> list:
    return [[[float(cell.real), float(cell.imag)] for cell in row]
            for row in np.asarray(matrix, dtype=complex)]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, "command line")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtopos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_scenario(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        return p

    with_scenario("validate", "parse and validate a scenario")
    with_scenario("poset", "emit contexts, block ranks and the order relation")

    p = with_scenario("daseinise", "per-context approximations of a projector")
    p.add_argument("--projector", required=True, help="name of a projector")
    p.add_argument("--inner", action="store_true",
                   help="largest dominated instead of smallest dominating")

    p = with_scenario("truth", "truth value of a proposition in a state")
    p.add_argument("--state", required=True)
    p.add_argument("--projector", required=True)
    p.add_argument("--via", required=True,
                   choices=["pseudo-state", "truth-object"])

    p = with_scenario("ks", "search for global sections")
    p.add_argument("--max-solutions", type=int, default=8)

    p = with_scenario("heyting", "evaluate a proposition expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("kernel-demo", help="structure of a tiny presheaf topos")
    p.add_argument("--poset", required=True, choices=["chain2", "antichain3"])
    return parser


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}", path) from exc
    return parse_scenario(text)


def _envelope(command: str, scn: Scenario | None, digest: str | None = None) -> dict:
    if scn is not None:
        digest = scn.digest
        eps = scn.tolerance.eps
    else:
        eps = 1e-9
    return {"command": command, "scenario_digest": digest, "tolerance": eps}


def _poset_of(scn: Scenario) -> ContextPoset:
    return build_poset(scn.maximal_contexts, scn.closure, scn.tolerance)


def _context_rows(poset: ContextPoset) -> list[dict]:
    return [{"id": c.key, "label": c.label, "block_ranks": list(c.ranks)}
            for c in poset.contexts]


def _cmd_validate(args) -> dict:
    scn = _load_scenario(args.scenario)
    report = _envelope("validate", scn)
    report.update({
        "dimension": scn.dimension,
        "closure": scn.closure,
        "builtins": list(scn.builtins),
        "operators": sorted(scn.operators),
        "states": sorted(scn.states),
        "maximal_contexts": [
            {"label": c.label, "block_ranks": list(c.ranks)}
            for c in scn.maximal_contexts],
    })
    return report


def _cmd_poset(args) -> dict:
    scn = _load_scenario(args.scenario)
    poset = _poset_of(scn)
    report = _envelope("poset", scn)
    report.update({
        "context_count": len(poset),
        "contexts": _context_rows(poset),
        "relation": [list(pair) for pair in poset.base.strict_pairs()],
    })
    return report


def _cmd_daseinise(args) -> dict:
    scn = _load_scenario(args.scenario)
    proj = require_projector(scn.operator(args.projector), scn.tolerance,
                             args.projector)
    poset = _poset_of(scn)
    tol = scn.tolerance
    variant = "inner" if args.inner else "outer"
    rows = [{"id": ctx.key, "label": ctx.label, "blocks": list(indices),
             "matrix": _matrix_json(approx)}
            for ctx, (indices, approx) in zip(
                poset.contexts,
                quantum._daseinise(proj, poset.contexts, tol, args.inner))]
    report = _envelope("daseinise", scn)
    report.update({"projector": args.projector, "variant": variant,
                   "per_context": rows})
    return report


def _cmd_truth(args) -> dict:
    scn = _load_scenario(args.scenario)
    tol = scn.tolerance
    proj = require_projector(scn.operator(args.projector), tol, args.projector)
    psi = scn.state(args.state)
    poset = _poset_of(scn)
    if args.via == "pseudo-state":
        presheaf = quantum.spectral_presheaf(poset, tol)
        value = quantum.truth_value_pseudo(proj, psi, presheaf, tol)
    else:
        value = quantum.truth_value_truthobject(proj, psi, poset, tol)
    report = _envelope("truth", scn)
    report.update({
        "state": args.state,
        "projector": args.projector,
        "via": args.via,
        "truth_value": list(value.sorted_members),
        "totally_true": value.is_full,
        "per_context": [{"id": c.key, "holds": c.key in value.members}
                        for c in poset.contexts],
    })
    return report


def _cmd_ks(args) -> dict:
    scn = _load_scenario(args.scenario)
    poset = _poset_of(scn)
    presheaf = quantum.spectral_presheaf(poset, scn.tolerance)
    result = quantum.ks_search(presheaf, max_solutions=args.max_solutions)
    report = _envelope("ks", scn)
    report.update({
        "status": result.status,
        "nodes_explored": result.nodes_explored,
        "section_count": len(result.sections),
        "sections": [dict(sec.items_sorted()) for sec in result.sections],
    })
    return report


def _eval_prop(expr, scn: Scenario, presheaf) -> kernel.Subobject:
    tol = scn.tolerance

    def leaf(name: props.Name) -> kernel.Subobject:
        try:
            proj = require_projector(scn.operator(name.ident), tol, name.ident)
        except NotProjector as exc:
            raise NotProjector(f"{name.ident!r} is not a projector") from exc
        return quantum.delta_subobject(proj, presheaf, tol)

    connective = {props.Not: kernel.heyting_not, props.And: kernel.heyting_meet,
                  props.Or: kernel.heyting_join,
                  props.Implies: kernel.heyting_implies}
    return props.fold(expr, leaf,
                      lambda node, *parts: connective[type(node)](*parts))


def _cmd_heyting(args) -> dict:
    scn = _load_scenario(args.scenario)
    expr = props.parse_prop(args.expr)
    psi = scn.state(args.state)
    poset = _poset_of(scn)
    presheaf = quantum.spectral_presheaf(poset, scn.tolerance)
    result = _eval_prop(expr, scn, presheaf)
    state = quantum.pseudo_state(psi, presheaf, scn.tolerance)
    value = kernel.truth_value_inclusion(state.subobject, result)
    report = _envelope("heyting", scn)
    report.update({
        "expr": props.pretty(expr),
        "state": args.state,
        "subobject": [{"id": c.key, "blocks": list(result.parts[c.key])}
                      for c in poset.contexts],
        "truth_value": list(value.sorted_members),
        "totally_true": value.is_full,
        "per_context": [{"id": c.key, "holds": c.key in value.members}
                        for c in poset.contexts],
    })
    return report


_DEMO_POSETS = {
    "chain2": (("bottom", "top"), (("bottom", "top"),)),
    "antichain3": (("a", "b", "c"), ()),
}


def _parts_json(sub: kernel.Subobject) -> dict:
    return {v: [str(pt) for pt in sub.parts[v]]
            for v in sub.of.base.elements}


def _cmd_kernel_demo(args) -> dict:
    elements, pairs = _DEMO_POSETS[args.poset]
    base = kernel.finposet(elements, pairs)
    one = kernel.terminal(base)
    om = kernel.omega(base)
    subs = kernel.all_subobjects(one)
    witness = None
    for j in subs:
        joined = kernel.heyting_join(j, kernel.heyting_not(j))
        if joined.parts != kernel.full_subobject(one).parts:
            witness = j
            break
    digest = hashlib.sha256(args.poset.encode("utf-8")).hexdigest()
    report = _envelope("kernel-demo", None, digest)
    report.update({
        "poset": args.poset,
        "elements": list(base.elements),
        "omega_sizes": {v: len(om.sets[v]) for v in base.elements},
        "subobjects_of_terminal": len(subs),
        "global_elements_of_omega": len(kernel.global_elements(om)),
        "excluded_middle": {"witness_found": witness is not None},
    })
    if witness is not None:
        negation = kernel.heyting_not(witness)
        joined = kernel.heyting_join(witness, negation)
        double = kernel.heyting_not(negation)
        report["excluded_middle"].update({
            "subobject": _parts_json(witness),
            "negation": _parts_json(negation),
            "join": _parts_json(joined),
            "double_negation": _parts_json(double),
            "whole": _parts_json(kernel.full_subobject(one)),
        })
    return report


_DISPATCH = {
    "validate": _cmd_validate,
    "poset": _cmd_poset,
    "daseinise": _cmd_daseinise,
    "truth": _cmd_truth,
    "ks": _cmd_ks,
    "heyting": _cmd_heyting,
    "kernel-demo": _cmd_kernel_demo,
}


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """Run one command; returns (exit code, stdout text, stderr text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = _DISPATCH[args.command](args)
        return 0, _render(report), ""
    except SizeLimit as exc:
        return 2, "", f"error: size limit: {exc}\n"
    except ToposError as exc:
        return 1, "", f"error: {exc}\n"


def main() -> None:
    code, out, err = run_command(sys.argv[1:])
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    sys.exit(code)
