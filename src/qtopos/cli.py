"""Command-line interface producing deterministic JSON reports.

Every report embeds the scenario digest and the effective tolerance, keeps
all listings canonically ordered, and rounds floats to 12 significant
digits, matrix entries also to 12 decimal places (-0.0 prints as 0.0), so
repeated runs are byte-identical.  Exit codes: 0 success (a
``NoSection`` outcome is data, not an error), 1 syntax or validation
problem, 2 size limit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from . import kernel, props, quantum
from .contexts import ContextPoset, build_poset
from .errors import NotProjector, ParseError, SizeLimit, ToposError
from .numerics import Tolerance, require_projector
from .scenario import Scenario, parse_scenario


def _round12(x: float) -> float:
    value = float(f"{float(x):.12g}")
    return 0.0 if value == 0 else value


def _matrix_json(matrix: np.ndarray) -> list:
    return [[[_round12(cell.real), _round12(cell.imag)] for cell in row]
            for row in np.round(np.asarray(matrix, dtype=complex), 12) + 0.0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, "command line")


@functools.cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="qtopos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_scenario(name: str, help_text: str, run):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.set_defaults(run=run)
        return p

    with_scenario("validate", "parse and validate a scenario", _cmd_validate)
    with_scenario("poset", "emit contexts, block ranks and the order relation",
                  _cmd_poset)

    p = with_scenario("daseinise", "per-context approximations of a projector",
                      _cmd_daseinise)
    p.add_argument("--projector", required=True, help="name of a projector")
    p.add_argument("--inner", action="store_true",
                   help="largest dominated instead of smallest dominating")

    p = with_scenario("truth", "truth value of a proposition in a state",
                      _cmd_truth)
    p.add_argument("--state", required=True)
    p.add_argument("--projector", required=True)
    p.add_argument("--via", required=True,
                   choices=["pseudo-state", "truth-object"])

    p = with_scenario("ks", "search for global sections", _cmd_ks)
    p.add_argument("--max-solutions", type=int, default=8)

    p = with_scenario("heyting", "evaluate a proposition expression",
                      _cmd_heyting)
    p.add_argument("--expr", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("kernel-demo", help="structure of a tiny presheaf topos")
    p.add_argument("--poset", required=True, choices=["chain2", "antichain3"])
    p.set_defaults(run=_cmd_kernel_demo)
    return parser


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}", path) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file is not UTF-8: {exc.reason}", path) from exc
    return parse_scenario(text)


def _poset_of(scn: Scenario) -> ContextPoset:
    return build_poset(scn.maximal_contexts, scn.closure, scn.tolerance)


def _projector(scn: Scenario, name: str) -> np.ndarray:
    return require_projector(scn.operator(name), scn.tolerance, name)


def _truth_fields(value: kernel.LowerSet, poset: ContextPoset) -> dict:
    return {
        "truth_value": list(value.sorted_members),
        "totally_true": value.is_full,
        "per_context": [{"id": c.key, "holds": c.key in value.members}
                        for c in poset.contexts],
    }


def _cmd_validate(args, scn: Scenario) -> dict:
    return {
        "dimension": scn.dimension,
        "closure": scn.closure,
        "builtins": list(scn.builtins),
        "operators": sorted(scn.operators),
        "states": sorted(scn.states),
        "maximal_contexts": [
            {"label": c.label, "block_ranks": list(c.ranks)}
            for c in scn.maximal_contexts],
    }


def _cmd_poset(args, scn: Scenario) -> dict:
    poset = _poset_of(scn)
    ranks = poset.table.ranks
    return {
        "context_count": len(poset),
        "contexts": [{"id": c.key, "label": c.label,
                      "block_ranks": [ranks[b] for b in c.ids]} for c in poset.contexts],
        "relation": [list(pair) for pair in poset.base.strict_pairs()],
    }


def _cmd_daseinise(args, scn: Scenario) -> dict:
    proj = _projector(scn, args.projector)
    poset = _poset_of(scn)
    rows = [{"id": ctx.key, "label": ctx.label, "blocks": list(indices),
             "matrix": _matrix_json(approx)}
            for ctx, (indices, approx) in zip(
                poset.contexts, quantum.daseinise(proj, poset, inner=args.inner))]
    return {"projector": args.projector,
            "variant": "inner" if args.inner else "outer", "per_context": rows}


def _cmd_truth(args, scn: Scenario) -> dict:
    proj = _projector(scn, args.projector)
    psi = scn.state(args.state)
    poset = _poset_of(scn)
    if args.via == "pseudo-state":
        value = quantum.truth_value_pseudo(proj, psi, quantum.spectral_presheaf(poset))
    else:
        value = quantum.truth_value_truthobject(proj, psi, poset)
    return {
        "state": args.state,
        "projector": args.projector,
        "via": args.via,
        **_truth_fields(value, poset),
    }


def _cmd_ks(args, scn: Scenario) -> dict:
    result = quantum.ks_search(scn.maximal_contexts, scn.closure, scn.tolerance,
                               max_solutions=args.max_solutions)
    return {
        "status": result.status,
        "nodes_explored": result.nodes_explored,
        "section_count": len(result.sections),
        "sections": [sec.assignments for sec in result.sections],
    }


def _eval_prop(expr, scn: Scenario, presheaf) -> kernel.Subobject:
    @functools.cache  # each name is validated and built once
    def leaf(ident: str) -> kernel.Subobject:
        try:
            proj = _projector(scn, ident)
        except NotProjector as exc:
            raise NotProjector(f"{ident!r} is not a projector") from exc
        return quantum.delta_subobject(proj, presheaf)

    connective = {props.Not: kernel.heyting_not, props.And: kernel.heyting_meet,
                  props.Or: kernel.heyting_join,
                  props.Implies: kernel.heyting_implies}
    return props.fold(expr, lambda name: leaf(name.ident),
                      lambda node, *parts: connective[type(node)](*parts))


def _cmd_heyting(args, scn: Scenario) -> dict:
    expr = props.parse_prop(args.expr)
    psi = scn.state(args.state)
    poset = _poset_of(scn)
    presheaf = quantum.spectral_presheaf(poset)
    result = _eval_prop(expr, scn, presheaf)
    state = quantum.pseudo_state(psi, presheaf)
    value = kernel.truth_value_inclusion(state.subobject, result)
    return {
        "expr": props.pretty(expr),
        "state": args.state,
        "subobject": [{"id": c.key, "blocks": list(result.parts[c.key])}
                      for c in poset.contexts],
        **_truth_fields(value, poset),
    }


_DEMO_POSETS = {
    "chain2": (("bottom", "top"), (("bottom", "top"),)),
    "antichain3": (("a", "b", "c"), ()),
}


def _parts_json(sub: kernel.Subobject) -> dict:
    return {v: [str(pt) for pt in sub.parts[v]]
            for v in sub.of.base.elements}


def _cmd_kernel_demo(args, scn: None) -> dict:
    elements, pairs = _DEMO_POSETS[args.poset]
    base = kernel.finposet(elements, pairs)
    one = kernel.terminal(base)
    om = kernel.omega(base)
    subs, whole = kernel.all_subobjects(one), kernel.full_subobject(one)
    witness = next((j for j in subs
                    if kernel.heyting_join(j, kernel.heyting_not(j)) != whole), None)
    report = {
        "poset": args.poset,
        "elements": list(base.elements),
        "omega_sizes": {v: len(om.sets[v]) for v in base.elements},
        "subobjects_of_terminal": len(subs),
        "global_elements_of_omega": len(kernel.global_elements(om)),
        "excluded_middle": {"witness_found": witness is not None},
    }
    if witness is not None:
        negation = kernel.heyting_not(witness)
        joined = kernel.heyting_join(witness, negation)
        double = kernel.heyting_not(negation)
        report["excluded_middle"].update({
            "subobject": _parts_json(witness),
            "negation": _parts_json(negation),
            "join": _parts_json(joined),
            "double_negation": _parts_json(double),
            "whole": _parts_json(whole),
        })
    return report


def _render(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` of a report, whose dict keys are all str,
    without the pure-Python encoder that ``indent`` selects; ``pad`` starts
    the lines inside ``x``.  Non-finite floats and subclasses of the JSON
    types go to ``json.dumps`` itself."""
    kind = type(x)
    if kind is dict or kind is list or kind is tuple:
        if not x:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            items = [f"{_encode_str(k)}: {_render(v, inner)}" for k, v in x.items()]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in x]) + pad + "]"
    if kind is str:
        return _encode_str(x)
    if kind is int:
        return int.__repr__(x)
    if kind is float and math.isfinite(x):
        return float.__repr__(x)
    if x is None:
        return "null"
    if kind is bool:
        return "true" if x else "false"
    return json.dumps(x)


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """Run one command; returns (exit code, stdout text, stderr text).

    Parse the arguments, load the scenario (``kernel-demo`` takes none) and
    render the command's own fields after the shared envelope.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "scenario" in args:
            scn = _load_scenario(args.scenario)
            digest, tol = scn.digest, scn.tolerance
        else:  # kernel-demo: the poset name stands in for a scenario
            scn = None
            digest = hashlib.sha256(args.poset.encode("utf-8")).hexdigest()
            tol = Tolerance()
        report = {"command": args.command, "scenario_digest": digest,
                  "tolerance": _round12(tol.eps), **args.run(args, scn)}
        return 0, _render(report) + "\n", ""
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
