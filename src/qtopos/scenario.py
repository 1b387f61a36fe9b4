"""Scenario documents: JSON descriptions of operators, states and contexts.

A scenario fixes the Hilbert dimension and tolerance, names operators and
states, and lists commuting groups that each generate one maximal context.
Complex entries are written ``[re, im]``; bare numbers are taken as real.
Structural problems raise ``ParseError`` with a JSON path; semantic ones
raise ``ValidationError`` naming the offender and the violated quantity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .contexts import Context, builtin_scenario, context_from_commuting_set
from .errors import (
    NonCommuting,
    NotHermitian,
    ParseError,
    TrivialContext,
    ValidationError,
)
from .numerics import MAX_DIM, Tolerance, eigensystem

# How far a requested eigenvalue may sit from a computed one.  It bounds the
# precision of a number typed into a scenario, not numerical noise, so it
# stays the same whatever the scenario's tolerance is.
EIGENVALUE_MATCH = 1e-6

_TOP_LEVEL_KEYS = {"dimension", "tolerance", "operators", "states",
                   "groups", "closure", "builtins", "projectors"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry(node, path: str) -> complex:
    if _is_number(node):
        return complex(node)
    if (isinstance(node, list) and len(node) == 2
            and all(_is_number(part) for part in node)):
        return complex(node[0], node[1])
    raise ParseError(f"malformed complex entry {node!r}", path)


def _matrix(node, dim: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"expected a {dim}x{dim} matrix", path)
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"expected a row of {dim} entries", f"{path}[{i}]")
        rows.append([_entry(cell, f"{path}[{i}][{j}]")
                     for j, cell in enumerate(row)])
    return np.array(rows, dtype=complex)


def _vector(node, dim: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"expected a vector of {dim} entries", path)
    return np.array([_entry(cell, f"{path}[{i}]")
                     for i, cell in enumerate(node)], dtype=complex)


@dataclass(eq=False)
class Scenario:
    """A validated scenario: everything a command needs to run."""

    dimension: int
    tolerance: Tolerance
    operators: dict
    states: dict
    groups: list
    closure: str
    builtins: tuple[str, ...]
    maximal_contexts: list[Context] = field(default_factory=list)
    digest: str = ""

    def operator(self, name: str) -> np.ndarray:
        if name not in self.operators:
            raise ValidationError(f"unknown operator {name!r}")
        return self.operators[name]

    def state(self, name: str) -> np.ndarray:
        if name not in self.states:
            raise ValidationError(f"unknown state {name!r}")
        return self.states[name]


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    def reject_constant(token: str):
        raise ParseError(f"non-finite number {token!r} is not allowed", "document")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object", "document")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", "document")

    if "dimension" not in doc:
        raise ParseError("missing required key 'dimension'", "document")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError("dimension must be an integer", "dimension")
    if not 1 <= dim <= MAX_DIM:
        raise ValidationError(f"dimension {dim} outside 1..{MAX_DIM}")

    tol_value = doc.get("tolerance", 1e-9)
    if not _is_number(tol_value):
        raise ParseError("tolerance must be a number", "tolerance")
    tol = Tolerance(float(tol_value))

    closure = doc.get("closure", "intersections")
    if closure not in ("intersections", "coarsenings"):
        raise ValidationError(
            f"closure must be 'intersections' or 'coarsenings', got {closure!r}")

    operators: dict = {}
    maximal: list[Context] = []

    builtins_node = doc.get("builtins", [])
    if not isinstance(builtins_node, list) or not all(
            isinstance(b, str) for b in builtins_node):
        raise ParseError("builtins must be a list of names", "builtins")
    for name in builtins_node:
        bdim, bops, bctxs = builtin_scenario(name, tol)
        if bdim != dim:
            raise ValidationError(
                f"builtin {name!r} has dimension {bdim}, scenario says {dim}")
        for op_name, op in bops.items():
            if op_name in operators:
                raise ValidationError(f"duplicate operator name {op_name!r}")
            operators[op_name] = op
        maximal.extend(bctxs)

    ops_node = doc.get("operators", {})
    if not isinstance(ops_node, dict):
        raise ParseError("operators must be an object", "operators")
    for name, node in ops_node.items():
        if name in operators:
            raise ValidationError(f"duplicate operator name {name!r}")
        operators[name] = _matrix(node, dim, f"operators.{name}")

    projs_node = doc.get("projectors", {})
    if not isinstance(projs_node, dict):
        raise ParseError("projectors must be an object", "projectors")
    for name, node in projs_node.items():
        if name in operators:
            raise ValidationError(f"duplicate operator name {name!r}")
        if (not isinstance(node, dict) or set(node) != {"operator", "eigenvalues"}
                or not isinstance(node.get("operator"), str)
                or not isinstance(node.get("eigenvalues"), list)
                or not all(_is_number(x) for x in node["eigenvalues"])):
            raise ParseError(
                "expected {\"operator\": name, \"eigenvalues\": [numbers]}",
                f"projectors.{name}")
        source = node["operator"]
        if source not in operators:
            raise ValidationError(
                f"projector {name!r} references unknown operator {source!r}")
        try:
            pairs = eigensystem(operators[source], tol)
        except NotHermitian as exc:
            raise ValidationError(
                f"projector {name!r}: operator {source!r} is not Hermitian: "
                f"{exc}") from exc
        total = np.zeros((dim, dim), dtype=complex)
        taken: set = set()
        for wanted in node["eigenvalues"]:
            hits = [i for i, (value, _) in enumerate(pairs)
                    if abs(value - wanted) <= EIGENVALUE_MATCH]
            if len(hits) != 1:
                raise ValidationError(
                    f"projector {name!r}: {source!r} has no eigenvalue "
                    f"within 1e-6 of {wanted}")
            if hits[0] in taken:
                raise ValidationError(
                    f"projector {name!r}: {wanted} names an eigenvalue of "
                    f"{source!r} that is already requested")
            taken.add(hits[0])
            total = total + pairs[hits[0]][1]
        operators[name] = (total + total.conj().T) / 2

    states: dict = {}
    states_node = doc.get("states", {})
    if not isinstance(states_node, dict):
        raise ParseError("states must be an object", "states")
    for name, node in states_node.items():
        if name in operators or name in states:
            raise ValidationError(f"duplicate name {name!r}")
        vec = _vector(node, dim, f"states.{name}")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > tol.eps:
            raise ValidationError(
                f"state {name!r} has norm {norm!r}, not 1 within tolerance")
        states[name] = vec

    groups_node = doc.get("groups", [])
    if not isinstance(groups_node, list):
        raise ParseError("groups must be a list of name lists", "groups")
    groups: list = []
    for gi, group in enumerate(groups_node):
        if not isinstance(group, list) or not group or not all(
                isinstance(nm, str) for nm in group):
            raise ParseError("each group must be a nonempty list of names",
                             f"groups[{gi}]")
        for nm in group:
            if nm not in operators:
                raise ValidationError(
                    f"group {gi} references unknown operator {nm!r}")
        label = ",".join(group)
        try:
            ctx = context_from_commuting_set(
                [operators[nm] for nm in group], tol, key=label, label=label)
        except NonCommuting as exc:
            pair = (group[exc.i], group[exc.j])
            raise ValidationError(
                f"group {gi}: operators {pair[0]!r} and {pair[1]!r} do not "
                f"commute; commutator norm {exc.norm:.6e}") from exc
        except NotHermitian as exc:
            raise ValidationError(f"group {gi}: {exc}") from exc
        except TrivialContext as exc:
            raise ValidationError(
                f"group {gi} generates the trivial algebra: {exc}") from exc
        maximal.append(ctx)
        groups.append((label, tuple(group)))

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Scenario(dimension=dim, tolerance=tol, operators=operators,
                    states=states, groups=groups, closure=closure,
                    builtins=tuple(builtins_node), maximal_contexts=maximal,
                    digest=digest)
