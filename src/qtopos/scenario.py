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
from typing import Sequence

import numpy as np

from .contexts import Context, _builtin_lines, _generate
from .errors import (
    NonCommuting,
    NotHermitian,
    ParseError,
    ToposError,
    TrivialContext,
    ValidationError,
)
from .numerics import (
    MAX_DIM,
    Tolerance,
    eigensystem,  # unused here; kept importable for perfbench/tracer.py
    eigensystems,
)

# How far a requested eigenvalue may sit from a computed one.  It bounds the
# precision of a number typed into a scenario, not numerical noise, so it
# stays the same whatever the scenario's tolerance is.
EIGENVALUE_MATCH = 1e-6

_TOP_LEVEL_KEYS = {"dimension", "tolerance", "operators", "states",
                   "groups", "closure", "builtins", "projectors"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _real(node, path: str) -> float:
    """A JSON number as a float; an integer beyond float range is refused."""
    try:
        return float(node)
    except OverflowError as exc:
        raise ParseError("number beyond float range", path) from exc


def _entry(node, path: str) -> complex:
    if _is_number(node):
        return complex(_real(node, path))
    if (isinstance(node, list) and len(node) == 2
            and all(_is_number(part) for part in node)):
        return complex(_real(node[0], path), _real(node[1], path))
    raise ParseError(f"malformed complex entry {node!r}", path)


def _plain(node, shape: tuple[int, ...]) -> np.ndarray | None:
    """``node`` as one complex array of ``shape`` if it nests lists of that
    shape of plain numbers or of ``[re, im]`` pairs of them, else None."""
    cells = np.array(node, dtype=object)
    if cells.shape not in (shape, shape + (2,)) or not {
            type(x) for x in cells.flat} <= {int, float}:
        return None
    try:
        parts = cells.astype(float)
    except OverflowError:  # an integer past float range, named by the walk
        return None
    if parts.ndim == len(shape):
        return parts.astype(complex)
    return parts.view(complex)[..., 0]  # not re + 1j * im, which can flip a -0.0


def _matrix(node, dim: int, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"expected a {dim}x{dim} matrix", path)
    if (fast := _plain(node, (dim, dim))) is not None:
        return fast
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
    if (fast := _plain(node, (dim,))) is not None:
        return fast
    return np.array([_entry(cell, f"{path}[{i}]")
                     for i, cell in enumerate(node)], dtype=complex)


def _projector(name: str, node: dict, found, dim: int) -> np.ndarray:
    """The sum of the eigenprojectors of ``node["operator"]`` at the
    requested eigenvalues; ``found`` is that operator's eigenvalues and
    eigenprojectors, or the error of its Hermitian check."""
    source = node["operator"]
    if isinstance(found, NotHermitian):
        raise ValidationError(
            f"projector {name!r}: operator {source!r} is not Hermitian: "
            f"{found}") from found
    if isinstance(found, ToposError):
        raise found
    values, projs = found
    total = np.zeros((dim, dim), dtype=complex)
    taken: set = set()
    for k, wanted in enumerate(node["eigenvalues"]):
        target = _real(wanted, f"projectors.{name}.eigenvalues[{k}]")
        hits = [i for i, value in enumerate(values)
                if abs(value - target) <= EIGENVALUE_MATCH]
        if len(hits) != 1:
            raise ValidationError(
                f"projector {name!r}: {source!r} has no eigenvalue "
                f"within 1e-6 of {wanted}")
        if hits[0] in taken:
            raise ValidationError(
                f"projector {name!r}: {wanted} names an eigenvalue of "
                f"{source!r} that is already requested")
        taken.add(hits[0])
        total = total + projs[hits[0]]
    return (total + total.conj().T) / 2


@dataclass(eq=False)
class Scenario:
    """A validated scenario: everything a command needs to run."""

    dimension: int
    tolerance: Tolerance
    operators: dict
    states: dict
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
    """Parse and fully validate a scenario document.

    Sections are read in order (builtins, operators, projectors, states,
    groups) and the first error in that order is raised.  Each named
    operator that a projector, group or builtin line uses is decomposed
    once, with two stacked ``eigh`` calls at most
    (:func:`qtopos.numerics.eigensystems`): the projectors' sources, then
    the rest (a projector made from a projector of the same section takes
    one call of its own).  Every maximal context, builtin lines included,
    comes from one generation pass over all groups (``contexts._generate``);
    a group only raises once the groups before it have been generated, so
    errors come in the order of one group at a time.  An operator whose
    squared Frobenius norm overflows float64 is refused, by name, where its
    Hermitian check stands.
    """
    def reject_constant(token: str):
        raise ParseError(f"non-finite number {token!r} is not allowed", "document")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno} column {exc.colno}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply", "document") from exc
    except ValueError as exc:  # int() refuses integers of over 4300 digits
        raise ParseError("invalid JSON: integer has too many digits",
                         "document") from exc
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
    tol = Tolerance(_real(tol_value, "tolerance"))

    closure = doc.get("closure", "intersections")
    if closure not in ("intersections", "coarsenings"):
        raise ValidationError(
            f"closure must be 'intersections' or 'coarsenings', got {closure!r}")

    operators: dict = {}
    families: list[tuple[Sequence[str], str]] = []  # names and label per context
    builtins_node = doc.get("builtins", [])
    if not isinstance(builtins_node, list) or not all(
            isinstance(b, str) for b in builtins_node):
        raise ParseError("builtins must be a list of names", "builtins")
    for name in builtins_node:
        bdim, bops, blines = _builtin_lines(name)
        if bdim != dim:
            raise ValidationError(
                f"builtin {name!r} has dimension {bdim}, scenario says {dim}")
        for op_name, op in bops.items():
            if op_name in operators:
                raise ValidationError(f"duplicate operator name {op_name!r}")
            operators[op_name] = op
        families += [(names, label) for label, names in blines.items()]

    ops_node = doc.get("operators", {})
    if not isinstance(ops_node, dict):
        raise ParseError("operators must be an object", "operators")
    for name, node in ops_node.items():
        if name in operators:
            raise ValidationError(f"duplicate operator name {name!r}")
        operators[name] = _matrix(node, dim, f"operators.{name}")

    # Each named operator is decomposed once, in one stack for the
    # projectors' sources and one for the rest that the groups and builtin
    # lines use (a source that is a projector of the same section takes one
    # more).  An operator's entry is its eigenvalues and eigenprojectors, or
    # the error of its Hermitian check, raised where that check stands.
    spectra: dict = {}

    def decompose(names) -> None:
        fresh = [nm for nm in dict.fromkeys(names) if nm not in spectra]
        if fresh:
            spectra.update(zip(fresh, eigensystems(
                [operators[nm] for nm in fresh], tol, [f"operator {nm!r}" for nm in fresh])))

    projs_node = doc.get("projectors", {})
    if not isinstance(projs_node, dict):
        raise ParseError("projectors must be an object", "projectors")
    decompose(node["operator"] for node in projs_node.values() if isinstance(node, dict)
              and isinstance(node.get("operator"), str) and node["operator"] in operators)
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
        decompose([source])  # a projector read earlier in this section
        operators[name] = _projector(name, node, spectra[source], dim)

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
    lines, stop = len(families), None
    for gi, group in enumerate(groups_node):
        try:
            if not isinstance(group, list) or not group or not all(
                    isinstance(nm, str) for nm in group):
                raise ParseError("each group must be a nonempty list of names",
                                 f"groups[{gi}]")
            for nm in group:
                if nm not in operators:
                    raise ValidationError(
                        f"group {gi} references unknown operator {nm!r}")
        except ToposError as exc:  # raised after the groups before it
            stop = exc
            break
        families.append((group, ",".join(group)))

    decompose(nm for names, _ in families for nm in names)
    # A group with an operator that fails its Hermitian check raises that
    # after the groups before it are generated.
    cut = next((at for at, (names, _) in enumerate(families)
                if any(isinstance(spectra[nm], ToposError) for nm in names)),
               len(families))
    used = list(dict.fromkeys(nm for names, _ in families[:cut] for nm in names))
    row = {nm: r for r, nm in enumerate(used)}
    maximal = _generate(np.stack([operators[nm] for nm in used]),
                        [spectra[nm] for nm in used],
                        [[row[nm] for nm in names] for names, _ in families[:cut]],
                        tol, [label for _, label in families[:cut]]) if used else []
    for at, made in enumerate(maximal):
        gi = at - lines
        if isinstance(made, NonCommuting):
            names = families[at][0]
            raise ValidationError(
                f"group {gi}: operators {names[made.i]!r} and {names[made.j]!r} do not "
                f"commute; commutator norm {made.norm:.6e}") from made
        if isinstance(made, TrivialContext):
            raise ValidationError(
                f"group {gi} generates the trivial algebra: {made}") from made
        if isinstance(made, ToposError):
            raise made
    if cut < len(families):
        fault = next(spectra[nm] for nm in families[cut][0]
                     if isinstance(spectra[nm], ToposError))
        if isinstance(fault, NotHermitian):
            raise ValidationError(f"group {cut - lines}: {fault}") from fault
        raise fault
    if stop is not None:
        raise stop

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Scenario(dimension=dim, tolerance=tol, operators=operators,
                    states=states, closure=closure,
                    builtins=tuple(builtins_node), maximal_contexts=maximal,
                    digest=digest)
