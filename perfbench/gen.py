"""Seeded input generator for the benchmark workloads.

Only numpy is used here: the inputs, and the facts the oracles compare
against, never come from the package under test.  The same seed gives
byte-identical scenario files, expressions and presheaf descriptions.

Every workload draws its op list from a fixed, seed-independent schedule
of shapes (family type, closure, expression tree, kernel poset and
presheaves), and the seed picks only what varies inside a shape: the Haar
rotation, which lines, the leaf names, states and projectors, and the names
of kernel elements and points.  The amount of work per pass is then the
same for every seed.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# The Mermin-Peres square: rows and columns are commuting triples whose
# products are +1 except col2, whose product is -1.
OBSERVABLES = {
    "XI": np.kron(SX, I2), "IX": np.kron(I2, SX), "XX": np.kron(SX, SX),
    "IY": np.kron(I2, SY), "YI": np.kron(SY, I2), "YY": np.kron(SY, SY),
    "XY": np.kron(SX, SY), "YX": np.kron(SY, SX), "ZZ": np.kron(SZ, SZ),
}
LINES = {
    "row0": ("XI", "IX", "XX"),
    "row1": ("IY", "YI", "YY"),
    "row2": ("XY", "YX", "ZZ"),
    "col0": ("XI", "IY", "XY"),
    "col1": ("IX", "YI", "YX"),
    "col2": ("XX", "YY", "ZZ"),
}
ROWS = ("row0", "row1", "row2")
COLS = ("col0", "col1", "col2")

# Seed-commit invariants of the families, by shape and closure.  They do
# not depend on the rotation; the poset-closure oracle checks every report
# against them.
POSET_INVARIANTS = {
    "square/coarsenings": {"contexts": 75, "order_pairs": 186},
    "square/intersections": {"contexts": 15, "order_pairs": 18},
    "two_rows_one_col/coarsenings": {"contexts": 40, "order_pairs": 93},
}
SIGN_TABLE_SECTIONS = {"square": 0, "two_rows_one_col": 16}

# One pass of each workload, as (family shape, closure) per op.  The mix is
# fixed so every seed asks for the same amount of work.
POSET_PASS = (("square", "coarsenings"),) + (("two_rows_one_col",
                                              "coarsenings"),) * 3
KS_PASS = ((("two_rows_one_col", "coarsenings"),) * 8
           + (("square", "coarsenings"),) + (("square", "intersections"),) * 2)
PROP_FAMILIES = (("square", "coarsenings"), ("square", "intersections"))
PROP_OPS = 12
PROP_STATES = 4
# Expression trees and connectives come from this fixed stream, so each op
# slot asks for the same Heyting work under every seed; the seed picks the
# leaves, the state and the projector.
PROP_SHAPE_SEED = 2010_0001
KERNEL_SLOTS = 192
KERNEL_CATALOG_SEED = 1004_3564  # see kernel_case


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotate(op: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = u @ op @ u.conj().T
    return (out + out.conj().T) / 2


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def family_lines(shape: str, rng: np.random.Generator) -> tuple[str, ...]:
    if shape == "square":
        return ROWS + COLS
    if shape == "two_rows_one_col":
        rows = sorted(rng.choice(len(ROWS), size=2, replace=False))
        col = int(rng.integers(len(COLS)))
        return tuple(ROWS[i] for i in rows) + (COLS[col],)
    raise ValueError(f"unknown family shape {shape!r}")


def line_sign(line: str) -> int:
    """The scalar that the line's three observables multiply to."""
    a, b, c = (OBSERVABLES[name] for name in LINES[line])
    prod = a @ b @ c
    sign = int(round(float(np.trace(prod).real) / 4))
    if sign not in (1, -1) or not np.allclose(prod, sign * np.eye(4)):
        raise AssertionError(f"line {line} does not multiply to +-1")
    return sign


def sign_table_count(lines) -> int:
    """Brute-force count of +-1 value assignments respecting line products.

    This is the independent oracle for the Kochen-Specker section count:
    16 for two rows and a column, 0 for the whole square.
    """
    names = sorted({name for line in lines for name in LINES[line]})
    signs = {line: line_sign(line) for line in lines}
    count = 0
    for bits in itertools.product((1, -1), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(val[a] * val[b] * val[c] == signs[line]
               for line in lines for a, b, c in [LINES[line]]):
            count += 1
    return count


def _eigenstate(u: np.ndarray, lines, rng: np.random.Generator) -> np.ndarray:
    """A rotated joint eigenvector of one line, with a random phase."""
    line = lines[int(rng.integers(len(lines)))]
    ops = [OBSERVABLES[name] for name in LINES[line]]
    _, vecs = np.linalg.eigh(ops[0] + 2 * ops[1])
    vec = vecs[:, int(rng.integers(4))] * np.exp(2j * np.pi * rng.random())
    vec = u @ vec
    return vec / np.linalg.norm(vec)


def mermin_scenario(shape: str, closure: str, rng: np.random.Generator,
                    n_states: int = 0) -> dict:
    """A U-rotated Mermin family as a scenario document plus its facts.

    Returns ``{"text", "lines", "observables", "sections", "unitary"}``: the
    scenario JSON text, the lines used, the observable names, the sign-table
    section count, and the rotation (for the benchmark's own numpy checks).
    """
    u = haar_unitary(4, rng)
    lines = family_lines(shape, rng)
    names = sorted({name for line in lines for name in LINES[line]})
    doc = {
        "dimension": 4,
        "closure": closure,
        "operators": {name: _matrix_json(_rotate(OBSERVABLES[name], u))
                      for name in names},
        "groups": [list(LINES[line]) for line in lines],
    }
    if n_states:
        doc["projectors"] = {f"P{name}{tag}": {"operator": name,
                                               "eigenvalues": [value]}
                             for name in names
                             for tag, value in (("p", 1), ("m", -1))}
        doc["states"] = {f"s{i}": [[float(z.real), float(z.imag)]
                                   for z in _eigenstate(u, lines, rng)]
                         for i in range(n_states)}
    text = json.dumps(doc, sort_keys=True)
    sections = sign_table_count(lines)
    if sections != SIGN_TABLE_SECTIONS[shape]:
        raise AssertionError(f"{shape}: sign table gives {sections} sections")
    for line in lines:  # the rotation keeps every line product
        a, b, c = (_rotate(OBSERVABLES[name], u) for name in LINES[line])
        if not np.allclose(a @ b @ c, line_sign(line) * np.eye(4), atol=1e-12):
            raise AssertionError(f"rotated {line} lost its product")
    return {"text": text, "lines": list(lines), "observables": names,
            "sections": sections, "unitary": _matrix_json(u)}


def random_expression(leaves: int, names, shape: np.random.Generator,
                      pick: np.random.Generator) -> str:
    """A random proposition with exactly ``leaves`` leaves, fully bracketed.

    ``shape`` draws the tree, its connectives and negations; ``pick`` draws
    the leaf names.
    """
    if leaves == 1:
        text = str(names[int(pick.integers(len(names)))])
        return f"!{text}" if shape.random() < 0.2 else text
    left = int(shape.integers(1, leaves))
    op = ("&", "|", "=>")[int(shape.integers(3))]
    text = (f"({random_expression(left, names, shape, pick)} {op} "
            f"{random_expression(leaves - left, names, shape, pick)})")
    return f"!{text}" if shape.random() < 0.1 else text


def projector_matrix(name: str, unitary) -> np.ndarray:
    """The benchmark's own copy of a scenario projector ``P<obs><p|m>``."""
    obs, sign = name[1:-1], 1 if name[-1] == "p" else -1
    u = np.array([[complex(*z) for z in row] for row in unitary])
    return _rotate((np.eye(4) + sign * OBSERVABLES[obs]) / 2, u)


def _random_poset(n: int, rng: np.random.Generator) -> list[tuple[str, str]]:
    """Order pairs of a random poset on p0..p{n-1}: i < j edges with p=0.35."""
    return [(f"p{i}", f"p{j}") for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.35]


def _closure(n: int, pairs) -> list[list[bool]]:
    rel = [[i == j for j in range(n)] for i in range(n)]
    for (u, v) in pairs:
        rel[int(u[1:])][int(v[1:])] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    return rel


def random_presheaf(n: int, pairs, rng: np.random.Generator,
                    max_points: int = 3) -> dict:
    """A presheaf on the poset that is functorial by construction.

    Each element v gets an equivalence relation E_v on a hidden set S of
    up to ``max_points`` points, coarser below: u <= v implies E_u contains
    E_v.  The component at v is S/E_v and restriction sends a class to the
    class containing it, so every composite agrees with the direct map.
    """
    rel = _closure(n, pairs)
    size = int(rng.integers(1, max_points + 1))
    labels: list = [None] * n
    # i < j in every pair, so descending index visits everything above v first
    for v in range(n - 1, -1, -1):
        parent = list(range(size))

        def find(s: int) -> int:
            while parent[s] != s:
                s = parent[s]
            return s

        for w in range(v + 1, n):  # join of the partitions above v
            if rel[v][w]:
                for s in range(size):
                    for t in range(s):
                        if labels[w][s] == labels[w][t]:
                            parent[find(s)] = find(t)
        roots = sorted({find(s) for s in range(size)})
        if len(roots) > 1 and rng.random() < 0.5:  # coarsen a little more
            a, b = rng.choice(len(roots), size=2, replace=False)
            parent[roots[a]] = roots[b]
        canon: dict = {}
        labels[v] = [canon.setdefault(find(s), len(canon)) for s in range(size)]
    sets = {f"p{v}": [f"x{k}" for k in range(max(labels[v]) + 1)]
            for v in range(n)}
    restrictions = []
    for frm in range(n):
        for to in range(n):
            if frm != to and rel[to][frm]:
                mapping = {f"x{labels[frm][s]}": f"x{labels[to][s]}"
                           for s in range(size)}
                restrictions.append([f"p{frm}", f"p{to}",
                                     sorted(mapping.items())])
    return {"sets": sets, "restrictions": restrictions}


def _relabel_presheaf(case: dict, names: dict, rng: np.random.Generator) -> dict:
    """Rename elements and permute each component's points: an isomorphic copy."""
    points = {}
    for v, pts in case["sets"].items():
        perm = rng.permutation(len(pts))
        points[v] = {pt: f"x{perm[i]}" for i, pt in enumerate(pts)}
    sets = {names[v]: sorted(points[v].values()) for v in case["sets"]}
    restrictions = [[names[frm], names[to],
                     sorted((points[frm][a], points[to][b]) for a, b in mapping)]
                    for frm, to, mapping in case["restrictions"]]
    return {"sets": sets, "restrictions": sorted(restrictions)}


def kernel_case(slot: int, rng: np.random.Generator) -> dict:
    """Poset and presheaves X, A, B, C of one kernel-count slot.

    The structure of each slot comes from a fixed stream, so the work and
    the guard trips are the same for every seed.  The seed renames the
    elements, keeping their sorted order (which sets the program's search
    order), and permutes the points of every component: like the rotation
    of a Mermin family, this changes the input but not the amount of work.
    """
    fixed = np.random.default_rng([KERNEL_CATALOG_SEED, slot])
    n = 5 + slot % 3
    pairs = _random_poset(n, fixed)
    cases = {"X": random_presheaf(n, pairs, fixed, 3)}
    for key in ("A", "B", "C"):
        cases[key] = random_presheaf(n, pairs, fixed, 2)
    spelled = sorted(rng.choice(1000, size=n, replace=False))
    names = {f"p{i}": f"e{spelled[i]:03d}" for i in range(n)}
    return {"elements": sorted(names.values()),
            "pairs": sorted([names[u], names[v]] for u, v in pairs),
            **{key: _relabel_presheaf(case, names, rng)
               for key, case in cases.items()}}


def _write_family(outdir, index: int, shape: str, closure: str,
                  rng: np.random.Generator, n_states: int = 0) -> dict:
    fam = mermin_scenario(shape, closure, rng, n_states)
    path = outdir / f"family{index:02d}.json"
    path.write_text(fam["text"], encoding="utf-8")
    return {"path": str(path), "shape": shape, "closure": closure,
            "lines": fam["lines"], "sections": fam["sections"],
            "observables": fam["observables"], "unitary": fam["unitary"]}


def make_inputs(workload: str, seed: int, outdir) -> dict:
    """Write a workload's scenario files into ``outdir``; return its op list.

    The returned manifest is plain JSON: the worker process reads it and
    hands the program only the generated files and objects.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "poset-closure":
        fams = [_write_family(outdir, i, shape, closure, rng)
                for i, (shape, closure) in enumerate(POSET_PASS)]
        ops = [{"shape": f"{f['shape']}/{f['closure']}",
                "argv": ["poset", f["path"]], "family": i,
                "expect": POSET_INVARIANTS[f"{f['shape']}/{f['closure']}"]}
               for _ in range(2) for i, f in enumerate(fams)]
        return {"workload": workload, "ops": ops}
    if workload == "ks-search":
        fams = [_write_family(outdir, i, shape, closure, rng)
                for i, (shape, closure) in enumerate(KS_PASS)]
        ops = [{"shape": f"{f['shape']}/{f['closure']}",
                "argv": ["ks", f["path"], "--max-solutions", "64"],
                "sections": f["sections"]} for f in fams]
        return {"workload": workload, "ops": ops}
    if workload == "prop-logic":
        fams = [_write_family(outdir, i, shape, closure, rng, PROP_STATES)
                for i, (shape, closure) in enumerate(PROP_FAMILIES)]
        leaves = np.linspace(8, 32, PROP_OPS).round().astype(int)
        ops = []
        for i, count in enumerate(leaves):
            # three ops in four on the 75-context presheaf
            fi = 1 if i % 4 == 3 else 0
            fam = fams[fi]
            names = [f"P{obs}{tag}" for obs in fam["observables"]
                     for tag in "pm"]
            proj = names[int(rng.integers(len(names)))]
            ops.append({
                "shape": f"{fam['shape']}/{fam['closure']}", "family": fi,
                "expr": random_expression(
                    int(count), names,
                    np.random.default_rng([PROP_SHAPE_SEED, i]), rng),
                "leaves": int(count),
                "state": f"s{int(rng.integers(PROP_STATES))}",
                "projector": proj,
                "projector_matrix": _matrix_json(
                    projector_matrix(proj, fam["unitary"]))})
        return {"workload": workload, "families": fams, "ops": ops}
    if workload == "kernel-count":
        ops = [{"shape": f"poset{5 + slot % 3}/slot{slot}", "slot": slot,
                **kernel_case(slot, rng)} for slot in range(KERNEL_SLOTS)]
        return {"workload": workload, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("poset-closure", "ks-search", "prop-logic", "kernel-count")
