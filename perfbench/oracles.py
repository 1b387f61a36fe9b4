"""Output checks that do not come from the package under test.

Each function returns ``None`` when the answer is right and a short reason
string when it is wrong; the worker counts a reason as a failed op.  The
facts compared against come from ``gen`` (numpy only) or are identities
between two independent computations.
"""

from __future__ import annotations

import json

import numpy as np

BRACKET_TOL = 1e-8


def check_poset_report(stdout: str, expected: dict,
                       first_stdout: str | None) -> str | None:
    """Context and strict order-pair counts, and byte-identical repeats."""
    if first_stdout is not None and stdout != first_stdout:
        return "repeated poset report differs from the first one"
    report = json.loads(stdout)
    contexts = report["context_count"]
    if contexts != len(report["contexts"]):
        return "context_count disagrees with the context listing"
    if contexts != expected["contexts"]:
        return f"{contexts} contexts, expected {expected['contexts']}"
    pairs = len(report["relation"])
    if pairs != expected["order_pairs"]:
        return f"{pairs} strict order pairs, expected {expected['order_pairs']}"
    return None


def check_ks_report(stdout: str, sign_table_sections: int) -> str | None:
    """Section count equals the brute-force sign-table count."""
    report = json.loads(stdout)
    count = report["section_count"]
    if count != len(report["sections"]):
        return "section_count disagrees with the section listing"
    if count != sign_table_sections:
        return f"{count} sections, sign table says {sign_table_sections}"
    status = "SectionsExist" if count else "NoSection"
    if report["status"] != status:
        return f"status {report['status']!r} with {count} sections"
    return None


def check_counting(n_sub: int, n_chi: int, n_power: int,
                   n_hom_exp: int, n_hom_prod: int) -> str | None:
    """|Sub X| = |Hom(X, Omega)| = |Gamma(PX)| and |Hom(C, B^A)| = |Hom(C x A, B)|."""
    if not n_sub == n_chi == n_power:
        return (f"subobject counts differ: Sub {n_sub}, Hom(X, Omega) {n_chi}, "
                f"Gamma(PX) {n_power}")
    if n_hom_exp != n_hom_prod:
        return f"exponential adjunction fails: {n_hom_exp} != {n_hom_prod}"
    return None


def check_truth_routes(pseudo_members, truthobject_members) -> str | None:
    """Both truth-value routes give the same lower set."""
    if set(pseudo_members) != set(truthobject_members):
        return "pseudo-state and truth-object routes disagree"
    return None


def check_bracket(projector: np.ndarray, outer: np.ndarray,
                  inner: np.ndarray) -> str | None:
    """Daseinisation brackets the projector: outer P = P and inner P = inner."""
    p = np.asarray(projector)
    scale = BRACKET_TOL * p.shape[0]
    if np.linalg.norm(np.asarray(outer) @ p - p) > scale:
        return "outer daseinisation does not dominate the projector"
    if np.linalg.norm(np.asarray(inner) @ p - np.asarray(inner)) > scale:
        return "inner daseinisation is not dominated by the projector"
    return None
