"""Single-context daseinisation is a row of the poset-wide one.

``daseinise_projector(_inner)(P, ctx)`` tests ``P`` against
``Context.stack``; ``quantum.daseinise(P, poset, tol, inner)`` tests it
against the poset's block table.  Both turn a context's hits into indices
and a matrix through ``quantum._approximation``, so per context the block
indices and the matrix bytes must agree bit for bit.
``DIGESTS`` pins those outputs, and ``daseinise_observable``'s, per case as
the per-call validating, per-call stacking code gave them.  Cases: every
bundled scenario under both closures and the seed-1 ``prop-logic`` families
of ``perfbench/gen.py``; projectors: each named one, then a seeded Haar
projector of every proper rank.
"""
from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pytest

from qtopos import contexts as C
from qtopos import quantum as Q
from qtopos.numerics import Tolerance, is_projector, require_projector
from qtopos.scenario import parse_scenario
from tests.conftest import random_projector
from tests.test_closure import NAMED, _load_gen

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
TOL = Tolerance()
FAMILIES = ["family00", "family01"]  # prop-logic, seed 1

DIGESTS = {
    ("builtin:pauli2", "intersections"):
        "cf5bb21d3d8869fed634296cf8995fd02db9b31a0dddf016f9a3f25fe100a984",
    ("builtin:pauli2", "coarsenings"):
        "cf5bb21d3d8869fed634296cf8995fd02db9b31a0dddf016f9a3f25fe100a984",
    ("builtin:mermin-square", "intersections"):
        "297386f5cbb0abbf019231a8f8a3b308649995b76c200f178f5089b9b8e8ca17",
    ("builtin:mermin-square", "coarsenings"):
        "113488e64840292c8d6fe05a855ae6c65634dcb94f0a652e3eb992becdff175b",
    ("cabello18.json", "intersections"):
        "9f22c6847d00d6318f904fd1150086e0bfd0dcda47da3228520380aad4c99337",
    ("cabello18.json", "coarsenings"):
        "4934ebb401d523091c8d40f92a9aa0657c890638ae872bdfd9e625db2dfb1819",
    ("mermin_square.json", "intersections"):
        "b51fcced14d6f627db9b797699fa0bd3fd6686138e98303f4678eff2e57b3001",
    ("mermin_square.json", "coarsenings"):
        "f351866164b8a91b0c03b85ee6828f452c36016c77a146c3ed75b63ef12d6669",
    ("pauli2.json", "intersections"):
        "39ca6b2c3c6bb87e8dd816c43e3a5fa11db261526beafb157eb1ff343f3aa950",
    ("pauli2.json", "coarsenings"):
        "39ca6b2c3c6bb87e8dd816c43e3a5fa11db261526beafb157eb1ff343f3aa950",
    ("peres33.json", "intersections"):
        "62cc05c143f4fb6e878accfd3842a8d97d2ba1da53ad912f140ed16a348a0230",
    ("peres33.json", "coarsenings"):
        "06db4bcef4584bb1c470dc7d9ae12ff11d12622c6cd83f8e7c1d67134b22e760",
    ("two_qubit_parity.json", "intersections"):
        "988384a85d7f21cd192f4d58491def763ab075f64228534c2c1dc3715389ecfa",
    ("two_qubit_parity.json", "coarsenings"):
        "4883300d7d90263085679c8b8908f0232365df1f6f1deba0e32c70ecd79a53fa",
    ("family00", None):
        "d452c35594a42e4d12ab97b750357fafda1cb97a4ac84332ee62da6acf25cd79",
    ("family01", None):
        "d2fa769268fd459bf13604316ed22238cc24a31eeb4a311926c05b771e46d5fd",
}


@pytest.fixture(scope="module")
def families(tmp_path_factory):
    out = tmp_path_factory.mktemp("prop-logic")
    _load_gen().make_inputs("prop-logic", 1, out)
    return {name: parse_scenario((out / f"{name}.json").read_text(encoding="utf-8"))
            for name in FAMILIES}


def _case(name, closure, families):
    """Maximal contexts, named operators, closure and tolerance of a case."""
    if name.startswith("builtin:"):
        _, operators, maximal = C.builtin_scenario(name[8:], TOL)
        return maximal, operators, closure, TOL
    scn = (families[name] if name in families
           else parse_scenario((SCENARIOS / name).read_text()))
    return scn.maximal_contexts, scn.operators, closure or scn.closure, scn.tolerance


def single_context_digest(maximal, operators, closure, tol) -> str:
    poset = C.build_poset(maximal, closure, tol)
    rng = np.random.default_rng(len(poset))
    named = [op for _, op in sorted(operators.items()) if is_projector(op, tol)]
    haar = [random_projector(poset.dim, rng, rank) for rank in range(1, poset.dim)]
    digest = hashlib.sha256()
    for p in named + haar:
        for inner, public in ((False, Q.daseinise_projector),
                              (True, Q.daseinise_projector_inner)):
            rows = Q.daseinise(p, poset, tol, inner)
            for ctx, (indices, matrix) in zip(poset.contexts, rows):
                own, mine = Q._in_context(require_projector(p, tol), ctx, tol, inner)
                assert own == indices
                assert mine.tobytes() == matrix.tobytes()
                assert public(p, ctx, tol).tobytes() == matrix.tobytes()
                digest.update(repr((ctx.key, inner, indices)).encode())
                digest.update(matrix.tobytes())
    for _, op in sorted(operators.items()):
        for ctx in poset.contexts:
            for matrix in Q.daseinise_observable(op, ctx, tol):
                digest.update(matrix.tobytes())
    return digest.hexdigest()


CASES = [(name, closure) for name in NAMED
         for closure in ("intersections", "coarsenings")] + [
    (name, None) for name in FAMILIES]


@pytest.mark.parametrize("name, closure", CASES)
def test_single_context_rows_match_the_poset_wide_rows(name, closure, families):
    got = single_context_digest(*_case(name, closure, families))
    assert got == DIGESTS[(name, closure)]


def test_the_stack_is_built_on_first_use_only():
    maximal, _, closure, tol = _case("mermin_square.json", "coarsenings", {})
    poset = C.build_poset(maximal, closure, tol)
    assert not any("stack" in vars(ctx) for ctx in poset.contexts)
    ctx = poset.contexts[-1]
    assert ctx.stack is ctx.stack and not ctx.stack.flags.writeable
    assert np.array_equal(ctx.stack, np.stack(ctx.blocks))
