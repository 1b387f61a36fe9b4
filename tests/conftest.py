from __future__ import annotations

import numpy as np
import pytest

from qtopos.contexts import BlockTable, Context, make_context
from qtopos.numerics import Tolerance

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def tol() -> Tolerance:
    return Tolerance()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (ginibre + ginibre.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_projector(dim: int, rng: np.random.Generator,
                     rank: int | None = None) -> np.ndarray:
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def random_context(dim: int, rng: np.random.Generator,
                   tol: Tolerance | None = None,
                   n_blocks: int | None = None) -> Context:
    """A context from a random orthonormal basis grouped into blocks."""
    if tol is None:
        tol = Tolerance()
    if n_blocks is None:
        n_blocks = int(rng.integers(2, dim + 1))
    cuts = sorted(rng.choice(range(1, dim), size=n_blocks - 1, replace=False))
    bounds = [0, *cuts, dim]
    u = random_unitary(dim, rng)
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        cols = u[:, lo:hi]
        blocks.append(cols @ cols.conj().T)
    return make_context(blocks, tol)


def unchecked_context(key: str, blocks, label: str | None = None,
                      tol: Tolerance | None = None) -> Context:
    """A context of ``blocks``, in the order given, interned into a fresh
    ``BlockTable`` at ``tol``.  Nothing is checked (``intern`` only refuses
    a block that is not a projector), so a bad partition stays bad: the
    reference implementations and the deliberately bad contexts of the
    tests are made this way."""
    mats = np.asarray(blocks, dtype=complex)
    table = BlockTable(mats.shape[-1], Tolerance() if tol is None else tol)
    return Context(key=key, dim=mats.shape[-1], label=label, table=table,
                   ids=tuple(table.intern(mats)))
