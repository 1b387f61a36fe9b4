"""Dense complex linear algebra for small Hilbert spaces.

Operators are square ``complex128`` arrays and vectors are one-dimensional
arrays.  Every approximate comparison is a Frobenius-norm test scaled by the
matrix dimension, driven by the single :class:`Tolerance` that the rest of
the package threads through unchanged.

Block relations.  Two projectors p and q *meet* when ``||p q||_F > eps * d``.
For blocks of two partitions of unity every relation the package needs is
read off that one test (:func:`overlaps`): block q lies under block p
(``q <= p``) iff q meets p and no other block of p's partition; context
inclusion, equality, intersection, the restriction maps and outer
daseinisation all follow.  A call is one matrix product, one stack's
matrices one under another times the other's side by side, each ``d x d``
tile's sum of squares against ``(eps * d)^2``.  Squaring adds only relative
rounding, so that decides as the norm does.  A trace would not:
``||p q||_F^2 = tr(p q)`` for projectors, but its terms of size one cancel
to noise near ``1e-16``, above ``(eps * d)^2``.  Every stacked threshold
test compares squared norms (:func:`sq_frob`); a printed norm is one pair's.

Validation is remembered.  :func:`require_projector` keeps the C-contiguous
``complex128`` matrices it accepts, keyed by ``(eps, shape, bytes)``, in a set
emptied at 128 entries (512 KiB of keys at dimension 16).  A hit skips
``as_operator``'s checks and the projector test, pure functions of those bytes
at that ``eps``, and returns a read-only view of the input; refusals are
never kept.

Block equality.  ``build_poset`` stores each distinct block once: p and q
are the same block iff ``||p - q||_F <= eps * d`` (:func:`same_blocks`).
This agrees with ``contexts_equal``, whose test is that the meet matrix of
two partitions is a permutation.  If p meets only q of q's partition and q
only p of p's, then ``p = p q + sum(p q')`` and ``q = p q + sum(p' q)``
with every other product below ``eps * d``; in exact arithmetic those
vanish and p = p q = q.  Conversely equal blocks meet only each other.
Within the tolerance the two can disagree: blocks a little more than
``eps * d`` apart are distinct yet meet only each other, and
``build_poset`` refuses the cyclic order of two contexts made of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotProjector,
    ToposError,
    ValidationError,
)

MAX_DIM = 16
_ACCEPTED_CAP = 128  # see "Validation is remembered" above
_accepted: set[tuple] = set()  # (eps, shape, bytes) of accepted projectors


@dataclass(frozen=True)
class Tolerance:
    """One comparison tolerance; scale by the dimension before comparing."""

    eps: float = 1e-9

    def __post_init__(self):
        eps = self.eps
        ok = isinstance(eps, (int, float)) and not isinstance(eps, bool)
        if not ok or not 0.0 < eps < 1e-3:  # also refuses nan and inf
            try:
                shown = repr(eps)
            except Exception:  # an int past the digit limit, or a broken __repr__
                shown = f"an unprintable {type(eps).__name__}"
            raise ValidationError(f"tolerance must lie in (0, 1e-3), got {shown}")

    def scaled(self, dim: int) -> float:
        return self.eps * dim


def as_operator(matrix) -> np.ndarray:
    """Coerce to a read-only square complex matrix, enforcing the size cap."""
    try:
        m = np.array(matrix, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"not a matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValidationError(
            f"dimension {m.shape[0]} exceeds the desk-scale cap {MAX_DIM}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def as_vector(entries, dim: int | None = None) -> np.ndarray:
    """Coerce to a read-only complex vector, optionally of a fixed length."""
    try:
        v = np.array(entries, dtype=complex).reshape(-1)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"not a vector: {exc}") from exc
    if v.size == 0 or v.size > MAX_DIM:
        raise ValidationError(f"vector length {v.size} outside 1..{MAX_DIM}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"vector length {v.size} != dimension {dim}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValidationError("vector entries must be finite")
    v.setflags(write=False)
    return v


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermiticity_defect(a: np.ndarray) -> float:
    return frob(a - a.conj().T)


def require_hermitian(matrix, tol: Tolerance = Tolerance()) -> np.ndarray:
    m = as_operator(matrix)
    defect = hermiticity_defect(m)
    if defect > tol.scaled(m.shape[0]):
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds "
                           f"{tol.scaled(m.shape[0]):.3e}")
    return m


def sq_frob(stack) -> np.ndarray:
    """Squared Frobenius norms over the last two axes of a complex stack."""
    x = np.ascontiguousarray(stack, dtype=complex).view(np.float64)
    return np.einsum("...ij,...ij->...", x, x)


def _projector_ok(p: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Per matrix of ``p`` (one from ``as_operator``, or a stack of them):
    Hermitian and idempotent within tolerance."""
    bound = tol.scaled(p.shape[-1]) ** 2
    herm = sq_frob(p - p.conj().swapaxes(-2, -1))
    return (herm <= bound) & (sq_frob(p @ p - p) <= bound)


def is_projector(matrix, tol: Tolerance = Tolerance()) -> bool:
    """True iff the matrix is Hermitian and idempotent within tolerance."""
    try:
        require_projector(matrix, tol)
    except NotProjector:
        return False
    return True


def require_projector(matrix, tol: Tolerance = Tolerance(),
                      name: str = "operator") -> np.ndarray:
    """``matrix`` as a read-only complex matrix, or ``NotProjector`` naming it
    ``name``.  A remembered ``complex128`` ndarray is not checked again: the
    result is then a read-only view sharing memory with ``matrix``."""
    key = (type(matrix) is np.ndarray and matrix.dtype == np.complex128
           and matrix.flags.c_contiguous and (tol.eps, matrix.shape, matrix.tobytes()))
    if key in _accepted:
        p = matrix.view()
        p.setflags(write=False)
        return p
    p = as_operator(matrix)
    if not _projector_ok(p, tol):
        raise NotProjector(f"{name} is not a projector within tolerance")
    if key:
        if len(_accepted) >= _ACCEPTED_CAP:
            _accepted.clear()
        _accepted.add(key)
    return p


def eigensystem(matrix, tol: Tolerance = Tolerance()) -> list[tuple[float, np.ndarray]]:
    """Spectral decomposition as (eigenvalue, eigenprojector) pairs.

    Eigenvalues are strictly increasing; eigenvalues closer than
    ``eps * max(1, ||A||_F)`` are merged into a single eigenprojector.  The
    projectors are pairwise orthogonal and sum to the identity.  This is
    the one-matrix case of :func:`eigensystems`.
    """
    found = eigensystems([matrix], tol)[0]
    if isinstance(found, ToposError):
        raise found
    values, projs = found
    return list(zip(values, projs))


def eigensystems(mats: Sequence, tol: Tolerance = Tolerance(),
                 names: Sequence[str] | None = None) -> list:
    """:func:`eigensystem` of each matrix of one dimension, with one
    ``np.linalg.eigh`` over all of them.

    Per matrix, the error its own check would raise (``as_operator``'s, the
    overflow refusal below, then ``NotHermitian``), or its eigenvalues as a
    list and its eigenprojectors as one read-only ``(k, d, d)`` stack.  A
    matrix whose squared Frobenius norm overflows float64 is refused as too
    large, named as ``names[i]`` (default "matrix"): its eigenvalue gap
    would be infinite and merge every eigenvalue, and its products would
    overflow.  The Hermitian test and the gap ``eps * max(1, ||A||_F)``
    come from one squared norm per matrix; each eigenprojector is one
    product of its eigenvectors, all those of one width at a time, and its
    eigenvalue their mean, bit for bit as one matrix at a time.
    """
    out: list = []
    good: list[np.ndarray] = []
    rows: list[int] = []  # the position in ``out`` of each matrix of ``good``
    for m in mats:
        try:
            good.append(as_operator(m))
            rows.append(len(out))
            out.append(None)
        except ValidationError as exc:
            out.append(exc)
    if not good:
        return out
    stack = np.stack(good)
    d = stack.shape[-1]
    bound = tol.scaled(d)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = sq_frob(stack)
        skew = sq_frob(stack - stack.conj().swapaxes(1, 2)) > bound ** 2
    big = ~np.isfinite(norms)
    for x in np.flatnonzero(big | skew).tolist():
        if big[x]:
            name = names[rows[x]] if names else "matrix"
            out[rows[x]] = ValidationError(f"{name} is too large: its squared "
                                           f"Frobenius norm overflows float64")
        else:
            out[rows[x]] = NotHermitian(f"hermiticity defect "
                                        f"{hermiticity_defect(good[x]):.3e} "
                                        f"exceeds {bound:.3e}")
    keep = np.flatnonzero(~(big | skew))
    if not keep.size:
        return out
    evals, vecs = np.linalg.eigh(stack[keep])
    gap = tol.eps * np.maximum(1.0, np.sqrt(norms[keep]))
    first = np.ones(evals.shape, dtype=bool)  # where a cluster of eigenvalues starts
    first[:, 1:] = np.diff(evals, axis=1) > gap[:, None]
    starts = np.flatnonzero(first)
    widths = np.diff(starts, append=first.size)
    row, col = np.divmod(starts, d)
    values = np.empty(len(starts))
    projs = np.empty((len(starts), d, d), dtype=complex)
    for w in np.unique(widths).tolist():
        at = np.flatnonzero(widths == w)
        span = col[at, None] + np.arange(w)
        cols = vecs[row[at, None], :, span].swapaxes(1, 2)
        proj = cols @ cols.conj().swapaxes(1, 2)
        projs[at] = (proj + proj.conj().swapaxes(1, 2)) / 2
        values[at] = evals[row[at, None], span].sum(axis=1) / w
    projs.setflags(write=False)
    cut = np.searchsorted(row, np.arange(len(keep) + 1)).tolist()
    values = values.tolist()
    for k, x in enumerate(keep.tolist()):
        out[rows[x]] = values[cut[k]:cut[k + 1]], projs[cut[k]:cut[k + 1]]
    return out


def apply_function(matrix, h: Callable[[float], float],
                   tol: Tolerance = Tolerance()) -> np.ndarray:
    """Apply a real function to a Hermitian matrix through its spectrum."""
    pairs = eigensystem(matrix, tol)
    dim = pairs[0][1].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for value, proj in pairs:
        out += float(h(value)) * proj
    out = (out + out.conj().T) / 2
    out.setflags(write=False)
    return out


PAIR_ENTRIES = 1 << 20  # matrix entries in one batch of pairwise results


def _pairwise(test: Callable) -> Callable:
    """``test(ps, qs, tol)`` on ``complex128`` stacks, a row per matrix of
    ``ps``, run on slices of ``ps`` so that no batch holds more than
    ``PAIR_ENTRIES`` matrix entries; tests check that slicing changes no bit."""

    @functools.wraps(test)
    def batched(ps, qs, tol: Tolerance = Tolerance()) -> np.ndarray:
        ps, qs = np.asarray(ps, dtype=complex), np.asarray(qs, dtype=complex)
        rows = max(1, PAIR_ENTRIES // max(1, qs.size))
        if len(ps) <= rows:
            return test(ps, qs, tol)
        return np.concatenate([test(ps[lo:lo + rows], qs, tol)
                               for lo in range(0, len(ps), rows)])

    return batched


@_pairwise
def overlaps(ps, qs, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Which blocks meet: ``out[i, j]`` is ``||ps[i] qs[j]||_F > eps * d``.

    Takes sequences of already-validated projectors of one dimension: ``ps``
    stacked as an ``(n d, d)`` matrix times ``qs`` side by side as a
    ``(d, m d)`` one has ``ps[i] qs[j]`` as its ``(i, j)`` tile.
    """
    (n, d, _), m = ps.shape, len(qs)
    prod = ps.reshape(n * d, d) @ qs.transpose(1, 0, 2).reshape(d, m * d)
    tiles = prod.view(np.float64).reshape(n, d, m, 2 * d)
    return np.einsum("iajb,iajb->ij", tiles, tiles) > tol.scaled(d) ** 2


@_pairwise
def same_blocks(ps, qs, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Which blocks are equal: ``out[i, j]`` is ``||ps[i] - qs[j]||_F <= eps * d``.

    Only pairs that may be that close are differenced.  Their squared
    distance is first estimated as ``||p||^2 + ||q||^2 - 2 Re <p, q>`` from
    one product of the stacks; its rounding error is far below ``1e-9 s``
    with ``s = ||p||^2 + ||q||^2``, and ``(eps * d)^2 < 1/2``, so a pair
    estimated at ``1/2 + 1e-9 s`` or more is not equal.  A pair whose
    estimate is not a number (an overflow) is differenced.
    """
    d = ps.shape[-1]
    a = ps.reshape(len(ps), d * d).view(np.float64)
    b = qs.reshape(len(qs), d * d).view(np.float64)
    scale = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
    i, j = np.nonzero(~(scale - 2 * (a @ b.T) >= 0.5 + 1e-9 * scale))
    gap = (ps[i] - qs[j]).view(np.float64)
    out = np.zeros((len(ps), len(qs)), dtype=bool)
    out[i, j] = np.einsum("ikl,ikl->i", gap, gap) <= tol.scaled(d) ** 2
    return out


def proj_leq(p, q, tol: Tolerance = Tolerance()) -> bool:
    """Projector order: p <= q iff q absorbs p, i.e. ||q p - p|| small."""
    p = require_projector(p, tol, "first argument")
    q = require_projector(q, tol, "second argument")
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} and {q.shape} differ")
    return frob(q @ p - p) <= tol.scaled(p.shape[0])
