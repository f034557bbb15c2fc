"""Dense complex linear-algebra kernel for small multi-qubit operators.

Everything here works on plain ``numpy`` arrays (complex128) plus a thin
:class:`HermitianOperator` wrapper that carries tensor-factor bookkeeping.
All desk-scale uses are at most 64x64 (six qubits), so dense LAPACK routines
are used throughout.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SIGMA",
    "ConvergenceError",
    "HermitianOperator",
    "hermitian_spectrum",
    "kron",
    "kron_all",
    "partial_transpose",
    "psd_verdict",
    "symmetric_linspace",
]

# Identity plus the three Pauli matrices, indexed 0..3.
SIGMA = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# Hermiticity drift above this at construction indicates a caller bug.
HERMITIZE_TOL = 1e-10

# PSD policy: confirmed above -1e-9 (scaled), refuted below -1e-6,
# marginal in between.  Separates roundoff from genuine negativity.
PSD_CONFIRM_TOL = 1e-9
PSD_REFUTE_TOL = 1e-6

# An oracle restart has converged once its value moves by less than this
# between iterations.
CONVERGENCE_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge.

    Carries the best value found so far in :attr:`best`.
    """

    def __init__(self, message: str, best: float | None = None):
        super().__init__(message)
        self.best = best


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianOperator):
        return a.matrix
    return np.asarray(a, dtype=np.complex128)


class HermitianOperator:
    """Hermitian matrix on a tensor product of power-of-two subsystems.

    Parameters
    ----------
    matrix:
        Square array-like.  It is symmetrized to ``(m + m^dag)/2`` at
        construction; a drift larger than ``1e-10`` or a non-finite entry
        raises ``ValueError``.
    dims:
        Subsystem dimensions whose product equals the matrix dimension.
        Defaults to qubit factors ``(2,)*k`` for dimension ``2^k``.
    """

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix, dims: Sequence[int] | None = None):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        d = m.shape[0]
        if d & (d - 1):
            raise ValueError(f"dimension {d} is not a power of two")
        drift = np.abs(m - m.conj().T).max() / 2
        if drift > HERMITIZE_TOL:
            raise ValueError(f"matrix is not Hermitian (drift {drift:.3g})")
        self.matrix = (m + m.conj().T) / 2
        if dims is None:
            dims = (2,) * (d.bit_length() - 1)
        dims = tuple(int(x) for x in dims)
        if int(np.prod(dims)) != d:
            raise ValueError(f"factor dims {dims} do not multiply to {d}")
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def spectrum(self) -> np.ndarray:
        return hermitian_spectrum(self.matrix)

    def min_eig(self) -> float:
        return float(self.spectrum()[0])

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim}, dims={self.dims})"


def kron(a, b) -> np.ndarray | HermitianOperator:
    """Kronecker product; factor bookkeeping concatenates for wrapped operands."""
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    return np.kron(_as_matrix(a), _as_matrix(b))


def kron_all(mats: Iterable) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for m in mats:
        out = np.kron(out, _as_matrix(m))
    return out


def partial_transpose(y: HermitianOperator, subsystems: Iterable[int]) -> HermitianOperator:
    """Transpose the listed tensor factors of ``y``."""
    subs = sorted(set(int(k) for k in subsystems))
    n = y.nfactors
    if subs and (subs[0] < 0 or subs[-1] >= n):
        raise ValueError(f"factor index out of range for {n} factors: {subs}")
    axes = list(range(2 * n))
    for k in subs:
        axes[k], axes[n + k] = axes[n + k], axes[k]
    t = y.matrix.reshape(y.dims + y.dims).transpose(axes)
    return HermitianOperator(t.reshape(y.dim, y.dim), y.dims)


def hermitian_spectrum(h) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    m = _as_matrix(h)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigensolver failed to converge: {exc}") from exc


def psd_verdict(eigs: np.ndarray) -> str:
    """Three-way positivity verdict from an ascending eigenvalue list.

    Returns ``"psd"`` when the minimum eigenvalue is above ``-1e-9`` scaled
    by the spectral radius, ``"not_psd"`` below ``-1e-6``, else ``"marginal"``
    (callers should widen sampling).
    """
    eigs = np.asarray(eigs, dtype=float)
    lo = float(eigs[0])
    radius = float(max(abs(eigs[0]), abs(eigs[-1])))
    if lo >= -PSD_CONFIRM_TOL * max(1.0, radius):
        return "psd"
    if lo < -PSD_REFUTE_TOL:
        return "not_psd"
    return "marginal"


def symmetric_linspace(lo: float, hi: float, steps: int) -> np.ndarray:
    """Evenly spaced grid whose floats are exactly symmetric about the center.

    ``np.linspace`` accumulates rounding asymmetrically, which makes exact
    boundary slacks (for example at ``l_j^2 = l_k^2``) flip sign between
    mirror grid points; integer-times-step construction keeps mirror points
    bitwise negatives of each other.
    """
    if steps < 2:
        raise ValueError("a grid needs at least two steps")
    mid = (lo + hi) / 2.0
    offsets = np.arange(steps) - (steps - 1) / 2.0
    return offsets * ((hi - lo) / (steps - 1)) + mid
