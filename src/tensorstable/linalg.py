"""Dense linear algebra on small multi-qubit operators, the see-saw, every tolerance.

Plain ``numpy`` arrays (complex128, at most 64x64, so dense LAPACK throughout)
plus a thin :class:`HermitianOperator` wrapper for an operator on qubits.
:func:`block_positivity_min` minimizes an operator's quadratic form over
product vectors by alternating eigenvector descent (see-saw).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BLOCH_ROTATIONS",
    "SIGMA",
    "ConvergenceError",
    "HermitianOperator",
    "OracleConfig",
    "SeeSawResult",
    "block_positivity_min",
    "hermitian_spectrum",
    "integer_at_least",
    "kron",
    "partial_transpose",
    "psd_verdict",
    "rotated_ghz3",
    "symmetric_linspace",
]

# Identity plus the three Pauli matrices, indexed 0..3.
SIGMA = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

# Bloch-ball rotations inverting one axis and swapping the other two.
BLOCH_ROTATIONS = (
    np.eye(2, dtype=np.complex128),
    (SIGMA[2] + SIGMA[3]) / np.sqrt(2),
    (SIGMA[1] + SIGMA[3]) / np.sqrt(2),
    (SIGMA[1] + SIGMA[2]) / np.sqrt(2),
)

# Hermiticity drift above this at construction indicates a caller bug.
HERMITIZE_TOL = 1e-10

# PSD policy: confirmed above -1e-9 (scaled), refuted below -1e-6,
# marginal in between.  Separates roundoff from genuine negativity.
PSD_CONFIRM_TOL = 1e-9
PSD_REFUTE_TOL = 1e-6

# A see-saw restart has converged once its value moves by less than this
# between iterations; with none converged after MAX_ITERS it raises.
CONVERGENCE_TOL = 1e-12
MAX_ITERS = 500

# Region-scan slacks this close to zero sit on a criterion boundary, below
# any oracle's resolution.
ANALYTIC_BAND = 1e-9
# Matrix entries this close to a pattern match it (unital, TP, family shape).
MATRIX_ATOL = 1e-12
# Translated-family inputs this close to 1 - |t| - |l3| = 0 take the boundary
# branch; the interior formulas degenerate there (a_- -> 0).
BOUNDARY_TOL = 1e-12
# A depth witness detects below -NEGATIVITY_TOL; a state's trace is 1 within
# STATE_TRACE_TOL and its eigenvalues are at least -STATE_PSD_TOL.
NEGATIVITY_TOL = 1e-9
STATE_TRACE_TOL = 1e-12
STATE_PSD_TOL = 1e-10
# A threshold search evaluates densely only the maps whose closed-form score is
# within SCREEN_TOL of the smallest; the closed forms match the dense spectra
# to about 1e-15, so every exact minimiser passes the screen.
SCREEN_TOL = 1e-9


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
    """Hermitian matrix on ``k`` qubits, of dimension ``2^k``.

    ``matrix`` is square array-like, symmetrized to ``(m + m^dag)/2`` at
    construction; a drift larger than ``1e-10`` or a non-finite entry raises
    ``ValueError``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nfactors(self) -> int:
        return self.dim.bit_length() - 1

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def spectrum(self) -> np.ndarray:
        return hermitian_spectrum(self.matrix)

    def min_eig(self) -> float:
        return float(self.spectrum()[0])

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def kron(a, b) -> np.ndarray | HermitianOperator:
    """Kronecker product; wrapped operands give a wrapped result."""
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    return np.kron(_as_matrix(a), _as_matrix(b))


def rotated_ghz3() -> np.ndarray:
    """Rows ``(U_i U_j)^{(x)3} |GHZ>`` over the pairs ``(i, j)`` of ``BLOCH_ROTATIONS``."""
    ghz = np.zeros(8, dtype=np.complex128)
    ghz[0] = ghz[-1] = 2**-0.5
    return np.array([functools.reduce(np.kron, [ui @ uj] * 3) @ ghz for ui in BLOCH_ROTATIONS for uj in BLOCH_ROTATIONS])


def partial_transpose(y: HermitianOperator, subsystems: Iterable[int]) -> HermitianOperator:
    """Transpose the listed qubits of ``y``."""
    subs = sorted({integer_at_least(k, 0, "subsystems must be non-negative integers") for k in subsystems})
    n = y.nfactors
    if subs and subs[-1] >= n:
        raise ValueError(f"factor index out of range for {n} factors: {subs}")
    axes = list(range(2 * n))
    for k in subs:
        axes[k], axes[n + k] = axes[n + k], axes[k]
    t = y.matrix.reshape((2,) * (2 * n)).transpose(axes)
    return HermitianOperator(t.reshape(y.dim, y.dim))


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
    by the spectral radius (at least 1), ``"not_psd"`` below ``-1e-6``, else
    ``"marginal"`` (callers should widen sampling); so is any non-finite spectrum.
    """
    eigs = np.asarray(eigs, dtype=float)
    if not np.isfinite(eigs).all():
        return "marginal"
    lo = float(eigs[0])
    radius = float(max(abs(eigs[0]), abs(eigs[-1])))
    if lo >= -PSD_CONFIRM_TOL * max(1.0, radius):
        return "psd"
    if lo < -PSD_REFUTE_TOL:
        return "not_psd"
    return "marginal"


def integer_at_least(value, floor: int, rule: str) -> int:
    """``value`` as an ``int`` if it is an integer of at least ``floor``, else
    ``ValueError`` with the message ``f"{rule}, got {value!r}"``.

    ``operator.index`` takes Python and numpy integers but no floats, which
    would be truncated (or, as step counts, overshoot their grids' bounds),
    and no strings.
    """
    try:
        n = operator.index(value)
    except TypeError:
        n = floor - 1
    if n < floor:
        raise ValueError(f"{rule}, got {value!r}")
    return n


def symmetric_linspace(lo: float, hi: float, steps: int) -> np.ndarray:
    """Evenly spaced grid whose floats are exactly symmetric about the center.

    ``np.linspace`` accumulates rounding asymmetrically, which makes exact
    boundary slacks (for example at ``l_j^2 = l_k^2``) flip sign between
    mirror grid points; integer-times-step construction keeps mirror points
    bitwise negatives of each other.
    """
    steps = integer_at_least(steps, 2, "a grid needs an integer of at least 2 steps")
    mid = (lo + hi) / 2.0
    offsets = np.arange(steps) - (steps - 1) / 2.0
    return offsets * ((hi - lo) / (steps - 1)) + mid


@dataclass(frozen=True)
class OracleConfig:
    """Budget of the see-saw; deterministic given ``seed``."""

    restarts: int = 64
    seed: int = 0
    sample_count: int = 4096

    def __post_init__(self):
        integer_at_least(self.restarts, 1, "restarts must be a positive integer")
        integer_at_least(self.sample_count, 1, "sample_count must be a positive integer")
        integer_at_least(self.seed, 0, "seed must be a non-negative integer")


@dataclass(frozen=True)
class SeeSawResult:
    """Full see-saw output: best value, witnessing vectors, value history."""

    value: float
    phi: np.ndarray
    chi: np.ndarray
    history: np.ndarray  # (steps, restarts), non-increasing along axis 0


def _random_unit(rng, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Multiply-adds per matmul in a half-step.  OpenBLAS (0.3.31) runs a complex
# gemm of 2**16 or more on a second thread, which at these sizes burns a core
# and adds latency rather than saving time, so larger batches go in row blocks.
_GEMM_BLOCK = 2**15


def _half_step(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenpairs of ``W`` contracted with each row of ``v`` on one side.

    ``w`` is the operator regrouped to ``(dv**2, d**2)``, so the contraction
    is one matmul of the rows ``vec(conj(v) v^T)`` against it, and one
    batched ``eigh`` of the symmetrized results.
    """
    d = math.isqrt(w.shape[1])
    x = (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)
    rows = max(1, _GEMM_BLOCK // w.size)
    m = np.concatenate([x[i : i + rows] @ w for i in range(0, len(x), rows)]).reshape(-1, d, d)
    vals, vecs = np.linalg.eigh((m + np.conj(np.swapaxes(m, -1, -2))) / 2)
    return vals[..., 0].real, vecs[..., :, 0]


def _see_saw(w_b, w_a, chi0: np.ndarray) -> SeeSawResult:
    """Alternating eigenvector minimization of ``<phi chi|W|phi chi>``.

    ``w_b`` and ``w_a`` are the operator regrouped to ``(dB**2, dA**2)`` and
    ``(dA**2, dB**2)``; ``chi0`` is a batch of starting vectors on the B side.
    """
    chi = chi0
    values = None
    history = []
    converged = np.zeros(len(chi0), dtype=bool)
    for _ in range(MAX_ITERS):
        va, phi = _half_step(w_b, chi)
        history.append(va)
        vb, chi = _half_step(w_a, phi)
        history.append(vb)
        if values is not None:
            converged |= np.abs(vb - values) < CONVERGENCE_TOL
        values = vb
        if converged.all():
            break
    best = int(np.argmin(values))
    if not converged.any():
        raise ConvergenceError(
            f"see-saw did not converge in {MAX_ITERS} iterations",
            best=float(values[best]),
        )
    return SeeSawResult(
        value=float(values[best]), phi=phi[best], chi=chi[best], history=np.array(history)
    )


# Extra see-saw starts on a three-qubit chi side: the rotated GHZ vectors, one
# per class of vectors equal up to a phase (8 of the 16), conjugated because
# min_output_eig evaluates the Choi operator at ``v x psi*``.
_GHZ3 = rotated_ghz3()
_GHZ3_STARTS = _GHZ3[~np.triu(np.abs(_GHZ3.conj() @ _GHZ3.T) > 1 - 1e-9, 1).any(axis=0)].conj()


def block_positivity_min(
    omega: HermitianOperator,
    cut: Sequence[int],
    cfg: OracleConfig | None = None,
) -> SeeSawResult:
    """Approximate minimum of ``<phi x chi|Omega|phi x chi>`` over unit products.

    ``cut`` lists the tensor factors spanned by ``phi``; the complement is
    spanned by ``chi``.  Restarts mix eigenvectors of the partially
    contracted operator with random unit vectors; a three-qubit chi side
    also starts from the conjugated rotated GHZ vectors.  The result's
    ``value`` is an upper bound on the true minimum: a negative value
    certifies that ``omega`` is not block-positive.  Raises
    :class:`ConvergenceError` when no restart converges within
    :data:`MAX_ITERS` iterations.
    """
    cfg = cfg or OracleConfig()
    cut = sorted({integer_at_least(k, 0, "cut indices must be non-negative integers") for k in cut})
    n = omega.nfactors
    if not cut or cut[-1] >= n or len(cut) == n:
        raise ValueError(f"cut must be a proper nonempty subset of range({n})")
    rest = [k for k in range(n) if k not in cut]
    da, db = 2 ** len(cut), 2 ** len(rest)
    perm = cut + rest
    axes = perm + [n + k for k in perm]
    w4 = omega.matrix.reshape((2,) * (2 * n)).transpose(axes).reshape(da, db, da, db)
    w_b = np.ascontiguousarray(w4.transpose(1, 3, 0, 2).reshape(db * db, da * da))
    w_a = np.ascontiguousarray(w_b.T)

    rng = np.random.default_rng(cfg.seed)
    # Restarts mix eigenvectors of the partially contracted operator with
    # random vectors, the latter pre-scored by their optimal phi response
    # (the landscape has local minima near criterion boundaries).
    contracted = np.einsum("abad->bd", w4)
    _, vecs = np.linalg.eigh((contracted + contracted.conj().T) / 2)
    n_eig = min(db, max(cfg.restarts // 2, 1))
    n_rand = max(cfg.restarts - n_eig, 1)
    samples = _random_unit(rng, cfg.sample_count, db)
    scores, _ = _half_step(w_b, samples)
    inits = [samples[np.argsort(scores)[:n_rand]], vecs.T[:n_eig]]
    # When either side is a pair of qubits, seed with the maximally entangled
    # pairing (for Choi operators of doubled maps the violating product vector
    # sits exactly there).
    if len(rest) == 2:
        inits.append(np.eye(2).reshape(1, -1) / np.sqrt(2))
    if len(cut) == 2:
        phi = np.eye(2).reshape(1, -1) / np.sqrt(2)
        inits.append(_half_step(w_a, phi)[1])
    if len(rest) == 3:
        inits.append(_GHZ3_STARTS)
    return _see_saw(w_b, w_a, np.concatenate(inits))
