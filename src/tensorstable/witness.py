"""Entanglement-depth witnessing of multi-qubit states via stable positive maps.

A map certified ``n``-tensor-stable positive that produces a negative
eigenvalue when applied factor-wise to an ``N``-qubit state pushes the
state's entanglement depth above ``n``.  :func:`threshold_search` searches
the certified maps for the smallest depolarization weight at which a
canonical state is still detected.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .criteria import as_lambda_point, hyperboloid_point, hyperboloid_slacks, is_3tsp
from .linalg import (
    BLOCH_ROTATIONS, NEGATIVITY_TOL, REFINE_TOL, SHRINK, SIGMA, STATE_PSD_TOL, STATE_TRACE_TOL,
    HermitianOperator, integer_at_least, rotated_ghz3,
)
from .maps import _power_min_eigs

__all__ = [
    "DepthVerdict",
    "MultiQubitState",
    "ThresholdResult",
    "build_state",
    "depth_witness",
    "ghz_variants",
    "threshold_search",
    "variant_transforms",
]

MAX_QUBITS = 6


@dataclass(frozen=True)
class MultiQubitState:
    """A density operator on qubit factors: unit trace, PSD, at most six qubits."""

    rho: HermitianOperator

    def __post_init__(self):
        if self.rho.nfactors > MAX_QUBITS:
            raise ValueError(f"at most {MAX_QUBITS} qubits are supported")
        if abs(self.rho.trace() - 1.0) > STATE_TRACE_TOL:
            raise ValueError("state must have unit trace")
        if self.rho.min_eig() < -STATE_PSD_TOL:
            raise ValueError("state must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.rho.nfactors


@dataclass(frozen=True)
class DepthVerdict:
    """Entanglement-depth lower bound from one witness map.

    ``lower_bound > 1`` only when ``neg_eig`` is decisively negative.
    """

    lower_bound: int
    witness_map: np.ndarray
    neg_eig: float


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search: detection onset and the witnessing map.

    ``neg_eig`` is the witness's smallest output eigenvalue on the noiseless
    state (``q = 1``); it lies below ``-NEGATIVITY_TOL`` exactly when a
    witness was found.
    """

    q_star: float
    witness: np.ndarray | None
    neg_eig: float


def build_state(kind: str, q: float, n: int = 3) -> MultiQubitState:
    """Canonical pure state mixed with white noise at weight ``1 - q``.

    ``kind`` is one of ``"ghz"`` (``n`` qubits), ``"w3"``, ``"psi_plus"``.
    """
    if not (isinstance(q, numbers.Real) and 0.0 <= q <= 1.0):
        raise ValueError(f"q must be a real number in [0, 1], got {q!r}")
    if kind == "ghz":
        if integer_at_least(n, 2, f"ghz needs 2..{MAX_QUBITS} qubits") > MAX_QUBITS:
            raise ValueError(f"ghz needs 2..{MAX_QUBITS} qubits, got {n}")
        psi, nq = np.zeros(2**n, dtype=np.complex128), n
        psi[0] = psi[-1] = 2**-0.5
    elif kind == "w3":
        psi = np.zeros(8, dtype=np.complex128)
        psi[1] = psi[2] = psi[4] = 3**-0.5
        nq = 3
    elif kind == "psi_plus":
        psi = np.zeros(4, dtype=np.complex128)
        psi[0] = psi[3] = 2**-0.5
        nq = 2
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    d = 2**nq
    rho = q * np.outer(psi, psi.conj()) + (1.0 - q) * np.eye(d) / d
    return MultiQubitState(HermitianOperator(rho))


# The rotations of linalg.BLOCH_ROTATIONS acting on the Bloch scalings (l1, l2, l3),
# G[u, a, b] = tr(sigma_a U_u sigma_b U_u^dag) / 2: signed permutations, rounded to
# exact entries (+ 0.0 turns -0.0 into 0.0).
_U = np.array(BLOCH_ROTATIONS)
_G = np.round(np.einsum("aij,ujk,bkl,uil->uab", SIGMA[1:], _U, SIGMA[1:], _U.conj()).real / 2) + 0.0


def variant_transforms() -> list[np.ndarray]:
    """Distinct signed axis permutations induced by the 16 rotation pairs."""
    # The products' entries are exact, with no -0.0, so equal maps have equal bytes.
    return list({t.tobytes(): t for t in (_G[:, None] @ _G).reshape(-1, 3, 3)}.values())


def ghz_variants() -> list[MultiQubitState]:
    """The 16 rotated three-qubit GHZ projectors ``(U_i U_j) |GHZ><GHZ| (U_i U_j)^dag``."""
    return [MultiQubitState(HermitianOperator(np.outer(v, v.conj()))) for v in rotated_ghz3()]


def _certified(lams: np.ndarray, n: int) -> np.ndarray:
    # Every n-TSP map is positive; testing that first keeps the slacks finite.
    positive = np.max(np.abs(lams), axis=1) <= 1.0
    inside = np.where(positive[:, None], lams, 0.0)
    if n == 1:
        return positive
    if n == 2:
        return positive & (np.min(hyperboloid_slacks(inside), axis=1) >= 0)
    if n == 3:
        return positive & np.array([is_3tsp(p).satisfied for p in inside], dtype=bool)
    raise ValueError("certification is available for n in {1, 2, 3}")


def depth_witness(state: MultiQubitState, lam, n: int) -> DepthVerdict:
    """Apply a certified ``n``-tensor-stable map factor-wise to the state.

    A decisively negative output eigenvalue proves entanglement depth at
    least ``n + 1``; otherwise the verdict is inconclusive (bound 1).
    The map must pass the strongest closed-form certificate for ``n``.
    """
    if not isinstance(state, MultiQubitState):
        raise ValueError(f"state must be a MultiQubitState, got {type(state).__name__}")
    n = integer_at_least(n, 1, "n must be a positive integer")
    lam = as_lambda_point(lam)
    if not _certified(lam[None], n)[0]:
        raise ValueError("witness map not certified n-TSP")
    neg = _power_min_eigs(np.insert(lam, 0, 1.0)[None], state.rho.matrix)[0]
    bound = n + 1 if neg < -NEGATIVITY_TOL else 1
    return DepthVerdict(lower_bound=bound, witness_map=lam, neg_eig=float(neg))


def _ghz_min_eigs(lams: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``Phi_lam^{(x)3}[|GHZ><GHZ|]`` for each row of an
    ``(m, 3)`` stack.  Pauli maps commute with Pauli conjugations, so the output
    is diagonal in the GHZ basis."""
    l1, l2, l3 = lams.T
    return np.minimum(1 + 3 * l3**2 - np.abs(l1**3 + 3 * l1 * l2**2), 1 - l3**2 - np.abs(l1**3 - l1 * l2**2)) / 8


def _w_min_eigs(lams: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``Phi_lam^{(x)3}[|W><W|]`` for each row of an
    ``(m, 3)`` stack.

    The output commutes with the Z-parity and with qubit permutations.  In the
    odd sector (``z = l3``) it is a 2x2 block ``[[a, b], [b, c]]`` on
    ``{W, |111>}`` plus a doubly degenerate ``s``; the even sector (``|000>``
    and the flipped W) is the same with ``z = -l3``.
    """
    l1, l2, l3 = lams.T
    u, v = l1**2 + l2**2, l1**2 - l2**2
    z = np.stack([l3, -l3])  # both sectors in one pass
    a = 1 + z / 3 + 4 * u / 3 + z**2 / 3 + 4 * u * z / 3 + z**3
    c = (1 - z) ** 2 * (1 + z)
    b = 2 / np.sqrt(3) * v * (1 - z)
    s = 1 + z / 3 - 2 * u / 3 + z**2 / 3 - 2 * u * z / 3 + z**3
    return np.minimum((a + c) / 2 - np.hypot((a - c) / 2, b), s).min(axis=0) / 8


# The certified set's boundary as patches A_t @ p(u, v), (u, v) in [lo, 1]^2: the six
# cube faces, p = (1, u, v) under each axis roll and sign; the hyperboloid point
# pulled inside by SHRINK, under the ten variant transforms.
_PATCHES = {
    1: (-1.0, np.array([np.roll(np.eye(3), a, axis=0) * (s, 1, 1) for a in range(3) for s in (-1, 1)]),
        lambda uv: np.column_stack([np.ones(len(uv)), uv])),
    2: (0.0, np.array(variant_transforms()), lambda uv: hyperboloid_point(uv[:, 0], uv[:, 1]) * (1.0 - SHRINK)),
}
# Seed points per patch axis; a 9x9 stencil of steps that shrink by 8, so each spans the last's centre cell.
_SEEDS = 11
_STENCIL = np.stack(np.meshgrid(np.arange(-4.0, 5.0), np.arange(-4.0, 5.0), indexing="ij"), axis=-1).reshape(-1, 2)


def _boundary_argmin(score, n: int) -> np.ndarray:
    """Boundary point of the ``n``-certified set with the smallest ``score``: the best
    seed over all patches, refined on its patch by moving to the best stencil point
    below the centre, else shrinking the step, until the step is at most
    ``REFINE_TOL``.  Ties keep the centre, so an exact seed stays exact."""
    lo, transforms, points = _PATCHES[n]
    grid = np.linspace(lo, 1.0, _SEEDS)
    uv = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    t, k = divmod(int(np.argmin(score((points(uv) @ transforms.transpose(0, 2, 1)).reshape(-1, 3)))), len(uv))
    centre, step, a_t = uv[k], grid[1] - grid[0], transforms[t].T
    while step > REFINE_TOL:
        trial = np.clip(centre + step * _STENCIL, lo, 1.0)
        values = score(points(trial) @ a_t)
        best = int(np.argmin(values))
        if values[best] < values[len(_STENCIL) // 2]:
            centre = trial[best]
        else:
            step /= 8
    return (points(centre[None]) @ a_t)[0]


def threshold_search(family: str, n: int) -> ThresholdResult:
    """Smallest noise weight at which some certified map detects the state.

    ``family`` is ``"ghz"`` or ``"w"`` (three-qubit state mixed with white
    noise at weight ``1 - q``); ``n`` in ``{1, 2}`` selects the certificate
    the searched maps must carry.  The maps are unital and trace preserving,
    so a map whose output on the pure state has smallest eigenvalue ``m``
    outputs ``q m + (1 - q) / 8`` on the noisy one, and detects it exactly
    for ``q > (1/8 + NEGATIVITY_TOL) / (1/8 - m)``.  That onset grows with
    ``m``, so the map with the smallest ``m`` gives ``q_star`` in closed
    form.  When that map does not detect even the pure state the result is
    ``q_star = 1.0`` with an empty witness.

    The search minimises the closed-form output spectra; only the witness it
    finds is diagonalised densely, for ``neg_eig``.
    """
    if family not in ("ghz", "w"):
        raise ValueError(f"unknown state family {family!r}")
    n = integer_at_least(n, 1, "n must be a positive integer")
    if n not in (1, 2):
        raise ValueError(f"threshold search supports n in {{1, 2}}, got {n}")
    lam = _boundary_argmin(_ghz_min_eigs if family == "ghz" else _w_min_eigs, n)
    pure = build_state("ghz" if family == "ghz" else "w3", 1.0).rho.matrix
    m = float(_power_min_eigs(np.insert(lam, 0, 1.0)[None], pure)[0])
    if m >= -NEGATIVITY_TOL:
        return ThresholdResult(q_star=1.0, witness=None, neg_eig=m)
    return ThresholdResult(q_star=(0.125 + NEGATIVITY_TOL) / (0.125 - m), witness=lam, neg_eig=m)
