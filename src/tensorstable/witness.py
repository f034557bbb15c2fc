"""Entanglement-depth witnessing of multi-qubit states via stable positive maps.

A map certified ``n``-tensor-stable positive that produces a negative
eigenvalue when applied factor-wise to an ``N``-qubit state pushes the
state's entanglement depth above ``n``.  :func:`threshold_search` scans a
family of certified maps for the smallest depolarization weight at which a
canonical state is still detected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import as_lambda_point, hyperboloid_point, hyperboloid_slacks, is_3tsp
from .linalg import (
    BLOCH_ROTATIONS, NEGATIVITY_TOL, SCREEN_TOL, SIGMA, STATE_PSD_TOL, STATE_TRACE_TOL, HermitianOperator,
    integer_at_least, rotated_ghz3, symmetric_linspace,
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
# Scanned two-fold-stable maps are pulled this far inside their region, so the
# exact certification arithmetic is immune to parametrization roundoff.
SHRINK = 1e-9


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
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if kind == "ghz":
        if not 2 <= n <= MAX_QUBITS:
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
    seen = {}
    for gi in _G:
        for gj in _G:
            t = gi @ gj
            seen[tuple(np.round(t.reshape(-1)).astype(int))] = t
    return list(seen.values())


def ghz_variants() -> list[MultiQubitState]:
    """The 16 rotated three-qubit GHZ projectors ``(U_i U_j) |GHZ><GHZ| (U_i U_j)^dag``."""
    return [MultiQubitState(HermitianOperator(np.outer(v, v.conj()))) for v in rotated_ghz3()]


def _certified(lams: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return np.max(np.abs(lams), axis=1) <= 1.0
    if n == 2:
        return np.min(hyperboloid_slacks(lams), axis=1) >= 0
    if n == 3:
        return np.array([is_3tsp(p).satisfied for p in lams], dtype=bool)
    raise ValueError("certification is available for n in {1, 2, 3}")


def depth_witness(state: MultiQubitState, lam, n: int) -> DepthVerdict:
    """Apply a certified ``n``-tensor-stable map factor-wise to the state.

    A decisively negative output eigenvalue proves entanglement depth at
    least ``n + 1``; otherwise the verdict is inconclusive (bound 1).
    The map must pass the strongest closed-form certificate for ``n``.
    """
    n = integer_at_least(n, 1, "n must be a positive integer")
    lam = as_lambda_point(lam)
    if not _certified(lam[None], n)[0]:
        raise ValueError("witness map not certified n-TSP")
    neg = _power_min_eigs(np.insert(lam, 0, 1.0)[None], state.rho.matrix)[0]
    bound = n + 1 if neg < -NEGATIVITY_TOL else 1
    return DepthVerdict(lower_bound=bound, witness_map=lam, neg_eig=float(neg))


def _scan_maps_n1(steps: int) -> np.ndarray:
    grid = symmetric_linspace(-1.0, 1.0, steps)
    face = np.stack(np.meshgrid([-1.0, 1.0], grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    # Cube faces in (axis, sign, a, b) order: roll[axis, j] is the column of
    # (sign, a, b) that lands on axis j.
    roll = (np.arange(3) - np.arange(3)[:, None]) % 3
    return face[:, roll].transpose(1, 0, 2).reshape(-1, 3)


def _scan_maps_n2(steps: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, steps)
    base = hyperboloid_point(*np.meshgrid(grid, grid, indexing="ij")).reshape(-1, 3)
    pts = np.einsum("tij,pj->pti", np.array(variant_transforms()), base)
    return pts.reshape(-1, 3) * (1.0 - SHRINK)


def _dedupe(pts: np.ndarray) -> np.ndarray:
    """Rows unique up to rounding at 1e-12 (``-0.0`` equal to ``0.0``), in order of
    first occurrence, each holding the value of its last occurrence."""
    rows = {tuple(np.round(p, 12)): p for p in pts}
    return np.array(list(rows.values()))


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
    sectors = []
    for z in (l3, -l3):
        a = 1 + z / 3 + 4 * u / 3 + z**2 / 3 + 4 * u * z / 3 + z**3
        c = (1 - z) ** 2 * (1 + z)
        b = 2 / np.sqrt(3) * v * (1 - z)
        s = 1 + z / 3 - 2 * u / 3 + z**2 / 3 - 2 * u * z / 3 + z**3
        sectors.append(np.minimum((a + c) / 2 - np.hypot((a - c) / 2, b), s))
    return np.minimum(*sectors) / 8


def threshold_search(family: str, n: int, steps: int = 21) -> ThresholdResult:
    """Smallest noise weight at which some certified map detects the state.

    ``family`` is ``"ghz"`` or ``"w"`` (three-qubit state mixed with white
    noise at weight ``1 - q``); ``n`` in ``{1, 2}`` selects the certificate
    the scanned maps must carry, and ``steps``, an integer of at least 2, the
    resolution of their parameter grid.  The maps are unital and trace preserving,
    so a map whose output on the pure state has smallest eigenvalue ``m``
    outputs ``q m + (1 - q) / 8`` on the noisy one, and detects it exactly
    for ``q > (1/8 + NEGATIVITY_TOL) / (1/8 - m)``.  That onset grows with
    ``m``, so the map with the smallest ``m`` gives ``q_star`` in closed
    form.  When no scanned map detects even the pure state the result is
    ``q_star = 1.0`` with an empty witness.

    Every certified map is first scored by the closed-form spectrum of its
    output (:func:`_ghz_min_eigs`, :func:`_w_min_eigs`).  Only the maps within
    ``SCREEN_TOL`` of the smallest score are deduped (:func:`_dedupe`), then
    built and diagonalised; the dense routine gives each row the same bits
    whatever rows share its batch.  The result is bit-identical to deduping the
    whole scan and evaluating every certified map densely: (1) duplicates are
    certified alike, since their values (``n = 1``) or hyperboloid slacks
    (``n = 2``) are permuted; (2) the closed forms agree with the dense
    eigenvalues to about ``1e-15`` and duplicates differ by under ``1e-12``,
    both far inside ``SCREEN_TOL``, so every minimiser and all its duplicates
    pass the screen; (3) both filters keep scan order, so the argmin picks the
    same first position holding the same last value.
    """
    if family not in ("ghz", "w"):
        raise ValueError(f"unknown state family {family!r}")
    if n not in (1, 2):
        raise ValueError(f"threshold search supports n in {{1, 2}}, got {n}")
    steps = integer_at_least(steps, 2, "a grid needs an integer of at least 2 steps")

    lams = _scan_maps_n1(steps) if n == 1 else _scan_maps_n2(steps)
    lams = lams[_certified(lams, n)]
    score = _ghz_min_eigs(lams) if family == "ghz" else _w_min_eigs(lams)
    lams = _dedupe(lams[score <= score.min() + SCREEN_TOL])
    pure = build_state("ghz" if family == "ghz" else "w3", 1.0).rho.matrix
    m_min = _power_min_eigs(np.insert(lams, 0, 1.0, axis=1), pure)
    best = int(np.argmin(m_min))
    m = float(m_min[best])
    if m >= -NEGATIVITY_TOL:
        return ThresholdResult(q_star=1.0, witness=None, neg_eig=m)
    q_star = (0.125 + NEGATIVITY_TOL) / (0.125 - m)
    return ThresholdResult(q_star=q_star, witness=lams[best], neg_eig=m)
