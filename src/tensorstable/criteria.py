"""Closed-form tensor-stability criteria for trace-preserving Pauli maps.

A map is given by its Bloch scalings ``(l1, l2, l3)`` with ``l0 = 1``
(:data:`LambdaPoint` below).  All criteria are evaluated with exact float
arithmetic on the inputs, the one-point ones on Python floats; numerical
tolerances live only in the linalg module.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .linalg import HermitianOperator, integer_at_least

__all__ = [
    "CriterionVerdict",
    "as_lambda_point",
    "depolarizing_pair_positive",
    "hyperboloid_point",
    "hyperboloid_slacks",
    "is_2tsp",
    "is_3tsp",
    "lift_ntsp",
    "lift_x_max",
    "mu_bound",
    "ntsp_necessary",
    "ntsp_sufficient_ball",
    "squared_map_choi",
    "squared_map_choi_eigs",
]

# A LambdaPoint is any 3-sequence of Bloch scalings in [-1, 1].
LambdaPoint = Sequence[float]


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a closed-form criterion.

    ``satisfied`` holds exactly when ``worst_slack >= 0``;
    ``binding_constraint`` names the inequality attaining the worst slack.
    """

    satisfied: bool
    worst_slack: float
    binding_constraint: str


def _require_finite(kind: str, labels: Sequence[str], values: Sequence[float]) -> None:
    """Raise ``FloatingPointError`` naming the first of ``values`` that is not
    finite: Python floats overflow to ``inf`` silently, out of reach of ``np.errstate``."""
    if not all(map(math.isfinite, values)):
        bad = next(i for i, v in enumerate(values) if not math.isfinite(v))
        raise FloatingPointError(f"{kind} {labels[bad]} overflows to {values[bad]}")


def _verdict(labels: Sequence[str], slacks: Sequence[float]) -> CriterionVerdict:
    """The verdict on ``slacks``, bound by the first least one in ``labels`` order.

    Raises ``FloatingPointError`` when a slack is not finite.
    """
    _require_finite("slack", labels, slacks)
    worst = min(slacks)
    binding = labels[slacks.index(worst)]
    return CriterionVerdict(satisfied=bool(worst >= 0), worst_slack=float(worst), binding_constraint=binding)


def as_lambda_point(lam: LambdaPoint) -> np.ndarray:
    try:
        p = np.asarray(lam, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"lambda values must be numbers, got {lam!r}") from None
    if p.shape != (3,):
        raise ValueError("a lambda point has exactly three components")
    if not all(map(math.isfinite, p.tolist())):
        raise ValueError(f"lambda values must be finite, got {p}")
    return p


_HYPERBOLOID_LABELS = ("1+l1^2>=l2^2+l3^2", "1+l2^2>=l1^2+l3^2", "1+l3^2>=l1^2+l2^2")


def is_2tsp(lam: LambdaPoint) -> CriterionVerdict:
    """Two-fold tensor stability: the three hyperboloid inequalities.

    Satisfied iff ``1 + l_i^2 >= l_j^2 + l_k^2`` for every axis ``i``.
    Requires ``|l_k| <= 1`` (map positivity) to be meaningful.
    """
    # Raising here keeps numpy's overflow warning off stderr; _verdict raises anyway.
    with np.errstate(over="raise", invalid="raise"):
        slacks = hyperboloid_slacks(as_lambda_point(lam)).tolist()
    return _verdict(_HYPERBOLOID_LABELS, slacks)


# The axes j, k other than i, for i = 1, 2, 3 (zero-based).
_J, _K = np.array([1, 0, 0]), np.array([2, 2, 1])


def hyperboloid_slacks(lams: np.ndarray) -> np.ndarray:
    """The slacks ``(1 + l_i^2) - (l_j^2 + l_k^2)``, ``i = 1, 2, 3``, of
    :func:`is_2tsp` along the last axis of a ``(..., 3)`` stack."""
    sq = lams * lams
    return (1.0 + sq) - (sq.take(_J, axis=-1) + sq.take(_K, axis=-1))


def squared_map_choi(lam: LambdaPoint) -> HermitianOperator:
    """Choi operator of the squared Pauli map (4x4 closed form).

    Equals the doubled map applied to the maximally entangled projector:
    diagonal ``(1 +- l3^2)/4``, antidiagonal corners ``(l1^2 +- l2^2)/4``.
    """
    l1, l2, l3 = as_lambda_point(lam)
    a, b, c = l1 * l1, l2 * l2, l3 * l3
    m = np.array(
        [
            [1 + c, 0, 0, a + b],
            [0, 1 - c, a - b, 0],
            [0, a - b, 1 - c, 0],
            [a + b, 0, 0, 1 + c],
        ]
    ) / 4.0
    return HermitianOperator(m)


def squared_map_choi_eigs(lam: LambdaPoint) -> np.ndarray:
    """Closed-form spectrum of :func:`squared_map_choi`, ascending.

    The X-form eigenvalues reduce algebraically to the hyperboloid slacks
    over 4 plus one always-positive value, so the PSD verdict matches
    :func:`is_2tsp` exactly (same float expressions, no tolerance).
    """
    p = as_lambda_point(lam)
    a, b, c = p * p
    eigs = np.concatenate([hyperboloid_slacks(p), [(1.0 + c) + (a + b)]]) / 4.0
    eigs.sort()
    return eigs


_CUBIC_AXES = tuple(permutations((0, 1, 2)))
_CUBIC_LABELS = tuple(f"i={i + 1},j={j + 1},k={k + 1},{s}" for i, j, k in _CUBIC_AXES for s in "-+")


def is_3tsp(lam: LambdaPoint) -> CriterionVerdict:
    """Three-fold tensor stability: the twelve cubic inequalities.

    Satisfied iff ``1 -+ l_i^3 -+ 3 l_i l_j^2 + 3 l_k^2 >= 0`` for every
    permutation ``(i, j, k)`` of the axes and both signs.
    """
    p = as_lambda_point(lam).tolist()
    slacks = []
    for i, j, k in _CUBIC_AXES:
        li, lj, lk = p[i], p[j], p[k]
        core = li**3 + 3.0 * li * lj * lj
        slacks += (1.0 - core + 3.0 * lk * lk, 1.0 + core + 3.0 * lk * lk)
    return _verdict(_CUBIC_LABELS, slacks)


_NECESSARY_AXES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


@functools.cache
def _necessary_labels(n: int) -> tuple[str, ...]:
    return tuple(
        f"i={i + 1},j={j + 1},k={k + 1},p={p},s={s}"
        for i, j, k in _NECESSARY_AXES
        for p in range(n // 2 + 1)
        for s in ("+1", "-1")
    )


def ntsp_necessary(lam: LambdaPoint, n: int) -> CriterionVerdict:
    """Necessary condition for ``n``-fold tensor stability.

    For every permutation ``(i, j, k)``, every split ``p + q = n`` and both
    relative signs ``s``:

        (1+l_i)^p (1-l_i)^q + (1-l_i)^p (1+l_i)^q
            >= | (l_j+l_k)^p (l_j-l_k)^q + s (l_j-l_k)^p (l_j+l_k)^q |.

    Both sign branches are enforced; this reproduces :func:`is_2tsp` at
    ``n = 2`` and :func:`is_3tsp` at ``n = 3``.  Swapping ``j`` and ``k``
    negates ``l_j - l_k`` and swapping ``p`` and ``q`` swaps the two terms on
    the right, so each inequality is evaluated once: for ``j < k`` and
    ``p <= n // 2``.  The dropped ones repeat these slacks bit for bit.
    """
    n = integer_at_least(n, 1, "n must be a positive integer")
    pt = as_lambda_point(lam).tolist()
    slacks = []
    for i, j, k in _NECESSARY_AXES:
        li, lj, lk = pt[i], pt[j], pt[k]
        u, v = 1.0 + li, 1.0 - li
        x, y = lj + lk, lj - lk
        for p in range(n // 2 + 1):
            q = n - p
            lhs = u**p * v**q + u**q * v**p
            rp = x**p * y**q
            rq = x**q * y**p
            slacks += (lhs - abs(rp + rq), lhs - abs(rp - rq))
    return _verdict(_necessary_labels(n), slacks)


def ntsp_sufficient_ball(lam: LambdaPoint, n: int) -> bool:
    """Power-sum ball ``sum |l_i|^(n/(n-1)) <= 1``.

    Membership certifies the necessary region of :func:`ntsp_necessary`
    for the same ``n`` (not n-fold stability itself).
    """
    n = integer_at_least(n, 2, "the power-sum ball needs n >= 2")
    p = as_lambda_point(lam)
    return bool((np.abs(p) ** (n / (n - 1))).sum() <= 1.0)


def lift_x_max(lam: LambdaPoint, n: int) -> float:
    """Largest admissible mixing parameter in :func:`lift_ntsp`.  Points outside
    the Bloch cube are not positive, so not n-stable for any ``n``: they raise."""
    n = integer_at_least(n, 1, "n must be a positive integer")
    a, b, c = (abs(v) for v in as_lambda_point(lam).tolist())
    top = max(a, b, c)
    if top > 1.0:
        raise ValueError(f"lift requires a positive map, max |lambda_i| <= 1, got {top}")
    # numpy's sum of three entries runs left to right, as here.
    total = a + b + c
    if total < 1.0:
        raise ValueError("lift requires sum |lambda_i| >= 1")
    return 0.5 * (1.0 - top / total) * (2.0 / top) ** (1.0 / (n + 1))


def lift_ntsp(lam: LambdaPoint, n: int, x: float | None = None) -> np.ndarray:
    """Shrink an ``n``-tensor-stable point into an ``(n+1)``-stable one.

    Returns ``l~_i = ((|l1|+|l2|+|l3|)^-1 + x) / (1 + x) * l_i``; by the
    recurrence with an entanglement-breaking admixture, the output is
    ``(n+1)``-tensor-stable whenever the input is ``n``-tensor-stable.
    ``x`` defaults to the largest admissible value.  Raises ``ValueError``
    outside the Bloch cube and when ``|l1|+|l2|+|l3| < 1``.
    """
    p = as_lambda_point(lam)
    xm = lift_x_max(p, n)
    if x is None:
        x = xm
    if not 0.0 <= x <= xm:
        raise ValueError(f"x must lie in [0, {xm}], got {x}")
    return (1.0 / float(np.abs(p).sum()) + x) / (1.0 + x) * p


def mu_bound(min_eig_phi: float, min_eig_eb: float, n: int) -> float:
    """Largest admixture weight keeping the lifted map positive.

    Solves ``mu / (1 - mu) <= (min_eig_eb / |min_eig_phi|)^(1/(n+1))`` for
    the largest ``mu`` in ``[0, 1]``; returns 1 when the map output is
    already positive (``min_eig_phi >= 0``) or the ratio overflows.
    """
    n = integer_at_least(n, 1, "n must be a positive integer")
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in (min_eig_phi, min_eig_eb)):
        raise ValueError(f"eigenvalues must be finite real numbers, got {min_eig_phi!r} and {min_eig_eb!r}")
    if min_eig_eb < 0:
        raise ValueError("the entanglement-breaking eigenvalue floor must be >= 0")
    if min_eig_phi >= 0:
        return 1.0
    # Python floats: an overflowing ratio reads inf, with no warning; 1 / (n + 1) takes any int n.
    r = (float(min_eig_eb) / abs(float(min_eig_phi))) ** (1 / (n + 1))
    return 1.0 if math.isinf(r) else r / (1.0 + r)


def depolarizing_pair_positive(q1: float, q2: float) -> bool:
    """Positivity of the two-sided depolarizing map: ``q1 q2 >= -1/3``."""
    return bool(abs(q1) <= 1.0 and abs(q2) <= 1.0 and q1 * q2 >= -1.0 / 3.0)


def hyperboloid_point(x: float | np.ndarray, y: float | np.ndarray) -> np.ndarray:
    """Boundary point of the 2-tensor-stable region from ruling parameters.

    ``l1 = (x+y)/(1+xy)``, ``l2 = (x-y)/(1+xy)``, ``l3 = (1-xy)/(1+xy)``
    for ``x, y`` in ``[0, 1]``; exactly one hyperboloid inequality is tight
    (the middle one, identically).  Array ``x, y`` broadcast, with the point
    along a new last axis.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all((0.0 <= x) & (x <= 1.0)) and np.all((0.0 <= y) & (y <= 1.0))):
        raise ValueError(f"x and y must lie in [0, 1], got ({x}, {y})")
    den = 1.0 + x * y
    return np.stack([(x + y) / den, (x - y) / den, (1.0 - x * y) / den], axis=-1)
