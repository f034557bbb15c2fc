"""Reduction of translated qubit maps to unital form and their classification.

The family handled here is trace preserving with diagonal Bloch scalings
``(l1, l2, l3)`` and a translation ``t`` along the third axis:

    E = [[1, 0,  0,  0 ],
         [0, l1, 0,  0 ],
         [0, 0,  l2, 0 ],
         [t, 0,  0,  l3]].

Strictly inside the positivity cone (``1 - |t| - |l3| > 0``) the map equals
``B Y[A X A^dag] B^dag`` for diagonal positive-definite ``A``, ``B`` and a
map ``Y`` proportional to a Pauli map; everything then reduces to the unital
criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import CriterionVerdict, _verdict
from .linalg import BOUNDARY_TOL

__all__ = [
    "NonUnitalFamilyMap",
    "ReductionResult",
    "classify_nonunital_positive",
    "ghz_output_conditions",
    "is_2tsp_nonunital",
    "reduce_to_unital",
]


@dataclass(frozen=True)
class NonUnitalFamilyMap:
    """Trace-preserving qubit map with a translation along the third axis."""

    t: float
    lam3: tuple[float, float, float]

    def __post_init__(self):
        t, lam3 = float(self.t), tuple(float(v) for v in self.lam3)
        if len(lam3) != 3:
            raise ValueError("lam3 must have three components")
        if not all(map(math.isfinite, (t, *lam3))):
            raise ValueError(f"t and lam3 must be finite, got t={t}, lam3={lam3}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lam3", lam3)

    @property
    def matrix(self) -> np.ndarray:
        """The real 4x4 Pauli-basis matrix ``E`` shown in the module docstring."""
        e = np.diag([1.0, *self.lam3])
        e[3, 0] = self.t
        return e

    def interior_gap(self) -> float:
        """Slack of the strict positivity-cone condition ``1 - |t| - |l3|``."""
        return 1.0 - abs(self.t) - abs(self.lam3[2])

    def is_interior(self) -> bool:
        """Strictly inside the cone, where the reduction and the 2tsp criterion apply."""
        return self.interior_gap() > BOUNDARY_TOL


@dataclass(frozen=True)
class ReductionResult:
    """Unital reduction data: Pauli coefficients and the conjugating factors.

    ``tilde_lam[0] > 0`` strictly inside the cone, and
    ``B Y[A X A^dag] B^dag`` with ``Y`` the Pauli map of ``tilde_lam``
    reproduces the original action.
    """

    tilde_lam: tuple[float, float, float, float]
    a_inv: np.ndarray
    b_inv: np.ndarray

    @property
    def tilde_ratio(self) -> np.ndarray:
        """Trace-preserving normalization ``tilde_lam[1:] / tilde_lam[0]``."""
        tl = np.asarray(self.tilde_lam)
        return tl[1:] / tl[0]


def reduce_to_unital(m: NonUnitalFamilyMap) -> ReductionResult:
    """Conjugation data turning an interior family map into a Pauli map.

    Raises ``ValueError`` outside the strict interior
    (``1 - |t| - |l3| <= 0``); those maps are classified by the boundary
    branch of :func:`classify_nonunital_positive` instead.
    """
    t = m.t
    l1, l2, l3 = m.lam3
    if not m.is_interior():
        raise ValueError(
            "reduction needs 1 - |t| - |l3| > 0; use the boundary branch of "
            "classify_nonunital_positive"
        )
    p = (1.0 - l3) ** 2 - t * t
    q = (1.0 + l3) ** 2 - t * t
    r_minus = (1.0 - t) ** 2 - l3 * l3
    r_plus = (1.0 + t) ** 2 - l3 * l3
    root = np.sqrt(r_minus * r_plus)
    scale = np.sqrt(p * r_minus * r_plus)
    tilde = (
        0.5 * p * (q + root),
        l1 * scale,
        l2 * scale,
        0.5 * p * (q - root),
    )
    a_plus = np.sqrt(1.0 + t - l3)
    a_minus = np.sqrt(1.0 - t - l3)
    # Magnitudes of the fourth roots: a sign there would make the factors
    # indefinite.  B has no 1/2 prefactor; with it the coefficient formulas
    # above would pick up a factor of 4 and break the reconstruction
    # identity B Y[A X A^dag] B^dag = Phi[X].
    b_plus = r_plus**0.25
    b_minus = r_minus**0.25
    a_inv = np.diag([a_plus * b_minus, a_minus * b_plus])
    b_inv = np.diag([b_minus, b_plus])
    return ReductionResult(tilde_lam=tilde, a_inv=a_inv, b_inv=b_inv)


def classify_nonunital_positive(m: NonUnitalFamilyMap) -> CriterionVerdict:
    """Positivity of a family map, exact in all three cone regions.

    Interior: reduce to unital form and require ``|l~_k| <= l~_0``.
    Boundary (``1 - |t| - |l3| = 0`` within 1e-12): require
    ``l1^2, l2^2 <= 1 - |t|``.  Exterior: not positive.
    """
    if m.is_interior():
        rr = reduce_to_unital(m)
        t0, t1, t2, t3 = rr.tilde_lam
        return _verdict(
            ("|~l1|<=~l0", "|~l2|<=~l0", "|~l3|<=~l0"), (t0 - abs(t1), t0 - abs(t2), t0 - abs(t3))
        )
    gap = m.interior_gap()
    if gap >= -BOUNDARY_TOL:
        bound = 1.0 - abs(m.t)
        return _verdict(("l1^2<=1-|t|", "l2^2<=1-|t|"), (bound - m.lam3[0] ** 2, bound - m.lam3[1] ** 2))
    return _verdict(("1-|t|-|l3|>0",), (gap,))


def is_2tsp_nonunital(m: NonUnitalFamilyMap) -> CriterionVerdict:
    """Two-fold tensor stability of an interior family map.

    After reduction, satisfied iff ``l~0^2 + l~3^2 >= |l~1^2 + l~2^2|`` and
    ``l~0^2 - l~3^2 >= |l~1^2 - l~2^2|`` (the scaled hyperboloid pair).
    Raises ``ValueError`` outside the strict interior.
    """
    if not m.is_interior():
        raise ValueError("the 2-tensor-stability criterion needs an interior map")
    rr = reduce_to_unital(m)
    t0, t1, t2, t3 = rr.tilde_lam
    s0, s1, s2, s3 = t0 * t0, t1 * t1, t2 * t2, t3 * t3
    return _verdict(
        ("~l0^2+~l3^2>=|~l1^2+~l2^2|", "~l0^2-~l3^2>=|~l1^2-~l2^2|"),
        ((s0 + s3) - abs(s1 + s2), (s0 - s3) - abs(s1 - s2)),
    )


def ghz_output_conditions(m: NonUnitalFamilyMap) -> CriterionVerdict:
    """Spectrum conditions for the doubled map on the maximally entangled state.

    The output is in X form; non-negativity of its four eigenvalue branches
    is exactly the four inequalities below.  This is necessary for two-fold
    tensor stability but not sufficient for non-unital maps.
    """
    t = m.t
    l1, l2, l3 = m.lam3
    a, b, c, tt = l1 * l1, l2 * l2, l3 * l3, t * t
    root = np.sqrt(4.0 * tt + (a + b) ** 2)
    slacks = (
        (1.0 - tt - c) + (a - b),
        (1.0 - tt - c) - (a - b),
        (1.0 + tt + c) - root,
        (1.0 + tt + c) + root,
    )
    return _verdict(("inner+", "inner-", "outer-", "outer+"), slacks)
