"""Independent numerical oracles and parameter-region cross-validation.

The closed-form criteria are checked against one optimization oracle, the
see-saw ``linalg.block_positivity_min``: it minimizes a Choi quadratic form
over product vectors by alternating eigenvector descent.
:func:`min_output_eig`, the smallest output eigenvalue of a tensor-product
map over pure input states, is that same see-saw on the product map's Choi
operator with the outputs on one side of the cut.

Both return upper bounds on the true minimum; a negative value certifies a
violation, values inside the marginal band ``(-1e-6, -1e-9)`` neither
confirm nor refute.  :func:`region_scan` sweeps a parameter grid and flags
disagreements between a named analytic criterion and its oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .criteria import CriterionVerdict, depolarizing_pair_positive, is_2tsp, is_3tsp
from .linalg import (
    ANALYTIC_BAND,
    HermitianOperator,
    OracleConfig,
    block_positivity_min,
    psd_verdict,
    symmetric_linspace,
)
from .maps import (
    PauliDiagonalMap,
    PauliMap,
    _power_min_eigs,
    choi,
    classify,
    max_entangled_projector,
    tensor_apply,
)
from .nonunital import (
    NonUnitalFamilyMap,
    classify_nonunital_positive,
    ghz_output_conditions,
    is_2tsp_nonunital,
    reduce_to_unital,
)

__all__ = [
    "DecomposabilityReport",
    "REGION_SCAN_CONFIG",
    "RegionScanReport",
    "decomposability_fixtures",
    "ex2_family",
    "min_output_eig",
    "region_criteria",
    "region_params",
    "region_scan",
]


# Oracle budget of a region scan, per grid point; the scan derives each point's seed.
REGION_SCAN_CONFIG = OracleConfig(restarts=8, sample_count=256)


def min_output_eig(maps, cfg: OracleConfig | None = None) -> float:
    """Approximate ``min`` over pure inputs of the smallest output eigenvalue.

    For unit ``v`` and ``psi``, ``<v|(tensor maps)[psi psi*]|v>`` is ``2**n``
    times the product map's Choi operator evaluated at ``v x psi*``, with
    ``v`` on the output factors ``0, 2, ...``.  So this is the see-saw of
    :func:`block_positivity_min` with the outputs on one side of the cut, and
    returns an upper bound on the true minimum.  Two and three factors also
    start from the maximally entangled and the rotated GHZ inputs; with four
    or more that bound can stay above the minimum over GHZ-type inputs.
    """
    n = len(maps)
    return 2**n * block_positivity_min(choi(maps), cut=range(0, 2 * n, 2), cfg=cfg).value


def _flag(analytic: bool, slack: float, value: float) -> str:
    """``agree``/``disagree``/``marginal`` for one point of a region scan.

    The oracle value is read as a one-element spectrum by ``psd_verdict``.
    Its radius is ``|value|``, so the confirm band ``-1e-9 * max(1, |value|)``
    is the absolute ``-1e-9`` wherever ``|value| <= 1``; any value below -1
    is refuted, and a non-finite one is ``marginal``.
    """
    verdict = psd_verdict([value])
    if verdict == "marginal":
        return "marginal"
    if (verdict == "psd") == analytic:
        return "agree"
    return "marginal" if abs(slack) <= ANALYTIC_BAND else "disagree"


@dataclass(frozen=True)
class RegionCriterion:
    """An analytic predicate paired with its numerical oracle, over the Bloch
    cube unless given other axes.  Both are called with the criterion's
    ``params`` as keywords: ``analytic(pt, **params)`` returns a verdict with
    ``satisfied`` and ``worst_slack``, ``oracle(pt, cfg, **params)`` a value.
    ``bounds`` may also be a function of the params returning the bounds."""

    analytic: Callable[..., CriterionVerdict]
    oracle: Callable[..., float]
    params: tuple[tuple[str, float], ...] = ()
    axes: tuple[str, ...] = ("l1", "l2", "l3")
    bounds: tuple[tuple[float, float], ...] | Callable[..., tuple] = ((-1.0, 1.0),) * 3
    default_steps: int = 21


def _depol_analytic(pt):
    q1, q2 = pt
    slack = min(q1 * q2 + 1.0 / 3.0, 1.0 - abs(q1), 1.0 - abs(q2))
    return CriterionVerdict(depolarizing_pair_positive(q1, q2), float(slack), "q1*q2>=-1/3,|q1|<=1,|q2|<=1")


def _depol_oracle(pt, cfg):
    return min_output_eig([PauliMap.depolarizing(pt[0]), PauliMap.depolarizing(pt[1])], cfg)


def _2tsp_oracle(pt, cfg):
    m = PauliMap.unital(pt)
    return block_positivity_min(choi([m, m]), cut=(0, 2), cfg=cfg).value


# The rotated GHZ projectors of ``witness.ghz_variants`` conjugate every qubit
# by ``U_i U_j``, a signed permutation of the Pauli axes; the output spectra are
# those of the plain projector under the map with permuted ``(l1, l2, l3)``.
_AXIS_ORDERS = np.array([(0, *p) for p in itertools.permutations((1, 2, 3))])
_GHZ3 = np.zeros((8, 8))
_GHZ3[0, 0] = _GHZ3[0, 7] = _GHZ3[7, 0] = _GHZ3[7, 7] = 0.5


def _3tsp_oracle(pt, cfg):
    """Smallest output eigenvalue of the three-fold map over the GHZ variants:
    the three-fold power of all six axis orderings applied to the plain projector."""
    return float(_power_min_eigs(np.concatenate([[1.0], pt])[_AXIS_ORDERS], _GHZ3).min())


def _nonunital_positive_oracle(pt, cfg, t):
    return block_positivity_min(choi(NonUnitalFamilyMap(t, pt)), cut=(0,), cfg=cfg).value


def _nonunital_ghz_oracle(pt, cfg, t):
    m = NonUnitalFamilyMap(t, pt)
    return tensor_apply([m, m], max_entangled_projector(2)).min_eig()


def _nonunital_2tsp_analytic(pt, t):
    m = NonUnitalFamilyMap(t, pt)
    if not m.is_interior():
        return CriterionVerdict(satisfied=False, worst_slack=float("nan"), binding_constraint="1-|t|-|l3|>0")
    return is_2tsp_nonunital(m)


def _cone_bounds(t):
    """The Bloch cube cut to the cone ``|l3| <= 1 - |t|``, where the 2tsp criterion is defined."""
    h = 1.0 - abs(t)
    if h <= 0:
        raise ValueError(f"nonunital-2tsp needs |t| < 1, got t = {t!r}")
    return ((-1.0, 1.0), (-1.0, 1.0), (-h, h))


def _nonunital_2tsp_oracle(pt, cfg, t):
    m = NonUnitalFamilyMap(t, pt)
    if not m.is_interior():
        return float("nan")  # criterion undefined on the cone's boundary; row is flagged marginal
    rr = reduce_to_unital(m)
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = psi[3] = 2**-0.5
    w = np.kron(rr.a_inv, rr.a_inv) @ psi
    w /= np.linalg.norm(w)
    rho = HermitianOperator(np.outer(w, w.conj()), (2, 2))
    return tensor_apply([m, m], rho).min_eig()


_FAMILY_T = (("t", 0.8),)

# Lambdas resolve the criteria's module bindings per call, so span tracing sees those calls.
_REGION_CRITERIA = {
    "depolarizing": RegionCriterion(
        _depol_analytic, _depol_oracle, axes=("q1", "q2"), bounds=((-1.0, 1.0),) * 2, default_steps=41
    ),
    "2tsp": RegionCriterion(lambda pt: is_2tsp(pt), _2tsp_oracle),
    "3tsp": RegionCriterion(lambda pt: is_3tsp(pt), _3tsp_oracle),
    "nonunital-positive": RegionCriterion(
        lambda pt, t: classify_nonunital_positive(NonUnitalFamilyMap(t, pt)),
        _nonunital_positive_oracle,
        _FAMILY_T,
    ),
    "nonunital-ghz": RegionCriterion(
        lambda pt, t: ghz_output_conditions(NonUnitalFamilyMap(t, pt)), _nonunital_ghz_oracle, _FAMILY_T
    ),
    "nonunital-2tsp": RegionCriterion(
        _nonunital_2tsp_analytic, _nonunital_2tsp_oracle, _FAMILY_T, bounds=_cone_bounds
    ),
}


def region_criteria() -> tuple[str, ...]:
    """Names accepted by :func:`region_scan`."""
    return tuple(sorted(_REGION_CRITERIA))


def region_params(criterion: str) -> dict:
    """The parameters :func:`region_scan` reads for a criterion, with their defaults."""
    return dict(_REGION_CRITERIA[criterion].params)


@dataclass(frozen=True)
class RegionScanReport:
    """Grid of parameter points with analytic verdicts and oracle values."""

    criterion: str
    axes: tuple[str, ...]
    grids: tuple[np.ndarray, ...]
    params: dict
    points: np.ndarray  # (npoints, naxes), row-major over the grid
    analytic: np.ndarray  # bool
    analytic_slack: np.ndarray  # worst slack behind each analytic verdict
    oracle: np.ndarray  # float
    flags: np.ndarray  # "agree" | "disagree" | "marginal"

    @property
    def summary(self) -> dict:
        """How many points carry each flag."""
        return {f: int(np.sum(self.flags == f)) for f in ("agree", "disagree", "marginal")}

    def to_csv(self) -> str:
        header = ",".join([*self.axes, "analytic", "oracle", "flag"])
        lines = [header]
        for pt, a, o, f in zip(self.points, self.analytic, self.oracle, self.flags):
            coords = ",".join(f"{c:.12g}" for c in pt)
            lines.append(f"{coords},{int(a)},{o:.12g},{f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "criterion": self.criterion,
            "axes": list(self.axes),
            "params": self.params,
            "summary": self.summary,
            "points": [
                {
                    "coords": [float(c) for c in pt],
                    "analytic": int(a),
                    "oracle": None if not np.isfinite(o) else float(o),
                    "flag": str(f),
                }
                for pt, a, o, f in zip(self.points, self.analytic, self.oracle, self.flags)
            ],
        }
        return json.dumps(payload, sort_keys=True)


def region_scan(
    criterion: str,
    steps: int | Sequence[int] | None = None,
    params: dict | None = None,
    seed: int = 0,
) -> RegionScanReport:
    """Sweep a parameter grid, comparing an analytic criterion to its oracle.

    Points are evaluated in row-major grid order with the oracle budget
    :data:`REGION_SCAN_CONFIG`.  Each point's oracle seed derives from
    ``(seed, point index)``, so a report depends only on the criterion,
    grid, parameters and ``seed``.
    """
    if criterion not in _REGION_CRITERIA:
        raise ValueError(
            f"unknown criterion {criterion!r}; known: {', '.join(region_criteria())}"
        )
    crit = _REGION_CRITERIA[criterion]
    merged = region_params(criterion)
    unread = sorted(set(params or {}) - set(merged))
    if unread:
        raise ValueError(f"{criterion} takes no parameter {', '.join(unread)}")
    merged.update(params or {})
    if steps is None:
        steps = crit.default_steps
    if np.isscalar(steps):
        steps = (steps,) * len(crit.axes)
    if len(steps) != len(crit.axes):
        raise ValueError(f"{criterion} needs {len(crit.axes)} step counts")
    bounds = crit.bounds(**merged) if callable(crit.bounds) else crit.bounds
    grids = tuple(symmetric_linspace(lo, hi, k) for (lo, hi), k in zip(bounds, steps))
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=1)
    npts = len(points)

    analytic = np.zeros(npts, dtype=bool)
    slack = np.zeros(npts, dtype=float)
    oracle = np.zeros(npts, dtype=float)

    for i, pt in enumerate(points):
        verdict = crit.analytic(pt, **merged)
        analytic[i], slack[i] = verdict.satisfied, verdict.worst_slack
        point_seed = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
        oracle[i] = crit.oracle(pt, dataclasses.replace(REGION_SCAN_CONFIG, seed=point_seed), **merged)

    flags = np.array([_flag(a, sl, o) for a, sl, o in zip(analytic, slack, oracle)])
    return RegionScanReport(
        criterion=criterion,
        axes=crit.axes,
        grids=grids,
        params=merged,
        points=points,
        analytic=analytic,
        analytic_slack=slack,
        oracle=oracle,
        flags=flags,
    )


@dataclass(frozen=True)
class DecomposabilityReport:
    """Numbers behind the two decomposability fixtures."""

    ex1_choi_min_eig: float
    ex1_identity_residual: float
    ex2_choi_min_eig: float
    ex2_mu: float
    ex2_is_2tsp: bool
    ex2_cp: bool
    ex2_ccp: bool


# Coefficient tables of the two-qubit maps F in the decomposability examples.
_EX1_COEFFS = np.array(
    [
        [1.0, 2**-0.5, 0.5, 2**-0.5],
        [2**-0.5, 0.5, 0.25, 0.5],
        [0.5, 0.25, 0.0, 0.25],
        [2**-0.5, 0.5, 0.25, 0.5],
    ]
)

_EX2_COEFFS = np.array(
    [
        [(4.0 + (n == 0)) / 5.0 for n in range(4)],
        [(2.0 - (n == 0)) / 5.0 for n in range(4)],
        [(2.0 - (n == 0)) / 5.0 for n in range(4)],
        [(4.0 + (n == 0)) / 5.0 for n in range(4)],
    ]
)

EX2_MAP_A = PauliMap((1.0, 2 / 3, 2 / 3, 2 / 3))
EX2_MAP_B = PauliMap((1.0, 0.05, -0.05, 1.0))


def ex2_family(mu: float) -> PauliMap:
    """Convex mixture ``mu A + (1 - mu) B`` of the second example's maps."""
    lam = mu * np.asarray(EX2_MAP_A.lam) + (1.0 - mu) * np.asarray(EX2_MAP_B.lam)
    return PauliMap(tuple(lam))


def decomposability_fixtures(mu: float = 0.1) -> DecomposabilityReport:
    """Build and check the two decomposability examples.

    Example 1: the two-qubit map F from the coefficient table above is
    completely positive and ``(Y x Y) = F . (Id x Id + T x T) / 2`` holds as
    an identity of coefficient tables for the boundary map with scalings
    ``(1/sqrt 2, 0, 1/sqrt 2)``; maps diagonal in the product-Pauli basis
    compose by multiplying their tables.

    Example 2: the second table's F is completely positive, and the convex
    family is 2-tensor-stable but neither CP nor CcP at the given ``mu``.
    """
    f1 = PauliDiagonalMap(_EX1_COEFFS)
    ex1_min = f1.choi().min_eig()

    lam_b = np.array([1.0, 2**-0.5, 0.0, 2**-0.5])
    eta = np.array([1.0, 1.0, -1.0, 1.0])
    residual = float(np.abs(np.outer(lam_b, lam_b) - _EX1_COEFFS * (1.0 + np.outer(eta, eta)) / 2.0).max())

    f2 = PauliDiagonalMap(_EX2_COEFFS)
    ex2_min = f2.choi().min_eig()

    m = ex2_family(mu)
    rep = classify(m)
    return DecomposabilityReport(
        ex1_choi_min_eig=float(ex1_min),
        ex1_identity_residual=residual,
        ex2_choi_min_eig=float(ex2_min),
        ex2_mu=float(mu),
        ex2_is_2tsp=bool(is_2tsp(m.lam3).satisfied),
        ex2_cp=rep.cp,
        ex2_ccp=rep.ccp,
    )
