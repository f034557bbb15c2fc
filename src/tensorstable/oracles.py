"""Independent numerical oracles and parameter-region cross-validation.

The closed-form criteria are checked against two optimization oracles:

* :func:`block_positivity_min` minimizes a Choi quadratic form over product
  vectors by alternating eigenvector descent (see-saw),
* :func:`min_output_eig` minimizes the smallest output eigenvalue of a
  tensor-product map over pure input states.

Both return upper bounds on the true minimum; a negative value certifies a
violation, values inside the marginal band ``(-1e-6, -1e-9)`` neither
confirm nor refute.  :func:`region_scan` sweeps a parameter grid and flags
disagreements between a named analytic criterion and its oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .criteria import CriterionVerdict, depolarizing_pair_positive, is_2tsp, is_3tsp
from .linalg import (
    CONVERGENCE_TOL,
    PSD_CONFIRM_TOL,
    PSD_REFUTE_TOL,
    ConvergenceError,
    HermitianOperator,
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
    BOUNDARY_TOL,
    NonUnitalFamilyMap,
    classify_nonunital_positive,
    ghz_output_conditions,
    is_2tsp_nonunital,
    reduce_to_unital,
)

__all__ = [
    "DecomposabilityReport",
    "OracleConfig",
    "REGION_SCAN_CONFIG",
    "RegionScanReport",
    "SeeSawResult",
    "block_positivity_min",
    "decomposability_fixtures",
    "ex2_family",
    "min_output_eig",
    "region_criteria",
    "region_params",
    "region_scan",
]


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the numerical oracles; deterministic given ``seed``."""

    restarts: int = 64
    max_iters: int = 500
    seed: int = 0
    sample_count: int = 4096

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1 or self.sample_count < 1:
            raise ValueError("counts must be >= 1")


# Oracle budget of a region scan, per grid point; the scan derives each point's seed.
REGION_SCAN_CONFIG = OracleConfig(restarts=8, sample_count=256)


@dataclass(frozen=True)
class SeeSawResult:
    """Full see-saw output: best value, witnessing vectors, value history."""

    value: float
    phi: np.ndarray
    chi: np.ndarray
    history: np.ndarray  # (steps, restarts), non-increasing along axis 0
    converged: bool


def _random_unit(rng, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _min_eigvecs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched smallest eigenpair of a stack of Hermitian matrices."""
    mats = (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2
    w, v = np.linalg.eigh(mats)
    return w[..., 0].real, v[..., :, 0]


def _see_saw(w4: np.ndarray, chi0: np.ndarray, cfg: OracleConfig) -> SeeSawResult:
    """Alternating eigenvector minimization of ``<phi chi|W|phi chi>``.

    ``w4`` is the operator reshaped to ``(dA, dB, dA, dB)``; ``chi0`` is a
    batch of starting vectors on the B side.
    """
    chi = chi0
    phi = None
    values = None
    history = []
    converged = np.zeros(len(chi0), dtype=bool)
    for _ in range(cfg.max_iters):
        ma = np.einsum("abcd,rb,rd->rac", w4, chi.conj(), chi, optimize=False)
        va, phi = _min_eigvecs(ma)
        history.append(va)
        mb = np.einsum("abcd,ra,rc->rbd", w4, phi.conj(), phi, optimize=False)
        vb, chi = _min_eigvecs(mb)
        history.append(vb)
        if values is not None:
            converged |= np.abs(vb - values) < CONVERGENCE_TOL
        values = vb
        if converged.all():
            break
    best = int(np.argmin(values))
    if not converged.any():
        raise ConvergenceError(
            f"see-saw did not converge in {cfg.max_iters} iterations",
            best=float(values[best]),
        )
    return SeeSawResult(
        value=float(values[best]),
        phi=phi[best],
        chi=chi[best],
        history=np.array(history),
        converged=bool(converged[best]),
    )


def block_positivity_min(
    omega: HermitianOperator,
    cut: Sequence[int],
    cfg: OracleConfig | None = None,
    full_output: bool = False,
):
    """Approximate minimum of ``<phi x chi|Omega|phi x chi>`` over unit products.

    ``cut`` lists the tensor factors spanned by ``phi``; the complement is
    spanned by ``chi``.  Restarts mix eigenvectors of the partially
    contracted operator with random unit vectors.  The result is an upper
    bound on the true minimum: a negative value certifies that ``omega`` is
    not block-positive.
    """
    cfg = cfg or OracleConfig()
    cut = sorted(set(int(k) for k in cut))
    n = omega.nfactors
    if not cut or cut[-1] >= n or cut[0] < 0 or len(cut) == n:
        raise ValueError(f"cut must be a proper nonempty subset of range({n})")
    rest = [k for k in range(n) if k not in cut]
    dims = omega.dims
    da = int(np.prod([dims[k] for k in cut]))
    db = int(np.prod([dims[k] for k in rest]))
    perm = cut + rest
    axes = perm + [n + k for k in perm]
    w4 = omega.matrix.reshape(dims + dims).transpose(axes).reshape(da, db, da, db)

    rng = np.random.default_rng(cfg.seed)
    # Restarts mix eigenvectors of the partially contracted operator with
    # random vectors, the latter pre-scored by their optimal phi response
    # (the landscape has local minima near criterion boundaries).
    contracted = np.einsum("abad->bd", w4)
    _, vecs = np.linalg.eigh((contracted + contracted.conj().T) / 2)
    n_eig = min(db, max(cfg.restarts // 2, 1))
    n_rand = max(cfg.restarts - n_eig, 1)
    samples = _random_unit(rng, cfg.sample_count, db)
    ma = np.einsum("abcd,rb,rd->rac", w4, samples.conj(), samples, optimize=False)
    scores, _ = _min_eigvecs(ma)
    inits = [samples[np.argsort(scores)[:n_rand]], vecs.T[:n_eig]]
    # When either side is a pair of equal factors, seed with the maximally
    # entangled pairing (for Choi operators of doubled maps the violating
    # product vector sits exactly there).
    ent = _entangled_inits(w4, [dims[k] for k in cut], [dims[k] for k in rest])
    if ent is not None:
        inits.append(ent)
    result = _see_saw(w4, np.concatenate(inits), cfg)
    return result if full_output else result.value


def _entangled_inits(w4, dims_a, dims_b) -> np.ndarray | None:
    chis = []
    if len(dims_b) == 2 and dims_b[0] == dims_b[1]:
        chis.append(np.eye(dims_b[0]).reshape(-1) / np.sqrt(dims_b[0]))
    if len(dims_a) == 2 and dims_a[0] == dims_a[1]:
        phi = np.eye(dims_a[0]).reshape(-1) / np.sqrt(dims_a[0])
        mb = np.einsum("abcd,a,c->bd", w4, phi.conj(), phi, optimize=False)
        _, v = np.linalg.eigh((mb + mb.conj().T) / 2)
        chis.append(v[:, 0])
    if not chis:
        return None
    return np.array(chis)


def _tensor_superop(maps) -> np.ndarray:
    """Row-major superoperator of the tensor product of qubit maps: the outer
    product of the single-map superoperators, with row and column indices regrouped."""
    n = len(maps)
    s = maps[0].superop()
    for m in maps[1:]:
        s = np.multiply.outer(s, m.superop())
    order = [4 * k + j for j in range(4) for k in range(n)]
    return s.reshape((2,) * (4 * n)).transpose(order).reshape(4**n, 4**n)


def min_output_eig(
    maps,
    cfg: OracleConfig | None = None,
    full_output: bool = False,
):
    """Approximate ``min`` over pure inputs of the smallest output eigenvalue.

    Samples ``cfg.sample_count`` Haar-like pure states of ``len(maps)``
    qubits, then refines the best candidates by alternating eigenvector
    descent on the bilinear form ``<v|(tensor maps)[psi psi*]|v>``.  Returns
    an upper bound on the true minimum.  The product's superoperator is built
    once, as the outer product of the single-map superoperators.
    """
    cfg = cfg or OracleConfig()
    n = len(maps)
    d = 2**n
    s = _tensor_superop(maps)
    s_adj = s.conj().T
    rng = np.random.default_rng(cfg.seed)

    psis = _random_unit(rng, cfg.sample_count, d)
    rhos = np.einsum("ra,rb->rab", psis, psis.conj()).reshape(-1, d * d)
    outs = (rhos @ s.T).reshape(-1, d, d)
    vals, _ = _min_eigvecs(outs)
    order = np.argsort(vals)
    # Descend from the best candidates plus fresh random states; the best
    # samples tend to cluster in one basin of the bilinear landscape.
    n_best = min((cfg.restarts + 1) // 2, cfg.sample_count)
    keep = order[:n_best]

    psi = np.concatenate([psis[keep], _random_unit(rng, cfg.restarts - n_best, d)])
    values = None
    history = []
    for _ in range(cfg.max_iters):
        rho = np.einsum("ra,rb->rab", psi, psi.conj()).reshape(-1, d * d)
        outs = (rho @ s.T).reshape(-1, d, d)
        vout, v = _min_eigvecs(outs)
        history.append(vout)
        done = values is not None and np.abs(vout - values).max() < CONVERGENCE_TOL
        values = vout
        if done:
            break
        proj = np.einsum("ra,rb->rab", v, v.conj()).reshape(-1, d * d)
        kmats = (proj @ s_adj.T).reshape(-1, d, d)
        _, psi = _min_eigvecs(kmats)
    i = int(np.argmin(values))
    if not full_output:
        return float(values[i])
    return float(values[i]), psi[i], np.array(history)


# Analytic slacks this close to zero sit on a criterion boundary; the sign
# of such a point is below any oracle's resolution, so no flag is claimed.
ANALYTIC_BAND = 1e-9


def _flag(analytic: bool, slack: float, value: float) -> str:
    """``agree``/``disagree``/``marginal`` for one point of a region scan.

    The oracle bands are absolute, not scaled by the spectral radius as in
    ``psd_verdict``: a see-saw value's operator spectrum is never computed.
    On the default grids the evaluated operators have radius 1 (+9e-16) for
    depolarizing, 2tsp and 3tsp, where both bands coincide, but up to 1.039,
    1.300 and 1.050 for nonunital-positive, -ghz and -2tsp at t = 0.8.  There
    the absolute band is narrower, so it can only turn a confirmation into
    ``marginal``; no oracle value on those grids lies in [-1.3e-9, -1e-9).
    """
    if not np.isfinite(value):
        return "marginal"
    if value >= -PSD_CONFIRM_TOL:
        ok = analytic
    elif value < -PSD_REFUTE_TOL:
        ok = not analytic
    else:
        return "marginal"
    if ok:
        return "agree"
    return "marginal" if abs(slack) <= ANALYTIC_BAND else "disagree"


@dataclass(frozen=True)
class RegionCriterion:
    """An analytic predicate paired with its numerical oracle, over the Bloch
    cube unless given other axes.  Both are called with the criterion's
    ``params`` as keywords: ``analytic(pt, **params)`` returns a verdict with
    ``satisfied`` and ``worst_slack``, ``oracle(pt, cfg, **params)`` a value."""

    analytic: Callable[..., CriterionVerdict]
    oracle: Callable[..., float]
    params: tuple[tuple[str, float], ...] = ()
    axes: tuple[str, ...] = ("l1", "l2", "l3")
    bounds: tuple[tuple[float, float], ...] = ((-1.0, 1.0),) * 3
    default_steps: int = 21


def _depol_analytic(pt):
    q1, q2 = pt
    slack = min(q1 * q2 + 1.0 / 3.0, 1.0 - abs(q1), 1.0 - abs(q2))
    return CriterionVerdict(depolarizing_pair_positive(q1, q2), float(slack), "q1*q2>=-1/3,|q1|<=1,|q2|<=1")


def _depol_oracle(pt, cfg):
    return min_output_eig([PauliMap.depolarizing(pt[0]), PauliMap.depolarizing(pt[1])], cfg)


def _2tsp_oracle(pt, cfg):
    m = PauliMap.unital(pt)
    return block_positivity_min(choi([m, m]), cut=(0, 2), cfg=cfg)


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
    return block_positivity_min(choi(NonUnitalFamilyMap(t, pt).to_general()), cut=(0,), cfg=cfg)


def _nonunital_ghz_oracle(pt, cfg, t):
    g = NonUnitalFamilyMap(t, pt).to_general()
    return tensor_apply([g, g], max_entangled_projector(2)).min_eig()


def _nonunital_2tsp_analytic(pt, t):
    m = NonUnitalFamilyMap(t, pt)
    if m.interior_gap() <= BOUNDARY_TOL:
        return CriterionVerdict(satisfied=False, worst_slack=float("nan"), binding_constraint="1-|t|-|l3|>0")
    return is_2tsp_nonunital(m)


def _nonunital_2tsp_oracle(pt, cfg, t):
    m = NonUnitalFamilyMap(t, pt)
    if m.interior_gap() <= BOUNDARY_TOL:
        return float("nan")  # criterion undefined; row is flagged marginal
    rr = reduce_to_unital(m)
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = psi[3] = 2**-0.5
    w = np.kron(rr.a_inv, rr.a_inv) @ psi
    w /= np.linalg.norm(w)
    rho = HermitianOperator(np.outer(w, w.conj()), (2, 2))
    g = m.to_general()
    return tensor_apply([g, g], rho).min_eig()


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
    "nonunital-2tsp": RegionCriterion(_nonunital_2tsp_analytic, _nonunital_2tsp_oracle, _FAMILY_T),
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
    summary: dict = field(default_factory=dict)

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
        steps = (int(steps),) * len(crit.axes)
    if len(steps) != len(crit.axes):
        raise ValueError(f"{criterion} needs {len(crit.axes)} step counts")
    grids = tuple(
        symmetric_linspace(lo, hi, k) for (lo, hi), k in zip(crit.bounds, steps)
    )
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
    summary = {
        "agree": int(np.sum(flags == "agree")),
        "disagree": int(np.sum(flags == "disagree")),
        "marginal": int(np.sum(flags == "marginal")),
    }
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
        summary=summary,
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
    an identity of 16x16 superoperator matrices for the boundary map with
    scalings ``(1/sqrt 2, 0, 1/sqrt 2)``.

    Example 2: the second table's F is completely positive, and the convex
    family is 2-tensor-stable but neither CP nor CcP at the given ``mu``.
    """
    f1 = PauliDiagonalMap(_EX1_COEFFS)
    ex1_min = f1.choi().min_eig()

    lam_b = np.array([1.0, 2**-0.5, 0.0, 2**-0.5])
    doubled = PauliDiagonalMap(np.outer(lam_b, lam_b))
    eta = np.array([1.0, 1.0, -1.0, 1.0])
    id_plus_tt = PauliDiagonalMap(np.ones((4, 4)) + np.outer(eta, eta))
    rhs = f1.superop() @ id_plus_tt.superop() / 2.0
    residual = float(np.abs(doubled.superop() - rhs).max())

    f2 = PauliDiagonalMap(_EX2_COEFFS)
    ex2_min = f2.choi().min_eig()

    m = ex2_family(mu)
    rep = classify(m)
    return DecomposabilityReport(
        ex1_choi_min_eig=float(ex1_min),
        ex1_identity_residual=residual,
        ex2_choi_min_eig=float(ex2_min),
        ex2_mu=float(mu),
        ex2_is_2tsp=is_2tsp(m.lam3).satisfied,
        ex2_cp=rep.cp,
        ex2_ccp=rep.ccp,
    )
