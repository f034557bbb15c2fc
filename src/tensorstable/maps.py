"""Linear qubit maps: representations, action, composition, Choi operators.

A qubit map is represented by its real 4x4 matrix ``E`` in the Pauli basis,
``E[i, j] = tr(sigma_i Phi[sigma_j]) / 2``, acting as

    Phi[X] = (1/2) * sum_i (E @ x)_i sigma_i,   x_j = tr(sigma_j X).

:class:`PauliMap` is the diagonal special case ``E = diag(lambda)``, which
also admits the conjugation form ``Phi[X] = sum_j q_j sigma_j X sigma_j``
with ``q = H4 @ lambda / 4`` (``H4`` the +-1 Hadamard pattern).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    MATRIX_ATOL,
    SIGMA,
    HermitianOperator,
    OracleConfig,
    block_positivity_min,
    hermitian_spectrum,
    kron,
    partial_transpose,
    psd_verdict,
)
from .nonunital import NonUnitalFamilyMap, classify_nonunital_positive

__all__ = [
    "H4",
    "ClassificationReport",
    "GeneralQubitMap",
    "PauliDiagonalMap",
    "PauliMap",
    "choi",
    "classify",
    "compose",
    "lambda_to_q",
    "map_from_json",
    "map_from_choi",
    "map_to_json",
    "max_entangled_projector",
    "tensor_apply",
]

# +-1 Hadamard pattern relating the two Pauli-map parameterizations.
H4 = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)

# Per-qubit change of basis from the row-major vec of a 2x2 block to its Pauli
# coefficients x_i = tr(sigma_i X), and back (X = sum_i x_i sigma_i / 2).
_TO_PAULI = np.array([s.conj().reshape(-1) for s in SIGMA])
_FROM_PAULI = _TO_PAULI.conj().T / 2.0


def lambda_to_q(lam: Sequence[float]) -> np.ndarray:
    """Conjugation weights ``q = H4 @ lambda / 4``; involutive up to the 1/4."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4,):
        raise ValueError("lambda must have four components")
    return H4 @ lam / 4.0


def _check_2x2(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class PauliMap:
    """Qubit map diagonal in the Pauli basis, parameters ``(l0, l1, l2, l3)``."""

    lam: tuple[float, float, float, float]

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lam)
        if len(lam) != 4:
            raise ValueError("PauliMap takes four lambda values")
        if not all(map(math.isfinite, lam)):
            raise ValueError(f"PauliMap lambda values must be finite, got {lam}")
        object.__setattr__(self, "lam", lam)

    @classmethod
    def identity(cls) -> "PauliMap":
        return cls((1.0, 1.0, 1.0, 1.0))

    @classmethod
    def depolarizing(cls, q: float) -> "PauliMap":
        """``D_q[X] = q X + (1 - q) tr(X) I / 2``."""
        return cls((1.0, q, q, q))

    @classmethod
    def transposition(cls) -> "PauliMap":
        return cls((1.0, 1.0, -1.0, 1.0))

    @classmethod
    def reduction(cls) -> "PauliMap":
        """``R[X] = tr(X) I - X``."""
        return cls((1.0, -1.0, -1.0, -1.0))

    @classmethod
    def unital(cls, lam3: Sequence[float]) -> "PauliMap":
        """Trace-preserving map from the three Bloch scalings (l0 = 1)."""
        l1, l2, l3 = (float(v) for v in lam3)
        return cls((1.0, l1, l2, l3))

    @property
    def q(self) -> np.ndarray:
        return lambda_to_q(self.lam)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.lam, dtype=float))

    @property
    def lam3(self) -> np.ndarray:
        return np.asarray(self.lam[1:], dtype=float)

    def apply(self, x) -> np.ndarray:
        """Action in the lambda form, ``(1/2) sum_j l_j tr(sigma_j X) sigma_j``."""
        return _pauli_product(self.lam, _check_2x2(x), diagonal=True)


class GeneralQubitMap:
    """Qubit map given by an arbitrary real 4x4 Pauli-basis matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 real matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("qubit map matrix entries must be finite")
        self.matrix = m.copy()

    @classmethod
    def from_translation(cls, t: Sequence[float], lam3: Sequence[float]) -> "GeneralQubitMap":
        """Trace-preserving map with Bloch translation ``t`` and scalings ``lam3``."""
        t = np.asarray(t, dtype=float)
        lam3 = np.asarray(lam3, dtype=float)
        if t.shape != (3,) or lam3.shape != (3,):
            raise ValueError("t and lam3 must each have three components")
        e = np.zeros((4, 4))
        e[0, 0] = 1.0
        e[1:, 0] = t
        e[1, 1], e[2, 2], e[3, 3] = lam3
        return cls(e)

    def apply(self, x) -> np.ndarray:
        return _pauli_product([self.matrix], _check_2x2(x))

    def __repr__(self) -> str:
        return f"GeneralQubitMap({self.matrix.tolist()})"


def _realign(s: np.ndarray) -> np.ndarray:
    """``S[(a, b), (a', b')]`` with ``vec(Phi[X]) = S vec(X)`` (row-major vec) <->
    ``sum Phi[E_a'b'] (x) E_a'b'`` (twice the Choi operator); the swap is its own inverse."""
    return s.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def compose(f, g):
    """Concatenation ``f . g``; matrix representations multiply."""
    if isinstance(f, PauliMap) and isinstance(g, PauliMap):
        return PauliMap(tuple(a * b for a, b in zip(f.lam, g.lam)))
    return GeneralQubitMap(np.asarray(f.matrix) @ np.asarray(g.matrix))


def max_entangled_projector(d: int = 2) -> HermitianOperator:
    """Projector onto ``(1/sqrt(d)) sum_i |ii>``, for ``d`` a power of two."""
    psi = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        psi[i * d + i] = 1.0
    psi /= np.sqrt(d)
    return HermitianOperator(np.outer(psi, psi.conj()))


def choi(maps) -> HermitianOperator:
    """Choi operator of a qubit map or of an ordered list of qubit maps.

    Each map enters through its Pauli-basis matrix ``.matrix`` alone, and
    anything with a ``.matrix`` counts as one map.  For one map this is
    ``(Phi x Id)`` applied to the maximally entangled projector (4x4).  For
    ``k`` maps the result is the Kronecker product of the single-map Choi
    operators, so the factor ordering is ``A A' B B' ...`` with unprimed
    factors carrying the map outputs.
    """
    if hasattr(maps, "matrix"):
        maps = [maps]
    if not maps:
        raise ValueError("choi requires at least one map")
    # (Phi x Id)[psi+ proj] = (1/2) sum_ab Phi[E_ab] (x) E_ab
    singles = [HermitianOperator(0.5 * _realign(_FROM_PAULI @ m.matrix @ _TO_PAULI)) for m in maps]
    out = singles[0]
    for s in singles[1:]:
        out = kron(out, s)
    return out


def map_from_choi(omega: HermitianOperator) -> GeneralQubitMap:
    """Reconstruct a qubit map from its 4x4 Choi operator.

    Realigns ``Omega`` into ``S = 2 * realign(Omega)``, the matrix with
    ``vec(Phi[X]) = S vec(X)``, and changes its basis to the Pauli one, the
    inverse of :func:`choi`.
    """
    w = omega.matrix if isinstance(omega, HermitianOperator) else np.asarray(omega)
    if w.shape != (4, 4):
        raise ValueError("expected a 4x4 Choi operator")
    return GeneralQubitMap(2.0 * (_TO_PAULI @ _realign(w) @ _FROM_PAULI).real)


def _rotate_in(m: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """Multiply the 4x4 matrices ``m`` into the first qubit axis of ``t``, shape
    ``(..., 4**n)``, and move that axis last; ``n`` calls restore the order."""
    t = np.swapaxes(t.reshape(t.shape[:-1] + (4, 4 ** (n - 1))), -1, -2) @ np.swapaxes(m, -1, -2)
    return t.reshape(t.shape[:-2] + (4**n,))


def _permute_tail(t: np.ndarray, order) -> np.ndarray:
    """Permute the trailing ``len(order)`` axes of ``t``, keeping the leading ones."""
    nl = t.ndim - len(order)
    return t.transpose([*range(nl), *(nl + int(ax) for ax in order)])


def _pauli_product(e, x, diagonal: bool = False) -> np.ndarray:
    """Apply a map on ``n`` qubits, given in the product-Pauli basis, to ``x``.

    ``x`` has shape ``(..., 2**n, 2**n)``.  ``e`` stacks the Pauli-basis
    matrices of ``n`` qubit maps, shape ``(..., n, 4, 4)``, whose tensor
    product is applied; with ``diagonal=True`` it is instead a coefficient
    table of shape ``(..., 4, ..., 4)`` scaling each product-Pauli coefficient
    (for a product of Pauli maps, the outer product of their lambdas).
    Leading dimensions broadcast, so one call applies a whole stack of maps.
    Three steps: one 4x4 change of basis per qubit takes ``x`` to Pauli
    coefficients, the maps act on the coefficients, and the basis changes back.
    """
    e = np.asarray(e, dtype=float)
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1].bit_length() - 1
    # Pair each qubit's row and column index: (a1..an, b1..bn) -> (a1, b1, ..., an, bn).
    pairs = [ax for k in range(n) for ax in (k, n + k)]
    t = _permute_tail(x.reshape(x.shape[:-2] + (2,) * (2 * n)), pairs).reshape(x.shape[:-2] + (4**n,))
    for _ in range(n):
        t = _rotate_in(_TO_PAULI, t, n)
    if diagonal:
        t = t * e.reshape(e.shape[: e.ndim - n] + (4**n,))
    else:
        for k in range(n):
            t = _rotate_in(e[..., k, :, :], t, n)
    for _ in range(n):
        t = _rotate_in(_FROM_PAULI, t, n)
    lead = t.shape[:-1]
    return _permute_tail(t.reshape(lead + (2,) * (2 * n)), np.argsort(pairs)).reshape(lead + (2**n, 2**n))


def _power_min_eigs(lams, rho) -> np.ndarray:
    """Smallest eigenvalue of ``Phi_lam^{(x)n}[rho]`` for each row of an ``(m, 4)``
    stack of Pauli-map lambdas; ``n`` is read from the ``2**n``-dimensional ``rho``."""
    lams = np.asarray(lams, dtype=float)
    n = np.shape(rho)[-1].bit_length() - 1
    # Coefficient table of the n-fold power: table[r, i1, ..., in] = prod_k lams[r, ik].
    table = lams
    for k in range(1, n):
        table = table[..., None] * lams.reshape((-1,) + (1,) * k + (4,))
    return np.linalg.eigvalsh(_pauli_product(table, rho, diagonal=True))[:, 0]


def tensor_apply(maps, x: HermitianOperator) -> HermitianOperator:
    """Apply one qubit map per tensor factor of ``x``, in the Pauli basis (:func:`_pauli_product`)."""
    if not isinstance(x, HermitianOperator):
        raise ValueError("tensor_apply expects a HermitianOperator input")
    if len(maps) != x.nfactors:
        raise ValueError(f"need one qubit factor per map: {len(maps)} maps, {x.nfactors} qubits")
    return HermitianOperator(_pauli_product(np.stack([m.matrix for m in maps]), x.matrix))


class PauliDiagonalMap:
    """Map on ``n`` qubits diagonal in the product-Pauli basis.

    ``Phi[X] = 2^-n sum_idx c_idx tr(sigma_idx X) sigma_idx`` with ``c`` an
    ``(4,)*n`` coefficient array.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 0 or c.shape != (4,) * c.ndim:
            raise ValueError("coefficients must have shape (4,)*n with n >= 1")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        self.coeffs = c.copy()

    @property
    def nqubits(self) -> int:
        return self.coeffs.ndim

    @property
    def q(self) -> np.ndarray:
        """Conjugation weights: the Hadamard pattern applied on every axis."""
        q = self.coeffs
        for axis in range(q.ndim):
            q = np.moveaxis(np.tensordot(H4 / 4.0, q, axes=(1, axis)), 0, axis)
        return q

    def apply(self, x) -> np.ndarray:
        d = 2**self.nqubits
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix")
        return _pauli_product(self.coeffs, x, diagonal=True)

    def choi(self) -> HermitianOperator:
        """Choi operator, a ``4^n``-dimensional Hermitian matrix: the table, with
        ones on the reference qubits, applied to the maximally entangled projector."""
        table = np.multiply.outer(self.coeffs, np.ones(self.coeffs.shape))
        omega = _pauli_product(table, max_entangled_projector(2**self.nqubits).matrix, diagonal=True)
        return HermitianOperator(omega)


@dataclass(frozen=True)
class ClassificationReport:
    """Boolean verdicts for a qubit map with the slack behind each verdict."""

    unital: bool
    trace_preserving: bool
    positive: bool
    cp: bool
    ccp: bool
    eb: bool
    margins: dict = field(default_factory=dict)
    positivity_method: str = "pauli-closed-form"


# The first column of a unital E and the first row of a trace-preserving one.
_E0 = np.array([1.0, 0.0, 0.0, 0.0])


def classify(m) -> ClassificationReport:
    """Classify a qubit map (unital / TP / positive / CP / CcP / EB).

    The branch follows from the Pauli-basis matrix ``E`` (``m.matrix``) alone.
    A diagonal ``E`` takes the closed-form Pauli-map conditions.  Any other
    map falls back on its Choi operator and that operator's partial transpose
    for CP / CcP / EB (EB is CP and CcP together); positivity uses the
    exact translated-family conditions when ``E`` has that shape and the
    numeric block-positivity oracle otherwise (the report records which).
    """
    e = np.asarray(m.matrix, dtype=float)
    # Absolute only: a relative tolerance would swamp MATRIX_ATOL at the 1.
    unital = bool(np.abs(e[:, 0] - _E0).max() <= MATRIX_ATOL)
    tp = bool(np.abs(e[0, :] - _E0).max() <= MATRIX_ATOL)
    margins: dict = {}

    # Diagonal E; count_nonzero is about ten times cheaper than comparing with np.diag.
    if np.count_nonzero(e) == np.count_nonzero(e.diagonal()):
        lam = np.diag(e)
        q = lambda_to_q(lam)
        q_ccp = lambda_to_q(lam * np.array([1, 1, -1, 1]))
        positive = bool(lam[0] >= 0 and np.max(np.abs(lam[1:])) <= lam[0])
        cp = bool(q.min() >= 0)
        ccp = bool(q_ccp.min() >= 0)
        margins["positivity"] = float(min(lam[0], (lam[0] - np.abs(lam[1:])).min()))
        margins["cp"] = float(q.min())
        margins["ccp"] = float(q_ccp.min())
        method = "pauli-closed-form"
    else:
        omega = choi(m)
        omega_eigs = hermitian_spectrum(omega)
        cp = psd_verdict(omega_eigs) == "psd"
        # The Choi operator of T . Phi is the full transpose of this partial
        # transpose, so the two share their spectrum.
        pt_eigs = hermitian_spectrum(partial_transpose(omega, [1]))
        ccp = psd_verdict(pt_eigs) == "psd"
        margins["cp"] = float(omega_eigs[0])
        margins["ccp"] = float(pt_eigs[0])
        off = e - np.diag(np.diag(e))
        off[3, 0] = 0.0
        if tp and np.abs(off).max() <= MATRIX_ATOL:
            fam = NonUnitalFamilyMap(t=float(e[3, 0]), lam3=tuple(np.diag(e)[1:]))
            verdict = classify_nonunital_positive(fam)
            positive = verdict.satisfied
            margins["positivity"] = verdict.worst_slack
            method = "nonunital-closed-form"
        else:
            value = block_positivity_min(omega, cut=(0,), cfg=OracleConfig(restarts=16)).value
            positive = psd_verdict([value]) == "psd"
            margins["positivity"] = float(value)
            method = "numeric-block-positivity"
    eb = cp and ccp
    margins["eb"] = min(margins["cp"], margins["ccp"])

    return ClassificationReport(
        unital=unital,
        trace_preserving=tp,
        positive=positive,
        cp=cp,
        ccp=ccp,
        eb=eb,
        margins=margins,
        positivity_method=method,
    )


def map_to_json(m) -> str:
    """Serialize a qubit map to JSON from its Pauli-basis matrix ``E`` alone.

    Schema: ``{"lambda": [l0, l1, l2, l3]}``, the diagonal of ``E``, with an
    extra ``"t": [t1, t2, t3]`` entry for a translation, which needs ``l0 = 1``.
    """
    e = np.asarray(m.matrix, dtype=float)
    off = e - np.diag(np.diag(e))
    off[1:, 0] = 0.0
    t = e[1:, 0]
    translated = bool(np.any(t != 0))
    if np.abs(off).max() > 0 or (translated and e[0, 0] != 1.0):
        raise ValueError("JSON schema covers diagonal maps, with a translation when l0 = 1, only")
    payload = {"lambda": np.diag(e).tolist()}
    if translated:
        payload["t"] = t.tolist()
    return json.dumps(payload, sort_keys=True)


def _finite_floats(values, name: str) -> list[float]:
    try:
        # float() would read a string's digits and a bool as numbers.
        if isinstance(values, str) or any(isinstance(v, (str, bool)) for v in values):
            raise TypeError
        out = [float(v) for v in values]
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of numbers") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def map_from_json(text: str):
    """Inverse of :func:`map_to_json`; 3-component lambda implies l0 = 1."""
    data = json.loads(text)
    if not isinstance(data, dict) or "lambda" not in data:
        raise ValueError('map JSON must be an object with a "lambda" entry')
    unknown = sorted(set(data) - {"lambda", "t"})
    if unknown:
        raise ValueError(f'map JSON takes only "lambda" and "t", got {", ".join(map(repr, unknown))}')
    lam = _finite_floats(data["lambda"], "lambda")
    if len(lam) == 3:
        lam = [1.0, *lam]
    if len(lam) != 4:
        raise ValueError("lambda must have three or four components")
    if "t" in data:
        t = data["t"]
        if np.isscalar(t):
            t = [0.0, 0.0, t]
        t = _finite_floats(t, "t")
        if len(t) != 3:
            raise ValueError("t must have three components")
        if lam[0] != 1.0:
            raise ValueError("translated maps must have l0 = 1")
        return GeneralQubitMap.from_translation(t, lam[1:])
    return PauliMap(tuple(lam))
