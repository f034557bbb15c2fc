"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.
"""

import time

import numpy as np
import pytest

from tensorstable.criteria import (
    is_2tsp,
    is_3tsp,
    lift_ntsp,
    ntsp_necessary,
    ntsp_sufficient_ball,
    squared_map_choi_eigs,
)
from tensorstable.linalg import HermitianOperator, OracleConfig, block_positivity_min, symmetric_linspace
from tensorstable.maps import (
    GeneralQubitMap,
    PauliMap,
    choi,
    classify,
    max_entangled_projector,
    tensor_apply,
)
from tensorstable.nonunital import NonUnitalFamilyMap, is_2tsp_nonunital, reduce_to_unital
from tensorstable.oracles import (
    decomposability_fixtures,
    min_output_eig,
    region_scan,
)
from tensorstable.witness import ghz_variants, threshold_search

SEED = 987654321
SCAN_CFG = OracleConfig(restarts=8, sample_count=256, seed=SEED)


def _passed(label: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: PASS {detail}".rstrip())


def test_1_depolarizing_region():
    t0 = time.time()
    rep = region_scan("depolarizing", steps=41, seed=SEED)
    elapsed = time.time() - t0
    assert len(rep.points) == 41 * 41
    assert rep.summary["disagree"] == 0
    assert elapsed < 30.0
    _passed("1 depolarizing-region", f"({rep.summary}, {elapsed:.1f}s)")


def test_2_two_tensor_stability_iff():
    t0 = time.time()
    grid = symmetric_linspace(-1.0, 1.0, 21)
    mismatches = 0
    for l1 in grid:
        for l2 in grid:
            for l3 in grid:
                p = (l1, l2, l3)
                closed_form_psd = squared_map_choi_eigs(p)[0] >= 0
                if is_2tsp(p).satisfied != closed_form_psd:
                    mismatches += 1
    assert mismatches == 0

    rep = region_scan("2tsp", steps=21, seed=SEED)
    elapsed = time.time() - t0
    assert rep.summary["disagree"] == 0
    assert elapsed < 300.0
    _passed("2 two-tensor-stability-iff", f"({rep.summary}, {elapsed:.1f}s)")


def test_3_boundary_constants():
    psi = max_entangled_projector()

    def pair_min_eig(t):
        m = PauliMap.unital((t, 0.0, t))
        return tensor_apply([m, m], psi).min_eig()

    lo, hi = 0.5, 1.0
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if pair_min_eig(mid) >= -1e-12 else (lo, mid)
    assert (lo + hi) / 2 == pytest.approx(2**-0.5, abs=1e-3)

    variants = ghz_variants()

    def triple_min_eig(t):
        m = PauliMap.unital((t, 0.0, t))
        return min(tensor_apply([m, m, m], s.rho).min_eig() for s in variants)

    lo, hi = 0.5, 0.7
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if triple_min_eig(mid) >= -1e-12 else (lo, mid)
    assert (lo + hi) / 2 == pytest.approx(2 ** (-2 / 3), abs=1e-3)
    _passed("3 boundary-constants", "(1/sqrt2 and 2^(-2/3) recovered to 1e-3)")


def test_4_specialization_identities():
    rng = np.random.default_rng(SEED)
    pts = rng.uniform(-1, 1, size=(2000, 3))
    mismatch2 = sum(
        ntsp_necessary(p, 2).satisfied != is_2tsp(p).satisfied for p in pts
    )
    mismatch3 = sum(
        ntsp_necessary(p, 3).satisfied != is_3tsp(p).satisfied for p in pts
    )
    assert mismatch2 == 0 and mismatch3 == 0
    _passed("4 specialization-identities", "(2000 points, zero mismatches)")


def test_5_lift_constants():
    targets = [
        ((1.0, 0.0, 1.0), 1, 0.63),
        ((2**-0.5, 0.0, 2**-0.5), 2, 0.55),
        ((2 ** (-2 / 3), 0.0, 2 ** (-2 / 3)), 3, 0.532),
    ]
    got = []
    for lam, n, expected in targets:
        out = lift_ntsp(lam, n)
        assert out[0] == pytest.approx(expected, abs=0.005)
        got.append(round(float(out[0]), 4))
    _passed("5 lift-constants", f"({got} vs [0.63, 0.55, 0.532])")


_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def _connected(mask: np.ndarray) -> bool:
    # 26-neighborhood: the regions have thin diagonal necks (along
    # |l1| = |l2|) that fall between axis-aligned grid lines at this
    # resolution.
    true_cells = np.argwhere(mask)
    if len(true_cells) == 0:
        return True
    seen = np.zeros(mask.shape, dtype=bool)
    stack = [tuple(true_cells[0])]
    seen[tuple(true_cells[0])] = True
    while stack:
        cell = stack.pop()
        for off in _OFFSETS:
            nxt = tuple(c + o for c, o in zip(cell, off))
            if all(0 <= nxt[a] < mask.shape[a] for a in range(3)):
                if mask[nxt] and not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
    return bool(seen.sum() == mask.sum())


def test_6_nonunital_reduction():
    from tensorstable.nonunital import classify_nonunital_positive, ghz_output_conditions
    from tensorstable.linalg import SIGMA

    rng = np.random.default_rng(SEED)
    checked = 0
    while checked < 500:
        t = rng.uniform(-0.95, 0.95)
        l3 = rng.uniform(-1, 1)
        if 1 - abs(t) - abs(l3) <= 0.02:
            continue
        l1, l2 = rng.uniform(-1, 1, 2)
        m = NonUnitalFamilyMap(t=t, lam3=(l1, l2, l3))
        rr = reduce_to_unital(m)
        gen = GeneralQubitMap(m.matrix)
        a = np.linalg.inv(rr.a_inv)
        b = np.linalg.inv(rr.b_inv)
        pauli = PauliMap(tuple(rr.tilde_lam))
        residual = max(
            np.abs(b @ pauli.apply(a @ s @ a.conj().T) @ b.conj().T - gen.apply(s)).max()
            for s in SIGMA
        )
        assert residual <= 1e-10

        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 2**-0.5
        w = np.kron(rr.a_inv, rr.a_inv) @ psi
        w /= np.linalg.norm(w)
        rho = HermitianOperator(np.outer(w, w.conj()))
        eig = tensor_apply([gen, gen], rho).min_eig()
        if abs(eig) > 1e-10:
            assert is_2tsp_nonunital(m).satisfied == (eig >= 0)
        checked += 1

    # topology of the t = 0.8 regions: one connected component, symmetric
    # under sign flips and exchange of the first two axes
    grid = symmetric_linspace(-1.0, 1.0, 21)
    shape = (21, 21, 21)
    for analytic in (
        lambda m: classify_nonunital_positive(m).satisfied,
        lambda m: ghz_output_conditions(m).satisfied,
        lambda m: m.interior_gap() > 1e-12 and is_2tsp_nonunital(m).satisfied,
    ):
        mask = np.zeros(shape, dtype=bool)
        for i, l1 in enumerate(grid):
            for j, l2 in enumerate(grid):
                for k, l3 in enumerate(grid):
                    mask[i, j, k] = analytic(NonUnitalFamilyMap(0.8, (l1, l2, l3)))
        assert mask.any()
        assert _connected(mask)
        assert (mask == mask[::-1, :, :]).all()
        assert (mask == mask[:, ::-1, :]).all()
        assert (mask == mask.transpose(1, 0, 2)).all()
    _passed("6 nonunital-reduction", "(500 maps, residual<=1e-10; t=0.8 topology ok)")


def test_7_decomposability_fixtures():
    rep = decomposability_fixtures(mu=0.1)
    assert rep.ex1_choi_min_eig >= -1e-10
    assert rep.ex1_identity_residual <= 1e-12
    assert rep.ex2_choi_min_eig >= -1e-10
    assert rep.ex2_is_2tsp and not rep.ex2_cp and not rep.ex2_ccp
    _passed(
        "7 decomposability-fixtures",
        f"(min eig {rep.ex1_choi_min_eig:.1e}, residual {rep.ex1_identity_residual:.1e})",
    )


def test_8_witness_thresholds():
    targets = [("ghz", 1, 0.26), ("ghz", 2, 0.71), ("w", 1, 0.31), ("w", 2, 0.86)]
    got = []
    for family, n, printed in targets:
        t0 = time.time()
        res = threshold_search(family, n)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        assert res.q_star == pytest.approx(printed, abs=0.02)
        assert res.q_star <= printed + 0.02
        assert res.witness is not None
        got.append(round(res.q_star, 3))
    _passed("8 witness-thresholds", f"({got} vs [0.26, 0.71, 0.31, 0.86])")


def test_9_property_suites():
    rng = np.random.default_rng(SEED)
    pts = rng.uniform(-1, 1, size=(2000, 3))

    for p in pts:
        three = is_3tsp(p).satisfied
        two = is_2tsp(p).satisfied
        if three:
            assert two
        if two:
            assert np.abs(p).max() <= 1.0
        for n in (2, 3, 4):
            if ntsp_sufficient_ball(p, n):
                assert ntsp_necessary(p, n).satisfied

    # an entanglement-breaking factor never spoils a positive partner
    eb, pos = [], []
    while len(eb) < 40 or len(pos) < 40:
        m = PauliMap((1.0, *rng.uniform(-1, 1, 3)))
        rep = classify(m)
        if rep.eb and len(eb) < 40:
            eb.append(m)
        elif rep.positive and len(pos) < 40:
            pos.append(m)
    for k in range(2000):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = HermitianOperator(np.outer(psi, psi.conj()))
        out = tensor_apply([eb[k % 40], pos[(k * 7) % 40]], rho)
        assert out.min_eig() >= -1e-9

    # oracle soundness and per-step monotonicity of the see-saw descent
    for k in range(50):
        m = PauliMap((1.0, *rng.uniform(-1, 1, 3)))
        om = choi([m, m])
        res = block_positivity_min(om, (0, 2), SCAN_CFG)
        w4 = (
            om.matrix.reshape((2,) * 8)
            .transpose([0, 2, 1, 3, 4, 6, 5, 7])
            .reshape(4, 4, 4, 4)
        )
        again = np.einsum(
            "abcd,a,b,c,d->", w4, res.phi.conj(), res.chi.conj(), res.phi, res.chi
        ).real
        assert abs(again - res.value) < 1e-12
        assert np.diff(res.history, axis=0).max() <= 1e-14

    v = min_output_eig([PauliMap.identity(), PauliMap.identity()], SCAN_CFG)
    assert v >= -1e-12
    _passed("9 property-suites", "(nesting, ball, eb-tensor, soundness, monotonicity)")
