import dataclasses
import json

import numpy as np
import pytest

from tensorstable import linalg
from tensorstable.criteria import is_3tsp
from tensorstable.linalg import (
    ConvergenceError,
    HermitianOperator,
    OracleConfig,
    block_positivity_min,
    symmetric_linspace,
)
from tensorstable.maps import GeneralQubitMap, PauliMap, choi, classify, tensor_apply
from tensorstable.oracles import (
    REGION_SCAN_CONFIG,
    _flag,
    decomposability_fixtures,
    ex2_family,
    min_output_eig,
    region_criteria,
    region_scan,
)
from tensorstable.witness import ghz_variants

RNG = np.random.default_rng(20240905)
FAST = OracleConfig(restarts=8, sample_count=256)


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.restarts == 64 and linalg.MAX_ITERS == 500
        assert cfg.seed == 0 and cfg.sample_count == 4096

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(restarts=0)

    @pytest.mark.parametrize(
        "field,value,rule",
        [
            ("restarts", 2.5, "restarts must be a positive integer"),
            ("sample_count", 3.5, "sample_count must be a positive integer"),
            ("seed", 1.5, "seed must be a non-negative integer"),
            ("seed", -1, "seed must be a non-negative integer"),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, field, value, rule):
        with pytest.raises(ValueError, match=f"{rule}, got {value}"):
            block_positivity_min(choi(PauliMap((1, 0.5, 0.5, 0.5))), cut=(0,), cfg=OracleConfig(**{field: value}))

    def test_numpy_integers_are_accepted(self):
        assert OracleConfig(restarts=np.int64(2), sample_count=np.int32(8), seed=np.uint8(3)).seed == 3


class TestSymmetricLinspace:
    def test_mirror_exactness(self):
        g = symmetric_linspace(-1, 1, 21)
        assert (g == -g[::-1]).all()
        assert g[0] == -1.0 and g[-1] == 1.0 and g[10] == 0.0

    def test_bounds(self):
        g = symmetric_linspace(0, 1, 5)
        assert g[0] == 0.0 and g[-1] == 1.0

    @pytest.mark.parametrize(
        "steps", [2.5, 5.0, np.float64(5), "5", True, 1, None], ids=["2.5", "5.0", "float64", "str", "bool", "1", "None"]
    )
    def test_rejects_anything_but_an_integer_of_at_least_two(self, steps):
        # 2.5 steps would give [-1, 0.333, 1.667], past the upper bound.
        with pytest.raises(ValueError, match="integer of at least 2"):
            symmetric_linspace(-1, 1, steps)

    def test_numpy_integer_steps(self):
        assert (symmetric_linspace(-1, 1, np.int64(5)) == symmetric_linspace(-1, 1, 5)).all()


class TestBlockPositivity:
    def test_max_entangled_floor(self):
        v = block_positivity_min(choi(PauliMap.identity()), (0,), FAST).value
        assert -1e-9 <= v <= 1e-8

    def test_detects_transpose_pairing(self):
        om = choi([PauliMap.identity(), PauliMap.transposition()])
        v = block_positivity_min(om, (0, 2), FAST).value
        assert v < -1e-3

    def test_stable_boundary_map(self):
        m = PauliMap.unital((2**-0.5, 0.0, 2**-0.5))
        v = block_positivity_min(choi([m, m]), (0, 2), FAST).value
        assert v >= -1e-9

    def test_soundness_of_reported_vectors(self):
        m = PauliMap.unital((0.9, 0.9, 0.0))
        om = choi([m, m])
        res = block_positivity_min(om, (0, 2), FAST)
        w = om.matrix.reshape((2,) * 8)
        w4 = w.transpose([0, 2, 1, 3, 4, 6, 5, 7]).reshape(4, 4, 4, 4)
        again = np.einsum(
            "abcd,a,b,c,d->", w4, res.phi.conj(), res.chi.conj(), res.phi, res.chi
        )
        assert abs(again.real - res.value) < 1e-12
        assert res.value < -1e-3

    def test_see_saw_monotone(self):
        m = PauliMap.unital((0.95, -0.6, 0.1))
        res = block_positivity_min(choi([m, m]), (0, 2), FAST)
        steps = np.diff(res.history, axis=0)
        assert steps.max() <= 1e-14

    def test_convergence_error_carries_best(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_ITERS", 1)
        m = PauliMap.unital((0.5, 0.5, 0.5))
        with pytest.raises(ConvergenceError) as err:
            block_positivity_min(choi([m, m]), (0, 2), FAST)
        assert err.value.best is not None

    def test_cut_validation(self):
        om = choi([PauliMap.identity(), PauliMap.identity()])
        with pytest.raises(ValueError, match="cut"):
            block_positivity_min(om, (), FAST)
        with pytest.raises(ValueError, match="cut"):
            block_positivity_min(om, (0, 1, 2, 3), FAST)


class TestMinOutputEig:
    def test_identity_pair(self):
        v = min_output_eig([PauliMap.identity()] * 2, FAST)
        assert abs(v) < 1e-12

    def test_depolarizing_violation(self):
        v = min_output_eig([PauliMap.depolarizing(1.0), PauliMap.depolarizing(-0.4)], FAST)
        assert v < -1e-6

    def test_corner_dominated_map(self):
        v = min_output_eig([PauliMap.unital((1.0, 1.0, 0.5))] * 2, FAST)
        assert v <= (1.25 - 2.0) / 4.0 + 1e-6

    def test_cp_pairs_stay_positive(self):
        cfg = OracleConfig(restarts=4, sample_count=64)
        count = 0
        while count < 200:
            lam = (1.0, *RNG.uniform(-1, 1, 3))
            m = PauliMap(lam)
            if m.q.min() < 0:
                continue
            count += 1
            assert min_output_eig([m, m], cfg) >= -1e-9

    def test_eb_ball_pairs_stay_positive(self):
        cfg = OracleConfig(restarts=4, sample_count=64)
        count = 0
        while count < 200:
            lam3 = RNG.uniform(-1, 1, 3)
            if (lam3**2).sum() > 1.0:
                continue
            count += 1
            m = PauliMap.unital(lam3)
            assert min_output_eig([m, m], cfg) >= -1e-9

    def test_iteration_cap_raises_with_finite_best(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_ITERS", 1)
        m = PauliMap.unital((0.5, 0.5, 0.5))
        with pytest.raises(ConvergenceError) as err:
            min_output_eig([m, m], FAST)
        assert np.isfinite(err.value.best)

    def test_see_saw_vectors_witness_an_output_eigenvalue(self):
        # phi sits on the output factors, conj(chi) is the pure input.
        rng = np.random.default_rng(5)
        m1, m2 = (GeneralQubitMap(rng.uniform(-1, 1, (4, 4))) for _ in range(2))
        res = block_positivity_min(choi([m1, m2]), (0, 2), FAST)
        chi = res.chi.conj()
        out = tensor_apply([m1, m2], HermitianOperator(np.outer(chi, chi.conj())))
        assert abs((res.phi.conj() @ out.matrix @ res.phi).real - 4 * res.value) < 1e-12

    def test_three_tsp_triples_stay_positive(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 10:
            lam3 = rng.uniform(-1, 1, 3)
            if not is_3tsp(lam3).satisfied:
                continue
            count += 1
            cfg = dataclasses.replace(FAST, seed=count)
            assert min_output_eig([PauliMap.unital(lam3)] * 3, cfg) >= -1e-9

    @pytest.mark.parametrize("i", [1, 28, 29])
    def test_three_factors_reach_the_ghz_variant_minimum(self, i):
        # Points where random and eigenvector starts alone stop above zero.
        m = PauliMap.unital(np.random.default_rng(5).uniform(-1, 1, (30, 3))[i])
        reference = min(tensor_apply([m] * 3, v.rho).min_eig() for v in ghz_variants())
        value = min_output_eig([m] * 3, dataclasses.replace(REGION_SCAN_CONFIG, seed=i))
        assert reference < -1e-3
        assert value <= reference + 1e-9


class TestRegionScan:
    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            region_scan("nope", steps=3)

    @pytest.mark.parametrize("criterion", ["depolarizing", "2tsp", "3tsp"])
    def test_undeclared_parameter_is_rejected(self, criterion):
        with pytest.raises(ValueError, match="takes no parameter t"):
            region_scan(criterion, steps=3, params={"t": 0.5})

    def test_wrong_number_of_step_counts(self):
        # steps is one count for every axis; a sequence of counts is rejected.
        with pytest.raises(ValueError, match=r"integer of at least 2 steps, got \(3, 3, 3\)"):
            region_scan("2tsp", steps=(3, 3, 3))

    @pytest.mark.parametrize("steps", [2.5])
    def test_non_integer_step_counts_are_rejected(self, steps):
        # 2.5 would truncate to 2.
        with pytest.raises(ValueError, match="integer of at least 2"):
            region_scan("3tsp", steps=steps)

    def test_numpy_integer_step_counts(self):
        assert region_scan("depolarizing", steps=np.int64(5)).to_csv() == region_scan("depolarizing", steps=5).to_csv()

    def test_3tsp_agrees_with_ghz_variant_reference(self):
        rep = region_scan("3tsp", steps=7)
        assert rep.summary["disagree"] == 0
        variants = ghz_variants()
        for pt, value in zip(rep.points, rep.oracle):
            m = PauliMap.unital(pt)
            reference = min(tensor_apply([m] * 3, v.rho).min_eig() for v in variants)
            assert abs(value - reference) <= 1e-12

    def test_registry(self):
        assert set(region_criteria()) == {
            "depolarizing",
            "2tsp",
            "3tsp",
            "nonunital-2tsp",
            "nonunital-ghz",
            "nonunital-positive",
        }

    def test_depolarizing_small_grid(self):
        rep = region_scan("depolarizing", steps=9)
        assert len(rep.points) == 81
        assert rep.summary["disagree"] == 0
        # the positive cells are exactly the closed-form region
        for pt, a in zip(rep.points, rep.analytic):
            assert a == (pt[0] * pt[1] >= -1 / 3)

    def test_point_count_matches_grid(self):
        rep = region_scan("2tsp", steps=4)
        assert len(rep.points) == 4**3
        assert len(rep.analytic) == len(rep.oracle) == len(rep.flags) == 64

    def test_csv_shape(self):
        rep = region_scan("depolarizing", steps=5)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "q1,q2,analytic,oracle,flag"
        assert len(lines) == 26
        cells = lines[1].split(",")
        assert cells[2] in ("0", "1") and cells[4] in ("agree", "disagree", "marginal")

    def test_json_round_trip(self):
        rep = region_scan("depolarizing", steps=5)
        data = json.loads(rep.to_json())
        assert data["criterion"] == "depolarizing"
        assert len(data["points"]) == 25
        assert data["summary"] == rep.summary

    def test_deterministic(self):
        a = region_scan("depolarizing", steps=7).to_csv()
        b = region_scan("depolarizing", steps=7).to_csv()
        assert a == b

    def test_nonunital_2tsp_checks_the_cone(self):
        # The l3 axis spans the cone |l3| <= 1 - |t| = 0.2, so the criterion is
        # defined everywhere but on the cone's two boundary planes.
        rep = region_scan("nonunital-2tsp", steps=11)
        assert rep.params["t"] == 0.8
        assert rep.summary["disagree"] == 0
        assert rep.summary["agree"] >= 0.75 * len(rep.points)
        assert rep.grids[2][-1] == pytest.approx(0.2)

    @pytest.mark.parametrize("t", [1.0, -1.5])
    def test_nonunital_2tsp_needs_a_nonempty_cone(self, t):
        # At |t| >= 1 the cone |l3| <= 1 - |t| is empty: no grid to scan.
        with pytest.raises(ValueError, match=r"\|t\| < 1"):
            region_scan("nonunital-2tsp", steps=3, params={"t": t})

    @pytest.mark.parametrize("criterion", ["nonunital-positive", "nonunital-ghz"])
    def test_other_family_scans_take_any_finite_t(self, criterion):
        rep = region_scan(criterion, steps=2, params={"t": 1.5})
        assert sum(rep.summary.values()) == 8

    def test_summary_counts_the_flags(self):
        rep = region_scan("2tsp", steps=3)
        assert list(rep.summary) == ["agree", "disagree", "marginal"]
        assert rep.summary == {f: list(rep.flags).count(f) for f in rep.summary}

    def test_nonunital_parameter_passthrough(self):
        rep = region_scan("nonunital-positive", steps=5, params={"t": 0.4})
        assert rep.params["t"] == 0.4
        assert rep.summary["disagree"] == 0


def _flag_absolute(analytic, slack, value):
    """Reference: the region-scan flag with absolute bands -1e-9 and -1e-6."""
    if not np.isfinite(value):
        return "marginal"
    if value >= -1e-9:
        ok = analytic
    elif value < -1e-6:
        ok = not analytic
    else:
        return "marginal"
    if ok:
        return "agree"
    return "marginal" if abs(slack) <= 1e-9 else "disagree"


BAND_EDGE_VALUES = [
    v for edge in (1e-9, -1e-9, 1e-6, -1e-6) for v in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 1.0))
] + [-1.5, 0.0, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", BAND_EDGE_VALUES)
def test_flag_through_psd_verdict_matches_the_absolute_bands(value):
    """A one-element spectrum's scaled confirm band is the absolute one wherever |value| <= 1."""
    for analytic in (np.True_, np.False_, True, False):
        for slack in (0.0, 1e-9, -2e-9, 0.5, -0.5):
            assert _flag(analytic, slack, value) == _flag_absolute(analytic, slack, value)


class TestDecomposabilityFixtures:
    def test_first_example(self):
        rep = decomposability_fixtures()
        assert rep.ex1_choi_min_eig >= -1e-10
        assert rep.ex1_identity_residual <= 1e-12

    def test_second_example(self):
        rep = decomposability_fixtures()
        assert rep.ex2_choi_min_eig >= -1e-10
        assert rep.ex2_is_2tsp and not rep.ex2_cp and not rep.ex2_ccp
        assert type(rep.ex2_is_2tsp) is bool

    @pytest.mark.parametrize("mu", [True, float("nan"), "0.1"])
    def test_mixing_weight_must_be_a_finite_real(self, mu):
        with pytest.raises(ValueError, match="mu must be a finite real number"):
            ex2_family(mu)

    def test_mixing_window_boundary(self):
        # the convex family turns completely positive at mu = 3/13
        below = classify(ex2_family(3 / 13 - 0.01))
        above = classify(ex2_family(3 / 13 + 0.01))
        assert not below.cp and above.cp
        assert not below.ccp and not above.ccp


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"criterion": "nope"}, "unknown criterion 'nope'"),
        ({"criterion": "3tsp", "steps": 2, "seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"criterion": "3tsp", "steps": 2, "seed": -1}, "seed must be a non-negative integer, got -1"),
        (
            {"criterion": "nonunital-positive", "steps": 2, "params": {"t": True}},
            "nonunital-positive parameter t must be a finite real number, got True",
        ),
        (
            {"criterion": "nonunital-ghz", "steps": 2, "params": {"t": float("nan")}},
            "nonunital-ghz parameter t must be a finite real number, got nan",
        ),
    ],
    ids=["unknown-criterion", "seed-float", "seed-negative", "param-bool", "param-nan"],
)
def test_region_scan_input_checks(kwargs, match):
    with pytest.raises(ValueError, match=match):
        region_scan(**kwargs)
