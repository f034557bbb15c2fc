from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorstable.criteria import (
    as_lambda_point,
    depolarizing_pair_positive,
    hyperboloid_point,
    is_2tsp,
    is_3tsp,
    lift_ntsp,
    lift_x_max,
    mu_bound,
    ntsp_necessary,
    ntsp_sufficient_ball,
    squared_map_choi,
    squared_map_choi_eigs,
)
from tensorstable.maps import PauliMap, max_entangled_projector, tensor_apply

RNG = np.random.default_rng(20240903)
R2 = 2**-0.5
T3 = 2 ** (-2 / 3)


def random_points(n, rng=RNG):
    return rng.uniform(-1, 1, size=(n, 3))


class TestIs2Tsp:
    def test_identity(self):
        assert is_2tsp((1, 1, 1)).satisfied

    def test_boundary_map(self):
        # (1/sqrt2, 0, 1/sqrt2) sits exactly on the region boundary; float
        # rounding of the irrational input leaves the slack within one ulp.
        v = is_2tsp((R2, 0.0, R2))
        assert abs(v.worst_slack) <= 1e-15
        assert is_2tsp((R2 - 1e-12, 0.0, R2 - 1e-12)).satisfied
        assert not is_2tsp((R2 + 1e-12, 0.0, R2 + 1e-12)).satisfied

    def test_outside(self):
        v = is_2tsp((0.9, 0.9, 0.0))
        assert not v.satisfied
        assert v.worst_slack == pytest.approx(1.0 - 0.81 - 0.81)
        assert v.binding_constraint == "1+l3^2>=l1^2+l2^2"

    def test_verdict_consistency(self):
        for p in random_points(200):
            v = is_2tsp(p)
            assert v.satisfied == (v.worst_slack >= 0)


class TestSquaredMapChoi:
    def test_fully_depolarizing(self):
        assert_allclose(squared_map_choi((0, 0, 0)).matrix, np.eye(4) / 4)

    def test_identity(self):
        assert_allclose(squared_map_choi((1, 1, 1)).matrix, max_entangled_projector().matrix)

    def test_boundary_entries(self):
        # unit trace forces the inner diagonal to (1 - l3^2)/4 = 1/8 here
        m = squared_map_choi((R2, 0.0, R2)).matrix
        assert_allclose(np.diag(m).real, [3 / 8, 1 / 8, 1 / 8, 3 / 8], atol=1e-15)
        assert m[0, 3].real == pytest.approx(1 / 8, abs=1e-15)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)

    def test_matches_doubled_map_action(self):
        for p in random_points(50):
            m = PauliMap.unital(p)
            out = tensor_apply([m, m], max_entangled_projector())
            assert np.abs(out.matrix - squared_map_choi(p).matrix).max() < 1e-13

    def test_closed_form_psd_iff_criterion(self):
        # Exact equivalence, no tolerance: the closed-form spectrum is an
        # algebraic rewrite of the criterion slacks.
        for p in random_points(2000):
            assert (squared_map_choi_eigs(p)[0] >= 0) == is_2tsp(p).satisfied

    def test_closed_form_matches_numeric_spectrum(self):
        for p in random_points(100):
            numeric = squared_map_choi(p).spectrum()
            assert np.abs(squared_map_choi_eigs(p) - numeric).max() < 1e-13


class TestIs3Tsp:
    def test_identity(self):
        assert is_3tsp((1, 1, 1)).satisfied

    def test_boundary_constant(self):
        v = is_3tsp((T3, 0.0, T3))
        assert v.satisfied
        assert v.worst_slack == 0.0

    def test_outside(self):
        assert not is_3tsp((0.7, 0.0, 0.7)).satisfied

    def test_twelve_constraints(self):
        # 6 permutations x 2 signs behind each verdict
        v = is_3tsp((0.2, 0.3, 0.4))
        assert v.satisfied


def _numpy_verdict(slacks):
    """``(satisfied, worst_slack bytes, binding_constraint)`` of a dict of slacks, bound by its first least one."""
    binding = min(slacks, key=slacks.get)
    return bool(slacks[binding] >= 0), np.float64(slacks[binding]).tobytes(), binding


def _bits(v):
    return v.satisfied, np.float64(v.worst_slack).tobytes(), v.binding_constraint


def _ntsp_necessary_loop(lam, n):
    """Reference for ntsp_necessary on numpy scalars: every permutation and every
    split p + q = n."""
    pt = as_lambda_point(lam)
    slacks = {}
    for i, j, k in permutations((0, 1, 2)):
        li, lj, lk = pt[i], pt[j], pt[k]
        u, v = 1.0 + li, 1.0 - li
        x, y = lj + lk, lj - lk
        for p in range(n + 1):
            q = n - p
            lhs = u**p * v**q + u**q * v**p
            rp = x**p * y**q
            rq = x**q * y**p
            base = f"i={i + 1},j={j + 1},k={k + 1},p={p}"
            slacks[f"{base},s=+1"] = lhs - abs(rp + rq)
            slacks[f"{base},s=-1"] = lhs - abs(rp - rq)
    return _numpy_verdict(slacks)


def _necessary_points(rng):
    """Random points, ties l1 = +-l2, a grid of special values and signed zeros."""
    free = rng.uniform(-1.2, 1.2, (300, 3))
    l1 = rng.uniform(-1, 1, 100)
    ties = np.stack([l1, rng.choice([1.0, -1.0], 100) * l1, rng.uniform(-1, 1, 100)], axis=1)
    special = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2**-0.5, 1 / 3, 1.0 - 1e-12]
    grid = np.stack(np.meshgrid(special, special, special), axis=-1).reshape(-1, 3)
    return np.concatenate([free, ties, rng.permuted(ties, axis=1), grid])


class TestNtspNecessary:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_full_loop_bytewise(self, n):
        for p in _necessary_points(np.random.default_rng(n)):
            assert _bits(ntsp_necessary(p, n)) == _ntsp_necessary_loop(p, n)

    def test_specializes_to_2tsp(self):
        for p in random_points(2000):
            assert ntsp_necessary(p, 2).satisfied == is_2tsp(p).satisfied

    def test_specializes_to_3tsp(self):
        for p in random_points(2000):
            assert ntsp_necessary(p, 3).satisfied == is_3tsp(p).satisfied

    def test_n1_is_positivity(self):
        assert ntsp_necessary((1, 1, 1), 1).satisfied
        assert ntsp_necessary((1, -1, 1), 1).satisfied

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="positive integer"):
            ntsp_necessary((0, 0, 0), 0)

    def test_nesting(self):
        for p in random_points(500):
            sats = [ntsp_necessary(p, n).satisfied for n in range(1, 7)]
            for lower, higher in zip(sats, sats[1:]):
                if higher:
                    assert lower

    def test_3tsp_inside_2tsp(self):
        for p in random_points(500):
            if is_3tsp(p).satisfied:
                assert is_2tsp(p).satisfied


def _hyperboloid_reference(p):
    a, b, c = p * p
    slacks = {
        "1+l1^2>=l2^2+l3^2": (1.0 + a) - (b + c),
        "1+l2^2>=l1^2+l3^2": (1.0 + b) - (a + c),
        "1+l3^2>=l1^2+l2^2": (1.0 + c) - (a + b),
    }
    return _numpy_verdict(slacks)


def _cubic_reference(p):
    slacks = {}
    for i, j, k in permutations((0, 1, 2)):
        li, lj, lk = p[i], p[j], p[k]
        core = li**3 + 3.0 * li * lj * lj
        slacks[f"i={i + 1},j={j + 1},k={k + 1},-"] = 1.0 - core + 3.0 * lk * lk
        slacks[f"i={i + 1},j={j + 1},k={k + 1},+"] = 1.0 + core + 3.0 * lk * lk
    return _numpy_verdict(slacks)


class TestOnePointPath:
    """The one-point criteria compute on Python floats; numpy scalars give the same bits."""

    def test_uniform_points_match_the_numpy_reference(self):
        for p in np.random.default_rng(21).uniform(-1.0, 1.0, (20000, 3)):
            assert _bits(is_2tsp(p)) == _hyperboloid_reference(p)
            assert _bits(is_3tsp(p)) == _cubic_reference(p)
            for n in (4, 5):
                assert _bits(ntsp_necessary(p, n)) == _ntsp_necessary_loop(p, n)

    def test_tied_grid_points_match_the_numpy_reference(self):
        # Quarter steps and one-decimal rounding tie slacks, signed zeros among them.
        quarters = np.linspace(-1.0, 1.0, 9)
        grid = np.stack(np.meshgrid(quarters, quarters, quarters), axis=-1).reshape(-1, 3)
        rounded = np.round(np.random.default_rng(22).uniform(-1.1, 1.1, (2000, 3)), 1)
        for p in np.concatenate([grid, rounded, -grid]):
            assert _bits(is_2tsp(p)) == _hyperboloid_reference(p)
            assert _bits(is_3tsp(p)) == _cubic_reference(p)
            for n in range(1, 7):
                assert _bits(ntsp_necessary(p, n)) == _ntsp_necessary_loop(p, n)

    def test_a_tie_binds_the_first_constraint(self):
        assert is_2tsp((0.5, 0.5, 0.5)).binding_constraint == "1+l1^2>=l2^2+l3^2"
        assert is_3tsp((0.0, 0.0, 0.0)).binding_constraint == "i=1,j=2,k=3,-"
        assert ntsp_necessary((0.0, 0.0, 0.0), 4).binding_constraint == "i=1,j=2,k=3,p=0,s=+1"

    def test_verdict_fields_are_python_scalars(self):
        p = (0.5, -0.4, 0.3)
        for v in (is_2tsp(p), is_3tsp(p), *(ntsp_necessary(p, n) for n in range(1, 7))):
            assert type(v.satisfied) is bool and type(v.worst_slack) is float

    @pytest.mark.parametrize(
        "criterion", [is_2tsp, is_3tsp, lambda p: ntsp_necessary(p, 4)], ids=["2tsp", "3tsp", "necessary-4"]
    )
    def test_overflow_raises_without_a_warning(self, recwarn, criterion):
        with pytest.raises((FloatingPointError, OverflowError)):
            criterion((1e200, 0.0, 0.0))
        assert not recwarn.list

    def test_a_product_that_overflows_silently_still_raises(self):
        # 5e102**3 is finite and 3 * 5e102**3 is not: Python's float * gives inf without an error.
        with pytest.raises(FloatingPointError, match="slack i=1,j=2,k=3,- overflows to -inf"):
            is_3tsp((5e102, 5e102, 0.0))


class TestSufficientBall:
    def test_eb_ball_boundary(self):
        s = 3**-0.5
        assert ntsp_sufficient_ball((s, s, s), 2)

    def test_touching_point(self):
        for n in (2, 3, 4, 5):
            assert ntsp_sufficient_ball((1, 0, 0), n)

    def test_outside(self):
        assert not ntsp_sufficient_ball((0.8, 0.8, 0.0), 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ntsp_sufficient_ball((0, 0, 0), 1)

    def test_ball_inside_necessary_region(self):
        for p in random_points(500):
            for n in range(2, 7):
                if ntsp_sufficient_ball(p, n):
                    assert ntsp_necessary(p, n).satisfied


class TestLift:
    @pytest.mark.parametrize(
        "lam,n,expected",
        [
            ((1.0, 0.0, 1.0), 1, 0.63),
            ((R2, 0.0, R2), 2, 0.55),
            ((T3, 0.0, T3), 3, 0.532),
        ],
    )
    def test_known_constants(self, lam, n, expected):
        out = lift_ntsp(lam, n)
        assert out[0] == pytest.approx(expected, abs=0.005)
        assert out[1] == 0.0
        assert out[2] == pytest.approx(expected, abs=0.005)

    def test_rejects_small_sum(self):
        with pytest.raises(ValueError, match="sum"):
            lift_ntsp((0.2, 0.2, 0.2), 1)

    @pytest.mark.parametrize("lam", [(1.5, 0.0, 0.0), (1e300, 1e300, 1e300), (0.5, -1.0 - 1e-12, 0.5)])
    def test_rejects_points_outside_the_cube(self, lam):
        # Not positive, hence not n-tensor-stable for any n: nothing to lift.
        with pytest.raises(ValueError, match="positive map"):
            lift_x_max(lam, 1)
        with pytest.raises(ValueError, match="positive map"):
            lift_ntsp(lam, 2)

    def test_rejects_bad_x(self):
        xm = lift_x_max((1.0, 0.0, 1.0), 1)
        with pytest.raises(ValueError, match=str(round(xm, 3))[:4]):
            lift_ntsp((1.0, 0.0, 1.0), 1, x=xm * 1.5)

    def test_x_defaults_to_max(self):
        lam = (0.9, 0.4, 0.3)
        assert_allclose(lift_ntsp(lam, 2), lift_ntsp(lam, 2, x=lift_x_max(lam, 2)))

    def test_lift_from_positive_lands_in_2tsp(self):
        count = 0
        while count < 500:
            p = RNG.uniform(-1, 1, 3)
            if np.abs(p).sum() < 1.0:
                continue
            count += 1
            assert is_2tsp(lift_ntsp(p, 1)).satisfied

    def test_lift_from_2tsp_lands_in_3tsp(self):
        count = 0
        while count < 500:
            p = RNG.uniform(-1, 1, 3)
            if np.abs(p).sum() < 1.0 or not is_2tsp(p).satisfied:
                continue
            count += 1
            assert is_3tsp(lift_ntsp(p, 2)).satisfied


class TestMuBound:
    def test_equality_solution(self):
        mu = mu_bound(-0.5, 0.2, 2)
        r = (0.2 / 0.5) ** (1 / 3)
        assert mu == pytest.approx(r / (1 + r))

    def test_already_positive(self):
        assert mu_bound(0.1, 0.5, 3) == 1.0

    def test_no_slack(self):
        assert mu_bound(-0.1, 0.0, 3) == 0.0

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            mu_bound(-0.1, -0.1, 2)


class TestDepolarizingPair:
    def test_boundary(self):
        assert depolarizing_pair_positive(1.0, -1 / 3)

    def test_outside(self):
        assert not depolarizing_pair_positive(1.0, -0.4)

    def test_inside(self):
        assert depolarizing_pair_positive(0.5, 0.5)

    def test_needs_single_positivity(self):
        assert not depolarizing_pair_positive(1.2, 0.1)


class TestHyperboloidPoint:
    @pytest.mark.parametrize(
        "x,y,expected",
        [(1.0, 0.0, (1, 1, 1)), (0.0, 0.0, (0, 0, 1)), (1.0, 1.0, (1, 0, 0))],
    )
    def test_vertices(self, x, y, expected):
        assert_allclose(hyperboloid_point(x, y), expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            hyperboloid_point(1.2, 0.0)

    def test_exactly_one_tight_inequality(self):
        for _ in range(200):
            x, y = RNG.uniform(0.05, 0.95, 2)
            l1, l2, l3 = hyperboloid_point(x, y)
            slacks = np.array(
                [
                    1 + l1 * l1 - l2 * l2 - l3 * l3,
                    1 + l2 * l2 - l1 * l1 - l3 * l3,
                    1 + l3 * l3 - l1 * l1 - l2 * l2,
                ]
            )
            tight = np.abs(slacks) <= 1e-12
            assert tight.sum() == 1
            assert tight[1]
            assert (slacks[~tight] > 1e-12).all()


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: mu_bound(-0.5, 0.1, -1), "n must be a positive integer, got -1"),
        (lambda: mu_bound(np.nan, 0.1, 2), "eigenvalues must be finite"),
        (lambda: mu_bound(-0.5, np.inf, 2), "eigenvalues must be finite"),
        (lambda: ntsp_necessary((0.5, 0.5, 0.5), 2.5), "n must be a positive integer, got 2.5"),
        (lambda: ntsp_sufficient_ball((0.2, 0.2, 0.2), 2.5), "the power-sum ball needs n >= 2, got 2.5"),
        (lambda: lift_x_max((1, 0, 1), 1.5), "n must be a positive integer, got 1.5"),
        (lambda: lift_ntsp((1, 0, 1), 1.5), "n must be a positive integer, got 1.5"),
        (lambda: as_lambda_point((0.5, 0.5)), "a lambda point has exactly three components"),
        (lambda: lift_x_max((1, 0, 1), 0), "n must be a positive integer, got 0"),
    ],
    ids=[
        "mu_bound-n", "mu_bound-nan", "mu_bound-inf", "necessary-n", "ball-n", "lift_x_max-n", "lift_ntsp-n",
        "lambda-shape", "lift_x_max-n-below-1",
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_numpy_integers_are_integers():
    p = (0.5, -0.4, 0.3)
    assert ntsp_necessary(p, np.int64(4)) == ntsp_necessary(p, 4)
    assert lift_x_max((1, 0, 1), np.int32(2)) == lift_x_max((1, 0, 1), 2)
