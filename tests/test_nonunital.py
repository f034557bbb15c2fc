import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorstable.criteria import is_2tsp
from tensorstable.linalg import SIGMA, HermitianOperator
from tensorstable.maps import GeneralQubitMap, PauliMap, max_entangled_projector, tensor_apply
from tensorstable.nonunital import (
    NonUnitalFamilyMap,
    classify_nonunital_positive,
    ghz_output_conditions,
    is_2tsp_nonunital,
    reduce_to_unital,
)

RNG = np.random.default_rng(20240904)


def random_interior(rng=RNG, margin=0.02):
    while True:
        t = rng.uniform(-0.95, 0.95)
        l3 = rng.uniform(-1, 1)
        if 1 - abs(t) - abs(l3) <= margin:
            continue
        l1, l2 = rng.uniform(-1, 1, 2)
        return NonUnitalFamilyMap(t=t, lam3=(l1, l2, l3))


def transformed_entangled_input(rr):
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 2**-0.5
    w = np.kron(rr.a_inv, rr.a_inv) @ psi
    w /= np.linalg.norm(w)
    return HermitianOperator(np.outer(w, w.conj()))


class TestFamilyMap:
    def test_matrix_layout(self):
        m = NonUnitalFamilyMap(t=0.3, lam3=(0.5, -0.2, 0.1))
        e = m.matrix
        assert e[0, 0] == 1.0 and e[3, 0] == 0.3
        assert_allclose(np.diag(e), [1.0, 0.5, -0.2, 0.1])
        assert e[1, 0] == e[2, 0] == 0.0

    def test_interior_gap(self):
        assert NonUnitalFamilyMap(0.25, (0, 0, 0.5)).interior_gap() == 0.25

    @pytest.mark.parametrize("t,lam3", [(0.3, (0.5, -0.2, 0.1)), (-0.8, (0.0, 0.0, 0.2)), (0.0, (1.0, -1.0, 1.0))])
    def test_matrix_is_the_translated_general_map(self, t, lam3):
        expected = GeneralQubitMap.from_translation((0.0, 0.0, t), lam3).matrix
        assert np.array_equal(NonUnitalFamilyMap(t, lam3).matrix, expected)


class TestReduceToUnital:
    def test_unital_input_keeps_ratios(self):
        lam = (0.3, -0.5, 0.7)
        rr = reduce_to_unital(NonUnitalFamilyMap(t=0.0, lam3=lam))
        assert_allclose(rr.tilde_ratio, lam, atol=1e-13)
        assert rr.tilde_lam[0] > 0

    def test_pure_shift(self):
        rr = reduce_to_unital(NonUnitalFamilyMap(t=0.8, lam3=(0.0, 0.0, 0.0)))
        assert rr.tilde_lam[1] == 0.0 and rr.tilde_lam[2] == 0.0
        assert abs(rr.tilde_lam[3]) <= rr.tilde_lam[0]

    def test_rejects_boundary_and_exterior(self):
        with pytest.raises(ValueError, match="boundary"):
            reduce_to_unital(NonUnitalFamilyMap(t=0.75, lam3=(0.0, 0.0, 0.25)))
        with pytest.raises(ValueError, match="boundary"):
            reduce_to_unital(NonUnitalFamilyMap(t=0.9, lam3=(0.0, 0.0, 0.5)))

    def test_conjugation_produces_diagonal_map(self):
        for _ in range(100):
            m = random_interior()
            rr = reduce_to_unital(m)
            gen = GeneralQubitMap(m.matrix)
            e = np.zeros((4, 4))
            for j, s in enumerate(SIGMA):
                out = rr.b_inv @ gen.apply(rr.a_inv @ s @ rr.a_inv.conj().T) @ rr.b_inv.conj().T
                for i, si in enumerate(SIGMA):
                    e[i, j] = np.trace(si @ out).real / 2
            assert np.abs(e - np.diag(rr.tilde_lam)).max() < 1e-10

    def test_reconstruction(self):
        for _ in range(100):
            m = random_interior()
            rr = reduce_to_unital(m)
            a = np.linalg.inv(rr.a_inv)
            b = np.linalg.inv(rr.b_inv)
            pauli = PauliMap(tuple(rr.tilde_lam))
            gen = GeneralQubitMap(m.matrix)
            worst = 0.0
            for s in SIGMA:
                rec = b @ pauli.apply(a @ s @ a.conj().T) @ b.conj().T
                worst = max(worst, np.abs(rec - gen.apply(s)).max())
            assert worst < 1e-10

    def test_factors_positive_definite(self):
        m = random_interior()
        rr = reduce_to_unital(m)
        assert np.diag(rr.a_inv).min() > 0
        assert np.diag(rr.b_inv).min() > 0


class TestClassifyPositive:
    def test_unital_positive(self):
        v = classify_nonunital_positive(NonUnitalFamilyMap(0.0, (0.5, 0.5, 0.5)))
        assert v.satisfied

    def test_boundary_equality(self):
        # |t| + |l3| = 1 with l1^2 = 1 - |t|, all exactly representable
        v = classify_nonunital_positive(NonUnitalFamilyMap(0.75, (0.5, 0.0, 0.25)))
        assert v.satisfied
        assert v.worst_slack == 0.0
        v = classify_nonunital_positive(NonUnitalFamilyMap(0.75, (0.6, 0.0, 0.25)))
        assert not v.satisfied

    def test_exterior(self):
        v = classify_nonunital_positive(NonUnitalFamilyMap(0.9, (0.0, 0.0, 0.5)))
        assert not v.satisfied
        assert v.binding_constraint == "1-|t|-|l3|>0"

    def test_large_shift_squeezes_transverse_axes(self):
        assert classify_nonunital_positive(NonUnitalFamilyMap(0.8, (0.0, 0.0, 0.0))).satisfied
        assert not classify_nonunital_positive(NonUnitalFamilyMap(0.8, (0.9, 0.0, 0.0))).satisfied

    def test_matches_unital_criterion_at_t0(self):
        for _ in range(100):
            lam = RNG.uniform(-1, 1, 3)
            v = classify_nonunital_positive(NonUnitalFamilyMap(0.0, tuple(lam)))
            assert v.satisfied == (np.abs(lam).max() <= 1.0)


class TestIs2TspNonUnital:
    def test_matches_unital_criterion_at_t0(self):
        for _ in range(200):
            lam = RNG.uniform(-1, 1, 3)
            v = is_2tsp_nonunital(NonUnitalFamilyMap(0.0, tuple(lam)))
            assert v.satisfied == is_2tsp(lam).satisfied

    def test_pure_shift(self):
        assert is_2tsp_nonunital(NonUnitalFamilyMap(0.8, (0.0, 0.0, 0.0))).satisfied

    def test_requires_interior(self):
        with pytest.raises(ValueError, match="interior"):
            is_2tsp_nonunital(NonUnitalFamilyMap(0.9, (0.0, 0.0, 0.5)))

    def test_verdict_flips_along_axis(self):
        # Walking out along l1 at t = 0.8 crosses the stability boundary once.
        t = 0.8
        lo, hi = 0.0, 0.7
        assert is_2tsp_nonunital(NonUnitalFamilyMap(t, (lo, 0.0, 0.0))).satisfied
        assert not is_2tsp_nonunital(NonUnitalFamilyMap(t, (hi, 0.0, 0.0))).satisfied
        for _ in range(40):
            mid = (lo + hi) / 2
            if is_2tsp_nonunital(NonUnitalFamilyMap(t, (mid, 0.0, 0.0))).satisfied:
                lo = mid
            else:
                hi = mid
        m_lo = NonUnitalFamilyMap(t, (lo, 0.0, 0.0))
        rho = transformed_entangled_input(reduce_to_unital(m_lo))
        out = tensor_apply([m_lo] * 2, rho)
        assert out.min_eig() >= -1e-9

    def test_agrees_with_output_positivity(self):
        for _ in range(200):
            m = random_interior()
            rr = reduce_to_unital(m)
            v = is_2tsp_nonunital(m)
            out = tensor_apply([m] * 2, transformed_entangled_input(rr))
            eig = out.min_eig()
            if abs(eig) < 1e-10:
                continue  # boundary: numeric sign not meaningful
            assert v.satisfied == (eig >= 0)

    def test_implies_entangled_output_conditions(self):
        for _ in range(200):
            m = random_interior()
            if is_2tsp_nonunital(m).satisfied:
                assert ghz_output_conditions(m).satisfied


class TestOracleCrossValidation:
    def test_positivity_agrees_with_block_oracle_across_translations(self):
        # dense sweep against the see-saw block-positivity oracle; boundary
        # cells may be flagged marginal, disagreement is never allowed
        from tensorstable.oracles import region_scan

        for t in (0.0, 0.4, 0.8):
            rep = region_scan("nonunital-positive", steps=21, params={"t": t})
            assert rep.summary["disagree"] == 0, (t, rep.summary)


class TestGhzOutputConditions:
    def test_reduces_to_unital_conditions_at_t0(self):
        for _ in range(200):
            lam = RNG.uniform(-1, 1, 3)
            v = ghz_output_conditions(NonUnitalFamilyMap(0.0, tuple(lam)))
            assert v.satisfied == is_2tsp(lam).satisfied

    def test_fourth_branch_never_binds(self):
        for _ in range(200):
            m = NonUnitalFamilyMap(RNG.uniform(-1, 1), tuple(RNG.uniform(-1, 1, 3)))
            assert v_slack(m, "outer+") >= 0

    def test_pure_shift(self):
        assert ghz_output_conditions(NonUnitalFamilyMap(0.8, (0.0, 0.0, 0.0))).satisfied

    def test_matches_output_spectrum(self):
        for _ in range(300):
            m = NonUnitalFamilyMap(RNG.uniform(-1, 1), tuple(RNG.uniform(-1, 1, 3)))
            out = tensor_apply([m] * 2, max_entangled_projector())
            eig = out.min_eig()
            v = ghz_output_conditions(m)
            if abs(eig) < 1e-10 or abs(v.worst_slack) < 1e-10:
                continue
            assert v.satisfied == (eig >= 0)

    def test_necessary_not_sufficient(self):
        # A map passing the entangled-output conditions can still fail the
        # full stability criterion once translated.
        found = False
        for _ in range(2000):
            m = random_interior()
            if ghz_output_conditions(m).satisfied and not is_2tsp_nonunital(m).satisfied:
                found = True
                break
        assert found


def v_slack(m, name):
    v = ghz_output_conditions(m)
    # worst slack of one named branch: recompute from the verdict bookkeeping
    t, (l1, l2, l3) = m.t, m.lam3
    a, b, c, tt = l1 * l1, l2 * l2, l3 * l3, t * t
    root = np.sqrt(4.0 * tt + (a + b) ** 2)
    return {
        "inner+": (1.0 - tt - c) + (a - b),
        "inner-": (1.0 - tt - c) - (a - b),
        "outer-": (1.0 + tt + c) - root,
        "outer+": (1.0 + tt + c) + root,
    }[name]


@pytest.mark.parametrize(
    "t,lam3",
    [(0.3, (0.4, -0.2, 0.5)), (0.5, (0.3, 0.9, 0.5)), (0.5, (0.3, 0.2, 0.7))],
    ids=["interior", "boundary", "exterior"],
)
def test_verdict_fields_are_python_scalars(t, lam3):
    m = NonUnitalFamilyMap(t, lam3)
    verdicts = [classify_nonunital_positive(m), ghz_output_conditions(m)]
    if m.is_interior():
        verdicts.append(is_2tsp_nonunital(m))
    for v in verdicts:
        assert type(v.satisfied) is bool and type(v.worst_slack) is float


def test_exterior_gap_that_overflows_raises():
    # |t| + |l3| overflows to inf, so the exterior verdict's slack would read -inf.
    with pytest.raises(FloatingPointError, match=r"slack 1-\|t\|-\|l3\|>0 overflows to -inf"):
        classify_nonunital_positive(NonUnitalFamilyMap(1e308, (0.1, 0.1, 1e308)))


@pytest.mark.parametrize(
    "call,m,match",
    [
        (is_2tsp_nonunital, NonUnitalFamilyMap(0.5, (1e308, 0.0, 0.0)), r"slack ~l0\^2\+~l3\^2>=.* overflows to -inf"),
        (ghz_output_conditions, NonUnitalFamilyMap(1.4e154, (0.1, 0.1, 0.1)), r"slack inner\+ overflows to -inf"),
    ],
    ids=["2tsp-huge-l1", "ghz-huge-t"],
)
def test_overflow_raises_without_a_warning(recwarn, call, m, match):
    # The square roots give Python floats, which overflow without numpy's RuntimeWarning.
    with pytest.raises(FloatingPointError, match=match):
        call(m)
    assert not recwarn.list


def test_reduction_coefficients_are_python_floats():
    rr = reduce_to_unital(NonUnitalFamilyMap(0.3, (0.4, -0.2, 0.5)))
    assert all(type(v) is float for v in rr.tilde_lam)


def test_rejects_lam3_of_the_wrong_length():
    with pytest.raises(ValueError, match="lam3 must have three components"):
        NonUnitalFamilyMap(0.1, (0.5, 0.5))
