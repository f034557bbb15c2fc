import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorstable import witness
from tensorstable.criteria import hyperboloid_point, is_2tsp, is_3tsp
from tensorstable.linalg import BLOCH_ROTATIONS, HermitianOperator, kron
from tensorstable.maps import PauliMap, _power_min_eigs, tensor_apply
from tensorstable.witness import (
    NEGATIVITY_TOL,
    SHRINK,
    MultiQubitState,
    _certified,
    _ghz_min_eigs,
    _w_min_eigs,
    build_state,
    depth_witness,
    ghz_variants,
    threshold_search,
    variant_transforms,
)

RNG = np.random.default_rng(20240906)


def random_density(n_qubits, rng=RNG):
    d = 2**n_qubits
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return HermitianOperator(rho)


class TestBuildState:
    def test_fully_mixed(self):
        s = build_state("ghz", q=0.0)
        assert_allclose(s.rho.matrix, np.eye(8) / 8)

    def test_pure_ghz(self):
        s = build_state("ghz", q=1.0)
        eigs = s.rho.spectrum()
        assert eigs[-1] == pytest.approx(1.0) and eigs[-2] == pytest.approx(0.0, abs=1e-12)

    def test_w3_reduction(self):
        s = build_state("w3", q=1.0)
        # Trace out qubits 2 and 3, keeping qubit 1.
        red = np.einsum("ajkbjk->ab", s.rho.matrix.reshape((2,) * 6))
        assert_allclose(red, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_psi_plus(self):
        s = build_state("ghz", q=0.5, n=2)
        assert s.n == 2
        assert abs(s.rho.trace() - 1) < 1e-12

    def test_psi_plus_is_no_kind(self):
        # The two-qubit GHZ state is the same state.
        with pytest.raises(ValueError, match="kind 'psi_plus'"):
            build_state("psi_plus", 0.5)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="q"):
            build_state("ghz", q=1.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_state("bell", q=0.5)

    def test_state_validation(self):
        bad = np.eye(4) / 4
        bad[0, 0] = 0.5  # trace 1.25
        with pytest.raises(ValueError, match="trace"):
            MultiQubitState(HermitianOperator(bad))


class TestGhzVariants:
    def test_sixteen_states(self):
        states = ghz_variants()
        assert len(states) == 16

    def test_first_is_ghz(self):
        states = ghz_variants()
        assert_allclose(states[0].rho.matrix, build_state("ghz", 1.0).rho.matrix, atol=1e-14)

    def test_all_pure_unit_trace(self):
        for s in ghz_variants():
            eigs = s.rho.spectrum()
            assert abs(s.rho.trace() - 1) < 1e-12
            assert eigs[-1] == pytest.approx(1.0)

    def test_rotations_are_hermitian_unitary(self):
        for u in BLOCH_ROTATIONS[1:]:
            assert np.abs(u - u.conj().T).max() < 1e-15
            assert_allclose(u @ u, np.eye(2), atol=1e-15)

    def test_transforms_are_signed_permutations(self):
        for t in variant_transforms():
            assert_allclose(np.abs(t) @ np.abs(t).T, np.eye(3), atol=1e-15)

    def test_derived_axis_rotations_equal_the_literal_table(self):
        # The table the rotations' action was once written out as; bytewise, so no -0.0 slips in.
        literal = (
            np.eye(3),
            np.array([[-1.0, 0, 0], [0, 0, 1], [0, 1, 0]]),
            np.array([[0, 0, 1.0], [0, -1.0, 0], [1.0, 0, 0]]),
            np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, -1.0]]),
        )
        assert witness._G.tobytes() == np.array(literal).tobytes()


class TestDepthWitness:
    def test_two_qubit_detection(self):
        v = depth_witness(build_state("ghz", 1.0, 2), (1.0, 1.0, 0.5), n=1)
        assert v.lower_bound == 2
        assert v.neg_eig == pytest.approx(-0.1875, abs=1e-12)

    def test_cp_map_is_inconclusive(self):
        v = depth_witness(build_state("ghz", 1.0), (0.5, 0.5, 0.5), n=1)
        assert v.lower_bound == 1

    def test_uncertified_map_rejected(self):
        with pytest.raises(ValueError, match="not certified"):
            depth_witness(build_state("ghz", 1.0), (0.9, 0.9, 0.0), n=2)
        with pytest.raises(ValueError, match="certification"):
            depth_witness(build_state("ghz", 1.0), (0.1, 0.1, 0.1), n=4)

    def test_noisy_ghz_genuine_entanglement(self):
        lam = hyperboloid_point(2**0.5 - 1, 2**0.5 - 1) * (1 - 1e-9)
        lam = np.array([-lam[0], -lam[2], lam[1]])  # axis-aligned variant
        assert is_2tsp(lam).satisfied
        v = depth_witness(build_state("ghz", 0.8), lam, n=2)
        assert v.lower_bound == 3

    def test_affine_noise_dependence(self):
        lam = (1.0, 1.0, 0.5)
        ends = [
            tensor_apply([PauliMap.unital(lam)] * 3, build_state("ghz", q).rho).min_eig()
            for q in (0.0, 1.0)
        ]
        for q in (0.2, 0.5, 0.9):
            out = tensor_apply([PauliMap.unital(lam)] * 3, build_state("ghz", q).rho)
            interp = (1 - q) * ends[0] + q * ends[1]
            assert abs(out.min_eig() - interp) < 1e-12

    def test_sound_on_shallow_products(self):
        # States assembled from blocks of at most n qubits never trigger an
        # n-certified witness.
        lam2 = hyperboloid_point(0.3, 0.7) * (1 - 1e-9)
        for _ in range(50):
            rho = kron(random_density(1), random_density(2))
            state = MultiQubitState(HermitianOperator(rho.matrix))
            assert depth_witness(state, lam2, n=2).lower_bound == 1
        for _ in range(50):
            rho = kron(kron(random_density(1), random_density(1)), random_density(1))
            state = MultiQubitState(HermitianOperator(rho.matrix))
            lam1 = RNG.uniform(-1, 1, 3)
            assert depth_witness(state, lam1, n=1).lower_bound == 1


# The exact detection onsets: at n = 1 the cube-edge points (-1, -1, 0) for GHZ
# and (-1, 0, +-1) for W, whose smallest output eigenvalues are -3/8 and
# -1/(2 sqrt 3); at n = 2 for GHZ the hyperboloid point (-1/sqrt 2, 1/sqrt 2, 0)
# up to variants, pulled inside by SHRINK; W at n = 2 has no closed form here.
EXACT_Q_STAR = {
    ("ghz", 1): ((1 / 8 + NEGATIVITY_TOL) / (1 / 2), 1e-15),
    ("w", 1): ((1 / 8 + NEGATIVITY_TOL) / (1 / 8 + 1 / (2 * np.sqrt(3))), 1e-15),
    ("ghz", 2): ((1 + 8 * NEGATIVITY_TOL) / (np.sqrt(2) * (1 - SHRINK) ** 3), 1e-12),
    ("w", 2): (0.85201755966325, 1e-12),
}
SEARCHES = [("ghz", 1), ("ghz", 2), ("w", 1), ("w", 2)]
SEARCH_IDS = [f"{family}-{n}" for family, n in SEARCHES]
SCORE = {"ghz": _ghz_min_eigs, "w": _w_min_eigs}


def _boundary_grid(n, steps):
    """The certified set's boundary on a ``steps``-point grid per patch axis:
    the six cube faces for n = 1, the pulled-in hyperboloid under every
    variant transform for n = 2; one ``(m, 3)`` stack per face or transform."""
    if n == 1:
        g = np.linspace(-1.0, 1.0, steps)
        a, b = (x.reshape(-1) for x in np.meshgrid(g, g, indexing="ij"))
        for axis in range(3):
            for sign in (-1.0, 1.0):
                face = np.empty((len(a), 3))
                face[:, axis], face[:, (axis + 1) % 3], face[:, (axis + 2) % 3] = sign, a, b
                yield face
    else:
        g = np.linspace(0.0, 1.0, steps)
        base = hyperboloid_point(*np.meshgrid(g, g, indexing="ij")).reshape(-1, 3) * (1.0 - SHRINK)
        for t in variant_transforms():
            yield base @ t.T


class TestThresholdSearch:
    def test_deeper_detection_needs_more_purity(self):
        r1 = threshold_search("ghz", 1)
        r2 = threshold_search("ghz", 2)
        assert r1.q_star <= r2.q_star
        assert r1.witness is not None and r2.witness is not None

    def test_witness_is_certified_and_detects(self):
        res = threshold_search("ghz", 2)
        assert is_2tsp(res.witness).satisfied
        state = build_state("ghz", min(res.q_star + 5e-3, 1.0))
        v = depth_witness(state, res.witness, n=2)
        assert v.lower_bound == 3

    @pytest.mark.parametrize("family, n", SEARCHES, ids=SEARCH_IDS)
    def test_exact_onset(self, family, n):
        res = threshold_search(family, n)
        exact, tol = EXACT_Q_STAR[family, n]
        assert abs(res.q_star - exact) <= tol
        assert res.q_star == (1 / 8 + NEGATIVITY_TOL) / (1 / 8 - res.neg_eig)
        kind = "ghz" if family == "ghz" else "w3"
        above = depth_witness(build_state(kind, res.q_star * (1 + 1e-6)), res.witness, n)
        below = depth_witness(build_state(kind, res.q_star * (1 - 1e-6)), res.witness, n)
        assert above.lower_bound == n + 1
        assert below.lower_bound == 1

    @pytest.mark.parametrize(
        "family, witness_map", [("ghz", (-1.0, -1.0, 0.0)), ("w", (-1.0, 0.0, -1.0))], ids=["ghz", "w"]
    )
    def test_seed_that_is_exact_stays_exact(self, family, witness_map):
        # The n = 1 minimisers lie on the seed grid; stencil ties keep them there.
        assert threshold_search(family, 1).witness.tobytes() == np.array(witness_map).tobytes()

    @pytest.mark.parametrize("family, n", SEARCHES, ids=SEARCH_IDS)
    def test_witness_is_certified_and_scores_its_dense_eigenvalue(self, family, n):
        res = threshold_search(family, n)
        assert _certified(res.witness[None], n)[0]
        assert abs(res.neg_eig - SCORE[family](res.witness[None])[0]) <= 1e-14

    @pytest.mark.parametrize("family, n", SEARCHES, ids=SEARCH_IDS)
    def test_no_boundary_grid_point_scores_lower(self, family, n):
        # 201^2 points per cube face for n = 1; 401^2 per variant transform for n = 2.
        res = threshold_search(family, n)
        best = SCORE[family](res.witness[None])[0]
        for patch in _boundary_grid(n, 201 if n == 1 else 401):
            assert _certified(patch, n).all()
            assert SCORE[family](patch).min() >= best - 1e-12

    @pytest.mark.parametrize("family, n", SEARCHES, ids=SEARCH_IDS)
    def test_onset_is_stable_under_seed_grid_and_stop_tolerance(self, family, n, monkeypatch):
        q_star = threshold_search(family, n).q_star
        for seeds, tol in [(21, witness.REFINE_TOL), (41, witness.REFINE_TOL), (11, 1e-9), (11, 1e-11)]:
            monkeypatch.setattr(witness, "_SEEDS", seeds)
            monkeypatch.setattr(witness, "REFINE_TOL", tol)
            assert abs(threshold_search(family, n).q_star - q_star) <= 1e-9

    def test_rejects_unknown_family(self):
        for family in ("cluster", "ghzDepol", "W"):
            with pytest.raises(ValueError, match="family"):
                threshold_search(family, 1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n in"):
            threshold_search("ghz", 3)

    def test_no_witness_found(self, monkeypatch):
        # A witness whose output on the pure state is PSD detects nothing.
        monkeypatch.setattr(witness, "_power_min_eigs", lambda lams, rho: np.zeros(len(lams)))
        res = threshold_search("ghz", 2)
        assert res.q_star == 1.0
        assert res.witness is None
        assert res.neg_eig == 0.0


def _edge_rows(rng):
    """Ties and edges of the closed forms: l1 = +-l2, l3 in {0, +-1}, lambda = 0,
    and the corners, edge midpoints and centre of the Bloch cube."""
    l1 = rng.uniform(-1.5, 1.5, 60)
    l3 = rng.choice([0.0, 1.0, -1.0], 60)
    ties = np.stack([l1, rng.choice([1.0, -1.0], 60) * l1, l3], axis=1)
    free_l3 = np.stack([l1, -l1, rng.uniform(-1.5, 1.5, 60)], axis=1)
    grid = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), axis=-1).reshape(-1, 3)
    return np.concatenate([ties, free_l3, grid, np.zeros((1, 3))])


class TestClosedFormSpectra:
    @pytest.mark.parametrize(
        "stack",
        [
            lambda rng: rng.uniform(-1.0, 1.0, (500, 3)),
            lambda rng: rng.uniform(-2.0, 2.0, (500, 3)),
            _edge_rows,
        ],
        ids=["inside-cube", "outside-cube", "edges"],
    )
    @pytest.mark.parametrize("kind, closed_form", [("ghz", _ghz_min_eigs), ("w3", _w_min_eigs)])
    def test_matches_dense_spectrum(self, kind, closed_form, stack):
        lams = stack(np.random.default_rng(7))
        dense = _power_min_eigs(np.insert(lams, 0, 1.0, axis=1), build_state(kind, 1.0).rho.matrix)
        assert np.abs(closed_form(lams) - dense).max() <= 1e-12


class TestScanArrays:
    def test_certified_matches_per_row_criteria(self):
        x = hyperboloid_point(0.3, 0.7)  # the middle slack is exactly 0
        stack = np.concatenate(
            [
                RNG.uniform(-1.0, 1.0, (400, 3)),
                [x, -x, x[[1, 0, 2]], x[[2, 1, 0]], x * (1 + 1e-9), x * (1 - 1e-9)],
                [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, -0.0], [-0.0, 0.0, -0.0]],
                [[-1.0, -0.0, 1.0], [1.0, 1.0 + 1e-15, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, -1.0]],
                [[0.0, 0.0, 2.0], [1e308, 0.0, 0.0], [-1e308, 1e308, 0.5]],
            ]
        )
        positive = [bool(np.abs(p).max() <= 1.0) for p in stack]
        assert _certified(stack, 1).tolist() == positive
        assert _certified(stack, 2).tolist() == [ok and is_2tsp(p).satisfied for p, ok in zip(stack, positive)]
        assert _certified(stack, 3).tolist() == [ok and is_3tsp(p).satisfied for p, ok in zip(stack, positive)]
        assert _certified(stack, 2).any() and not _certified(stack, 2).all()


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: MultiQubitState(HermitianOperator(np.eye(128) / 128)), "at most 6 qubits are supported"),
        (lambda: MultiQubitState(HermitianOperator(np.diag([1.5, -0.5]))), "state must be positive semidefinite"),
        (lambda: build_state("ghz", 0.5, 1), r"ghz needs 2\.\.6 qubits, got 1"),
        (lambda: build_state("ghz", 0.5, 7), r"ghz needs 2\.\.6 qubits, got 7"),
        (lambda: depth_witness(build_state("ghz", 1.0, 3), (0.4, 0.4, -0.4), 2.0), "n must be a positive integer, got 2.0"),
        (lambda: threshold_search("ghz", 1.0), "n must be a positive integer, got 1.0"),
        (lambda: build_state("ghz", 0.5, 3.0), r"ghz needs 2\.\.6 qubits, got 3\.0"),
        (lambda: build_state("ghz", "x"), "q must be a real number in \\[0, 1\\], got 'x'"),
        (lambda: build_state("ghz", float("nan")), "q must be a real number in \\[0, 1\\], got nan"),
        (lambda: depth_witness("x", (0.4, 0.4, -0.4), 1), "state must be a MultiQubitState, got str"),
        (lambda: depth_witness(build_state("ghz", 1.0, 3), (1e308, 0.0, 0.0), 3), "not certified"),
    ],
    ids=[
        "too-many-qubits", "not-psd", "ghz-n-below-2", "ghz-n-above-6", "depth-witness-float-n", "threshold-float-n",
        "ghz-float-n", "string-q", "nan-q", "depth-witness-state", "depth-witness-huge-lambda",
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
