import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tensorstable
from tensorstable import witness
from tensorstable.criteria import hyperboloid_point, is_2tsp, is_3tsp
from tensorstable.linalg import BLOCH_ROTATIONS, HermitianOperator, kron, symmetric_linspace
from tensorstable.maps import PauliMap, _power_min_eigs, tensor_apply
from tensorstable.witness import (
    NEGATIVITY_TOL,
    SHRINK,
    MultiQubitState,
    ThresholdResult,
    _certified,
    _dedupe,
    _ghz_min_eigs,
    _scan_maps_n1,
    _scan_maps_n2,
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
        s = build_state("psi_plus", q=0.5)
        assert s.n == 2
        assert abs(s.rho.trace() - 1) < 1e-12

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
        v = depth_witness(build_state("psi_plus", 1.0), (1.0, 1.0, 0.5), n=1)
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


class TestThresholdSearch:
    def test_deeper_detection_needs_more_purity(self):
        r1 = threshold_search("ghz", 1, steps=11)
        r2 = threshold_search("ghz", 2, steps=11)
        assert r1.q_star <= r2.q_star
        assert r1.witness is not None and r2.witness is not None

    def test_witness_is_certified_and_detects(self):
        res = threshold_search("ghz", 2, steps=11)
        assert is_2tsp(res.witness).satisfied
        state = build_state("ghz", min(res.q_star + 5e-3, 1.0))
        v = depth_witness(state, res.witness, n=2)
        assert v.lower_bound == 3

    STEPS_21_Q_STAR = {
        ("ghz", 1): 0.25000000199999994,
        ("ghz", 2): 0.7077275838855227,
        ("w", 1): 0.30216948166931806,
        ("w", 2): 0.8520305047755674,
    }

    # The steps=21 scans' witnesses; the n = 2 maps are hyperboloid points
    # (21/29, 20/29, 0) up to axis order and sign, pulled inside by 1e-9.
    @pytest.mark.parametrize(
        "family, n, witness",
        [
            ("ghz", 1, (-1.0, -1.0, 0.0)),
            ("ghz", 2, (-21 / 29, 20 / 29, 0.0)),
            ("w", 1, (-1.0, 0.0, 1.0)),
            ("w", 2, (20 / 29, 0.0, 21 / 29)),
        ],
    )
    def test_exact_onset(self, family, n, witness):
        res = threshold_search(family, n, steps=21)
        shrink = 1.0 if n == 1 else 1.0 - 1e-9
        assert_allclose(res.witness, np.array(witness) * shrink, rtol=0, atol=1e-15)
        assert res.q_star == self.STEPS_21_Q_STAR[family, n]
        assert res.q_star == (1 / 8 + NEGATIVITY_TOL) / (1 / 8 - res.neg_eig)
        kind = "ghz" if family == "ghz" else "w3"
        above = depth_witness(build_state(kind, res.q_star * (1 + 1e-6)), res.witness, n)
        below = depth_witness(build_state(kind, res.q_star * (1 - 1e-6)), res.witness, n)
        assert above.lower_bound == n + 1
        assert below.lower_bound == 1

    def test_rejects_unknown_family(self):
        for family in ("cluster", "ghzDepol", "W"):
            with pytest.raises(ValueError, match="family"):
                threshold_search(family, 1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n in"):
            threshold_search("ghz", 3)

    def test_no_witness_found(self):
        # a two-step boundary grid only produces unitary-conjugation maps,
        # which never detect anything
        res = threshold_search("ghz", 2, steps=2)
        assert res.q_star == 1.0
        assert res.witness is None
        assert res.neg_eig >= -NEGATIVITY_TOL

    @pytest.mark.parametrize("steps", [1, 0, -3])
    def test_rejects_fewer_than_two_steps(self, steps):
        with pytest.raises(ValueError, match="steps"):
            threshold_search("ghz", 2, steps=steps)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_non_integer_steps(self, n):
        # n = 1 at 2.5 steps used to scan past the cube and return q_star = 0.273.
        with pytest.raises(ValueError, match="integer of at least 2"):
            threshold_search("ghz", n, steps=2.5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_numpy_integer_steps(self, n):
        assert threshold_search("ghz", n, steps=np.int64(7)).q_star == threshold_search("ghz", n, steps=7).q_star

    def test_peak_memory_stays_bounded_at_fine_steps(self):
        # 157,464 scanned rows at steps 81; the import alone takes about 30 MB.
        # A fresh interpreter reports its own peak as VmHWM (in kB). Its ru_maxrss
        # would not do: on Linux a forked child starts from its parent's peak.
        code = (
            "import os; from tensorstable.witness import threshold_search; "
            "threshold_search('w', 2, steps=81); "
            "status = open('/proc/self/status').read() if os.path.exists('/proc/self/status') else ''; "
            "print(*[line.split()[1] for line in status.splitlines() if line.startswith('VmHWM:')])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tensorstable.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        if not proc.stdout.strip():
            pytest.skip("no VmHWM in /proc/self/status")
        assert int(proc.stdout) / 1024 < 100

    def test_screen_passes_few_rows_to_dense_evaluation(self, monkeypatch):
        # The steps=81 scan certifies 157,464 rows; only the few the closed-form
        # screen keeps may reach the dense eigenvalue routine.
        rows = []

        def counted(lams, rho):
            rows.append(len(lams))
            return _power_min_eigs(lams, rho)

        monkeypatch.setattr("tensorstable.witness._power_min_eigs", counted)
        threshold_search("w", 2, steps=81)
        assert 0 < sum(rows) < 100


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


def _threshold_search_dense(family, n, steps):
    """Reference for threshold_search: the whole scan deduped, then every
    certified map evaluated densely."""
    lams = _dedupe_loop(_scan_maps_n1(steps) if n == 1 else _scan_maps_n2(steps))
    lams = lams[_certified(lams, n)]
    pure = build_state("ghz" if family == "ghz" else "w3", 1.0).rho.matrix
    m_min = _power_min_eigs(np.insert(lams, 0, 1.0, axis=1), pure)
    best = int(np.argmin(m_min))
    m = float(m_min[best])
    if m >= -NEGATIVITY_TOL:
        return ThresholdResult(q_star=1.0, witness=None, neg_eig=m)
    return ThresholdResult(q_star=(0.125 + NEGATIVITY_TOL) / (0.125 - m), witness=lams[best], neg_eig=m)


# Steps 7 needs the survivors deduped; at steps 50 symmetric_linspace's ends are not exactly +-1.
@pytest.mark.parametrize("steps", [2, 3, 5, 7, 11, 21, 50])
@pytest.mark.parametrize("family, n", [("ghz", 1), ("ghz", 2), ("w", 1), ("w", 2)])
def test_screen_equals_dense_search_bytewise(family, n, steps):
    got, want = threshold_search(family, n, steps=steps), _threshold_search_dense(family, n, steps)
    assert np.float64(got.q_star).tobytes() == np.float64(want.q_star).tobytes()
    assert np.float64(got.neg_eig).tobytes() == np.float64(want.neg_eig).tobytes()
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.tobytes() == want.witness.tobytes()


# Loop versions of the scan builders and of the dedupe: the reference the
# array builders and threshold_search must reproduce byte for byte.
def _dedupe_loop(pts):
    seen = {}
    for p in pts:
        seen[tuple(np.round(p, 12))] = p
    return np.array(list(seen.values()))


def _scan_maps_n1_loop(steps):
    grid = symmetric_linspace(-1.0, 1.0, steps)
    pts = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            for a in grid:
                for b in grid:
                    lam = np.empty(3)
                    lam[axis] = sign
                    lam[(axis + 1) % 3] = a
                    lam[(axis + 2) % 3] = b
                    pts.append(lam)
    return np.array(pts)


def _scan_maps_n2_loop(steps):
    grid = np.linspace(0.0, 1.0, steps)
    transforms = variant_transforms()
    pts = []
    for x in grid:
        for y in grid:
            base = hyperboloid_point(x, y)
            for t in transforms:
                pts.append((t @ base) * (1.0 - SHRINK))
    return np.array(pts)


class TestScanArrays:
    @pytest.mark.parametrize("steps", [2, 5, 11, 21])
    @pytest.mark.parametrize(
        "build, reference",
        [(_scan_maps_n1, _scan_maps_n1_loop), (_scan_maps_n2, _scan_maps_n2_loop)],
    )
    def test_builders_equal_loops_bytewise(self, steps, build, reference):
        got, want = build(steps), reference(steps)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_dedupe_keeps_first_position_and_last_value(self):
        pts = np.array(
            [[0.0, 1.0, 2.0], [0.5, 0.5, 0.5], [-0.0, 1.0, 2.0 + 1e-14], [0.5, 0.5, 0.5 - 1e-15]]
        )
        got = _dedupe(pts)
        assert got.tobytes() == _dedupe_loop(pts).tobytes()
        assert got.tobytes() == pts[[2, 3]].tobytes()

    def test_certified_matches_per_row_criteria(self):
        x = hyperboloid_point(0.3, 0.7)  # the middle slack is exactly 0
        stack = np.concatenate(
            [
                RNG.uniform(-1.0, 1.0, (400, 3)),
                [x, -x, x[[1, 0, 2]], x[[2, 1, 0]], x * (1 + 1e-9), x * (1 - 1e-9)],
                [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, -0.0], [-0.0, 0.0, -0.0]],
                [[-1.0, -0.0, 1.0], [1.0, 1.0 + 1e-15, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, -1.0]],
            ]
        )
        assert _certified(stack, 1).tolist() == [bool(np.abs(p).max() <= 1.0) for p in stack]
        assert _certified(stack, 2).tolist() == [bool(is_2tsp(p).satisfied) for p in stack]
        assert _certified(stack, 3).tolist() == [bool(is_3tsp(p).satisfied) for p in stack]
        assert _certified(stack, 2).any() and not _certified(stack, 2).all()


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: MultiQubitState(HermitianOperator(np.eye(128) / 128)), "at most 6 qubits are supported"),
        (lambda: MultiQubitState(HermitianOperator(np.diag([1.5, -0.5]))), "state must be positive semidefinite"),
        (lambda: build_state("ghz", 0.5, 1), r"ghz needs 2\.\.6 qubits, got 1"),
        (lambda: build_state("ghz", 0.5, 7), r"ghz needs 2\.\.6 qubits, got 7"),
        (lambda: depth_witness(build_state("ghz", 1.0, 3), (0.4, 0.4, -0.4), 2.0), "n must be a positive integer, got 2.0"),
    ],
    ids=["too-many-qubits", "not-psd", "ghz-n-below-2", "ghz-n-above-6", "depth-witness-float-n"],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
