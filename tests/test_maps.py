import dataclasses
import functools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorstable.criteria import is_2tsp
from tensorstable.linalg import (
    SIGMA,
    HermitianOperator,
    hermitian_spectrum,
    kron,
    kron_all,
    partial_transpose,
    psd_verdict,
    symmetric_linspace,
)
from tensorstable.maps import (
    GeneralQubitMap,
    PauliDiagonalMap,
    PauliMap,
    choi,
    classify,
    compose,
    lambda_to_q,
    map_from_choi,
    map_from_json,
    map_to_json,
    max_entangled_projector,
    tensor_apply,
)
from tensorstable.maps import _pauli_product, _power_min_eigs
from tensorstable.nonunital import NonUnitalFamilyMap
from tensorstable.oracles import _EX1_COEFFS, _EX2_COEFFS

RNG = np.random.default_rng(20240902)


def rand_state(n_qubits, rng=RNG):
    d = 2**n_qubits
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return HermitianOperator(np.outer(psi, psi.conj()), (2,) * n_qubits)


def hermitian_basis_2x2():
    return [SIGMA[0], SIGMA[1], SIGMA[2], SIGMA[3]]


def conjugation_apply(m, x):
    """Action of a Pauli map in the conjugation form, ``sum_j q_j sigma_j X sigma_j``."""
    return sum(qj * (s @ x @ s) for qj, s in zip(m.q, SIGMA))


class TestLambdaQ:
    def test_identity(self):
        assert_allclose(lambda_to_q((1, 1, 1, 1)), [1, 0, 0, 0])

    def test_transposition(self):
        assert_allclose(lambda_to_q((1, 1, -1, 1)), [0.5, 0.5, -0.5, 0.5])

    def test_depolarizing(self):
        q = 0.3
        expected = [(1 + 3 * q) / 4] + [(1 - q) / 4] * 3
        assert_allclose(lambda_to_q((1, q, q, q)), expected)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            lambda_to_q((1, 2, 3))


class TestApply:
    def test_identity_action(self):
        x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        assert_allclose(PauliMap.identity().apply(x), x, atol=1e-14)

    def test_depolarizing_action(self):
        q = -0.4
        x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        expected = q * x + (1 - q) * np.trace(x) * np.eye(2) / 2
        assert_allclose(PauliMap.depolarizing(q).apply(x), expected, atol=1e-14)

    def test_reduction_action(self):
        x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        expected = np.trace(x) * np.eye(2) - x
        assert_allclose(PauliMap.reduction().apply(x), expected, atol=1e-14)

    def test_lambda_and_conjugation_forms_agree(self):
        for _ in range(50):
            m = PauliMap(tuple(RNG.uniform(-1, 1, 4)))
            for x in hermitian_basis_2x2():
                assert np.abs(m.apply(x) - conjugation_apply(m, x)).max() < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            PauliMap.identity().apply(np.eye(4))


class TestCompose:
    def test_reduction_flips_depolarizing(self):
        q = 0.6
        lhs = compose(PauliMap.reduction(), PauliMap.depolarizing(q))
        assert_allclose(lhs.lam, PauliMap.depolarizing(-q).lam)

    def test_depolarizing_squares(self):
        q = -0.7
        lhs = compose(PauliMap.depolarizing(q), PauliMap.depolarizing(q))
        assert_allclose(lhs.lam, PauliMap.depolarizing(q * q).lam)

    def test_identity_neutral(self):
        m = PauliMap(tuple(RNG.uniform(-1, 1, 4)))
        assert_allclose(compose(PauliMap.identity(), m).lam, m.lam)

    def test_matrix_homomorphism(self):
        for _ in range(30):
            f = GeneralQubitMap(RNG.uniform(-1, 1, (4, 4)))
            g = GeneralQubitMap(RNG.uniform(-1, 1, (4, 4)))
            x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
            lhs = compose(f, g).apply(x)
            rhs = f.apply(g.apply(x))
            assert np.abs(lhs - rhs).max() < 1e-12
            assert_allclose(compose(f, g).matrix, f.matrix @ g.matrix, atol=1e-13)


class TestChoi:
    def test_identity(self):
        assert_allclose(choi(PauliMap.identity()).matrix, max_entangled_projector().matrix, atol=1e-14)

    def test_transposition_is_half_swap(self):
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        assert_allclose(choi(PauliMap.transposition()).matrix, swap / 2, atol=1e-14)

    @pytest.mark.parametrize("q,cp", [(-0.5, False), (-1 / 3, True), (0.2, True), (1.0, True)])
    def test_depolarizing_cp_window(self, q, cp):
        eigs = choi(PauliMap.depolarizing(q)).spectrum()
        assert (eigs[0] >= -1e-12) == cp

    def test_pair_ordering(self):
        # Factors of a two-map Choi are (in, aux, in, aux).
        om = choi([PauliMap.identity(), PauliMap.identity()])
        assert om.dims == (2, 2, 2, 2)
        single = choi(PauliMap.identity()).matrix
        assert_allclose(om.matrix, np.kron(single, single), atol=1e-14)

    def test_family_map_is_its_matrix(self):
        rng = np.random.default_rng(9)
        for t, *lam3 in rng.uniform(-1, 1, (20, 4)):
            fam = NonUnitalFamilyMap(t, lam3)
            general = GeneralQubitMap(fam.matrix)
            assert choi(fam).matrix.tobytes() == choi(general).matrix.tobytes()
            assert choi([fam, fam]).matrix.tobytes() == choi([general, general]).matrix.tobytes()


class TestMapFromChoi:
    def test_max_entangled_gives_identity(self):
        g = map_from_choi(max_entangled_projector())
        assert_allclose(g.matrix, np.eye(4), atol=1e-13)

    def test_maximally_mixed_gives_full_depolarizer(self):
        g = map_from_choi(HermitianOperator(np.eye(4) / 4, (2, 2)))
        assert_allclose(g.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-13)

    def test_doubled_map_choi(self):
        lam = (0.9, -0.3, 0.5)
        m = PauliMap.unital(lam)
        om = tensor_apply([m, m], max_entangled_projector())
        g = map_from_choi(om)
        assert_allclose(np.diag(g.matrix), [1.0, lam[0] ** 2, lam[1] ** 2, lam[2] ** 2], atol=1e-12)

    def test_round_trip(self):
        for _ in range(20):
            g = GeneralQubitMap(RNG.uniform(-1, 1, (4, 4)))
            om = choi(g)
            back = map_from_choi(om)
            assert np.abs(back.matrix - g.matrix).max() < 1e-12
            again = choi(back)
            assert np.abs(again.matrix - om.matrix).max() < 1e-12


class TestClassify:
    @pytest.mark.parametrize(
        "q,positive,cp",
        [(0.5, True, True), (-0.5, True, False), (1.0, True, True), (1.5, False, False)],
    )
    def test_depolarizing(self, q, positive, cp):
        rep = classify(PauliMap.depolarizing(q))
        assert rep.positive == positive
        assert rep.cp == cp

    def test_transposition(self):
        rep = classify(PauliMap.transposition())
        assert rep.positive and not rep.cp and rep.ccp and not rep.eb

    def test_square_of_ball_map_is_eb(self):
        s = 3**-0.5
        square = compose(PauliMap((1, s, s, s)), PauliMap((1, s, s, s)))
        rep = classify(square)
        assert rep.eb and rep.cp and rep.ccp

    def test_cp_by_weights_matches_choi_psd(self):
        count = 0
        while count < 1000:
            lam = (1.0, *RNG.uniform(-1, 1, 3))
            m = PauliMap(lam)
            if np.abs(m.q).min() < 1e-8:
                continue  # keep clear of the verdict boundary
            count += 1
            by_weights = m.q.min() >= 0
            by_choi = hermitian_spectrum(choi(m).matrix)[0] >= -1e-9
            assert by_weights == by_choi

    def test_report_invariants(self):
        for _ in range(200):
            m = PauliMap((1.0, *RNG.uniform(-1, 1, 3)))
            rep = classify(m)
            if rep.eb:
                assert rep.cp
            if rep.cp and rep.ccp:
                assert rep.positive
            if rep.cp or rep.ccp:
                assert rep.positive

    def test_general_map_records_method(self):
        g = GeneralQubitMap.from_translation((0, 0, 0.3), (0.2, 0.1, 0.4))
        rep = classify(g)
        assert rep.positivity_method == "nonunital-closed-form"
        assert rep.positive
        off = np.zeros((4, 4))
        off[0, 0] = 1.0
        off[1, 2] = 0.3  # not of the translated-diagonal shape
        rep2 = classify(GeneralQubitMap(off))
        assert rep2.positivity_method == "numeric-block-positivity"

    def test_family_map_classifies_as_its_matrix(self):
        rng = np.random.default_rng(10)
        for t, *lam3 in rng.uniform(-1, 1, (20, 4)):
            fam = NonUnitalFamilyMap(t, lam3)
            rep = classify(fam)
            assert rep.positivity_method == "nonunital-closed-form"
            assert dataclasses.asdict(rep) == dataclasses.asdict(classify(GeneralQubitMap(fam.matrix)))

    @pytest.mark.parametrize("l0", [2.0, 0.5, 0.0])
    def test_diagonal_matrix_takes_the_pauli_closed_form(self, l0):
        lam = (l0, 0.3, -0.7, 0.4)
        rep = classify(PauliMap(lam))
        assert rep.positivity_method == "pauli-closed-form"
        assert dataclasses.asdict(rep) == dataclasses.asdict(classify(GeneralQubitMap(np.diag(lam))))

    def test_general_translation_goes_numeric(self):
        # translations off the third axis have no closed form
        g = GeneralQubitMap.from_translation((0.2, 0.1, 0.1), (0.3, 0.3, 0.3))
        rep = classify(g)
        assert rep.positivity_method == "numeric-block-positivity"
        assert rep.positive

    def test_unital_flags(self):
        rep = classify(PauliMap((1.0, 0.2, 0.2, 0.2)))
        assert rep.unital and rep.trace_preserving
        rep = classify(PauliMap((0.5, 0.2, 0.2, 0.2)))
        assert not rep.unital and not rep.trace_preserving

    @pytest.mark.parametrize("l0", [1 + 1e-6, 1 - 1e-6, 1 + 1e-11])
    def test_unital_flags_use_an_absolute_tolerance(self, l0):
        # The default relative tolerance of np.allclose (1e-5) would call these unital.
        rep = classify(PauliMap((l0, 0.5, 0.5, 0.5)))
        assert not rep.unital and not rep.trace_preserving
        g = GeneralQubitMap(np.diag([l0, 0.5, 0.5, 0.5]))
        assert not classify(g).unital
        assert classify(PauliMap((1 + 1e-13, 0.5, 0.5, 0.5))).unital


class TestTensorApply:
    def test_identity_pair(self):
        rho = rand_state(2)
        out = tensor_apply([PauliMap.identity()] * 2, rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-14

    def test_depolarizing_pair_closed_form(self):
        for _ in range(10):
            q1, q2 = RNG.uniform(-1, 1, 2)
            p = RNG.uniform(0, 1)
            psi = np.zeros(4, dtype=complex)
            psi[0], psi[3] = np.sqrt(p), np.sqrt(1 - p)
            rho = HermitianOperator(np.outer(psi, psi.conj()), (2, 2))
            out = tensor_apply([PauliMap.depolarizing(q1), PauliMap.depolarizing(q2)], rho)
            a_p, a_m = 1 + q1 * q2, 1 - q1 * q2
            b_p, b_m = (2 * p - 1) * (q1 + q2), (2 * p - 1) * (q1 - q2)
            c = 4 * np.sqrt(p * (1 - p)) * q1 * q2
            expected = 0.25 * np.array(
                [
                    [a_p + b_p, 0, 0, c],
                    [0, a_m + b_m, 0, 0],
                    [0, 0, a_m - b_m, 0],
                    [c, 0, 0, a_p - b_p],
                ]
            )
            assert np.abs(out.matrix - expected).max() < 1e-13

    def test_agrees_with_choi_action(self):
        # d * tr_aux[Omega (I x rho^T)] reproduces the tensor action.
        for _ in range(10):
            lam = RNG.uniform(-1, 1, 3)
            m = PauliMap.unital(lam)
            rho = rand_state(2)
            out = tensor_apply([m, m], rho)
            om = choi([m, m]).matrix
            big = om.reshape((2,) * 8)
            # reorder (A, A', B, B') -> (A, B, A', B') on both sides
            big = big.transpose([0, 2, 1, 3, 4, 6, 5, 7]).reshape(16, 16)
            via_choi = 4 * np.einsum(
                "abcd,db->ac", big.reshape(4, 4, 4, 4), rho.matrix.T
            )
            assert np.abs(out.matrix - via_choi).max() < 1e-11

    def test_factor_mismatch(self):
        with pytest.raises(ValueError, match="factor"):
            tensor_apply([PauliMap.identity()], rand_state(2))

    def test_eb_tensor_positive_stays_positive(self):
        # An entanglement-breaking factor next to a merely positive factor
        # cannot produce negative outputs on any pure state.
        eb_maps = []
        while len(eb_maps) < 10:
            m = PauliMap((1.0, *RNG.uniform(-1, 1, 3)))
            rep = classify(m)
            if rep.eb:
                eb_maps.append(m)
        pos_maps = []
        while len(pos_maps) < 10:
            m = PauliMap((1.0, *RNG.uniform(-1, 1, 3)))
            if classify(m).positive:
                pos_maps.append(m)
        for k in range(200):
            rho = rand_state(2)
            m1 = eb_maps[k % len(eb_maps)]
            m2 = pos_maps[k % len(pos_maps)]
            out = tensor_apply([m1, m2], rho)
            assert out.min_eig() >= -1e-9


def pauli_superop(e, n):
    """Row-major superoperator of the n-qubit map with Pauli-basis matrix ``e``.

    ``vecs`` holds ``vec(sigma_idx)`` of every n-qubit Pauli product as its rows.
    """
    paulis = [np.eye(1, dtype=complex)]
    for _ in range(n):
        paulis = [np.kron(p, s) for p in paulis for s in SIGMA]
    vecs = np.array([p.reshape(-1) for p in paulis])
    return vecs.T @ e @ vecs.conj() / 2**n


def kron_superop(matrices):
    """Superoperator of a product map, whose Pauli-basis matrix is ``kron(E_1, ..., E_n)``."""
    return pauli_superop(kron_all(matrices), len(matrices))


def random_general_maps(n, rng=RNG):
    # Translations (first column) and off-diagonal entries are all nonzero.
    return [GeneralQubitMap(rng.uniform(-1, 1, (4, 4))) for _ in range(n)]


def reference_choi(maps):
    """Choi operator through each map's row-major superoperator, realigned:
    ``choi`` reproduces this route bit for bit."""
    out = None
    for m in maps:
        s = pauli_superop(m.matrix, 1).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        single = HermitianOperator(0.5 * s, (2, 2))
        out = single if out is None else kron(out, single)
    return out


class TestChoiArithmetic:
    def assert_bitwise(self, maps):
        assert choi(maps).matrix.tobytes() == reference_choi(maps).matrix.tobytes()

    def test_depolarizing_pairs(self):
        grid = symmetric_linspace(-1.0, 1.0, 41)
        for q1 in grid:
            for q2 in grid:
                self.assert_bitwise([PauliMap.depolarizing(q1), PauliMap.depolarizing(q2)])

    def test_translated_maps(self):
        rng = np.random.default_rng(11)
        for t, *lam3 in rng.uniform(-1, 1, (200, 4)):
            self.assert_bitwise([NonUnitalFamilyMap(t, lam3)])
        self.assert_bitwise([NonUnitalFamilyMap(0.2, (0.5, 0.4, -0.3))])

    def test_general_maps(self):
        for m in random_general_maps(200, np.random.default_rng(12)):
            self.assert_bitwise([m])

    def test_map_from_choi_reads_the_superoperator(self):
        # E = V* S V^T / 2 with S = 2 * realign(Omega) and V the rows vec(sigma_i).
        vecs = np.array([s.reshape(-1) for s in SIGMA])
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w = a + a.conj().T
            realigned = w.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
            expected = (vecs.conj() @ realigned @ vecs.T).real
            assert map_from_choi(w).matrix.tobytes() == expected.tobytes()


def reference_classify(m, rep):
    """``rep`` with CP, CcP and EB redone with a second Choi operator, that of
    ``T . m``, for CcP; ``classify`` reads CcP off the partial transpose of
    the first one and reproduces this route bit for bit."""
    omega = choi(m)
    omega_eigs = hermitian_spectrum(omega)
    ccp_eigs = hermitian_spectrum(choi(compose(PauliMap.transposition(), m)))
    pt_eigs = hermitian_spectrum(partial_transpose(omega, [1]))
    cp = psd_verdict(omega_eigs) == "psd"
    margins = {
        **rep.margins,
        "cp": float(omega_eigs[0]),
        "ccp": float(ccp_eigs[0]),
        "eb": float(min(omega_eigs[0], pt_eigs[0])),
    }
    return dataclasses.replace(
        rep, cp=cp, ccp=psd_verdict(ccp_eigs) == "psd", eb=cp and psd_verdict(pt_eigs) == "psd", margins=margins
    )


class TestCcpFromPartialTranspose:
    def assert_bitwise(self, maps):
        for m in maps:
            rep = classify(m)
            ref = reference_classify(m, rep)
            assert dataclasses.asdict(rep) == dataclasses.asdict(ref)
            keys = sorted(ref.margins)
            assert np.array([rep.margins[k] for k in keys]).tobytes() == np.array([ref.margins[k] for k in keys]).tobytes()

    def test_translated_maps(self):
        rng = np.random.default_rng(14)
        self.assert_bitwise([NonUnitalFamilyMap(t, lam3) for t, *lam3 in rng.uniform(-1, 1, (200, 4))])

    def test_general_maps(self):
        self.assert_bitwise(random_general_maps(200, np.random.default_rng(15)))

    def test_near_unital_general_maps(self):
        # The generic maps of the per-map benchmark: a small translation and
        # Bloch matrix near a diagonal one.
        rng = np.random.default_rng(16)
        maps = []
        for _ in range(200):
            e = np.zeros((4, 4))
            e[0, 0] = 1.0
            e[1:, 0] = rng.uniform(-0.2, 0.2, 3)
            e[1:, 1:] = np.diag(rng.uniform(-0.8, 0.8, 3)) + rng.uniform(-0.15, 0.15, (3, 3))
            maps.append(GeneralQubitMap(e))
        self.assert_bitwise(maps)


class TestPauliProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_general_maps_match_kron_superop(self, n):
        d = 2**n
        for _ in range(3):
            maps = random_general_maps(n)
            x = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
            expected = (kron_superop([m.matrix for m in maps]) @ x.reshape(-1)).reshape(d, d)
            out = _pauli_product(np.stack([m.matrix for m in maps]), x)
            assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagonal_form_matches_full_matrices(self, n):
        lam = RNG.uniform(-1, 1, (n, 4))
        x = rand_state(n).matrix
        full = _pauli_product(np.stack([np.diag(row) for row in lam]), x)
        table = functools.reduce(np.multiply.outer, lam)
        assert np.abs(_pauli_product(table, x, diagonal=True) - full).max() < 1e-14

    def test_diagonal_table_matches_kron_superop(self):
        coeffs = RNG.uniform(-1, 1, (4, 4))
        x = rand_state(2).matrix
        expected = (pauli_superop(np.diag(coeffs.reshape(-1)), 2) @ x.reshape(-1)).reshape(4, 4)
        assert np.abs(_pauli_product(coeffs, x, diagonal=True) - expected).max() < 1e-14

    def test_stack_of_maps(self):
        stack = np.stack([np.stack([m.matrix for m in random_general_maps(3)]) for _ in range(5)])
        x = rand_state(3).matrix
        xs = np.stack([rand_state(3).matrix for _ in range(5)])
        one_x = _pauli_product(stack, x)
        many_x = _pauli_product(stack, xs)
        assert one_x.shape == many_x.shape == (5, 8, 8)
        for e, y, out_one, out_many in zip(stack, xs, one_x, many_x):
            sup = kron_superop(list(e))
            assert np.abs(out_one - (sup @ x.reshape(-1)).reshape(8, 8)).max() < 1e-12
            assert np.abs(out_many - (sup @ y.reshape(-1)).reshape(8, 8)).max() < 1e-12

    def test_tensor_apply_matches_kron_superop(self):
        maps = random_general_maps(2)
        rho = rand_state(2)
        # Hermitian-preserving but otherwise general maps: output stays Hermitian.
        expected = (kron_superop([m.matrix for m in maps]) @ rho.matrix.reshape(-1)).reshape(4, 4)
        assert np.abs(tensor_apply(maps, rho).matrix - expected).max() < 1e-12


class TestPowerMinEigs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_tensor_apply(self, n):
        lams = RNG.uniform(-1, 1, (4, 4))
        d = 2**n
        a = RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))
        rho = HermitianOperator(a @ a.conj().T / np.trace(a @ a.conj().T).real, (2,) * n)
        got = _power_min_eigs(lams, rho.matrix)
        expected = [tensor_apply([PauliMap(tuple(lam))] * n, rho).min_eig() for lam in lams]
        assert got.shape == (4,)
        assert np.abs(got - expected).max() < 1e-12


class TestPauliDiagonalMap:
    def test_single_qubit_matches_pauli_map(self):
        lam = RNG.uniform(-1, 1, 4)
        d1 = PauliDiagonalMap(lam)
        m = PauliMap(tuple(lam))
        x = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
        assert np.abs(d1.apply(x) - m.apply(x)).max() < 1e-13

    def test_product_coefficients_match_tensor_apply(self):
        lam = np.array([1.0, *RNG.uniform(-1, 1, 3)])
        d2 = PauliDiagonalMap(np.outer(lam, lam))
        m = PauliMap(tuple(lam))
        rho = rand_state(2)
        lhs = d2.apply(rho.matrix)
        rhs = tensor_apply([m, m], rho).matrix
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_identity_choi_is_the_max_entangled_projector(self):
        ident = PauliDiagonalMap(np.ones((4, 4)))
        assert_allclose(ident.choi().matrix, max_entangled_projector(4).matrix, atol=1e-13)

    @staticmethod
    def superop_route_choi(coeffs):
        """Choi operator through the row-major superoperator, realigned."""
        d = 2**coeffs.ndim
        units = np.eye(d * d).reshape(d * d, d, d)  # column (a, b) is Phi[E_ab]
        s = _pauli_product(coeffs, units, diagonal=True).reshape(d * d, d * d).T
        return HermitianOperator(s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / d, (d, d))

    @pytest.mark.parametrize("coeffs", [_EX1_COEFFS, _EX2_COEFFS], ids=["example1", "example2"])
    def test_example_chois_match_the_superoperator_route(self, coeffs):
        assert PauliDiagonalMap(coeffs).choi().matrix.tobytes() == self.superop_route_choi(coeffs).matrix.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_choi_matches_the_superoperator_route(self, n):
        rng = np.random.default_rng(17 + n)
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, (4,) * n)
            omega = PauliDiagonalMap(coeffs).choi()
            assert omega.dims == (2**n, 2**n)
            assert np.abs(omega.matrix - self.superop_route_choi(coeffs).matrix).max() <= 1e-15

    def test_choi_eigenvalues_are_weights(self):
        lam = RNG.uniform(-1, 1, (4, 4))
        f = PauliDiagonalMap(lam)
        eigs = np.sort(f.choi().spectrum())
        assert_allclose(eigs, np.sort(f.q.reshape(-1)), atol=1e-12)


class TestGeneralQubitMap:
    def test_repr_shows_off_diagonal_entries(self):
        e = np.eye(4)
        e[1, 2] = 0.9
        assert repr(GeneralQubitMap(np.eye(4))) != repr(GeneralQubitMap(e))


class TestJson:
    def test_pauli_round_trip(self):
        m = PauliMap((1.0, 0.25, -0.5, 0.75))
        text = map_to_json(m)
        data = json.loads(text)
        assert set(data) == {"lambda"}
        back = map_from_json(text)
        assert isinstance(back, PauliMap)
        assert_allclose(back.lam, m.lam)

    def test_translated_round_trip(self):
        g = GeneralQubitMap.from_translation((0.0, 0.0, 0.5), (0.3, 0.2, 0.1))
        text = map_to_json(g)
        data = json.loads(text)
        assert set(data) == {"lambda", "t"}
        assert data["t"] == [0.0, 0.0, 0.5]
        back = map_from_json(text)
        assert np.abs(back.matrix - g.matrix).max() == 0

    def test_diagonal_general_map_round_trips_to_a_pauli_map(self):
        back = map_from_json(map_to_json(GeneralQubitMap(np.diag([2.0, 1.0, 1.0, 1.0]))))
        assert back == PauliMap((2.0, 1.0, 1.0, 1.0))

    def test_rejects_a_translation_without_unit_trace(self):
        e = np.diag([2.0, 1.0, 1.0, 1.0])
        e[3, 0] = 0.5
        with pytest.raises(ValueError, match="l0 = 1"):
            map_to_json(GeneralQubitMap(e))

    def test_three_component_lambda(self):
        m = map_from_json('{"lambda": [0.1, 0.2, 0.3]}')
        assert m.lam == (1.0, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[1, 0, 0, 0]",
            '{"lambda": 0.5}',
            '{"lambda": [1, "a", 0]}',
            '{"lambda": [NaN, 0, 0]}',
            '{"lambda": [0, 0, 0], "t": Infinity}',
            '{"lambda": "123"}',
            '{"lambda": [true, false, 0]}',
            '{"lambda": [0, 0, 0], "t": true}',
            '{"lambda": [0, 0, 0], "t": "0.3"}',
        ],
    )
    def test_rejects_malformed_json(self, text):
        with pytest.raises(ValueError):
            map_from_json(text)

    @pytest.mark.parametrize("text", ['{"lambda": [0.1, 0.1, 0.1], "T": 0.5}', '{"lambda": [1, 0, 0, 0], "x": 1}'])
    def test_rejects_unknown_keys(self, text):
        with pytest.raises(ValueError, match='only "lambda" and "t"'):
            map_from_json(text)

    def test_rejects_off_diagonal(self):
        e = np.eye(4)
        e[1, 2] = 0.5
        with pytest.raises(ValueError, match="diagonal"):
            map_to_json(GeneralQubitMap(e))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: is_2tsp([v, 0.0, 0.0]),
        lambda v: classify(PauliMap((1.0, v, 0.0, 0.0))),
        lambda v: GeneralQubitMap(np.diag([1.0, 0.5, 0.5, v])),
        lambda v: NonUnitalFamilyMap(v, (0.5, 0.5, 0.0)),
        lambda v: NonUnitalFamilyMap(0.2, (0.5, v, 0.0)),
        lambda v: HermitianOperator(np.diag([v, 0.5, 0.5, 0.0])),
        lambda v: PauliDiagonalMap([1.0, 0.5, 0.5, v]),
    ],
    ids=[
        "as_lambda_point",
        "PauliMap",
        "GeneralQubitMap",
        "NonUnitalFamilyMap.t",
        "NonUnitalFamilyMap.lam3",
        "HermitianOperator",
        "PauliDiagonalMap",
    ],
)
def test_non_finite_input_is_rejected_where_it_enters(build, bad):
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_zero_qubit_coefficients_are_rejected():
    with pytest.raises(ValueError, match="shape"):
        PauliDiagonalMap(2.0)
