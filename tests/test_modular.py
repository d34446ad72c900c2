import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy.modular import (HERMITICITY_TOL, RANK_FLOOR, DensityMatrix, InvalidStateError,
                               purify)
from rpentropy.sampling import random_density

from oracles import (_apply_first_factor, check_tomita_relation, conjugation_matrix,
                     delta_matrix, doubled_overlap, half_sided_overlap, modular_operators,
                     purified_vector, random_operator, reconstruct_density, reflect_operator)


def make_state(d, seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix.from_matrix(random_density(d, rng))
    return purify(rho), rng


class TestDensityMatrix:

    def test_valid_diagonal(self):
        rho = DensityMatrix.from_matrix(np.diag([0.5, 0.5]))
        assert rho.dim == 2

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix.from_matrix(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix.from_matrix(np.diag([0.6, 0.6]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        for entry in ((0, 0), (0, 1)):
            mat = np.diag([0.5, 0.5]).astype(complex)
            mat[entry] = bad
            with pytest.raises(InvalidStateError, match="Hermitian"):
                DensityMatrix.from_matrix(mat)

    def test_rejects_imaginary_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            # each diagonal entry is Hermitian within tolerance, their sum is not
            DensityMatrix.from_matrix(np.diag([0.25 + 4e-11j] * 4))

    def test_rejects_singular_state(self):
        with pytest.raises(InvalidStateError, match="not invertible"):
            DensityMatrix.from_matrix(np.diag([1.0, 0.0]))


class TestPurify:

    def test_maximally_mixed(self):
        psi = purify(DensityMatrix.from_matrix(np.diag([0.5, 0.5])))
        assert np.allclose(psi.schmidt_values, [0.5, 0.5])
        assert np.allclose(psi.eigenbasis, np.eye(2))

    def test_diagonal_two_thirds(self):
        # oracle: direct eigendecomposition of the diagonal matrix
        expected = np.sort(np.linalg.eigvalsh(np.diag([2 / 3, 1 / 3])))[::-1]
        psi = purify(DensityMatrix.from_matrix(np.diag([2 / 3, 1 / 3])))
        assert np.allclose(psi.schmidt_values, expected, atol=1e-15)

    def test_vector_unit_norm_and_round_trip(self):
        for seed in range(8):
            psi, _ = make_state(5, seed)
            vec = purified_vector(psi)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            # partial trace over the second factor returns the source state
            mat = vec.reshape(5, 5)
            recon = mat @ mat.conj().T
            target = reconstruct_density(psi)
            assert np.linalg.norm(recon - target) <= 1e-12 * np.linalg.norm(target)

    def test_one_rank_gate_for_a_nearly_hermitian_state(self):
        # symmetrized, U diag(1 - b, b) U^T with b just above the rank floor
        # and U a 45 degree rotation; the antisymmetric part t, within the
        # Hermiticity tolerance, moves the lower triangle's small eigenvalue
        # to b - t < 0, so a second gate on the raw entries would refuse it
        b, t = 1.5 * RANK_FLOOR, 0.4 * HERMITICITY_TOL
        u = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2)
        mat = (u * [1.0 - b, b]) @ u.T + np.array([[0.0, t], [-t, 0.0]])
        assert np.linalg.eigvalsh(mat, UPLO="L")[0] < 0.0
        rho = DensityMatrix.from_matrix(mat)
        assert rho.eigenvalues[0] == pytest.approx(b, abs=1e-14)
        psi = purify(rho)
        assert np.all(psi.schmidt_values >= RANK_FLOOR)
        assert psi.schmidt_values.tolist() == rho.eigenvalues[::-1].tolist()
        symmetrized = 0.5 * (mat + mat.T)
        assert np.max(np.abs(reconstruct_density(psi) - symmetrized)) <= 1e-14

    def test_descending_order_and_phase_convention(self):
        psi, _ = make_state(6, 3)
        assert np.all(np.diff(psi.schmidt_values) <= 1e-15)
        for j in range(6):
            col = psi.eigenbasis[:, j]
            pivot = col[np.argmax(np.abs(col) > 1e-12)]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0


class TestModularOperators:

    def test_delta_identity_for_maximally_mixed(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(3) / 3))
        md = modular_operators(psi)
        assert np.allclose(delta_matrix(md), np.eye(9), atol=1e-12)

    def test_delta_spectrum_two_thirds(self):
        psi = purify(DensityMatrix.from_matrix(np.diag([2 / 3, 1 / 3])))
        md = modular_operators(psi)
        assert np.allclose(sorted(md.delta_eigenvalues), [0.5, 1.0, 1.0, 2.0])

    def test_delta_spectrum_is_ratio_multiset(self):
        psi, _ = make_state(5, 11)
        md = modular_operators(psi)
        lam = psi.schmidt_values
        expected = np.sort((lam[:, None] / lam[None, :]).reshape(-1))
        assert np.allclose(np.sort(md.delta_eigenvalues), expected, rtol=1e-12)

    def test_vacuum_invariance(self):
        for seed in range(5):
            psi, _ = make_state(4, seed)
            md = modular_operators(psi)
            v0 = purified_vector(psi)
            assert np.linalg.norm(md.apply_delta(v0) - v0) < 1e-12
            assert np.linalg.norm(md.apply_conjugation(v0) - v0) < 1e-12

    def test_conjugation_involution_and_delta_inversion(self):
        psi, rng = make_state(4, 7)
        md = modular_operators(psi)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        jjx = md.apply_conjugation(md.apply_conjugation(x))
        assert np.linalg.norm(jjx - x) < 1e-12 * np.linalg.norm(x)
        # J Delta J = Delta^{-1}
        jdj = md.apply_conjugation(md.apply_delta(md.apply_conjugation(x)))
        inv = md.apply_delta(x, power=-1.0)
        assert np.linalg.norm(jdj - inv) < 1e-10 * np.linalg.norm(inv)

    def test_dense_matrices_match_coefficient_route(self):
        psi, rng = make_state(3, 2)
        md = modular_operators(psi)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.allclose(delta_matrix(md) @ x, md.apply_delta(x), atol=1e-11)
        assert np.allclose(conjugation_matrix(md) @ x.conj(),
                           md.apply_conjugation(x), atol=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conjugation_antiunitary(self, seed):
        psi, rng = make_state(3, seed % 17)
        md = modular_operators(psi)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        lhs = np.vdot(md.apply_conjugation(x), md.apply_conjugation(y))
        assert abs(lhs - np.conj(np.vdot(x, y))) < 1e-10


class TestTomitaRelation:

    def test_identity_operator_residual_zero(self):
        psi, _ = make_state(4, 0)
        md = modular_operators(psi)
        lhs = md.apply_conjugation(md.apply_delta(
            _apply_first_factor(psi, np.eye(4)), power=0.5))
        rhs = _apply_first_factor(psi, np.eye(4))
        assert np.linalg.norm(lhs - rhs) < 1e-13

    def test_projector_on_maximally_mixed(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        md = modular_operators(psi)
        rep = check_tomita_relation(psi, md, trials=20,
                                    rng=np.random.default_rng(1), tol=1e-12)
        assert rep.passed and rep.max_residual <= 1e-12

    def test_hundred_random_operators(self):
        psi, rng = make_state(4, 9)
        md = modular_operators(psi)
        rep = check_tomita_relation(psi, md, trials=100, rng=rng, tol=1e-10)
        assert rep.passed, rep.failures[:1]

    def test_failure_carries_operator(self):
        psi, rng = make_state(3, 5)
        md = modular_operators(psi)
        rep = check_tomita_relation(psi, md, trials=5, rng=rng, tol=1e-30)
        assert not rep.passed
        assert "operator_re" in rep.failures[0]


class TestReflectOperator:

    def test_identity_reflects_to_identity(self):
        psi, _ = make_state(3, 4)
        md = modular_operators(psi)
        assert np.allclose(reflect_operator(md, np.eye(3)), np.eye(3), atol=1e-12)

    def test_reflection_positivity(self):
        for seed in range(10):
            psi, rng = make_state(3, seed)
            md = modular_operators(psi)
            op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            val = doubled_overlap(psi, op, reflect_operator(md, op))
            norm_sq = np.linalg.norm(op) ** 2
            assert val.real >= -3 * 1e-12 * norm_sq
            assert abs(val.imag) <= 1e-12 * norm_sq

    def test_two_route_overlap_agreement(self):
        psi, rng = make_state(4, 8)
        md = modular_operators(psi)
        op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s_direct = doubled_overlap(psi, op, reflect_operator(md, op))
        s_modular = half_sided_overlap(psi, md, op)
        assert abs(s_direct - s_modular) < 1e-10 * max(1.0, abs(s_direct))

    def test_reflected_operator_matches_full_conjugation(self):
        # J (O x 1) J computed densely equals 1 x reflect_operator(O)
        psi, rng = make_state(3, 12)
        md = modular_operators(psi)
        op = random_operator(3, rng)
        mj = conjugation_matrix(md)
        full = mj @ np.kron(op, np.eye(3)).conj() @ mj.conj()
        assert np.allclose(full, np.kron(np.eye(3), reflect_operator(md, op)),
                           atol=1e-11)
