import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy.modular import DensityMatrix, InvalidStateError, PurifiedState, purify
from rpentropy.reflected import (ReflectedDensity, SubsystemSplit, _combine,
                                 brute_force_reflected, marginals, mutual_information,
                                 pair_spectrum, reflected_density, renyi_entropy,
                                 twist_operators, von_neumann)
from rpentropy.sampling import haar_unitary, random_density

SPLIT_CHOICES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6), (4, 3)]


def random_instance(seed, max_dim=12):
    rng = np.random.default_rng(seed)
    choices = [c for c in SPLIT_CHOICES if c[0] * c[1] <= max_dim]
    d_a, d_b = choices[int(rng.integers(len(choices)))]
    d = d_a * d_b
    psi = purify(DensityMatrix.from_matrix(random_density(d, rng)))
    pool = [c for c in SPLIT_CHOICES if c[0] * c[1] == d]
    si = SubsystemSplit.haar(*pool[int(rng.integers(len(pool)))], rng, label="A")
    sj = SubsystemSplit.haar(*pool[int(rng.integers(len(pool)))], rng, label="B")
    return psi, si, sj, rng


class TestSubsystemSplit:

    def test_axis_split_is_unitary(self):
        split = SubsystemSplit.axis(2, 3)
        assert split.dim == 6
        assert np.allclose(split.matrix, np.eye(6))

    def test_rejects_non_unitary(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(InvalidStateError, match="orthonormality"):
            SubsystemSplit(dim_a=2, dim_b=2, coeffs=bad)

    def test_swapped_swaps_factors(self):
        rng = np.random.default_rng(0)
        split = SubsystemSplit.haar(2, 3, rng)
        swapped = split.swapped()
        assert (swapped.dim_a, swapped.dim_b) == (3, 2)
        assert np.allclose(swapped.coeffs, split.coeffs.transpose(0, 2, 1))


class TestTwistOperators:

    def test_trivial_split_gives_elementary_matrices(self):
        psi = purify(DensityMatrix.from_matrix(np.diag([2 / 3, 1 / 3])))
        ops = twist_operators(psi, SubsystemSplit.axis(2, 1))
        lam = psi.schmidt_values
        for p in range(2):
            for q in range(2):
                expected = (lam[p] * lam[q]) ** 0.25 * np.outer(np.eye(2)[p], np.eye(2)[q])
                assert np.allclose(ops.operators[p, q], expected, atol=1e-14)

    def test_maximally_mixed_prefactor_one_half(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        ops = twist_operators(psi, SubsystemSplit.axis(2, 2))
        # every operator is (1/16)^{1/4} = 1/2 times a coefficient contraction
        assert np.abs(ops.operators).max() == pytest.approx(0.5, abs=1e-14)

    def test_mass_and_trace_reconstruction(self):
        psi, si, _, _ = random_instance(21)
        ops = twist_operators(psi, si)
        assert np.isfinite(ops.hilbert_schmidt_mass())
        assert ops.reconstructed_trace() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        with pytest.raises(InvalidStateError, match="dimension"):
            twist_operators(psi, SubsystemSplit.axis(2, 3))


class TestReflectedDensity:

    def test_oracle_agreement(self):
        for seed in range(30):
            psi, si, sj, _ = random_instance(seed)
            direct = reflected_density(psi, si, sj)
            brute = brute_force_reflected(psi, si, sj)
            assert np.linalg.norm(direct.matrix - brute.matrix) <= 1e-10

    def test_invariants_hold(self):
        psi, si, sj, _ = random_instance(99)
        rd = reflected_density(psi, si, sj)
        assert np.allclose(rd.matrix, rd.matrix.conj().T)
        assert rd.eigenvalues.min() >= -1e-12
        assert rd.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)

    def test_entropy_symmetry(self):
        for seed in range(10):
            psi, si, sj, _ = random_instance(seed + 500)
            rd_ij = reflected_density(psi, si, sj)
            rd_ji = reflected_density(psi, sj, si)
            for n in (1, 2, 3):
                assert abs(renyi_entropy(rd_ij, n) - renyi_entropy(rd_ji, n)) <= 1e-9

    def test_purification_independence(self):
        # a rotated H2 basis changes every intermediate tensor but no entropy
        for seed in range(10):
            psi, si, sj, rng = random_instance(seed + 900)
            canonical = brute_force_reflected(psi, si, sj)
            rotated = brute_force_reflected(psi, si, sj,
                                            h2_basis=haar_unitary(psi.dim, rng))
            for n in (1, 2, 4):
                assert abs(renyi_entropy(canonical, n)
                           - renyi_entropy(rotated, n)) <= 1e-9

    def test_full_split_purity(self):
        # A = all of H1: the reflected density is the purified projector itself
        psi, _, _, _ = random_instance(3)
        d = psi.dim
        full = SubsystemSplit.axis(d, 1)
        rd = reflected_density(psi, full, full)
        lam = psi.schmidt_values
        expected_vec = np.zeros(d * d)
        expected_vec[:: d + 1] = np.sqrt(lam)
        assert np.linalg.norm(rd.matrix - np.outer(expected_vec, expected_vec)) <= 1e-12
        # trace powers of a pure state are all one
        for n in (2, 3, 5):
            assert np.sum(rd.eigenvalues ** n) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_identity_splits(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        axis = SubsystemSplit.axis(2, 2)
        # same subsystem: perfectly correlated pair, hence a pure state
        rd_same = reflected_density(psi, axis, axis)
        assert np.sort(rd_same.eigenvalues)[-1] == pytest.approx(1.0, abs=1e-12)
        assert renyi_entropy(rd_same, 2) == pytest.approx(0.0, abs=1e-10)
        # complementary subsystem: maximal mixing propagates
        rd_comp = reflected_density(psi, axis, axis.swapped())
        assert np.allclose(rd_comp.matrix, np.eye(4) / 4, atol=1e-12)
        for n in (2, 3):
            assert renyi_entropy(rd_comp, n) == pytest.approx(2 * np.log(2), abs=1e-10)

    def test_brute_force_rejects_bad_h2_basis(self):
        psi, si, sj, _ = random_instance(7)
        with pytest.raises(InvalidStateError, match="unitary"):
            brute_force_reflected(psi, si, sj, h2_basis=np.ones((psi.dim, psi.dim)))

    def test_marginals_are_states(self):
        psi, si, sj, _ = random_instance(31)
        rd = reflected_density(psi, si, sj)
        rho_i, rho_j = marginals(rd)
        assert np.trace(rho_i) == pytest.approx(1.0, abs=1e-10)
        assert np.trace(rho_j) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho_i).min() >= -1e-12


def haar_state(d, rng):
    lam = rng.dirichlet(np.ones(d))
    return PurifiedState(dim=d, schmidt_values=np.sort(lam)[::-1],
                         eigenbasis=haar_unitary(d, rng))


class TestPairSpectrum:

    # mixed shapes, and 8x2 with 8x2, where a_i a_j = 64 > b_i b_j = 4 leaves
    # rho_{A_i Abar_j} with rank at most 4
    @pytest.mark.parametrize("dims_i, dims_j", [((2, 8), (8, 2)), ((8, 2), (2, 8)),
                                                ((8, 2), (8, 2)), ((4, 4), (2, 8)),
                                                ((2, 3), (3, 2)), ((3, 3), (3, 3))])
    def test_matches_twist_and_brute_force_oracles(self, dims_i, dims_j):
        rng = np.random.default_rng(dims_i[0] * 10 + dims_j[0])
        psi = haar_state(dims_i[0] * dims_i[1], rng)
        si, sj = SubsystemSplit.haar(*dims_i, rng), SubsystemSplit.haar(*dims_j, rng)
        spectrum = pair_spectrum(psi, si, sj)
        assert spectrum.size == min(dims_i[0] * dims_j[0], dims_i[1] * dims_j[1])
        assert spectrum.min() >= 0.0
        padded = np.sort(np.pad(spectrum, (0, dims_i[0] * dims_j[0] - spectrum.size)))
        for oracle in (_combine(twist_operators(psi, si), twist_operators(psi, sj)),
                       brute_force_reflected(psi, si, sj)):
            assert np.max(np.abs(padded - oracle.eigenvalues)) <= 1e-13
            for n in (1, 2, 3):
                assert renyi_entropy(spectrum, n) == pytest.approx(
                    renyi_entropy(oracle, n), rel=1e-11, abs=1e-13)

    def test_trace_check_rejects_tampered_spectrum(self):
        rng = np.random.default_rng(5)
        psi = haar_state(4, rng)
        tampered = PurifiedState(dim=4, schmidt_values=psi.schmidt_values * (1 + 1e-6),
                                 eigenbasis=psi.eigenbasis)
        split = SubsystemSplit.haar(2, 2, rng)
        with pytest.raises(InvalidStateError, match="sums to"):
            pair_spectrum(tampered, split, split)

    def test_dimension_mismatch(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        with pytest.raises(InvalidStateError, match="dimension"):
            pair_spectrum(psi, SubsystemSplit.axis(2, 2), SubsystemSplit.axis(2, 3))

    def test_reflected_density_at_d256(self):
        # the twist route needs 268 MB per split here and the brute-force
        # oracle a d^2 x d^2 projector, so the check is the marginals:
        # tracing out Abar_j leaves rho_{A_i} = sum_p lam_p C_i[p] C_i[p]^dag,
        # and tracing out A_i leaves its conjugate for split j
        rng = np.random.default_rng(256)
        psi = haar_state(256, rng)
        si, sj = SubsystemSplit.haar(16, 16, rng), SubsystemSplit.haar(16, 16, rng)
        rd = reflected_density(psi, si, sj)
        assert rd.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(np.sort(pair_spectrum(psi, si, sj)) - rd.eigenvalues)) <= 1e-13
        lam = psi.schmidt_values
        rho_i, rho_j = marginals(rd)
        for rho, split, conj in ((rho_i, si, False), (rho_j, sj, True)):
            expected = np.einsum("p,pkl,pml->km", lam, split.coeffs, split.coeffs.conj())
            assert np.max(np.abs(rho - (expected.conj() if conj else expected))) <= 1e-13


class TestEntropies:

    def test_renyi_maximally_mixed(self):
        assert renyi_entropy(np.diag([0.5, 0.5]), 2) == pytest.approx(np.log(2), abs=1e-12)

    def test_renyi_pure_limit(self):
        for n in (2, 3, 7):
            assert renyi_entropy(np.diag([1.0, 0.0, 0.0]), n) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_two_thirds_n3(self):
        # (2/3)^3 + (1/3)^3 = 1/3
        assert renyi_entropy(np.diag([2 / 3, 1 / 3]), 3) == pytest.approx(
            np.log(3) / 2, abs=1e-12)

    def test_spectrum_input_matches_matrix_input(self):
        lam = np.array([0.6, 0.3, 0.1, 0.0])
        for n in (1, 2, 4):
            assert renyi_entropy(lam, n) == pytest.approx(renyi_entropy(np.diag(lam), n),
                                                          abs=1e-14)

    def test_renyi_routes_to_von_neumann(self):
        rho = np.diag([0.7, 0.3])
        assert renyi_entropy(rho, 1) == pytest.approx(von_neumann(rho), abs=1e-14)

    def test_renyi_rejects_bad_index(self):
        with pytest.raises(ValueError):
            renyi_entropy(np.diag([1.0]), 0)

    def test_von_neumann_values(self):
        assert von_neumann(np.diag([0.5, 0.5])) == pytest.approx(np.log(2), abs=1e-12)
        expected = (2 / 3) * np.log(3 / 2) + (1 / 3) * np.log(3)
        assert von_neumann(np.diag([2 / 3, 1 / 3])) == pytest.approx(expected, abs=1e-12)

    def test_von_neumann_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            von_neumann(np.diag([1.1, -0.1]))

    def test_product_state_mutual_information(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(2, rng)
        rho_b = random_density(3, rng)
        joint = np.kron(rho_a, rho_b)
        mi = mutual_information(von_neumann(rho_a), von_neumann(rho_b), von_neumann(joint))
        assert abs(mi) <= 1e-10

    def test_underflow_safe_trace_power(self):
        # eigenvalues small enough that lam^n underflows in linear space
        lam = np.array([1 - 3e-300, 1e-300, 1e-300, 1e-300])
        lam = lam / lam.sum()
        val = renyi_entropy(np.diag(lam), 5)
        assert np.isfinite(val) and val >= 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
           st.integers(2, 5))
    def test_renyi_matches_direct_power_sum(self, weights, n):
        lam = np.array(weights) / np.sum(weights)
        direct = -np.log(np.sum(lam ** n)) / (n - 1)
        assert renyi_entropy(np.diag(lam), n) == pytest.approx(direct, rel=1e-10)
