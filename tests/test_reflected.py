import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpentropy.modular import DensityMatrix, InvalidStateError, PurifiedState, purify
from rpentropy.positivity import entropy_table
from rpentropy.reflected import (UNITARITY_TOL, ReflectedDensity, SubsystemSplit,
                                 _check_pair_traces, _check_unitary, _combine, _entropies,
                                 _gram_eigenvalues, _gram_traces, _pair_gram, _pair_matrix,
                                 _pair_operands, reflected_density, renyi_entropy,
                                 twist_operators, von_neumann)
from rpentropy.sampling import ginibre, haar_unitary, random_density, unitary_from_ginibre

from oracles import (brute_force_reflected, hilbert_schmidt_mass, marginals,
                     mutual_information, reconstructed_trace, swapped)


def _checked_gram(schmidt_values, mat_i, mat_j, dims_i, dims_j):
    """Pair Gram matrices of a stack of pairs as the package builds them:
    the weighted operands (`_pair_operands`), the build (`_pair_gram`), then
    the unit-trace gate (`_check_pair_traces`)."""
    m = _pair_gram(*_pair_operands(schmidt_values, mat_i, mat_j), dims_i, dims_j)
    _check_pair_traces(np.trace(m, axis1=-2, axis2=-1).real)
    return m


def _pair_traces(schmidt_values, mat_i, mat_j, dims_i, dims_j, n_values):
    """tr rho^n of a stack of pairs as the package takes it: the checked
    pair Gram build, then the trace-power reduction (`_gram_traces`)."""
    return _gram_traces(_checked_gram(schmidt_values, mat_i, mat_j, dims_i, dims_j), n_values)


def _pair_spectrum(schmidt_values, mat_i, mat_j, dims_i, dims_j):
    """Spectra of a stack of pairs as the package takes them: the checked
    pair Gram build, then its eigenvalues (`_gram_eigenvalues`)."""
    return _gram_eigenvalues(_checked_gram(schmidt_values, mat_i, mat_j, dims_i, dims_j))


def pair_spectrum(psi, split_i, split_j):
    """`_pair_spectrum` of one state and one pair of splits."""
    return _pair_spectrum(psi.schmidt_values, split_i.matrix, split_j.matrix,
                          (split_i.dim_a, split_i.dim_b), (split_j.dim_a, split_j.dim_b))


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

    def test_one_non_unitary_in_a_stack_raises(self):
        rng = np.random.default_rng(12)
        stack = np.array([haar_unitary(6, rng) for _ in range(4)])
        _check_unitary(stack)
        stack[2, 0, 0] += 1e-8
        with pytest.raises(InvalidStateError, match="orthonormality"):
            _check_unitary(stack)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_raise(self, bad):
        coeffs = np.eye(4, dtype=complex)
        coeffs[1, 2] = bad
        with pytest.raises(InvalidStateError, match="orthonormality"):
            SubsystemSplit(dim_a=2, dim_b=2, coeffs=coeffs)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 16), st.floats(-14.0, -8.0), st.integers(0, 2 ** 32 - 1))
    def test_one_sided_check_bounds_both_sides(self, d, log_norm, seed):
        # U + E with ||E||_F = 10^log_norm: whatever passes the U U^dag check
        # at UNITARITY_TOL / d also has U^dag U within UNITARITY_TOL
        rng = np.random.default_rng(seed)
        e = ginibre(d, rng)
        v = haar_unitary(d, rng) + 10.0 ** log_norm * e / np.linalg.norm(e)
        try:
            _check_unitary(v)
        except InvalidStateError:
            # entries of V V^dag - 1 are at most 2 ||E|| + ||E||^2 + roundoff
            assert 10.0 ** log_norm > 2e-12
            return
        eye = np.eye(d)
        assert np.abs(v @ v.conj().T - eye).max() <= UNITARITY_TOL
        assert np.abs(v.conj().T @ v - eye).max() <= UNITARITY_TOL

    def test_stacked_haar_step_equals_single_draws(self):
        # one stacked Ginibre draw reads the stream as consecutive single
        # draws do, and the stacked QR and phase fix act matrix by matrix
        first, second = np.random.default_rng(3), np.random.default_rng(3)
        singles = [haar_unitary(4, first) for _ in range(5)]
        stacked = unitary_from_ginibre(ginibre(4, second, (5,)))
        assert all(np.array_equal(u, v) for u, v in zip(singles, stacked))
        assert first.standard_normal() == second.standard_normal()

    def test_swapped_swaps_factors(self):
        rng = np.random.default_rng(0)
        split = SubsystemSplit.haar(2, 3, rng)
        other = swapped(split)
        assert (other.dim_a, other.dim_b) == (3, 2)
        assert np.allclose(other.coeffs, split.coeffs.transpose(0, 2, 1))


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
        assert np.isfinite(hilbert_schmidt_mass(ops))
        assert reconstructed_trace(ops) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        with pytest.raises(InvalidStateError, match="dimension"):
            twist_operators(psi, SubsystemSplit.axis(2, 3))


class TestReflectedDensity:

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("matrix, message", [
        (np.eye(3) / 3, "expected shape"),
        (np.eye(4) / 4 + 1e-9 * np.eye(4, k=1), "not Hermitian"),
        (np.diag([0.6, 0.6, -0.1, -0.1]), "negative eigenvalue"),
        (np.eye(4) / 4 * (1 + 1e-6), "trace 1.000001"),
        (np.diag([np.nan, 0.5, 0.25, 0.25]), "not Hermitian"),
        (np.diag([np.inf, 0.5, 0.25, 0.25]), "not Hermitian"),
    ], ids=["shape", "hermitian", "psd", "trace", "nan", "inf"])
    def test_invariant_gates_raise(self, matrix, message):
        with pytest.raises(InvalidStateError, match=message):
            ReflectedDensity(matrix=matrix, dim_i=2, dim_j=2)

    def test_eigenvalues_are_computed_not_passed(self):
        matrix = np.diag([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(TypeError):
            ReflectedDensity(matrix=matrix, dim_i=2, dim_j=2, eigenvalues=np.full(4, 0.25))
        assert np.allclose(ReflectedDensity(matrix=matrix, dim_i=2, dim_j=2).eigenvalues,
                           [0.1, 0.2, 0.3, 0.4])

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
        rd_comp = reflected_density(psi, axis, swapped(axis))
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

    def test_rank_deficient_spectra_clip_to_zero(self):
        # identity 8x2 splits make M = X^dag X of rank 2 in 4 entries, with two
        # zero rows; eigvalsh returns their eigenvalues as roundoff of either
        # sign, and the kernel clips the negative ones to 0
        rng = np.random.default_rng(3)
        lam = np.sort(rng.dirichlet(np.ones(16), size=40))[:, ::-1]
        mats = np.broadcast_to(SubsystemSplit.axis(8, 2).matrix, (40, 16, 16))
        eigs = _pair_spectrum(lam, mats, mats, (8, 2), (8, 2))
        assert eigs.shape == (40, 4) and eigs.min() >= 0.0
        assert (eigs[:, :2] <= 4 * np.finfo(float).eps).all() and (eigs[:, 2:] > 0).all()

    def test_trace_check_rejects_tampered_spectrum(self):
        rng = np.random.default_rng(5)
        psi = haar_state(4, rng)
        tampered = PurifiedState(dim=4, schmidt_values=psi.schmidt_values * (1 + 1e-6),
                                 eigenbasis=psi.eigenbasis)
        split = SubsystemSplit.haar(2, 2, rng)
        with pytest.raises(InvalidStateError, match="reflected density trace 1.000001"):
            reflected_density(tampered, split, split)
        with pytest.raises(InvalidStateError, match="pair spectrum sums to 1.000001"):
            entropy_table(tampered, [split, split], 2)

    def test_dimension_mismatch(self):
        psi = purify(DensityMatrix.from_matrix(np.eye(4) / 4))
        with pytest.raises(InvalidStateError, match="dimension"):
            reflected_density(psi, SubsystemSplit.axis(2, 2), SubsystemSplit.axis(2, 3))
        with pytest.raises(InvalidStateError, match="dimension"):
            entropy_table(psi, [SubsystemSplit.axis(2, 2), SubsystemSplit.axis(2, 3)], 2)

    def test_stacked_spectra_equal_per_pair_calls(self):
        # a stack of states and splits goes through one call per kernel step,
        # and each entry must come out exactly as its own call would
        rng = np.random.default_rng(606)
        states = [haar_state(6, rng) for _ in range(5)]
        pairs = [(SubsystemSplit.haar(2, 3, rng), SubsystemSplit.haar(3, 2, rng))
                 for _ in states]
        stacked = _pair_spectrum(np.array([p.schmidt_values for p in states]),
                                 np.array([si.matrix for si, _ in pairs]),
                                 np.array([sj.matrix for _, sj in pairs]), (2, 3), (3, 2))
        assert stacked.shape == (5, 6)
        for k, (psi, (si, sj)) in enumerate(zip(states, pairs)):
            assert np.array_equal(stacked[k], pair_spectrum(psi, si, sj))

    def test_stacked_trace_check_names_the_bad_entry(self):
        rng = np.random.default_rng(7)
        lam = np.array([haar_state(4, rng).schmidt_values for _ in range(3)])
        lam[1] *= 1 + 1e-6
        mats = np.array([haar_unitary(4, rng) for _ in range(3)])
        with pytest.raises(InvalidStateError, match="sums to 1.000001"):
            _pair_spectrum(lam, mats, mats, (2, 2), (2, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([((2, 8), (8, 2)), ((8, 2), (2, 8)), ((4, 2), (4, 2)),
                            ((2, 4), (2, 4)), ((4, 2), (2, 4)), ((8, 2), (8, 2)),
                            ((2, 3), (3, 2)), ((2, 2), (2, 2))]),
           st.floats(0.0, 12.0), st.integers(0, 2 ** 32 - 1))
    def test_von_neumann_matches_an_svd_oracle(self, dims, decades, seed):
        # S_1 from eigvalsh of the pair Gram matrix against S_1 from the
        # squared singular values of the pair matrix itself, square (2x8
        # with 8x2) and not (4x2 with 4x2: 16 x 4; 2x4 with 2x4: 4 x 16),
        # Schmidt spectra spread over up to 12 decades, a stack of three.
        # An eigenvalue error of k eps moves S by up to k eps (1 + |log eps|)
        dims_i, dims_j = dims
        rng = np.random.default_rng(seed)
        d = dims_i[0] * dims_i[1]
        lam = np.sort(np.logspace(0, -decades, d) * rng.uniform(0.5, 1.0, (3, d)))[:, ::-1]
        lam /= lam.sum(axis=-1, keepdims=True)
        mat_i = np.array([haar_unitary(d, rng) for _ in range(3)])
        mat_j = np.array([haar_unitary(d, rng) for _ in range(3)])
        eigs = _pair_spectrum(lam, mat_i, mat_j, dims_i, dims_j)
        k = min(dims_i[0] * dims_j[0], dims_i[1] * dims_j[1])
        assert eigs.shape == (3, k) and eigs.min() >= 0.0
        x = _pair_matrix(*_pair_operands(lam, mat_i, mat_j), dims_i, dims_j)
        oracle = _entropies(np.linalg.svd(x, compute_uv=False) ** 2, 1)
        entropy = _entropies(eigs, 1)
        eps = np.finfo(float).eps
        tol = k * eps * (1 + abs(np.log(eps))) * np.maximum(1.0, np.abs(oracle))
        assert np.all(np.abs(entropy - oracle) <= tol)

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


class TestPairTraces:

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([((2, 2), (2, 2)), ((2, 3), (3, 2)), ((2, 8), (8, 2)),
                            ((8, 8), (8, 8)), ((16, 4), (4, 16)), ((16, 4), (16, 4)),
                            ((8, 8), (16, 4))]),
           st.floats(0.0, 12.0), st.integers(0, 2 ** 32 - 1))
    def test_trace_powers_match_spectrum_power_sums(self, dims, decades, seed):
        # Schmidt spectra spread over up to 12 decades, a stack of three
        # pairs, n = 1..9: products of the pair matrix against the power sums
        # of a test-only oracle, the squared singular values of the pair matrix
        dims_i, dims_j = dims
        rng = np.random.default_rng(seed)
        d = dims_i[0] * dims_i[1]
        lam = np.sort(np.logspace(0, -decades, d) * rng.uniform(0.5, 1.0, (3, d)))[:, ::-1]
        lam /= lam.sum(axis=-1, keepdims=True)
        mat_i = np.array([haar_unitary(d, rng) for _ in range(3)])
        mat_j = np.array([haar_unitary(d, rng) for _ in range(3)])
        n_values = list(range(1, 10))
        traces = _pair_traces(lam, mat_i, mat_j, dims_i, dims_j, n_values)
        assert traces.shape == (9, 3)
        x = _pair_matrix(*_pair_operands(lam, mat_i, mat_j), dims_i, dims_j)
        eigs = np.linalg.svd(x, compute_uv=False) ** 2
        for n, values in zip(n_values, traces):
            expected = np.sum(eigs ** n, axis=-1)
            tol = 8 * n * d * np.finfo(float).eps
            assert np.all(np.abs(values - expected) <= tol * expected)

    def test_stacked_traces_equal_per_pair_calls(self):
        rng = np.random.default_rng(707)
        n_values = [2, 1, 5, 3, 8]
        for dims_i, dims_j in (((2, 3), (3, 2)), ((8, 2), (8, 2)), ((2, 8), (4, 4))):
            d = dims_i[0] * dims_i[1]
            lam = np.array([haar_state(d, rng).schmidt_values for _ in range(5)])
            mat_i = np.array([haar_unitary(d, rng) for _ in range(5)])
            mat_j = np.array([haar_unitary(d, rng) for _ in range(5)])
            stacked = _pair_traces(lam, mat_i, mat_j, dims_i, dims_j, n_values)
            assert stacked.shape == (5, 5)
            for k in range(5):
                single = _pair_traces(lam[k], mat_i[k], mat_j[k], dims_i, dims_j, n_values)
                assert np.array_equal(stacked[:, k], single)

    def test_empty_indices(self):
        rng = np.random.default_rng(8)
        lam = np.array([haar_state(6, rng).schmidt_values for _ in range(4)])
        mats = np.array([haar_unitary(6, rng) for _ in range(4)])
        assert _pair_traces(lam, mats, mats, (2, 3), (3, 2), []).shape == (0, 4)
        assert _pair_traces(lam[0], mats[0], mats[0], (2, 3), (3, 2), []).shape == (0,)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_traces_raise(self, bad):
        rng = np.random.default_rng(10)
        lam = np.array([haar_state(4, rng).schmidt_values for _ in range(3)])
        lam[1, 2] = bad
        mats = np.array([haar_unitary(4, rng) for _ in range(3)])
        with pytest.raises(InvalidStateError, match="pair spectrum sums to"):
            _pair_spectrum(lam, mats, mats, (2, 2), (2, 2))
        with pytest.raises(InvalidStateError, match="pair spectrum sums to"):
            _pair_traces(lam, mats, mats, (2, 2), (2, 2), [2, 3])

    def test_non_unitary_split_raises_the_trace_error(self):
        rng = np.random.default_rng(9)
        lam = haar_state(4, rng).schmidt_values
        mat = haar_unitary(4, rng)
        with pytest.raises(InvalidStateError, match="sums to 1.0201"):
            _pair_traces(lam, 1.01 * mat, mat, (2, 2), (2, 2), [2])

    def test_underflowing_trace_power_raises(self):
        # the maximally mixed 2x2 pair has tr rho^n = 4^(1 - n): 1/4 at n = 2,
        # 4^-599 ~ 1e-361 at n = 600, below the smallest normal float, where
        # -log(tr rho^n) / (n - 1) would read inf
        lam = np.full(4, 0.25)
        axis = SubsystemSplit.axis(2, 2)
        pair = (lam, axis.matrix, swapped(axis).matrix, (2, 2), (2, 2))
        assert _pair_traces(*pair, [2])[0] == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(InvalidStateError, match=r"tr rho\^600 = .*trace power vanished"):
            _pair_traces(*pair, [2, 600])
        stacked = [np.stack([array, array]) for array in pair[:3]]
        with pytest.raises(InvalidStateError, match="trace power vanished"):
            _pair_traces(*stacked, (2, 2), (2, 2), [600])


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectra_raise(self, bad):
        # renyi_entropy([nan, 0.5], 2) once returned 1.386
        for n in (1, 2, 3):
            with pytest.raises(InvalidStateError, match="non-finite"):
                renyi_entropy(np.array([bad, 0.5]), n)
        with pytest.raises(InvalidStateError, match="non-finite"):
            von_neumann(np.array([0.5, bad]))
        eigs = np.full((3, 4), 0.25)
        eigs[1, 3] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            _entropies(eigs, 2)

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

    def test_stacked_entropies_equal_per_spectrum_calls(self):
        # exact zeros are masked per row, also in rows of 8 and more, where
        # they would change numpy's pairwise summation if they were dropped
        rng = np.random.default_rng(12)
        for k in (4, 9, 16):
            eigs = rng.dirichlet(np.ones(k), size=(5, 3))
            eigs[eigs < 0.5 / k] = 0.0
            assert (eigs == 0).any()
            for n in (1, 2, 3):
                stacked = _entropies(eigs, n)
                assert stacked.shape == (5, 3)
                for row, value in zip(eigs.reshape(-1, k), stacked.ravel()):
                    single = von_neumann(row) if n == 1 else renyi_entropy(row, n)
                    assert value == single

    def test_stacked_entropy_checks(self):
        eigs = np.full((3, 4), 0.25)
        eigs[2] = [1.0, 0.0, 0.0, -1e-9]
        with pytest.raises(InvalidStateError, match="negative eigenvalue"):
            _entropies(eigs, 2)
        eigs[2] = 0.0
        with pytest.raises(InvalidStateError, match="no positive eigenvalues"):
            _entropies(eigs, 3)
        assert _entropies(eigs, 1)[2] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=24),
           st.lists(st.booleans(), min_size=24, max_size=24), st.integers(2, 6))
    def test_log_sum_exp_matches_scipy(self, exponents, zeros, n):
        # spectra down to 1e-12, with exact zeros: the numpy kernel against
        # scipy's logsumexp over the positive eigenvalues
        from scipy.special import logsumexp
        lam = 10.0 ** np.array(exponents)
        lam[np.array(zeros[:lam.size]) & (np.arange(lam.size) > 0)] = 0.0
        lam = lam / lam.sum()
        positive = lam[lam > 0]
        expected = -logsumexp(n * np.log(positive)) / (n - 1)
        assert renyi_entropy(lam, n) == pytest.approx(expected, rel=1e-13, abs=1e-15)
        assert von_neumann(lam) == pytest.approx(-np.sum(positive * np.log(positive)),
                                                 rel=1e-13, abs=1e-15)
