import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_tensor, loop_reduced_density, random_state
from hyperstate import (
    DENSE_CAP,
    PAPER_STATE_NAMES,
    RankReport,
    Subsystem,
    make_state,
    norm,
    numerical_rank,
    paper_state,
    rank_tolerance,
    reduced_density,
    schmidt_decompose,
    unfold,
)

R2 = 1.0 / math.sqrt(2.0)
R3 = 1.0 / math.sqrt(3.0)

# Exact spectrum of the two-qubit three-term state: the squared Schmidt
# weights solve t^2 - t + 1/9 = 0.
HARDY2_EIGS = ((3.0 + math.sqrt(5.0)) / 6.0, (3.0 - math.sqrt(5.0)) / 6.0)


class TestRankPolicy:
    def test_tolerance_formula(self):
        assert rank_tolerance(4, 1.0) == 4 * 2.0 ** -52 * 64
        assert rank_tolerance(3, 2.0) == 2.0 * rank_tolerance(3, 1.0)
        assert rank_tolerance(10, 0.0) == 0.0

    def test_exact_ranks(self):
        m = np.diag([1.0, 1e-2, 0.0])
        rep = numerical_rank(m)
        assert rep.rank == 2
        assert rep.min_kept == pytest.approx(1e-2)
        assert rep.max_dropped == 0.0
        assert not rep.tied

    def test_explicit_tolerance_and_tie_flag(self):
        m = np.diag([1.0, 1e-8])
        rep = numerical_rank(m, tol=1.5e-8)
        assert rep.rank == 1
        assert rep.tied  # 1e-8 sits within a factor of two of the cutoff
        rep = numerical_rank(m, tol=1e-3)
        assert rep.rank == 1
        assert not rep.tied

    def test_empty_and_shape_errors(self):
        rep = numerical_rank(np.zeros((2, 2)))
        assert rep == RankReport(rank=0, min_kept=0.0, max_dropped=0.0, threshold=0.0, tied=False)
        with pytest.raises(ValueError):
            numerical_rank(np.zeros(3))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(1, 6))
    def test_rank_of_crafted_matrix(self, seed, d, r):
        r = min(r, d)
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        w = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        sigma = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
        m = (q[:, :r] * sigma) @ w[:, :r].conj().T
        assert numerical_rank(m).rank == r


class TestOneRankRule:
    """Schmidt reports are the rank rule applied to the returned coefficients."""

    @pytest.mark.parametrize("name", PAPER_STATE_NAMES)
    def test_report_reads_the_coefficients(self, name):
        v = paper_state(name)
        for nsel in range(1, v.nfactors):
            for sel in itertools.combinations(range(v.nfactors), nsel):
                sd = schmidt_decompose(v, sel)
                c, rep = sd.coeffs, sd.rank_report
                side = max(math.prod(sd.part_dims), math.prod(sd.complement_dims))
                assert rep.threshold == rank_tolerance(side, c[0])
                assert rep.rank == sd.rank == int(np.count_nonzero(c > rep.threshold))
                assert rep.min_kept == (c[sd.rank - 1] if sd.rank else 0.0)
                assert rep.max_dropped == (c[sd.rank] if sd.rank < c.size else 0.0)

    def test_one_svd_per_decomposition(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        schmidt_decompose(paper_state("hardy3"), 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), True, "0.1", 1j])
    def test_bad_tol_refused(self, tol):
        v = paper_state("spin1_two_term")
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            schmidt_decompose(v, 0, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            numerical_rank(np.eye(2), tol)

    def test_zero_tol_counts_every_positive_value(self):
        rep = numerical_rank(np.diag([1.0, 1e-300, 0.0]), tol=0)
        assert (rep.rank, rep.threshold, rep.min_kept, rep.max_dropped) == (2, 0.0, 1e-300, 0.0)
        assert schmidt_decompose(paper_state("spin1_two_term"), 0, tol=0).rank == 2


class TestUnfold:
    def test_frozen_matrices(self):
        bohm = make_state((2, 2), {(0, 1): R2, (1, 0): R2})
        np.testing.assert_allclose(unfold(bohm, 0).matrix, [[0, R2], [R2, 0]])
        hardy2 = make_state((2, 2), {(0, 1): R3, (1, 0): R3, (1, 1): R3})
        np.testing.assert_allclose(unfold(hardy2, 0).matrix, [[0, R3], [R3, R3]])
        ghz = make_state((2, 2, 2), {(0, 0, 0): R2, (1, 1, 1): R2})
        u = unfold(ghz, (0,))
        assert u.matrix.shape == (4, 2)  # rows over factors (1, 2)
        np.testing.assert_allclose(u.matrix, [[R2, 0], [0, 0], [0, 0], [0, R2]])
        u = unfold(ghz, (0, 1))
        assert u.matrix.shape == (2, 4)
        np.testing.assert_allclose(u.matrix, [[R2, 0, 0, 0], [0, 0, 0, R2]])

    def test_matrix_layout_matches_dense_reshape(self):
        rng = np.random.default_rng(5)
        v = random_state(rng, (2, 3, 2))
        t = dense_tensor(v)
        # split S=(1,): columns over factor 1, rows over factors (0, 2)
        u = unfold(v, (1,))
        expect = np.transpose(t, (0, 2, 1)).reshape(4, 3)
        np.testing.assert_allclose(u.matrix, expect)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_frobenius_equals_norm_exactly(self, seed):
        v = random_state(np.random.default_rng(seed), (2, 3, 2))
        for sel in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            u = unfold(v, sel)
            assert u.frobenius == pytest.approx(norm(v), rel=0, abs=1e-14)

    def test_dense_cap(self):
        dims = (2,) * 13  # 8192 > DENSE_CAP
        assert math.prod(dims) > DENSE_CAP
        v = make_state(dims, {(0,) * 13: 1.0})
        with pytest.raises(ValueError):
            unfold(v, 0)


class TestSchmidt:
    def test_hardy2_coefficients(self):
        v = make_state((2, 2), {(0, 1): R3, (1, 0): R3, (1, 1): R3}, normalize=True)
        sd = schmidt_decompose(v, 0)
        np.testing.assert_allclose(sd.coeffs, [math.sqrt(HARDY2_EIGS[0]), math.sqrt(HARDY2_EIGS[1])], rtol=1e-14)
        assert sd.rank == 2

    def test_zero_coefficient_counted(self):
        v = make_state((3, 3), {(0, 0): R2, (1, 1): -R2})
        sd = schmidt_decompose(v, 0)
        assert sd.coeffs.size == 3
        np.testing.assert_allclose(sd.coeffs, [R2, R2, 0.0], atol=1e-15)
        assert sd.rank == 2

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(2, 4))
    def test_reconstruction_and_orthonormality(self, seed, d0, d1):
        v = random_state(np.random.default_rng(seed), (d0, d1))
        sd = schmidt_decompose(v, 0)
        k = min(d0, d1)
        left, right = sd.left_vectors, sd.right_vectors
        np.testing.assert_allclose(left.conj() @ left.T, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(right.conj() @ right.T, np.eye(k), atol=1e-12)
        rebuilt = np.zeros((d0, d1), dtype=np.complex128)
        for c, a, b in zip(sd.coeffs, left, right):
            rebuilt += c * np.outer(a, b)
        np.testing.assert_allclose(rebuilt, dense_tensor(v), atol=1e-12)
        assert np.all(np.diff(sd.coeffs) <= 1e-15)

    def test_nonatomic_split(self):
        rng = np.random.default_rng(11)
        v = random_state(rng, (2, 2, 3))
        sd = schmidt_decompose(v, (0, 1))
        assert sd.part_dims == (2, 2)
        assert sd.complement_dims == (3,)
        assert sd.coeffs.size == 3
        assert math.fsum(float(c) ** 2 for c in sd.coeffs) == pytest.approx(1.0)


    def test_arrays_are_read_only(self):
        sd = schmidt_decompose(random_state(np.random.default_rng(4), (3, 3)), 0)
        for arr in (sd.coeffs, sd.left_vectors, sd.right_vectors):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestReducedDensity:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2)]))
    def test_matches_loop_oracle(self, seed, dims):
        v = random_state(np.random.default_rng(seed), dims)
        n = len(dims)
        for nsel in range(1, n):
            for sel in itertools.combinations(range(n), nsel):
                rho = reduced_density(v, sel)
                np.testing.assert_allclose(rho.matrix, loop_reduced_density(v, sel), atol=1e-13)

    def test_trace_and_eigen_order(self):
        rng = np.random.default_rng(3)
        v = random_state(rng, (3, 4))
        rho = reduced_density(v, 0)
        assert np.trace(rho.matrix).real == pytest.approx(norm(v) ** 2)
        eig = rho.eigenvalues
        assert np.all(np.diff(eig) <= 1e-15)
        assert np.all(eig >= -1e-14)

    def test_arrays_are_read_only(self):
        rho = reduced_density(random_state(np.random.default_rng(4), (2, 3)), 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 0.0

    def test_subsystem_recorded(self):
        v = make_state((2, 2, 2), {(0, 0, 0): 1.0})
        rho = reduced_density(v, (0, 2))
        assert rho.subsystem == Subsystem((0, 2))
        assert rho.matrix.shape == (4, 4)
