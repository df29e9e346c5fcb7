import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_tensor, loop_reduced_density, random_state
from hyperstate import (
    DENSE_BUDGET,
    PAPER_STATE_NAMES,
    CyclicityResult,
    RankReport,
    Subsystem,
    certify_state,
    cyclicity_test,
    degree_bipartite,
    hyperentanglement_test,
    make_state,
    norm,
    numerical_rank,
    paper_state,
    rank_tolerance,
    reduced_density,
    repair_bipartite,
    schmidt_decompose,
    unfold,
)
from hyperstate import state as hs_state

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

    @given(st.integers(1, 2**40), st.floats(0.0, 2.0**1000))
    def test_tolerance_is_the_product_rounded_once(self, side, spectrum_max):
        cutoff = rank_tolerance(side, spectrum_max)
        assert cutoff == float(Fraction(side * 64, 2**52) * Fraction(spectrum_max))
        # the same bits as the plain left-to-right product wherever that one is
        # rounded once: its intermediates stay normal floats
        plain = side * spectrum_max * 2.0**-52 * 64
        if spectrum_max >= 2.0**-970 and math.isfinite(plain):
            assert cutoff == plain

    def test_tolerance_stays_finite_near_the_float_range(self):
        # side * spectrum_max overflows here; the Schmidt rank stays 2
        v = make_state((2, 2), {(0, 0): 1e308, (1, 1): 1.5e308})
        rep = schmidt_decompose(v, 0).rank_report
        assert (rep.rank, rep.min_kept, rep.max_dropped) == (2, 1e308, 0.0)
        assert rep.threshold == 2 * (1.5e308 * 2.0**-52) * 64 == pytest.approx(4.263e294, rel=1e-3)
        assert cyclicity_test(v, 0).passed

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
                side = max(sd.left_vectors.shape[1], sd.right_vectors.shape[1])
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

        # a fresh rebuild, so neither an SVD kept by an earlier test nor this
        # counting one is shared with the catalog state
        v = copy.copy(paper_state("hardy3"))
        monkeypatch.setattr(np.linalg, "svd", counting)
        schmidt_decompose(v, 0)
        assert calls == [{"full_matrices": False}]  # no larger than the unfolding

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), True, "0.1", 1j, float("inf")])
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
        np.testing.assert_allclose(unfold(bohm, 0), [[0, R2], [R2, 0]])
        hardy2 = make_state((2, 2), {(0, 1): R3, (1, 0): R3, (1, 1): R3})
        np.testing.assert_allclose(unfold(hardy2, 0), [[0, R3], [R3, R3]])
        ghz = make_state((2, 2, 2), {(0, 0, 0): R2, (1, 1, 1): R2})
        u = unfold(ghz, (0,))
        assert u.shape == (4, 2)  # rows over factors (1, 2)
        np.testing.assert_allclose(u, [[R2, 0], [0, 0], [0, 0], [0, R2]])
        u = unfold(ghz, (0, 1))
        assert u.shape == (2, 4)
        np.testing.assert_allclose(u, [[R2, 0, 0, 0], [0, 0, 0, R2]])

    def test_matrix_layout_matches_dense_reshape(self):
        rng = np.random.default_rng(5)
        v = random_state(rng, (2, 3, 2))
        t = dense_tensor(v)
        # split S=(1,): columns over factor 1, rows over factors (0, 2)
        u = unfold(v, (1,))
        assert type(u) is np.ndarray and u.dtype == np.complex128 and u.flags.c_contiguous
        expect = np.transpose(t, (0, 2, 1)).reshape(4, 3)
        np.testing.assert_array_equal(u, expect)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_frobenius_equals_norm_exactly(self, seed):
        v = random_state(np.random.default_rng(seed), (2, 3, 2))
        for sel in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            u = unfold(v, sel)
            assert float(np.linalg.norm(u)) == pytest.approx(norm(v), rel=0, abs=1e-14)

    def test_dense_budget(self):
        # a 2 x 2**21 complex unfolding is exactly the budget; one column more is not
        assert 2 * 2**21 * 16 == DENSE_BUDGET
        v = make_state((2, 2**21), {(0, 0): 1.0, (1, 2**21 - 1): 1.0})
        assert unfold(v, 1).shape == (2, 2**21)
        v = make_state((2, 2**21 + 1), {(0, 0): 1.0, (1, 2**21): 1.0})
        with pytest.raises(ValueError, match="2x2097153.*budget"):
            unfold(v, 1)
        # above the old cap of 4096 total dims, far inside the budget
        v = make_state((2,) * 13, {(0,) * 13: 1.0})
        assert unfold(v, 0).shape == (4096, 2)

    def test_reduced_density_checked_before_the_product(self):
        # the 4096 x 2 unfolding fits, its 4096 x 4096 density (256 MiB) does not
        v = make_state((4096, 2), {(0, 0): 1.0, (1, 1): 1.0}, normalize=True)
        with pytest.raises(ValueError, match="4096x4096.*budget"):
            reduced_density(v, 0)


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
        assert sd.left_vectors.shape[1] == 2 * 2  # H_S over factors (0, 1)
        assert sd.right_vectors.shape[1] == 3
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
                np.testing.assert_allclose(rho, loop_reduced_density(v, sel), atol=1e-13)

    def test_trace_and_eigen_order(self):
        rng = np.random.default_rng(3)
        v = random_state(rng, (3, 4))
        rho = reduced_density(v, 0)
        assert rho.dtype == np.complex128
        assert np.array_equal(rho, rho.conj().T)  # Hermitian exactly
        assert np.trace(rho).real == pytest.approx(norm(v) ** 2)
        eig = np.linalg.eigvalsh(rho)[::-1]
        assert np.all(eig >= -1e-14)
        # the cyclicity check on the other factor reads this spectrum's last value
        assert cyclicity_test(v, 1).min_eigenvalue == eig[-1]

    def test_arrays_are_read_only(self):
        rho = reduced_density(random_state(np.random.default_rng(4), (2, 3)), 0)
        with pytest.raises(ValueError):
            rho[0, 0] = 0.0

    def test_peak_is_three_densities(self):
        # the unfolding, its conjugate and rho: the sum is formed in place
        v = make_state((512, 512), {(i, i): 1.0 for i in range(512)}, normalize=True)
        tracemalloc.start()
        try:
            rho = reduced_density(v, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * rho.nbytes + 2**20

    def test_rows_and_columns_follow_the_subsystem(self):
        # factors (0, 2) of (2, 3, 5), C order: index 5 * i0 + i2
        v = make_state((2, 3, 5), {(1, 2, 4): 1.0})
        rho = reduced_density(v, (0, 2))
        assert rho.shape == (10, 10)
        assert np.flatnonzero(rho).tolist() == [9 * 10 + 9]


def _bits(x):
    """``x`` in a form whose ``==`` is bit for bit: arrays by dtype, shape and
    bytes, floats by their hex, dataclasses field by field; a check's kept
    state is compared through the witness it builds."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        names = [f.name for f in dataclasses.fields(x) if f.name != "_state"]
        names += ["witness"] if isinstance(x, CyclicityResult) else []
        return tuple((name, _bits(getattr(x, name))) for name in names)
    return x


def _splits(n):
    return [sel for k in range(1, n) for sel in itertools.combinations(range(n), k)]


class TestStateMemo:
    """A state keeps each split's Schmidt SVD and density spectrum; ``tol`` is per call."""

    TOLS = (None, 0.0, 1e6)

    def check_against_fresh(self, v, rng):
        calls = [
            (kernel, sel, tol)
            for kernel in (schmidt_decompose, cyclicity_test)
            for sel in _splits(v.nfactors)
            for tol in self.TOLS
        ]
        rng.shuffle(calls)
        for kernel, sel, tol in calls:
            got = kernel(v, sel, tol)
            assert _bits(got) == _bits(kernel(copy.copy(v), sel, tol)), (kernel, sel, tol)
        assert len(v._memos) == 2 * len(_splits(v.nfactors))

    def test_corpus_equals_a_fresh_copy(self, corpus):
        rng = np.random.default_rng(5)
        for v in corpus.values():
            self.check_against_fresh(v, rng)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
    def test_random_states_equal_a_fresh_copy(self, seed, n):
        rng = np.random.default_rng(seed)
        v = random_state(rng, tuple(int(d) for d in rng.integers(2, 4, n)))
        self.check_against_fresh(v, rng)

    def test_one_entry_per_split_for_any_tol(self):
        v = copy.copy(paper_state("hardy3"))
        for tol in np.geomspace(1e-15, 10.0, 50).tolist():
            for sel in _splits(3):
                schmidt_decompose(v, sel, tol)
                cyclicity_test(v, sel, tol)
        keys = {("svd", Subsystem(sel)) for sel in _splits(3)}
        keys |= {("density", Subsystem(sel)) for sel in _splits(3)}
        assert set(v._memos) == keys

    def test_repeat_calls_compute_nothing(self, monkeypatch):
        # fresh rebuilds: no patched kernel runs on a shared catalog state
        def refuse(*args, **kwargs):
            raise AssertionError("kernel called")

        full = copy.copy(paper_state("bohm"))
        failing = copy.copy(paper_state("spin1_two_term"))
        for v in (full, failing):
            hyperentanglement_test(v)
            schmidt_decompose(v, 0)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for v in (full, failing):
            for tol in self.TOLS:
                hyperentanglement_test(v, tol)
                schmidt_decompose(v, 0, tol)
                cyclicity_test(v, 1, tol)
            certify_state(v)
            degree_bipartite(v, 0)
        assert repair_bipartite(full, 0, 0.1) is full  # full rank: returned unchanged

    def test_kept_arrays_cannot_be_made_writeable(self):
        v = copy.copy(paper_state("spin1_two_term"))
        for _ in range(2):  # the call that computes, then the one that reuses
            sd = schmidt_decompose(v, 0)
            check = cyclicity_test(v, 0)
            assert not check.passed
            spectrum = v._memos[("density", Subsystem((1,)))][0]
            for arr in (sd.coeffs, sd.left_vectors, sd.right_vectors, spectrum, check.witness):
                with pytest.raises(ValueError):
                    arr.flags.writeable = True

    def test_budget_refusal_keeps_nothing(self):
        v = make_state((2, 2**21 + 1), {(0, 0): 1.0, (1, 2**21): 1.0})
        for kernel in (schmidt_decompose, cyclicity_test):
            for sel in (0, 1):
                with pytest.raises(ValueError, match="budget"):
                    kernel(v, sel)
        assert v._memos == {}

    def test_kept_bytes_stay_within_the_budget(self, monkeypatch):
        # Each complement spectrum of a 4x4x4 state is 16 eigenvalues, 128 bytes.
        # With the three single-factor SVDs kept (3 x 1312 bytes), a budget of
        # 4200 leaves room for two of the three; the 16x16 density (4096) fits it.
        monkeypatch.setattr(hs_state, "DENSE_BUDGET", 4200)
        v = random_state(np.random.default_rng(11), (4, 4, 4))
        for sel in range(3):
            schmidt_decompose(v, sel)
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        for _ in range(2):
            res = hyperentanglement_test(v)
            for sel, check in enumerate(res.checks):
                assert _bits(check) == _bits(cyclicity_test(copy.copy(v), sel))
                assert not check.witness.flags.writeable
        kept = [a.nbytes for entry in v._memos.values() for a in entry]
        assert sum(key[0] == "density" for key in v._memos) == 2 and sum(kept) <= 4200
        assert len(calls) == 3 + 1 + 3 * 2  # the unkept spectrum is made on each call

    def test_kept_spectra_leave_room_for_all_three(self, monkeypatch):
        # 9000 bytes hold all three 128-byte spectra of a 4x4x4 state, so a
        # repeat test computes nothing; no density matrix is kept.
        monkeypatch.setattr(hs_state, "DENSE_BUDGET", 9000)
        v = random_state(np.random.default_rng(11), (4, 4, 4))
        hyperentanglement_test(v)
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        hyperentanglement_test(v)
        assert calls == []
        kept = [a for key, entry in v._memos.items() if key[0] == "density" for a in entry]
        assert len(kept) == 3 and all(a.ndim == 1 for a in kept)

    def test_witness_on_a_kept_spectrum_is_the_eigh_vector(self):
        # a miss, then a hit: both witnesses are rebuilt from the state
        v = copy.copy(paper_state("spin1_two_term"))
        rho = reduced_density(v, Subsystem((0,)).complement(v.nfactors))
        expect = np.ascontiguousarray(np.linalg.eigh(rho)[1][:, 0])
        for _ in range(2):
            w = cyclicity_test(v, 0).witness
            assert np.array_equal(w.view(np.uint64), expect.view(np.uint64))
        assert ("density", Subsystem((1,))) in v._memos

    def test_copies_start_empty_and_compare_equal(self):
        v = copy.copy(paper_state("hardy2"))
        hyperentanglement_test(v)
        schmidt_decompose(v, 0)
        assert len(v._memos) == 3
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert w == v and w._memos == {}
