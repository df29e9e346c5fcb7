import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cube_window_matrix,
    dense_tensor,
    haar_unitary,
    loop_reduced_density,
    random_schmidt_state,
    random_state,
    svd_rank,
)
from hyperstate import (
    Subsystem,
    Window,
    cube_window,
    cyclicity_test,
    dimension_gate,
    hyperentanglement_test,
    make_state,
    method1_build,
    method2_build,
    pairing_eval,
    pairing_fn,
    rank_tolerance,
    window_certificate,
)

HARDY2_MIN_EIG = (3.0 - math.sqrt(5.0)) / 6.0


class TestDimensionGate:
    def test_pairs(self):
        assert dimension_gate((2, 2)) == dimension_gate((2, 2), False)
        assert dimension_gate((2, 2)).feasible
        assert dimension_gate((64, 64)).feasible
        gate = dimension_gate((2, 3))
        assert not gate.feasible and gate.reason == "unequal_dims"

    def test_many_factors(self):
        gate = dimension_gate((2, 2, 2))
        assert not gate.feasible and gate.reason == "finite_dims_n_gt_2"
        assert dimension_gate((2, 2, 2), truncated_from_infinite=True).feasible
        gate = dimension_gate((2, 2, 3), truncated_from_infinite=True)
        assert not gate.feasible and gate.reason == "unequal_dims"

    def test_malformed_dims(self):
        with pytest.raises(ValueError):
            dimension_gate((2,))
        with pytest.raises(ValueError):
            dimension_gate((2, 1))
        with pytest.raises(ValueError):
            dimension_gate(())


class TestCyclicity:
    def test_corpus_eigenvalues(self, corpus):
        for k in (0, 1):
            res = cyclicity_test(corpus["bohm"], k)
            assert res.passed
            assert res.min_eigenvalue == pytest.approx(0.5, abs=1e-15)

            res = cyclicity_test(corpus["hardy2"], k)
            assert res.passed
            assert res.min_eigenvalue == pytest.approx(HARDY2_MIN_EIG, abs=1e-15)

            res = cyclicity_test(corpus["spin1_singlet"], k)
            assert res.passed
            assert res.min_eigenvalue == pytest.approx(1.0 / 3.0, abs=1e-15)

            res = cyclicity_test(corpus["spin1_two_term"], k)
            assert not res.passed
            assert abs(res.min_eigenvalue) <= 1e-15
            assert (res.rank, res.full_dim) == (2, 3)

    def test_ghz_two_zero_eigenvalues(self, corpus):
        res = cyclicity_test(corpus["ghz"], 0)
        assert not res.passed
        assert res.full_dim - res.rank == 2
        assert res.full_dim == 4

    def test_witness_annihilated(self, corpus):
        # the failure witness spans a null direction of the complement
        # density, so its quadratic form sits at the threshold or below
        from hyperstate import reduced_density

        res = cyclicity_test(corpus["spin1_two_term"], 0)
        w = res.witness
        assert w is not None
        assert np.linalg.norm(w) == pytest.approx(1.0)
        rho = reduced_density(corpus["spin1_two_term"], Subsystem((0,)).complement(2)).matrix
        assert abs(w.conj() @ rho @ w) <= res.threshold

    def test_witness_absent_on_pass(self, corpus):
        assert cyclicity_test(corpus["bohm"], 0).witness is None

    def test_witness_is_the_eigh_vector(self, corpus):
        # computed on first access, bit for bit the eigh vector of the density
        from hyperstate import reduced_density

        failing = []
        for name, v in dict(corpus, stage2=method2_build(2, STAGE_EPS[:2])).items():
            for k in range(v.nfactors):
                res = cyclicity_test(v, k)
                if res.passed:
                    continue
                failing.append(name)
                rho = reduced_density(v, Subsystem((k,)).complement(v.nfactors)).matrix
                expect = np.ascontiguousarray(np.linalg.eigh(rho)[1][:, 0])
                assert np.array_equal(res.witness.view(np.uint64), expect.view(np.uint64))
                assert res.witness is res.witness and not res.witness.flags.writeable
                assert "_density" not in repr(res)
        assert len(failing) == 11 and failing.count("stage2") == 3

    def test_explicit_tolerance_semantics(self, corpus):
        assert cyclicity_test(corpus["bohm"], 0, tol=0.4).passed
        assert not cyclicity_test(corpus["bohm"], 0, tol=0.6).passed

    def test_composite_subsystem(self, corpus):
        # ghz across (0, 1): the complement density on factor 2 has rank 2
        res = cyclicity_test(corpus["ghz"], (0, 1))
        assert res.full_dim == 2
        assert res.passed

    def test_rank_and_threshold_read_the_report(self, corpus):
        res = cyclicity_test(corpus["spin1_two_term"], 0)
        assert (res.rank, res.threshold) == (res.report.rank, res.report.threshold)
        assert res.report.max_dropped == res.min_eigenvalue
        assert not res.report.tied

    def test_near_threshold_spectrum_is_tied(self, corpus):
        # bohm's density eigenvalues are both 1/2: a cutoff of 0.3 sits
        # within a factor of two of them
        res = cyclicity_test(corpus["bohm"], 0, tol=0.3)
        assert res.passed and res.report.tied
        assert not cyclicity_test(corpus["bohm"], 0, tol=0.2).report.tied

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), False, "0", float("inf")])
    def test_bad_tol_refused(self, corpus, tol):
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            cyclicity_test(corpus["spin1_two_term"], 0, tol)
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            hyperentanglement_test(corpus["spin1_two_term"], tol)

    def test_zero_tol_is_valid(self, corpus):
        # the two-term state's third eigenvalue is an exact zero
        res = cyclicity_test(corpus["spin1_two_term"], 0, tol=0)
        assert not res.passed and res.threshold == 0.0
        assert cyclicity_test(corpus["bohm"], 0, tol=0.0).passed

    @given(
        st.integers(0, 2 ** 31 - 1),
        st.sampled_from([(2, 2), (3, 3), (4, 4), (2, 3), (2, 2, 2), (2, 3, 2)]),
    )
    def test_report_is_the_rule_on_the_loop_density(self, seed, dims):
        rng = np.random.default_rng(seed)
        if len(dims) == 2 and dims[0] == dims[1]:
            v = random_schmidt_state(rng, dims[0], int(rng.integers(1, dims[0] + 1)))
        else:
            v = random_state(rng, dims)
        for k in range(v.nfactors):
            comp = tuple(j for j in range(v.nfactors) if j != k)
            eig = np.linalg.eigvalsh(loop_reduced_density(v, comp))[::-1]
            threshold = rank_tolerance(eig.size, max(float(eig[0]), 0.0))
            rank = int(np.count_nonzero(eig > threshold))
            rep = cyclicity_test(v, k).report
            assert rep.rank == rank
            assert rep.threshold == pytest.approx(threshold, rel=1e-12)
            assert rep.min_kept == pytest.approx(eig[rank - 1] if rank else 0.0, abs=1e-14)
            assert rep.max_dropped == pytest.approx(
                eig[rank] if rank < eig.size else 0.0, abs=1e-14
            )
            tied = bool(np.any((eig > threshold / 2) & (eig < threshold * 2)))
            assert rep.tied == tied


class TestHyperentanglementTest:
    def test_corpus_verdicts(self, corpus):
        expected = {
            "bohm": "hyperentangled",
            "hardy2": "hyperentangled",
            "spin1_singlet": "hyperentangled",
            "spin1_two_term": "not_hyperentangled",
            "ghz": "infeasible_dims",
            "hardy3": "infeasible_dims",
        }
        for name, want in expected.items():
            assert hyperentanglement_test(corpus[name]).overall == want, name

    def test_diagnostics_always_present(self, corpus):
        verdict = hyperentanglement_test(corpus["ghz"])
        assert len(verdict.checks) == 3
        assert verdict.failing == (0, 1, 2)
        assert not verdict.feasibility.feasible

        verdict = hyperentanglement_test(corpus["spin1_two_term"])
        assert verdict.feasibility.feasible
        assert verdict.failing == (0, 1)

    def test_no_witness_computed(self, corpus, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        verdicts = {name: hyperentanglement_test(v) for name, v in corpus.items()}
        verdict = verdicts["spin1_two_term"]
        assert verdict.failing == (0, 1)
        with pytest.raises(AssertionError, match="eigh called"):
            verdict.checks[0].witness

    def test_truncated_flag_lifts_gate(self, corpus):
        v = make_state(
            (2, 2, 2),
            dict(corpus["ghz"].items()),
            truncated_from_infinite=True,
        )
        verdict = hyperentanglement_test(v)
        assert verdict.feasibility.feasible
        assert verdict.overall == "not_hyperentangled"

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
    def test_local_unitary_invariance(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d + 1))
        v = random_schmidt_state(rng, d, rank)
        t = dense_tensor(v)
        rotated = np.einsum("ai,bj,ij->ab", haar_unitary(rng, d), haar_unitary(rng, d), t)
        w = make_state((d, d), {(i, j): complex(rotated[i, j]) for i in range(d) for j in range(d)})
        assert hyperentanglement_test(v).overall == hyperentanglement_test(w).overall


class TestWindows:
    def test_window_validation(self):
        for size in (0, -1, -5):
            with pytest.raises(ValueError):
                Window(axis=0, size=size)

    def test_cube_window_bounds(self):
        w = cube_window((2, 3, 4), 0, 2)
        assert (w.axis, w.size) == (0, 2)
        v = make_state((2, 3, 4), {(0, 0, 0): 1.0, (1, 1, 1): 1.0})
        assert window_certificate(v, w).size == 4  # 2 x 2 over the complement factors
        with pytest.raises(ValueError):
            cube_window((2, 3), 2, 1)
        with pytest.raises(ValueError):
            cube_window((2, 3), 0, 0)
        with pytest.raises(ValueError):
            cube_window((2, 3), 0, 4)  # exceeds the complement factor

    def test_certificate_pass_and_fail(self, corpus):
        cert = window_certificate(corpus["bohm"], cube_window((2, 2), 0, 2))
        assert cert.passed and (cert.rank, cert.size) == (2, 2)
        cert = window_certificate(corpus["spin1_two_term"], cube_window((3, 3), 0, 3))
        assert not cert.passed and (cert.rank, cert.size) == (2, 3)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_refused_on_both_routes(self, corpus, tol):
        structural = (corpus["bohm"], cube_window((2, 2), 0, 2))
        dense = (corpus["spin1_two_term"], cube_window((3, 3), 0, 3))
        for (v, w), route in ((structural, "structural"), (dense, "dense_svd")):
            assert window_certificate(v, w, tol=0).route == route
            with pytest.raises(ValueError, match="tol must be a number >= 0"):
                window_certificate(v, w, tol)

    def test_member_range_validated(self, corpus):
        with pytest.raises(ValueError):
            window_certificate(corpus["bohm"], Window(axis=0, size=3))
        with pytest.raises(ValueError):
            window_certificate(corpus["ghz"], Window(axis=0, size=3))
        with pytest.raises(ValueError):
            window_certificate(corpus["ghz"], Window(axis=3, size=1))

    def test_beyond_dense_cap(self):
        # window certificates must not materialize the full tensor
        dims = (512, 512, 512)
        entries = {(k, k, k): 1.0 for k in range(4)}
        v = make_state(dims, entries, normalize=True, truncated_from_infinite=True)
        cert = window_certificate(v, cube_window(dims, 0, 2))
        assert cert.size == 4
        assert cert.rank == 2  # only the (0,0) and (1,1) keys carry slices

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
    def test_full_window_agrees_with_eigen_test(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d + 1))
        v = random_schmidt_state(rng, d, rank)
        for axis in (0, 1):
            eig_pass = cyclicity_test(v, axis).passed
            win_pass = window_certificate(v, cube_window((d, d), axis, d)).passed
            assert eig_pass == win_pass == (rank == d)


STAGE_EPS = (0.01, 0.005, 0.0025)


def planted_matrix(rng, n, ncols, cascade, eps):
    """Rows ``< cascade`` form an upper-triangular singleton cascade (pivot
    ``eps`` on the diagonal and 1 above it when ``eps`` is set, random
    magnitudes otherwise); the other rows are a dense residual, sometimes
    rank-deficient.  Rows and columns are shuffled to hide the structure."""
    m = np.zeros((n, ncols), dtype=np.complex128)
    phase = lambda: np.exp(2j * np.pi * rng.uniform())  # noqa: E731
    for i in range(cascade):
        if eps is None:
            m[i, i] = 10.0 ** rng.uniform(-8, 0) * phase()
            later = np.arange(i + 1, ncols)
            keep = later[rng.uniform(size=later.size) < 0.5]
            m[i, keep] = 10.0 ** rng.uniform(-3, 1, size=keep.size) * phase()
        else:
            m[i, i] = eps
            if i + 1 < ncols:
                m[i, i + 1] = 1.0
    rest = n - cascade
    if rest and ncols > cascade:
        block = rng.standard_normal((rest, ncols - cascade)) + 1j * rng.standard_normal(
            (rest, ncols - cascade)
        )
        if rest > 1 and rng.uniform() < 0.5:
            block[-1] = block[0] * phase()
        m[cascade:, cascade:] = block
    return m[rng.permutation(n)][:, rng.permutation(ncols)]


class TestWindowRoutes:
    """The structural route against dense SVDs of the same window matrix."""

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_method2_windows_are_structural(self, stages):
        v = method2_build(stages, STAGE_EPS[:stages])
        for size in v.metadata["window_sizes"]:
            for axis in range(3):
                cert = window_certificate(v, cube_window(v.dims, axis, size))
                rank, sigma_min = svd_rank(cube_window_matrix(v, axis, size))
                assert cert.route == "structural", (stages, size, axis)
                assert (cert.rank, cert.passed) == (rank, rank == size * size)
                assert cert.report.min_kept <= sigma_min

    @pytest.mark.parametrize(
        "kind, bounds, structural",
        [
            # axis 2, size 3: the bound equals sigma_min = 1.0e-12, inside
            # the margin over the 4.3e-13 cutoff, so the SVD decides
            ("injection_2a3b", (3, 3, 37), {(0, 1), (1, 1), (2, 1), (2, 2)}),
            (
                "bijection_interleave",
                (16, 16, 16),
                {(axis, size) for axis in range(3) for size in range(1, 5)},
            ),
        ],
    )
    def test_method1_windows(self, kind, bounds, structural):
        p = pairing_fn(kind)
        v = method1_build(3, p, bounds)
        for axis in range(3):
            comp = [d for k, d in enumerate(bounds) if k != axis]
            for size in range(1, min(comp) + 1):
                cert = window_certificate(v, cube_window(v.dims, axis, size))
                rank, sigma_min = svd_rank(cube_window_matrix(v, axis, size))
                assert (cert.rank, cert.passed) == (rank, rank == size * size)
                # it passes exactly when every key (x, y) pairs below the bound
                pairs = (pairing_eval(p, x, y) for x in range(size) for y in range(size))
                assert cert.passed == all(j < bounds[axis] for j in pairs), (axis, size)
                want = "structural" if (axis, size) in structural else "dense_svd"
                assert cert.route == want, (axis, size)
                if want == "structural":
                    assert cert.report.min_kept <= sigma_min

    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(1, 9),
        st.integers(-2, 4),
        st.integers(0, 9),
        st.sampled_from([None, None, 0.5, 1e-2, 1e-4, 1e-8]),
    )
    def test_planted_cascades_match_svd(self, seed, n, extra, cascade, eps):
        rng = np.random.default_rng(seed)
        ncols = max(1, n + extra)
        m = planted_matrix(rng, n, ncols, min(cascade, n, ncols), eps)
        dims = (max(n, 2), max(ncols, 2))
        padded = np.zeros((n, dims[1]), dtype=np.complex128)
        padded[:, :ncols] = m
        entries = {(r, c): complex(m[r, c]) for r, c in zip(*np.nonzero(m))}
        if not entries:
            return
        v = make_state(dims, entries)
        cert = window_certificate(v, cube_window(v.dims, 1, n))
        rank, sigma_min = svd_rank(padded)
        assert cert.rank == rank
        assert cert.passed == (rank == n)
        if cert.route == "structural":
            # slack: the SVD's own backward error, 1/64 of the cutoff
            slack = max(padded.shape) * 2.0 ** -52 * np.linalg.norm(padded, 2)
            assert sigma_min + slack >= cert.report.min_kept
            assert cert.report.min_kept >= 4 * cert.report.threshold

    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 4), st.data())
    def test_cube_windows_on_3_and_4_factors_match_svd(self, seed, n, data):
        dims = tuple(data.draw(st.lists(st.integers(2, 6), min_size=n, max_size=n)))
        axis = data.draw(st.integers(0, n - 1))
        size = data.draw(st.integers(1, min(d for k, d in enumerate(dims) if k != axis)))
        rng = np.random.default_rng(seed)
        cells = np.argwhere(rng.uniform(size=dims) < data.draw(st.sampled_from([0.1, 0.3, 1.0])))
        phases = np.exp(2j * np.pi * rng.uniform(size=len(cells)))
        mags = 10.0 ** rng.uniform(-6, 0, size=len(cells))
        entries = {tuple(map(int, c)): complex(a) for c, a in zip(cells, mags * phases)}
        if not entries:
            return
        v = make_state(dims, entries)
        cert = window_certificate(v, cube_window(dims, axis, size))
        m = cube_window_matrix(v, axis, size)
        rank, sigma_min = svd_rank(m)
        assert cert.size == size ** (n - 1)
        assert (cert.rank, cert.passed) == (rank, rank == cert.size)
        if cert.route == "structural":
            slack = max(m.shape) * 2.0 ** -52 * np.linalg.norm(m, 2)
            assert cert.report.min_kept <= sigma_min + slack

    def test_ill_conditioned_chain(self):
        # [[e, 1], [0, e]] has sigma_min ~ e**2; below the margin the SVD decides
        for e, route in ((0.5, "structural"), (1e-7, "dense_svd"), (1e-9, "dense_svd")):
            v = make_state((2, 2), {(0, 0): e, (0, 1): 1.0, (1, 1): e})
            cert = window_certificate(v, cube_window((2, 2), 1, 2))
            m = np.array([[e, 1.0], [0.0, e]])
            assert cert.route == route
            assert cert.rank == svd_rank(m)[0]

    def test_structural_report_semantics(self):
        v = method2_build(2, STAGE_EPS[:2])
        cert = window_certificate(v, cube_window(v.dims, 0, 5))
        rep = cert.report
        assert cert.route == "structural"
        assert (rep.rank, rep.max_dropped, rep.tied) == (25, 0.0, False)
        # threshold: the Frobenius-scaled policy, which dominates the dense one
        frob = float(np.linalg.norm(cube_window_matrix(v, 0, 5)))
        assert rep.threshold == pytest.approx(rank_tolerance(26, frob), rel=1e-12)
        loose = window_certificate(v, cube_window(v.dims, 0, 5), tol=rep.min_kept)
        assert loose.route == "dense_svd"

    def test_stage3_without_slice_family(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("slice_family called")

        for name, mod in list(sys.modules.items()):
            if name.startswith("hyperstate") and hasattr(mod, "slice_family"):
                monkeypatch.setattr(mod, "slice_family", refuse)
        v = method2_build(3, STAGE_EPS)
        for size in v.metadata["window_sizes"]:
            for axis in range(3):
                cert = window_certificate(v, cube_window(v.dims, axis, size))
                assert cert.passed and cert.route == "structural"

    def test_window_with_more_keys_than_entries_is_refused(self):
        # 2**40 keys but three entries: no row array that size is allocated
        dims = (2 ** 20,) * 3
        v = make_state(dims, {(0, 0, 0): 1.0, (1, 1, 1): 0.5, (2, 2, 2): 0.25})
        with pytest.raises(ValueError, match="budget"):
            window_certificate(v, cube_window(dims, 0, 2 ** 20))

    def test_dense_fallback_over_budget_is_refused(self):
        # 4 x 2**25 complex matrix (2 GiB); key (1, 1) carries no slice, so
        # elimination cannot finish and the fallback would be needed
        dims = (2 ** 25, 2, 2)
        v = make_state(dims, {(0, 0, 0): 1.0, (1, 0, 1): 0.5, (2, 1, 0): 0.25})
        with pytest.raises(ValueError, match="4x33554432.*budget"):
            window_certificate(v, cube_window(dims, 0, 2))
