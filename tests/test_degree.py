import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bloch_grid_overlap,
    dense_tensor,
    loop_als_sweep,
    loop_degree_multipartite,
    rand_unit,
    random_state,
)
from hyperstate import degree, degree_bipartite, degree_multipartite, make_state

R2 = 1.0 / math.sqrt(2.0)
R3 = 1.0 / math.sqrt(3.0)

E_BOHM = 1.0 - R2
# top squared Schmidt weight of the three-term two-qubit state
E_HARDY2 = 1.0 - math.sqrt((3.0 + math.sqrt(5.0)) / 6.0)
# for (|001> + |010> + |100>)/sqrt(3) the symmetric overlap sqrt(3) x^2 y
# with x^2 + y^2 = 1 peaks at y = 1/sqrt(3), giving overlap 2/3
E_W = 1.0 / 3.0


def w_state():
    return make_state((2, 2, 2), {(0, 0, 1): R3, (0, 1, 0): R3, (1, 0, 0): R3})


@st.composite
def sparse_states(draw):
    """A unit state of 2-4 factors of dims 2-6 on 1-40 random entries."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = math.prod(dims)
    flat = rng.choice(total, draw(st.integers(1, min(total, 40))), replace=False)
    amps = rng.standard_normal(flat.size) + 1j * rng.standard_normal(flat.size)
    entries = {tuple(map(int, np.unravel_index(j, dims))): a for j, a in zip(flat, amps)}
    return make_state(dims, entries, normalize=True)


def assert_bit_identical(got, want):
    assert (got.value, got.overlap, got.sweeps, got.converged, got.restarts_used) == (
        want.value, want.overlap, want.sweeps, want.converged, want.restarts_used
    )
    assert len(got.best_product) == len(want.best_product)
    for a, b in zip(got.best_product, want.best_product):
        assert a.shape == b.shape
        assert (a.view(np.uint64) == b.view(np.uint64)).all()


class TestBipartite:
    def test_product_state_is_degree_zero(self):
        v = make_state((3, 3), {(1, 2): 1.0})
        for split in (0, 1):
            res = degree_bipartite(v, split)
            assert res.value <= 1e-12
            assert res.overlap == pytest.approx(1.0)

    def test_frozen_corpus_values(self, corpus):
        assert degree_bipartite(corpus["bohm"]).value == pytest.approx(E_BOHM, abs=1e-14)
        assert degree_bipartite(corpus["hardy2"]).value == pytest.approx(E_HARDY2, abs=1e-14)
        assert degree_bipartite(corpus["spin1_singlet"]).value == pytest.approx(
            1.0 - R3, abs=1e-14
        )

    def test_split_choice_is_symmetric_here(self, corpus):
        a = degree_bipartite(corpus["hardy2"], 0).value
        b = degree_bipartite(corpus["hardy2"], 1).value
        assert a == pytest.approx(b, abs=1e-14)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
    def test_best_product_achieves_overlap(self, seed, d):
        v = random_state(np.random.default_rng(seed), (d, d))
        res = degree_bipartite(v)
        left, right = res.best_product
        got = abs(np.vdot(np.outer(left, right), dense_tensor(v)))
        assert got == pytest.approx(res.overlap, abs=1e-12)
        assert res.converged

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            degree_bipartite(make_state((2, 2), {(0, 0): 0.7}))

    def test_flat_spectrum_just_under_unit_norm(self):
        # admitted by the unit-norm tolerance, this state's degree lies
        # 3.5e-11 above 1 - 1/sqrt(2), the bound for an exactly unit state
        a = (1.0 - 5e-11) * R2
        v = make_state((2, 2), {(0, 0): a, (1, 1): a})
        assert v.is_normalized
        assert degree_bipartite(v).value == pytest.approx(E_BOHM, abs=1e-10)


class TestMultipartite:
    def test_product_state_is_degree_zero(self):
        v = make_state((2, 2, 2), {(1, 0, 1): 1.0})
        assert degree_multipartite(v, restarts=4).value <= 1e-12

    def test_ghz_value(self, corpus):
        res = degree_multipartite(corpus["ghz"], restarts=16, seed=0)
        assert res.value == pytest.approx(E_BOHM, abs=1e-9)
        assert res.converged

    def test_w_state_value_and_grid_oracle(self):
        v = w_state()
        res = degree_multipartite(v, restarts=16, seed=0)
        assert res.value == pytest.approx(E_W, abs=1e-9)
        grid = 1.0 - bloch_grid_overlap(v, 181)
        assert res.value == pytest.approx(grid, abs=1e-4)

    def test_best_product_achieves_overlap(self, corpus):
        res = degree_multipartite(corpus["ghz"], restarts=8, seed=1)
        w = np.einsum("a,b,c->abc", *res.best_product)
        got = abs(np.vdot(w, dense_tensor(corpus["ghz"])))
        assert got == pytest.approx(res.overlap, abs=1e-10)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
    def test_agrees_with_bipartite_route(self, seed, d):
        v = random_state(np.random.default_rng(seed), (d, d))
        exact = degree_bipartite(v).value
        als = degree_multipartite(v, restarts=12, seed=0).value
        # alternating sweeps lower-bound the overlap, so the degree from
        # that route can only sit above the exact one
        assert als >= exact - 1e-12
        assert als == pytest.approx(exact, abs=1e-7)

    def test_deterministic_for_fixed_seed(self, corpus):
        a = degree_multipartite(corpus["ghz"], restarts=5, seed=123)
        b = degree_multipartite(corpus["ghz"], restarts=5, seed=123)
        assert a.value == b.value and a.overlap == b.overlap
        assert a.sweeps == b.sweeps

    def test_parameter_validation(self, corpus):
        with pytest.raises(ValueError):
            degree_multipartite(corpus["ghz"], restarts=0)
        with pytest.raises(ValueError, match="seed"):
            degree_multipartite(corpus["ghz"], seed=-1)
        with pytest.raises(ValueError):
            degree_multipartite(make_state((2, 2), {(0, 0): 2.0}))

    def test_factors_beyond_dense_budget_refused(self):
        # one restart draws 2 * sum(dims) floats and builds (1, dims[k]) factors
        v = make_state((2**22, 2, 2), {(0, 0, 0): 0.6, (5, 1, 1): 0.8})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                degree_multipartite(v, restarts=1, max_iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_max_iters_must_allow_a_sweep(self, corpus):
        # with no sweep the random start would be reported with overlap 0.0
        for max_iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters"):
                degree_multipartite(corpus["ghz"], max_iters=max_iters)
        res = degree_multipartite(corpus["ghz"], restarts=2, max_iters=1)
        assert res.sweeps == 1
        w = np.einsum("a,b,c->abc", *res.best_product)
        got = abs(np.vdot(w, dense_tensor(corpus["ghz"])))
        assert got == pytest.approx(res.overlap, abs=1e-10)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), math.inf, None])
    def test_tol_checked_before_any_sweep(self, corpus, monkeypatch, tol):
        from hyperstate import degree

        monkeypatch.setattr(degree, "_als_sweep", lambda *a: pytest.fail("swept"))
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            degree_multipartite(corpus["ghz"], tol=tol)

    def test_zero_tol_is_valid(self, corpus):
        res = degree_multipartite(corpus["ghz"], restarts=2, tol=0, max_iters=3)
        assert res.sweeps <= 3 and 0.0 <= res.value <= 1.0

    def test_result_bookkeeping(self, corpus):
        res = degree_multipartite(corpus["ghz"], restarts=3, seed=9)
        assert res.restarts_used == 3
        assert 0.0 <= res.value <= 1.0
        assert len(res.best_product) == 3
        for f, d in zip(res.best_product, corpus["ghz"].dims):
            assert f.shape == (d,)
            assert np.linalg.norm(f) == pytest.approx(1.0)


class TestBatchedRestarts:
    """Restarts swept together give what one restart at a time gave."""

    @given(
        v=sparse_states(),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 16),
        max_iters=st.integers(1, 50),  # low caps leave restarts unconverged
        tol=st.sampled_from([0.0, 1e-10]),
    )
    def test_bit_identical_to_the_sequential_loop(self, v, seed, restarts, max_iters, tol):
        got = degree_multipartite(v, restarts, tol, max_iters, seed)
        assert_bit_identical(got, loop_degree_multipartite(v, restarts, tol, max_iters, seed))

    @pytest.mark.parametrize("name", ["ghz", "hardy3"])
    def test_block_split_changes_nothing(self, corpus, monkeypatch, name):
        v = corpus[name]
        want = degree_multipartite(v, restarts=16, seed=5)
        assert degree._block_size(v) >= 16  # the catalog sweeps all 16 in one block
        rows = []
        sweep = degree._als_sweep
        monkeypatch.setattr(
            degree, "_als_sweep", lambda v, f, b: rows.append(len(f[0])) or sweep(v, f, b)
        )
        for block in (1, 3):  # 16 = 5 * 3 + 1: the last block is short
            monkeypatch.setattr(degree, "_BLOCK_BYTES", block * 16 * max(v.nnz, sum(v.dims)) + 1)
            assert degree._block_size(v) == block
            rows.clear()
            assert_bit_identical(degree_multipartite(v, restarts=16, seed=5), want)
            assert max(rows) == block

    def test_blocks_keep_working_arrays_under_the_cap(self):
        wide = make_state((100, 100), {(k, k): 0.1 for k in range(100)})
        tall = make_state((3, 3, 9000), {(k % 3, 0, k): 1.0 for k in range(9000)}, normalize=True)
        even = make_state((4, 4), {(0, 0): 1.0})  # 1024 restarts would fill 2**17 bytes exactly
        for v, block in ((w_state(), 1365), (even, 1023), (wide, 40), (tall, 1)):
            assert degree._block_size(v) == block
            if block > 1:  # a restart's largest array is a complex row of nnz or sum(dims)
                assert block * 16 * max(v.nnz, sum(v.dims)) < degree._BLOCK_BYTES

    def test_huge_restarts_draw_one_block_at_a_time(self, corpus, monkeypatch):
        v = corpus["ghz"]
        draws = []
        real_rng = np.random.default_rng

        class Rng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, size):
                draws.append(size)
                assert math.prod(size) <= 10**6, size  # refuse before allocating
                return self.rng.standard_normal(size)

        class Swept(Exception):
            pass

        def sweep(v, factors, bins):
            raise Swept(len(factors[0]), len(bins[0]))

        monkeypatch.setattr(np.random, "default_rng", Rng)
        monkeypatch.setattr(degree, "_als_sweep", sweep)
        with pytest.raises(Swept) as caught:
            degree_multipartite(v, restarts=10**9)
        block = degree._block_size(v)
        assert draws == [(block, 2 * sum(v.dims))]
        assert caught.value.args == (block, block * v.nnz)

    def test_zero_gradient_row_keeps_its_factor(self, corpus):
        v = corpus["ghz"]  # (|000> + |111>) / sqrt(2)
        rng = np.random.default_rng(3)
        start = [np.array([rand_unit(rng, 2) for _ in range(2)]) for _ in range(3)]
        # restart 0: |0> on factor 1 and |1> on factor 2 meet no entry, so
        # the gradient for factor 0 vanishes
        start[1][0] = [1.0, 0.0]
        start[2][0] = [0.0, 1.0]
        got, overlap = degree._als_sweep(v, [f.copy() for f in start], degree._bins(v, 2))
        assert (got[0][0] == start[0][0]).all()
        assert not (got[0][1] == start[0][1]).all()
        for r in range(2):  # each row is what the one-restart sweep makes of it
            want, want_overlap = loop_als_sweep(v, [f[r].copy() for f in start])
            assert overlap[r] == want_overlap
            for a, b in zip(got, want):
                assert (a[r].view(np.uint64) == b.view(np.uint64)).all()
