import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bloch_grid_overlap, dense_tensor, random_state
from hyperstate import degree_bipartite, degree_multipartite, make_state

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
        with pytest.raises(ValueError):
            degree_multipartite(make_state((2, 2), {(0, 0): 2.0}))

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
