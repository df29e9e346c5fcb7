import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dense_tensor,
    haar_unitary,
    oracle_conditional,
    projector_operator,
    rand_unit,
    random_state,
    rank1,
)
from hyperstate import (
    CorrelationQuery,
    Projector,
    Subsystem,
    conditional_probability,
    correlation_witness,
    make_state,
    steering_operator,
)

R2 = 1.0 / math.sqrt(2.0)


def near_deficient():
    """3x3 state with Schmidt coefficients proportional to (1, 1, 1e-14).

    The third coefficient lies below the rank cutoff (about 4e-14 here) but
    above numpy's default least-squares cutoff (about 7e-16).
    """
    return make_state((3, 3), {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1e-14}, normalize=True)


class TestProjector:
    def test_accepts_orthonormal_rows(self):
        p = Projector(subsystem=Subsystem((1,)), basis=np.eye(3)[:2])
        assert (p.rank, p.dim) == (2, 3)

    def test_rejects_bad_bases(self):
        with pytest.raises(ValueError):
            Projector(subsystem=Subsystem((0,)), basis=np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            Projector(subsystem=Subsystem((0,)), basis=np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError):
            Projector(subsystem=Subsystem((0,)), basis=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Projector(subsystem=Subsystem((0,)), basis=np.array([1.0, 0.0]))

    def test_basis_readonly(self):
        p = rank1(0, [1.0, 0.0])
        with pytest.raises(ValueError):
            p.basis[0, 0] = 0.0


class TestConditionalProbability:
    def test_frozen_bohm_values(self, corpus):
        bohm = corpus["bohm"]
        p0 = rank1(0, [1.0, 0.0])
        assert conditional_probability(bohm, p0, rank1(1, [0.0, 1.0])) == pytest.approx(1.0)
        assert conditional_probability(bohm, p0, rank1(1, [1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_zero_event_raises(self):
        v = make_state((2, 2), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="probability zero"):
            conditional_probability(v, rank1(0, [0.0, 1.0]), rank1(1, [1.0, 0.0]))

    def test_split_validation(self, corpus):
        bohm = corpus["bohm"]
        with pytest.raises(ValueError):
            conditional_probability(bohm, rank1(0, [1, 0]), rank1(0, [1, 0]))
        ghz = corpus["ghz"]
        with pytest.raises(ValueError):
            conditional_probability(ghz, rank1(0, [1, 0]), rank1(1, [1, 0]))
        with pytest.raises(ValueError):
            conditional_probability(bohm, rank1(0, [1, 0, 0]), rank1(1, [1, 0]))

    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, (2, 3, 2))
        p = Projector(
            subsystem=Subsystem((0, 2)), basis=haar_unitary(rng, 4)[:, :2].T
        )
        pp = rank1((1,), rand_unit(rng, 3))
        got = conditional_probability(v, p, pp)
        assert got == pytest.approx(oracle_conditional(v, p, pp), abs=1e-12)

    def test_clipped_to_unit_interval(self, corpus):
        val = conditional_probability(
            corpus["hardy2"], rank1(0, [0.0, 1.0]), rank1(1, rand_unit(np.random.default_rng(0), 2))
        )
        assert 0.0 <= val <= 1.0


class TestSteering:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
    def test_steers_to_target(self, seed, d):
        rng = np.random.default_rng(seed)
        v = random_state(rng, (d, d))
        target = rand_unit(rng, d)
        op = steering_operator(v, 0, target)
        t_out = np.einsum("ai,ij->aj", op.matrix, dense_tensor(v))
        expect = np.zeros((d, d), dtype=np.complex128)
        expect[0, :] = target  # default embed is the first basis vector
        np.testing.assert_allclose(t_out, expect, atol=1e-10)
        assert op.operator_norm == pytest.approx(np.linalg.norm(op.matrix, 2))

    def test_custom_embed_and_composite_subsystem(self):
        rng = np.random.default_rng(42)
        v = random_state(rng, (2, 2, 3))
        target = rand_unit(rng, 3)
        embed = rand_unit(rng, 4)
        op = steering_operator(v, (0, 1), target, embed=embed)
        a = op.matrix.reshape(2, 2, 2, 2)
        t_out = np.einsum("abij,ijk->abk", a, dense_tensor(v))
        expect = np.einsum("a,k->ak", embed, target).reshape(2, 2, 3)
        np.testing.assert_allclose(t_out, expect, atol=1e-10)

    def test_target_normalized_internally(self, corpus):
        bohm = corpus["bohm"]
        t = np.array([3.0, 4.0])
        op = steering_operator(bohm, 0, t)
        t_out = np.einsum("ai,ij->aj", op.matrix, dense_tensor(bohm))
        np.testing.assert_allclose(t_out[0], t / 5.0, atol=1e-12)

    def test_errors(self, corpus):
        bohm = corpus["bohm"]
        with pytest.raises(ValueError, match="not cyclic"):
            steering_operator(corpus["spin1_two_term"], 0, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            steering_operator(bohm, 0, np.zeros(2))
        with pytest.raises(ValueError):
            steering_operator(bohm, 0, np.ones(3))
        with pytest.raises(ValueError):
            steering_operator(bohm, 0, np.ones(2), embed=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            steering_operator(bohm, 0, np.ones(2), embed=np.ones(3))

    def test_near_deficient_state_is_refused(self):
        # the same rank rule as cyclicity: no operator of norm ~1e14
        with pytest.raises(ValueError, match="rank 2 < 3"):
            steering_operator(near_deficient(), 0, np.array([0.0, 0.6, 0.8]))

    def test_refused_above_dense_cap(self):
        # refused before the 4096 x 2 slice matrix is built
        v = make_state((2,) * 13, {(0,) * 13: 1.0})
        with pytest.raises(ValueError, match="dense cap"):
            steering_operator(v, 0, np.ones(2 ** 12))


class TestCorrelationWitness:
    def test_query_validation(self, corpus):
        bohm = corpus["bohm"]
        pp = rank1(1, [1.0, 0.0])
        with pytest.raises(ValueError):
            CorrelationQuery(state=bohm, subsystem=(0,), p_prime=pp, epsilon=0.0)
        with pytest.raises(ValueError):
            CorrelationQuery(state=bohm, subsystem=(0,), p_prime=pp, epsilon=1.0)
        q = CorrelationQuery(state=bohm, subsystem=(0,), p_prime=rank1(0, [1.0, 0.0]))
        with pytest.raises(ValueError, match="complement"):
            correlation_witness(q)

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["bohm", "hardy2", "spin1_singlet"]))
    def test_cyclic_states_reach_certainty(self, corpus, seed, name):
        v = corpus[name]
        rng = np.random.default_rng(seed)
        for k in range(v.nfactors):
            s = Subsystem((k,))
            comp = s.complement(v.nfactors)
            dim = math.prod(v.dims[i] for i in comp)
            pp = rank1(comp, rand_unit(rng, dim))
            res = correlation_witness(CorrelationQuery(state=v, subsystem=s, p_prime=pp))
            assert res.achieved >= 1.0 - 1e-9
            assert not res.warning
            assert res.projector.rank == 1
            # independent re-evaluation through the dense oracle
            assert res.achieved == pytest.approx(
                oracle_conditional(v, res.projector, pp), abs=1e-12
            )

    def test_higher_rank_p_prime(self, corpus):
        v = corpus["spin1_singlet"]
        rng = np.random.default_rng(7)
        pp = Projector(subsystem=Subsystem((1,)), basis=haar_unitary(rng, 3)[:, :2].T)
        res = correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp))
        assert res.achieved >= 1.0 - 1e-9
        assert not res.warning

    def test_target_lies_in_p_prime_range(self, corpus):
        v = corpus["hardy2"]
        pp = rank1(1, rand_unit(np.random.default_rng(3), 2))
        res = correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp))
        w = res.target
        assert np.linalg.norm(w) == pytest.approx(1.0)
        np.testing.assert_allclose(projector_operator(pp) @ w, w, atol=1e-12)

    def test_product_state_warns(self):
        v = make_state((2, 2), {(0, 0): 1.0})
        pp = rank1(1, rand_unit(np.random.default_rng(1), 2))
        res = correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp))
        assert res.warning
        assert res.achieved < 1.0 - 1e-9

    def test_rank_deficient_but_reachable_direction(self, corpus):
        # the two-term state can still drive questions inside its slice span
        v = corpus["spin1_two_term"]
        pp = rank1(1, [1.0, 0.0, 0.0])
        res = correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp))
        assert res.warning  # pseudoinverse route flags the deficiency
        assert res.achieved == pytest.approx(1.0)

    def test_near_deficient_state_warns(self):
        pp = rank1(1, [0.0, 0.6, 0.8])
        res = correlation_witness(CorrelationQuery(state=near_deficient(), subsystem=(0,), p_prime=pp))
        assert res.warning
        assert res.achieved == pytest.approx(0.36, abs=1e-12)

    def test_annihilating_projector_raises(self, corpus):
        v = corpus["spin1_two_term"]
        with pytest.raises(ValueError, match="annihilates"):
            correlation_witness(
                CorrelationQuery(state=v, subsystem=(0,), p_prime=rank1(1, [0.0, 0.0, 1.0]))
            )

    def test_p_prime_dimension_checked(self, corpus):
        ghz = corpus["ghz"]
        pp = rank1((1, 2), rand_unit(np.random.default_rng(2), 3))
        with pytest.raises(ValueError, match="dimension"):
            correlation_witness(CorrelationQuery(state=ghz, subsystem=(0,), p_prime=pp))
