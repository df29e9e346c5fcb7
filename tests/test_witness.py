import copy
import math
import pickle
import re
import tracemalloc

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
    scaled_state,
)
from hyperstate import (
    CorrelationQuery,
    Projector,
    Subsystem,
    conditional_probability,
    correlation_witness,
    cyclicity_test,
    make_state,
    schmidt_decompose,
    steering_operator,
)

R2 = 1.0 / math.sqrt(2.0)


def near_deficient():
    """3x3 state with Schmidt coefficients proportional to (1, 1, 1e-14).

    The third coefficient (about 7e-15) is nonzero but lies below the Schmidt
    rank cutoff (about 3e-14), and its square far below the cyclicity cutoff.
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

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2), ()])
    def test_basis_of_wrong_rank_is_named(self, shape):
        message = rf"basis must be a 2-D row-stacked array, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            Projector(subsystem=Subsystem((0,)), basis=np.ones(shape))

    def test_empty_basis_is_named(self):
        with pytest.raises(ValueError, match="needs at least one range vector"):
            Projector(subsystem=Subsystem((0,)), basis=np.zeros((0, 2)))

    def test_more_vectors_than_dimension_refused_before_gram(self):
        # 4096 range vectors in dimension 1: the 4096 x 4096 Gram matrix is never formed
        basis = np.ones((4096, 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="projector range vectors are not orthonormal"):
                Projector(subsystem=0, basis=basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_basis_readonly(self):
        p = rank1(0, [1.0, 0.0])
        with pytest.raises(ValueError):
            p.basis[0, 0] = 0.0

    @pytest.mark.parametrize(
        "rebuild",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_checked_again(self, rebuild):
        p = rank1(0, [1.0, 0.0])
        object.__setattr__(p, "basis", np.array([[2.0, 0.0]]))  # past the frozen dataclass
        with pytest.raises(ValueError, match="projector range vectors are not orthonormal"):
            rebuild(p)
        q = rebuild(rank1(0, [1.0, 0.0]))
        assert q.subsystem == Subsystem((0,)) and np.array_equal(q.basis, [[1.0, 0.0]])


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
        for pp in (rank1(0, [1, 0]), rank1(1, [1, 0, 0])):  # one check, one message
            with pytest.raises(ValueError) as by_conditional:
                conditional_probability(bohm, rank1(0, [1, 0]), pp)
            with pytest.raises(ValueError) as by_witness:
                correlation_witness(CorrelationQuery(state=bohm, subsystem=(0,), p_prime=pp))
            assert str(by_conditional.value) == str(by_witness.value)

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
        a = steering_operator(v, 0, target)
        assert a.shape == (d, d) and not a.flags.writeable
        t_out = np.einsum("ai,ij->aj", a, dense_tensor(v))
        expect = np.zeros((d, d), dtype=np.complex128)
        expect[0, :] = target  # default embed is the first basis vector
        np.testing.assert_allclose(t_out, expect, atol=1e-10)

    def test_custom_embed_and_composite_subsystem(self):
        rng = np.random.default_rng(42)
        v = random_state(rng, (2, 2, 3))
        target = rand_unit(rng, 3)
        embed = rand_unit(rng, 4)
        a = steering_operator(v, (0, 1), target, embed=embed).reshape(2, 2, 2, 2)
        t_out = np.einsum("abij,ijk->abk", a, dense_tensor(v))
        expect = np.einsum("a,k->ak", embed, target).reshape(2, 2, 3)
        np.testing.assert_allclose(t_out, expect, atol=1e-10)

    def test_target_normalized_internally(self, corpus):
        bohm = corpus["bohm"]
        t = np.array([3.0, 4.0])
        a = steering_operator(bohm, 0, t)
        t_out = np.einsum("ai,ij->aj", a, dense_tensor(bohm))
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
        for bad in ([math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(ValueError, match="target vector must be finite"):
                steering_operator(bohm, 0, np.array(bad))
        with pytest.raises(ValueError, match="embed vector must be a unit vector"):
            steering_operator(bohm, 0, np.ones(2), embed=np.array([math.nan, 0.0]))

    def test_near_deficient_state_is_refused(self):
        # the same rank rule as cyclicity: no operator of norm ~1e14
        with pytest.raises(ValueError, match="rank 2 < 3"):
            steering_operator(near_deficient(), 0, np.array([0.0, 0.6, 0.8]))

    @pytest.mark.parametrize("smallest", [1e-8, 1e-10])
    def test_inaccurate_solve_is_refused(self, smallest):
        # full rank under the singular-value rank rule, but not cyclic under the
        # squared-spectrum rule certify applies: steering refuses it at that gate,
        # before a solve that would miss its target by more than 1e-9
        rng = np.random.default_rng(0)
        s = np.diag(np.geomspace(1.0, smallest, 8))
        m = haar_unitary(rng, 8) @ s @ haar_unitary(rng, 8)
        v = make_state((8, 8), {idx: complex(x) for idx, x in np.ndenumerate(m)}, normalize=True)
        assert schmidt_decompose(v, 0).rank == 8
        assert not cyclicity_test(v, 0).passed
        with pytest.raises(ValueError, match="^state is not cyclic"):
            steering_operator(v, 0, rand_unit(rng, 8))
        pp = rank1(1, rand_unit(rng, 8))
        assert correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp)).warning

    def test_cyclic_state_near_the_cutoff_is_steered(self):
        # Schmidt coefficients (1, 1.77e-7): cyclic, with the smallest squared one
        # just above the 2.84e-14 cutoff.  The solve misses its target by about
        # 1.9e-9, within the roundoff the condition number allows, so a state
        # certify accepts is steered, not refused
        amps = {
            (0, 0): ("-0x1.3338b7c4034ebp-3", "-0x1.d76af0f1aa391p-4"),
            (0, 1): ("-0x1.9a4a6fc91d53ep-2", "-0x1.9c17bb01f4356p-2"),
            (1, 0): ("0x1.091f0f9ea4505p-6", "-0x1.029b807ba3db7p-2"),
            (1, 1): ("0x1.30e4b09beaa6ap-3", "-0x1.7d9f0389658c7p-1"),
        }
        v = make_state(
            (2, 2),
            {i: complex(float.fromhex(re), float.fromhex(im)) for i, (re, im) in amps.items()},
        )
        assert cyclicity_test(v, 0).passed
        assert steering_miss(v, np.array([1.0, 0.0])) > 1e-9

    def test_refused_beyond_dense_budget(self):
        # refused before the 2**22 x 2 slice matrix (128 MiB) is built
        v = make_state((2, 2**22), {(0, 0): 1.0, (1, 1): 1.0})
        with pytest.raises(ValueError, match="4194304x2.*budget"):
            steering_operator(v, 0, np.ones(2**22))

    def test_operator_refused_beyond_dense_budget(self):
        # a 2 x 4096 slice matrix passes, but A is 4096 x 4096 (256 MiB)
        v = make_state((4096, 2), {(0, 0): 0.6, (4095, 1): 0.8})
        with pytest.raises(ValueError, match="4096x4096.*budget"):
            steering_operator(v, 0, np.array([1.0, 0.0]))


def steering_miss(v, target):
    """||(A (x) I) v - e_0 (x) target|| on the dense tensor, for A = steering_operator(v, 0,
    target) and a unit target, once checked to be at most 4 d 2**-52 kappa: the roundoff
    a solve conditioned by kappa = s_max / s_min, the Schmidt coefficients' ratio, allows."""
    d = v.dims[0]
    s = schmidt_decompose(v, 0).coeffs
    a = steering_operator(v, 0, target)
    expect = np.zeros((d, v.dims[1]), dtype=np.complex128)
    expect[0, :] = target
    miss = float(np.linalg.norm(np.einsum("ai,ij->aj", a, dense_tensor(v)) - expect))
    assert miss <= 4 * d * 2.0**-52 * s[0] / s[-1], miss
    return miss


def test_steering_refuses_exactly_the_states_cyclicity_rejects():
    # geometric Schmidt spectra on Haar bases whose smallest coefficient lies
    # within a factor 4 of the cyclicity cutoff, above it or below; with no
    # check of its own, steering meets the roundoff bound wherever it answers
    rng = np.random.default_rng(1)
    verdicts = []
    for k in range(600):
        d = int(rng.integers(2, 9))
        f = rng.uniform(1.0, 4.0) if k % 2 else rng.uniform(0.25, 1.0)
        spectrum = np.geomspace(1.0, f * math.sqrt(d * 64 * 2.0**-52), d)
        m = haar_unitary(rng, d) @ np.diag(spectrum) @ haar_unitary(rng, d)
        v = make_state((d, d), {idx: complex(x) for idx, x in np.ndenumerate(m)}, normalize=True)
        target = rand_unit(rng, d)
        passed = cyclicity_test(v, 0).passed
        verdicts.append(passed)
        if passed:
            steering_miss(v, target)
        else:
            with pytest.raises(ValueError, match="^state is not cyclic"):
                steering_operator(v, 0, target)
    assert 250 <= sum(verdicts) <= 350, sum(verdicts)


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

    def test_unbalanced_split_never_forms_the_complement_density(self):
        # dim S = 46 < dim S' = 2116: never cyclic.  The 2116 x 2116 density is
        # beyond DENSE_BUDGET while the 2116 x 46 unfolding is not, so steering
        # refuses with its rank message and the witness warns, as for any split
        # that is not cyclic, without asking cyclicity_test
        d = 46
        rng = np.random.default_rng(3)
        c = rng.uniform(0.5, 1.0, d)
        v = make_state((d, d, d), {(i, i, i): c[i] for i in range(d)}, normalize=True)
        with pytest.raises(ValueError, match="2116x2116.*budget"):
            cyclicity_test(v, 0)
        refusal = r"^state is not cyclic for subsystem \(0,\): slice family has rank 46 < 2116$"
        with pytest.raises(ValueError, match=refusal):
            steering_operator(v, 0, rand_unit(rng, d * d))
        pp = rank1((1, 2), np.eye(d * d)[7 * d + 7])  # P' = |7, 7>
        got = correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp))
        assert got.warning
        assert got.achieved == conditional_probability(v, got.projector, pp)
        assert got.achieved == pytest.approx(1.0, abs=1e-12)

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
        pp = rank1(1, rand_unit(np.random.default_rng(2), 3))
        with pytest.raises(ValueError, match="^P' dimension 3 does not match complement dimension 2$"):
            correlation_witness(CorrelationQuery(state=corpus["bohm"], subsystem=(0,), p_prime=pp))

    def test_achieved_is_conditional_probability_exactly(self, corpus):
        rng = np.random.default_rng(17)
        bipartite = [v for v in corpus.values() if v.nfactors == 2]
        assert len(bipartite) == 4
        for v in bipartite:
            for k in range(2):
                pp = rank1(1 - k, rand_unit(rng, v.dims[1 - k]))
                res = correlation_witness(CorrelationQuery(state=v, subsystem=(k,), p_prime=pp))
                assert res.achieved == conditional_probability(v, res.projector, pp)

    def test_unreachable_direction_on_a_non_cyclic_state_is_refused(self):
        # cyclicity rank 3 of 4: the 2e-7 direction is cut, and P' asks for exactly it
        v = make_state((4, 4), {(0, 0): 1, (1, 1): 2e-7, (2, 2): 1, (3, 3): 1}, normalize=True)
        assert cyclicity_test(v, 0).rank == 3
        pp = rank1(1, [0.0, 1.0, 0.0, 0.0])
        with pytest.raises(
            ValueError,
            match=re.escape(
                "state is not cyclic for subsystem (0,) and the selected direction is unreachable"
            ),
        ):
            correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp))

    def test_fresh_and_repeat_call_unfoldings(self, corpus, monkeypatch):
        # on a fresh state the kept SVD and the complement density unfold the
        # split once each, in bilinear, and a repeat call reads both from the
        # state's memo; the witness also unfolds the split once for P', while
        # steering reads both through bilinear and unfolds nothing of its own
        import hyperstate.bilinear as bilinear
        import hyperstate.witness as witness

        calls = []
        for module in (witness, bilinear):
            unfold = module.unfold

            def counting(*args, unfold=unfold, name=module.__name__):
                calls.append(name)
                return unfold(*args)

            monkeypatch.setattr(module, "unfold", counting)
        pp = rank1(1, rand_unit(np.random.default_rng(5), 2))
        runs = (
            (
                lambda v: correlation_witness(CorrelationQuery(state=v, subsystem=(0,), p_prime=pp)),
                ["hyperstate.witness"],
            ),
            (lambda v: steering_operator(v, 0, np.array([1.0, 0.0])), []),
        )
        for run, own in runs:
            v = copy.copy(corpus["hardy2"])
            run(v)
            assert calls == own + ["hyperstate.bilinear", "hyperstate.bilinear"]
            calls.clear()
            run(v)
            assert calls == own
            calls.clear()


@pytest.mark.parametrize("k", (-560, -530, -500, 0, 500, 530, 600))
def test_witness_is_scale_invariant(k):
    # peak 0.8: beyond 2**+-200 the unfolding is scaled back to the k = 0 one exactly
    v = make_state((2, 2), {(0, 1): 0.6, (1, 0): 0.8})
    pp = rank1(1, [0.6, 0.8j])
    base, got = (
        correlation_witness(CorrelationQuery(state=s, subsystem=(0,), p_prime=pp))
        for s in (v, scaled_state(v, k))
    )
    for a, b in ((got.projector.basis, base.projector.basis), (got.target, base.target)):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert (got.achieved, got.warning) == (base.achieved, base.warning) == (1.0, False)
    probe = rank1(0, [1.0, 1.0])
    assert conditional_probability(scaled_state(v, k), probe, pp) == conditional_probability(v, probe, pp)


@pytest.mark.parametrize("k", (-560, -500, 530, 600))
def test_kept_svd_is_scale_free(k):
    # peak 0.75: the kept SVD is of the k = 0 unfolding exactly, and only coeffs carry 2**k
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m *= 0.75 / np.abs(m.view(np.float64)).max()
    v = make_state((3, 3), {idx: complex(x) for idx, x in np.ndenumerate(m)})
    w = scaled_state(v, k)
    base, got = schmidt_decompose(v, 0), schmidt_decompose(w, 0)
    for a, b in ((got.left_vectors, base.left_vectors), (got.right_vectors, base.right_vectors)):
        assert a.tobytes() == b.tobytes()  # bit for bit
    np.testing.assert_array_equal(got.coeffs, np.ldexp(base.coeffs, k))
    target = rand_unit(rng, 3)
    t_out = np.einsum("ai,ij->aj", steering_operator(w, 0, target), dense_tensor(w))
    expect = np.zeros((3, 3), dtype=np.complex128)
    expect[0, :] = target
    np.testing.assert_allclose(t_out, expect, atol=1e-10)
