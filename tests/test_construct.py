import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_tensor, random_schmidt_state
from hyperstate import (
    PAPER_STATE_NAMES,
    ExtensionParams,
    PairingFn,
    cube_window,
    default_seed,
    degree_bipartite,
    hyperentanglement_test,
    make_state,
    method1_build,
    method2_build,
    method2_extend,
    norm,
    paper_state,
    pairing_eval,
    pairing_fn,
    rank_tolerance,
    repair_bipartite,
    schmidt_decompose,
    support_test,
    window_certificate,
)

R2 = 1.0 / math.sqrt(2.0)
R3 = 1.0 / math.sqrt(3.0)
R7 = 1.0 / math.sqrt(7.0)


def oracle_support_3(bounds):
    # direct transcription of the support condition with a local pairing
    def j(a, b):
        return 2 ** a * 3 ** b

    hits = set()
    for a, b, c in itertools.product(*(range(n) for n in bounds)):
        if a == j(b, c) or b == j(a, c) or c == j(a, b):
            hits.add((a, b, c))
    return hits


class TestPairing:
    def test_lookup(self):
        assert pairing_fn("injection_2a3b").kind == "injection_2a3b"
        assert pairing_fn("bijection_interleave").kind == "bijection_interleave"
        with pytest.raises(ValueError):
            pairing_fn("nope")

    def test_frozen_values(self):
        p23 = pairing_fn("injection_2a3b")
        assert pairing_eval(p23, 0, 0) == 1
        assert pairing_eval(p23, 3, 2) == 72
        inter = pairing_fn("bijection_interleave")
        assert pairing_eval(inter, 1, 1) == 3
        assert pairing_eval(inter, 3, 2) == 13  # bits 11 and 10 interleave to 1101

    def test_interleave_bijective_on_byte_pairs(self):
        inter = pairing_fn("bijection_interleave")
        image = {pairing_eval(inter, a, b) for a in range(256) for b in range(256)}
        assert image == set(range(65536))

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_growth_law(self, a, b):
        # ranges kept below the 64-bit guard of the exponential pairing
        for kind in ("injection_2a3b", "bijection_interleave"):
            assert pairing_eval(pairing_fn(kind), a, b) >= max(a, b)

    def test_injective_on_grid(self):
        p23 = pairing_fn("injection_2a3b")
        values = [pairing_eval(p23, a, b) for a in range(12) for b in range(12)]
        assert len(values) == len(set(values))

    def test_argument_validation(self):
        p23 = pairing_fn("injection_2a3b")
        with pytest.raises(ValueError):
            pairing_eval(p23, -1, 0)
        with pytest.raises(ValueError):
            pairing_eval(p23, 0, -2)

    def test_overflow_raises_cleanly(self):
        p23 = pairing_fn("injection_2a3b")
        with pytest.raises(OverflowError):
            pairing_eval(p23, 65, 0)
        with pytest.raises(OverflowError):
            pairing_eval(p23, 0, 41)
        inter = pairing_fn("bijection_interleave")
        with pytest.raises(OverflowError):
            pairing_eval(inter, 2 ** 33, 0)
        # boundary values still evaluate
        assert pairing_eval(inter, 2 ** 32 - 1, 0) == 0x5555555555555555

    def test_custom_pairing_checked(self):
        flat = PairingFn(kind="flat", func=lambda a, b: 0)
        with pytest.raises(ValueError):
            pairing_eval(flat, 1, 0)
        huge = PairingFn(kind="huge", func=lambda a, b: 1 << 100)
        with pytest.raises(OverflowError, match="bits"):
            pairing_eval(huge, 0, 0)


class TestSupport:
    def test_against_oracle_enumeration(self):
        p23 = pairing_fn("injection_2a3b")
        bounds = (4, 4, 40)
        expected = oracle_support_3(bounds)
        got = {
            idx
            for idx in itertools.product(*(range(n) for n in bounds))
            if support_test(p23, idx)
        }
        assert got == expected

    def test_four_factor_single_hit(self):
        p23 = pairing_fn("injection_2a3b")
        hits = [d for d in range(40) if support_test(p23, (0, 0, 0, d))]
        assert hits == [3]  # j(0, j(0, 0)) = j(0, 1) = 3

    def test_four_factor_nested_overflow_is_false(self):
        # the nested inner value exceeds the exponent guard; the clause is
        # simply false rather than an error
        p23 = pairing_fn("injection_2a3b")
        assert support_test(p23, (0, 0, 0, 12)) is False

    def test_validation(self):
        p23 = pairing_fn("injection_2a3b")
        with pytest.raises(ValueError):
            support_test(p23, (0, 0))
        with pytest.raises(ValueError):
            support_test(p23, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            support_test(p23, (0, -1, 0))

    def test_vanishing_lemma_small_scope(self):
        # any coordinate larger than the pairing of the other two (in clause
        # order) forces the index out of the support
        p23 = pairing_fn("injection_2a3b")

        def j(a, b):
            return 2 ** a * 3 ** b

        for a, b, c in itertools.product(range(5), range(5), range(60)):
            if c > j(a, b) or a > j(b, c) or b > j(a, c):
                assert not support_test(p23, (a, b, c)), (a, b, c)


class TestMethod1:
    def test_reference_build(self):
        p23 = pairing_fn("injection_2a3b")
        v = method1_build(3, p23, (3, 3, 37))
        assert v.dims == (3, 3, 37)
        assert v.truncated_from_infinite
        support = {idx for idx, _ in v.items()}
        assert support == oracle_support_3((3, 3, 37))
        assert v.nnz == 13
        assert abs(norm(v) - 1.0) <= 1e-12
        # geometric weights: normalization cancels in ratios
        r = v.amplitude((0, 0, 1)) / v.amplitude((1, 2, 0))
        assert r == pytest.approx(2.0 ** (3 - 1))
        assert v.metadata["construction"] == "pairing_support"
        assert v.metadata["pairing"] == "injection_2a3b"
        assert v.metadata["bounds"] == [3, 3, 37]

    def test_reference_window_rank(self):
        p23 = pairing_fn("injection_2a3b")
        v = method1_build(3, p23, (3, 3, 37))
        cert = window_certificate(v, cube_window(v.dims, 2, 3))
        assert cert.passed and (cert.rank, cert.size) == (9, 9)

    def test_four_factor_build(self):
        p23 = pairing_fn("injection_2a3b")
        v = method1_build(4, p23, (2, 2, 2, 4))
        assert [idx for idx, _ in v.items()] == [(0, 0, 0, 3)]
        assert v.amplitude((0, 0, 0, 3)) == 1.0

    def test_custom_weights(self):
        p23 = pairing_fn("injection_2a3b")
        v = method1_build(3, p23, (3, 3, 37), weights=lambda idx: 1.0)
        amps = {abs(a) for _, a in v.items()}
        assert len(amps) == 1
        assert abs(norm(v) - 1.0) <= 1e-12

    def test_errors(self):
        p23 = pairing_fn("injection_2a3b")
        with pytest.raises(ValueError):
            method1_build(2, p23, (3, 3))
        with pytest.raises(ValueError):
            method1_build(3, p23, (3, 3))
        with pytest.raises(ValueError):
            method1_build(3, p23, (3, 3, 1))
        with pytest.raises(ValueError):
            method1_build(3, p23, (3, 3, 37), weights=lambda idx: 0.0)
        with pytest.raises(ValueError):  # no support below these bounds
            method1_build(4, p23, (2, 2, 2, 2))


class TestMethod2:
    def test_params_validation(self):
        assert ExtensionParams(2, 1, 0.01).p_prime == 5
        assert ExtensionParams(5, 2, 0.01).p_prime == 26
        assert ExtensionParams(26, 5, 0.01).p_prime == 677
        with pytest.raises(ValueError):
            ExtensionParams(1, 1, 0.01)
        with pytest.raises(ValueError):
            ExtensionParams(4, 0, 0.01)
        with pytest.raises(ValueError):
            ExtensionParams(4, 5, 0.01)
        with pytest.raises(ValueError):
            ExtensionParams(4, 3, 0.01)  # p < m**2
        with pytest.raises(ValueError):
            ExtensionParams(2, 1, 0.0)
        with pytest.raises(ValueError):
            ExtensionParams(2, 1, float("inf"))

    def test_single_stage_layout(self):
        eps = 0.01
        v = method2_extend(default_seed(), ExtensionParams(2, 1, eps))
        assert v.dims == (5, 5, 5)
        assert v.amplitude((0, 0, 0)) == 1.0  # preserved verbatim
        scale = math.sqrt(eps / 9.0)
        appended = {
            (0, 1, 2), (0, 2, 1), (2, 0, 1),
            (1, 0, 3), (1, 3, 0), (3, 1, 0),
            (1, 1, 4), (1, 4, 1), (4, 1, 1),
        }
        assert {idx for idx, _ in v.items()} == appended | {(0, 0, 0)}
        for idx in appended:
            assert v.amplitude(idx) == pytest.approx(scale)
        mass = math.fsum(abs(a) ** 2 for idx, a in v.items() if idx != (0, 0, 0))
        assert mass == pytest.approx(eps, abs=1e-15)

    def test_window_hypothesis_enforced(self):
        bad_seed = make_state((2, 2, 2), {(1, 1, 1): 1.0}, truncated_from_infinite=True)
        with pytest.raises(ValueError, match="window hypothesis"):
            method2_extend(bad_seed, ExtensionParams(2, 1, 0.01))
        with pytest.raises(ValueError, match="dims"):
            method2_extend(default_seed(), ExtensionParams(5, 2, 0.01))

    def test_build_two_stages(self):
        v = method2_build(2, (0.01, 0.005))
        assert v.dims == (26, 26, 26)
        assert v.truncated_from_infinite
        assert abs(norm(v) - 1.0) <= 1e-12
        hist = v.metadata["stage_history"]
        assert [(h["p"], h["m"], h["p_prime"]) for h in hist] == [(2, 1, 5), (5, 2, 26)]
        assert v.metadata["window_sizes"] == [2, 5]
        for size in (2, 5):
            for axis in range(3):
                assert window_certificate(v, cube_window(v.dims, axis, size)).passed

    def test_build_validation(self):
        with pytest.raises(ValueError):
            method2_build(0, ())
        with pytest.raises(ValueError):
            method2_build(2, (0.01,))
        with pytest.raises(ValueError):
            method2_build(1, (-0.5,))
        with pytest.raises(ValueError):
            method2_build(1, (0.01,), seed=make_state((3, 3, 3), {(0, 0, 0): 1.0}))
        with pytest.raises(ValueError):
            method2_build(1, (0.01,), seed=make_state((2, 2, 2), {(1, 1, 1): 1.0}))

    def test_impossible_stage_count_refused_before_building(self, monkeypatch):
        # stage 5 reaches p = 210066388901: its p**3 cube has no int64 positions
        from hyperstate import construct

        class Built(Exception):
            pass

        def extend(v, params):
            raise Built

        monkeypatch.setattr(construct, "method2_extend", extend)
        with pytest.raises(ValueError, match=r"\(210066388901, 210066388901, 210066388901\)"):
            method2_build(5, (0.01,) * 5)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            method2_build(40, (0.01,) * 40)
        with pytest.raises(Built):  # stage 4 (458330**3) still starts building
            method2_build(4, (0.01,) * 4)

    def test_custom_seed(self):
        seed = make_state(
            (2, 2, 2), {(0, 0, 0): R2, (1, 1, 1): R2}, truncated_from_infinite=True
        )
        v = method2_build(1, (0.02,), seed=seed)
        assert v.dims == (5, 5, 5)
        assert v.amplitude((1, 1, 1)) != 0j


class TestRepair:
    def test_noop_on_full_rank(self, corpus):
        assert repair_bipartite(corpus["bohm"]) is corpus["bohm"]

    def test_frozen_fill_values(self):
        delta = 0.1
        v = make_state((2, 2), {(0, 0): 1.0})
        out = repair_bipartite(v, delta=delta)
        scale = 1.0 / math.sqrt(1.0 + delta ** 2 / 4.0)
        assert abs(out.amplitude((0, 0))) == pytest.approx(scale)
        assert abs(out.amplitude((1, 1))) == pytest.approx((delta / 2.0) * scale)
        assert out.amplitude((0, 1)) == 0j
        assert out.amplitude((1, 0)) == 0j
        assert out.metadata["repair"] == {"replaced": 1, "delta": delta}

    def test_multiple_zeros_split_budget(self):
        d, delta = 5, 0.08
        v = make_state((d, d), {(0, 0): 1.0})
        out = repair_bipartite(v, delta=delta)
        sd = schmidt_decompose(out, 0)
        assert sd.rank == d
        # four zero coefficients each get delta / (2 sqrt(4)), then renormalize
        fill = delta / (2.0 * math.sqrt(d - 1))
        expect = fill / math.sqrt(1.0 + (d - 1) * fill ** 2)
        np.testing.assert_allclose(sd.coeffs[1:], expect, rtol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
    def test_random_rank_deficient_inputs(self, seed, d):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, d))
        v = random_schmidt_state(rng, d, rank)
        out = repair_bipartite(v, delta=0.05)
        assert hyperentanglement_test(out).overall == "hyperentangled"
        dist = math.sqrt(
            math.fsum(
                abs(out.amplitude(i) - v.amplitude(i)) ** 2
                for i in {i for i, _ in out.items()} | {i for i, _ in v.items()}
            )
        )
        assert dist <= 0.05

    @given(st.integers(2, 10), st.sampled_from([0.1, 0.01]))
    def test_near_product_repair_keeps_degree_small(self, d, delta):
        # degree is 1-Lipschitz in the state, so repairing a product state
        # by at most delta keeps the degree below delta
        out = repair_bipartite(make_state((d, d), {(0, 0): 1.0}), delta=delta)
        assert degree_bipartite(out).value < delta

    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_svd_oracle(self, axis):
        # U diag(c') Vh of the unfolding (rows over the other factor),
        # renormalised, with the dropped coefficients set to the fill value
        d, rank, delta = 64, 40, 0.1
        v = random_schmidt_state(np.random.default_rng(11), d, rank)
        out = repair_bipartite(v, axis, delta)
        t = dense_tensor(v)
        u, s, vh = np.linalg.svd(np.ascontiguousarray(t.T if axis == 0 else t))
        kept = int(np.count_nonzero(s > rank_tolerance(d, s[0])))
        c = s.copy()
        c[kept:] = delta / (2.0 * math.sqrt(d - kept))
        r = (u * c) @ vh
        r /= np.linalg.norm(r)
        np.testing.assert_allclose(
            dense_tensor(out), r.T if axis == 0 else r, rtol=0, atol=1e-14
        )
        assert out.metadata["repair"] == {"replaced": d - rank, "delta": delta}
        assert hyperentanglement_test(out).overall == "hyperentangled"

    def test_axis_choice(self):
        v = make_state((2, 2), {(0, 0): 1.0})
        out = repair_bipartite(v, subsystem=1, delta=0.1)
        assert abs(out.amplitude((1, 1))) > 0.0

    def test_errors(self, corpus):
        with pytest.raises(ValueError):
            repair_bipartite(corpus["ghz"])
        with pytest.raises(ValueError):
            repair_bipartite(make_state((2, 3), {(0, 0): 1.0}))
        with pytest.raises(ValueError):
            repair_bipartite(make_state((2, 2), {(0, 0): 0.5}))
        with pytest.raises(ValueError):
            repair_bipartite(make_state((2, 2), {(0, 0): 1.0}), delta=0.0)
        with pytest.raises(ValueError):
            repair_bipartite(make_state((2, 2), {(0, 0): 1.0}), subsystem=(0, 1))

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_refused(self, corpus, tol):
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            repair_bipartite(corpus["spin1_two_term"], tol=tol)

    def test_zero_tol_still_repairs_exact_zeros(self, corpus):
        out = repair_bipartite(corpus["spin1_two_term"], tol=0.0)
        assert out.metadata["repair"] == {"replaced": 1, "delta": 0.1}


class TestCatalog:
    def test_names(self):
        assert PAPER_STATE_NAMES == (
            "bohm", "ghz", "hardy2", "hardy3", "spin1_singlet", "spin1_two_term",
        )
        with pytest.raises(ValueError, match="bohm"):
            paper_state("unknown")

    def test_frozen_amplitudes(self, corpus):
        assert dict(corpus["bohm"].items()) == {(0, 1): R2, (1, 0): R2}
        assert dict(corpus["hardy2"].items()) == {(0, 1): R3, (1, 0): R3, (1, 1): R3}
        assert dict(corpus["spin1_singlet"].items()) == {
            (0, 0): R3, (1, 1): -R3, (2, 2): -R3,
        }
        assert dict(corpus["spin1_two_term"].items()) == {(0, 0): R2, (1, 1): -R2}
        assert dict(corpus["ghz"].items()) == {(0, 0, 0): R2, (1, 1, 1): R2}
        hardy3 = dict(corpus["hardy3"].items())
        assert len(hardy3) == 7
        assert (0, 0, 0) not in hardy3
        assert all(a == R7 for a in hardy3.values())

    def test_normalized_with_catalog_tag(self, corpus):
        for name, v in corpus.items():
            assert abs(norm(v) - 1.0) <= 1e-12, name
            assert v.metadata["catalog"] == name
            assert not v.truncated_from_infinite
