import dataclasses
import itertools
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_tensor, random_schmidt_state
from hyperstate import (
    PAIRING_NAMES,
    PAPER_STATE_NAMES,
    ExtensionParams,
    PairingFn,
    certify_state,
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
from hyperstate.io import load_state, save_state

GOLDEN = pathlib.Path(__file__).parent / "golden"
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


def oracle_support_4(bounds):
    # the nested clauses a = j(b, j(c, d)) and so on, with a local pairing;
    # j(x, y) >= y, so an inner value beyond every bound cannot pair
    def j(a, b):
        return 2 ** a * 3 ** b

    def nested(x, y, z):
        inner = j(y, z)
        return j(x, inner) if inner < max(bounds) else None

    return {
        (a, b, c, d)
        for a, b, c, d in itertools.product(*(range(n) for n in bounds))
        if a == nested(b, c, d) or b == nested(a, c, d) or c == nested(a, b, d) or d == nested(a, b, c)
    }


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

    @pytest.mark.parametrize("bounds", [(30, 3, 3, 3), (3, 30, 3, 3), (3, 3, 30, 3), (3, 3, 3, 30)])
    def test_four_factor_against_oracle(self, bounds):
        p23 = pairing_fn("injection_2a3b")
        got = {
            idx
            for idx in itertools.product(*(range(n) for n in bounds))
            if support_test(p23, idx)
        }
        assert got == oracle_support_4(bounds)
        assert got  # each axis holds at least one pairing value

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

    @given(
        st.sampled_from(PAIRING_NAMES),
        st.one_of(
            st.lists(st.integers(2, 24), min_size=3, max_size=3),
            st.lists(st.integers(2, 8), min_size=4, max_size=4),
        ),
    )
    def test_enumeration_equals_support_filter(self, kind, bounds):
        p = pairing_fn(kind)
        box = itertools.product(*(range(b) for b in bounds))
        want = [idx for idx in box if support_test(p, idx)]
        if not want:
            with pytest.raises(ValueError, match="no support"):
                method1_build(len(bounds), p, bounds)
            return
        v = method1_build(len(bounds), p, bounds)
        assert [idx for idx, _ in v.items()] == want

    def test_huge_bound_lists_the_same_support(self):
        # j(a, b) >= max(a, b): no coordinate beyond the small bounds can pair
        golden = load_state(GOLDEN / "state_method1_3_3_37.json")
        v = method1_build(3, pairing_fn("injection_2a3b"), (3, 3, 2**40))
        assert v.dims == (3, 3, 2**40)
        assert np.array_equal(v.indices, golden.indices)
        assert np.array_equal(v.amplitudes.view(np.uint64), golden.amplitudes.view(np.uint64))

    def test_custom_pairing_checked_only_where_evaluated(self):
        # the growth rule is assumed: j(3, .) is never evaluated below these
        # bounds, so breaking it there goes unnoticed by the build
        bad = PairingFn(kind="bad", func=lambda a, b: 0 if a >= 3 else 2**a * 3**b)
        v = method1_build(3, bad, (3, 10, 10))
        good = method1_build(3, pairing_fn("injection_2a3b"), (3, 10, 10))
        assert np.array_equal(v.indices, good.indices)
        with pytest.raises(ValueError, match="violates"):
            support_test(bad, (0, 3, 0))
        with pytest.raises(ValueError, match=r"violates .* at \(0, 1\)"):
            method1_build(3, PairingFn(kind="flat", func=lambda a, b: 0), (3, 3, 3))

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
        # the first vanishing index in lexicographic order is named: the
        # supported ones with b >= 10 are (0, 27, 3), (1, 18, 2), (2, 12, 1), ...
        with pytest.raises(ValueError, match=r"support index \(0, 27, 3\)$"):
            method1_build(3, p23, (32, 32, 32), weights=lambda idx: 0.0 if idx[1] >= 10 else 1.0)
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
        # epsilon / 9 underflows to 0, so every appended amplitude would be dropped
        for eps in (5e-324, 1e-323):
            with pytest.raises(ValueError, match=r"^epsilon .* too small"):
                ExtensionParams(2, 1, eps)
            with pytest.raises(ValueError, match=r"^epsilon .* too small"):
                method2_build(2, (0.01, eps))  # refused before stage 1 is built
        assert method2_build(1, (1e-320,)).nnz == 10

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
        with pytest.raises(ValueError, match="^extension is defined for 3 factors, got 2$"):
            method2_extend(make_state((2, 2), {(0, 0): 1.0}), ExtensionParams(2, 1, 0.01))

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
        with pytest.raises(TypeError):  # a stage count is an integer, as p and m are
            method2_build(2.0, (0.01, 0.005))
        assert method2_build(np.int64(2), (0.01, 0.005)).dims == (26, 26, 26)
        with pytest.raises(ValueError, match=r"dims \(3, 3, 3\) are not \(2, 2, 2\)"):
            method2_build(1, (0.01,), seed=make_state((3, 3, 3), {(0, 0, 0): 1.0}))
        with pytest.raises(ValueError, match="^window hypothesis fails on axis 0: .* 1-window$"):
            method2_build(1, (0.01,), seed=make_state((2, 2, 2), {(1, 1, 1): 1.0}))
        # a seed whose stage record ends elsewhere would record bogus window sizes
        record = [{"p": 9, "m": 3, "epsilon": 0.5, "p_prime": 81}]
        seed = make_state(
            (2, 2, 2), {(0, 0, 0): 1.0}, metadata={"stage_history": record, "window_sizes": [9]}
        )
        with pytest.raises(ValueError, match="^metadata records a stage ending at p=81, not 2$"):
            method2_build(2, (0.01, 0.005), seed=seed)

    @pytest.mark.parametrize("history, field", [
        ([{"p": 2}], r"^metadata\.stage_history\[0\]: missing field 'm'$"),
        ("ab", r"^metadata\.stage_history: must be a list of stage records, got 'ab'$"),
        ([5], r"^metadata\.stage_history\[0\]: must be an object, got 5$"),
    ])
    def test_bad_stage_records_are_refused(self, history, field):
        # these once reached the stage body unchecked: KeyError 'p_prime', or a TypeError
        def seed():
            return make_state((2, 2, 2), {(0, 0, 0): 1.0}, metadata={"stage_history": history})

        with pytest.raises(ValueError, match=field):
            method2_build(1, (0.01,), seed())
        with pytest.raises(ValueError, match=field):
            method2_extend(seed(), ExtensionParams(2, 1, 0.01))

    def test_params_hold_plain_numbers(self, tmp_path):
        # numpy scalars are accepted, and the stage record holds them as a
        # state file does, so the state passes the metadata rule and saves
        params = ExtensionParams(np.int64(2), np.int32(1), np.float32(0.25))
        assert [type(x) for x in (params.p, params.m, params.epsilon)] == [int, int, float]
        v = method2_extend(default_seed(), params)
        assert v.metadata["stage_history"] == [
            {"p": 2, "m": 1, "epsilon": 0.25, "p_prime": 5}
        ]
        save_state(v, tmp_path / "v.json")
        assert load_state(tmp_path / "v.json") == v
        with pytest.raises(TypeError):
            ExtensionParams(2.5, 1, 0.01)

    def test_stage_record_must_end_at_the_input(self):
        v = method2_extend(default_seed(), ExtensionParams(2, 1, 0.01))  # record ends at 5
        assert method2_extend(v, ExtensionParams(5, 2, 0.005)).dims == (26, 26, 26)
        meta = v.metadata
        meta["stage_history"][-1]["p_prime"] = 26
        w = make_state(v.dims, dict(v.items()), metadata=meta)
        with pytest.raises(ValueError, match="^metadata records a stage ending at p=26, not 5$"):
            method2_extend(w, ExtensionParams(5, 2, 0.005))

    def test_impossible_stage_count_refused_before_building(self, monkeypatch):
        # stage 5 reaches p = 210066388901: its p**3 cube has no int64 positions
        from hyperstate import construct

        class Built(Exception):
            pass

        def extend(v, params, *, normalize=False):
            raise Built

        monkeypatch.setattr(construct, "method2_extend", extend)
        with pytest.raises(ValueError, match=r"\(210066388901, 210066388901, 210066388901\)"):
            method2_build(5, (0.01,) * 5)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            method2_build(40, (0.01,) * 40)
        with pytest.raises(ValueError, match="epsilon"):  # a bad last stage, too
            method2_build(3, (0.01, 0.01, float("nan")))
        with pytest.raises(Built):  # stage 4 (458330**3) still starts building
            method2_build(4, (0.01,) * 4)

    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("custom", [False, True])
    def test_build_is_one_pass(self, monkeypatch, stages, custom):
        # bit for bit the chain of public stages normalized once, from one
        # _state_from_arrays call per stage
        from hyperstate import construct
        from hyperstate.state import _state_from_arrays

        seed = None
        if custom:  # unnormalized, complex, with metadata of its own
            seed = make_state(
                (2, 2, 2),
                {(0, 0, 0): 0.5 + 0.5j, (0, 1, 1): -0.25, (1, 0, 1): 0.75j, (1, 1, 1): 1.0},
                truncated_from_infinite=True,
                metadata={"source": "custom"},
            )
        eps = (0.01, 0.005, 0.0025)[:stages]
        chain, p, m = default_seed() if seed is None else seed, 2, 1
        for e in eps:
            chain = method2_extend(chain, ExtensionParams(p, m, e))
            p, m = chain.dims[0], p
        assert chain.metadata["window_sizes"] == [2, 5, 26][:stages]
        old = _state_from_arrays(
            chain.dims, chain.indices, chain.amplitudes, normalize=True,
            truncated_from_infinite=True, metadata=chain.metadata,
        )

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _state_from_arrays(*args, **kwargs)

        monkeypatch.setattr(construct, "_state_from_arrays", counted)
        built = method2_build(stages, eps, seed=seed)
        assert len(calls) == stages
        assert built.dims == old.dims
        for field in ("indices", "amplitudes"):
            a, b = getattr(built, field), getattr(old, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (built._norm, built._scale) == (old._norm, old._scale)
        assert built.truncated_from_infinite and old.truncated_from_infinite
        assert list(built.metadata.items()) == list(old.metadata.items())

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_build_goes_through_the_public_stage(self, monkeypatch, stages):
        # wrapped as a tracer wraps it: every stage is a method2_extend call
        from hyperstate import construct

        public, flags = construct.method2_extend, []

        def traced(v, params, **kwargs):
            flags.append(kwargs.get("normalize", False))
            return public(v, params, **kwargs)

        monkeypatch.setattr(construct, "method2_extend", traced)
        method2_build(stages, (0.01, 0.005, 0.0025)[:stages])
        assert flags == [False] * (stages - 1) + [True]

    def test_normalized_stage_is_a_one_stage_build(self):
        v = method2_extend(default_seed(), ExtensionParams(2, 1, 0.01), normalize=True)
        built = method2_build(1, (0.01,))
        for field in ("indices", "amplitudes"):
            a, b = getattr(v, field), getattr(built, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (v._norm, v._scale) == (built._norm, built._scale)
        assert list(v.metadata.items()) == list(built.metadata.items())

    def test_every_stage_records_its_windows(self, tmp_path):
        from hyperstate.cli import run_cli

        v = method2_extend(default_seed(), ExtensionParams(2, 1, 0.01))
        w = method2_extend(v, ExtensionParams(5, 2, 0.005))
        assert v.metadata["window_sizes"] == [2]
        assert w.metadata["window_sizes"] == [2, 5]
        assert not w.is_normalized
        assert certify_state(w, windows=True).positive
        save_state(w, tmp_path / "w.json")
        assert run_cli(["certify", "--state", str(tmp_path / "w.json"), "--windows", "full"]) == 0

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

    @staticmethod
    def _assert_matches_the_outer_product_loop(v, axis):
        # the rebuilt matrix is sum_k c_k left_k (x) right_k, here summed term by term
        out = repair_bipartite(v, axis, 0.05)
        sd = schmidt_decompose(v, axis)
        fill = 0.05 / (2.0 * math.sqrt(sd.coeffs.size - sd.rank))
        mat = np.zeros(v.dims, dtype=np.complex128)
        for k, (left, right) in enumerate(zip(sd.left_vectors, sd.right_vectors)):
            mat += (sd.coeffs[k] if k < sd.rank else fill) * np.outer(left, right)
        mat = (mat.T if axis == 1 else mat) / np.linalg.norm(mat)
        got = dense_tensor(out)
        assert np.array_equal(got != 0, mat != 0)
        np.testing.assert_allclose(got, mat, rtol=0, atol=1e-14)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 16), st.sampled_from([0, 1]))
    def test_one_product_matches_the_outer_product_loop(self, seed, d, axis):
        rng = np.random.default_rng(seed)
        v = random_schmidt_state(rng, d, int(rng.integers(1, d)))
        self._assert_matches_the_outer_product_loop(v, axis)

    # states with exact zeros, where a rounding-level entry would change the support
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize(
        "v",
        [
            paper_state("spin1_two_term"),
            make_state((2, 2), {(0, 0): 1.0}),
            make_state((5, 5), {(0, 0): 1.0}),
            make_state((3, 3), {(2, 1): 1.0}),
            make_state((3, 3), {(0, 0): 0.6, (1, 2): 0.8}),
            make_state((4, 4), {(0, 1): 2.0, (1, 0): -1.0j, (2, 3): 1.0}, normalize=True),
        ],
        ids=["spin1_two_term", "product2", "product5", "product3_off", "rank2of3", "rank3of4"],
    )
    def test_structured_repair_matches_the_outer_product_loop(self, v, axis):
        self._assert_matches_the_outer_product_loop(v, axis)

    def test_large_tol_refused_beyond_delta(self):
        # tol = 0.6 cuts the coefficients 0.5 and 0.33; their fill of about
        # 0.035 would move the state about 0.57, so repair refuses
        v = make_state((3, 3), {(0, 0): 0.8, (1, 1): 0.5, (2, 2): 0.33}, normalize=True)
        with pytest.raises(ValueError, match=r"0\.57\d*, beyond delta=0\.1; use a smaller tol"):
            repair_bipartite(v, delta=0.1, tol=0.6)
        out = repair_bipartite(v, delta=0.9, tol=0.6)
        assert np.linalg.norm(dense_tensor(out) - dense_tensor(v)) <= 0.9

    @given(
        st.integers(0, 2 ** 31 - 1),
        st.integers(2, 6),
        st.floats(0.0, 1.0),
        st.sampled_from([0.05, 0.3]),
    )
    def test_any_tol_stays_within_delta(self, seed, d, cut, delta):
        # a caller's tol may cut coefficients far above the fill: repair
        # either stays within delta of the input or refuses, and refuses for
        # distance only where the dense SVD oracle's distance passes delta
        v = random_schmidt_state(np.random.default_rng(seed), d, d)
        t = dense_tensor(v)
        u, s, vh = np.linalg.svd(t)
        tol = cut * s[0]
        kept = schmidt_decompose(v, 0, tol).rank
        c = s.copy()
        c[kept:] = delta / (2.0 * math.sqrt(max(d - kept, 1)))
        oracle = np.linalg.norm(c / np.linalg.norm(c) - s)
        try:
            out = repair_bipartite(v, delta=delta, tol=tol)
        except ValueError as exc:
            if "beyond delta" in str(exc):
                assert oracle > delta - 1e-12
            else:
                assert "too small to certify" in str(exc)
            return
        assert np.linalg.norm(dense_tensor(out) - t) <= delta

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

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol_refused(self, corpus, tol):
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            repair_bipartite(corpus["spin1_two_term"], tol=tol)

    def test_zero_tol_still_repairs_exact_zeros(self, corpus):
        out = repair_bipartite(corpus["spin1_two_term"], tol=0.0)
        assert out.metadata["repair"] == {"replaced": 1, "delta": 0.1}

    def test_too_small_delta_refused(self, corpus):
        # a 5e-9 fill passes the Schmidt cutoff, but its square fails certification
        message = "Schmidt coefficient 5e-09 is too small to certify; use a delta above 1e-08"
        with pytest.raises(ValueError, match=re.escape(message)):
            repair_bipartite(corpus["spin1_two_term"], 0, 1e-8)

    def test_tiny_kept_coefficient_refused(self):
        v = make_state((3, 3), {(0, 0): 0.7, (1, 1): 0.7, (2, 2): 1e-9}, normalize=True)
        c = float(schmidt_decompose(v, 0).coeffs[2])
        assert hyperentanglement_test(v).overall == "not_hyperentangled"
        message = f"Schmidt coefficient {c!r} is too small to certify; use tol={c!r} or above"
        with pytest.raises(ValueError, match=re.escape(message)):
            repair_bipartite(v, 0, 0.1)
        for tol in (c, 1e-8):
            out = repair_bipartite(v, 0, 0.1, tol)
            assert out.metadata["repair"] == {"replaced": 1, "delta": 0.1}
            assert hyperentanglement_test(out).overall == "hyperentangled"

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.floats(-12.0, math.log10(0.5)))
    def test_result_is_certified_or_refused(self, seed, d, log_delta):
        rng = np.random.default_rng(seed)
        v = random_schmidt_state(rng, d, int(rng.integers(1, d + 1)))
        try:
            out = repair_bipartite(v, delta=10.0**log_delta)
        except ValueError:
            return
        assert hyperentanglement_test(out).overall == "hyperentangled"


class TestCatalog:
    def test_shared_state_cannot_be_edited(self):
        v = paper_state("bohm")
        before = (v.dims, norm(v), v.is_normalized, v.truncated_from_infinite)
        v.metadata["catalog"] = "edited"
        for arr in (v.amplitudes, v.indices):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            with pytest.raises(ValueError):
                arr[0] = 0
        fields = (
            "dims", "indices", "amplitudes", "truncated_from_infinite", "_metadata", "_scale",
            "_norm", "_memos",
        )
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(v, name, 3.0)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert {f.name for f in dataclasses.fields(v)} == set(fields)
        v = paper_state("bohm")
        assert (v.dims, norm(v), v.is_normalized, v.truncated_from_infinite) == before
        assert before[1] == pytest.approx(1.0) and before[2]
        assert v.metadata == {"catalog": "bohm"}
        assert dict(v.items()) == {(0, 1): R2, (1, 0): R2}

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
            assert v.metadata == {"catalog": name}
            assert v is paper_state(name)
            assert not v.truncated_from_infinite
