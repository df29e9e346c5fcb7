import copy
import itertools
import math
import pickle
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import dense_tensor, random_state, scaled_state
from hyperstate import (
    DROP_THRESHOLD,
    CorrelationQuery,
    Projector,
    StateTensor,
    Subsystem,
    Window,
    correlation_witness,
    cube_window,
    cyclicity_test,
    degree_bipartite,
    degree_multipartite,
    dimension_gate,
    inner,
    make_state,
    method1_build,
    norm,
    pairing_eval,
    pairing_fn,
    paper_state,
    reduced_density,
    repair_bipartite,
    schmidt_decompose,
    slice_family,
    steering_operator,
    support_test,
    unfold,
)
from hyperstate import state as hs_state

R2 = 1.0 / math.sqrt(2.0)


def small_dims():
    return st.lists(st.integers(min_value=2, max_value=3), min_size=2, max_size=3)


def sparse_entries(dims):
    idx = st.tuples(*(st.integers(0, d - 1) for d in dims))
    amp = st.complex_numbers(
        min_magnitude=1e-6, max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
    return st.dictionaries(idx, amp, min_size=1, max_size=12)


class TestSubsystem:
    def test_coerce_forms(self):
        assert Subsystem.coerce(1).indices == (1,)
        assert Subsystem.coerce([2, 0]).indices == (0, 2)
        s = Subsystem((0, 2))
        assert Subsystem.coerce(s) is s

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            Subsystem(())
        with pytest.raises(ValueError):
            Subsystem((-1,))
        with pytest.raises(ValueError):
            Subsystem((1, 1))
        with pytest.raises(ValueError):
            Subsystem((2, 0))
        with pytest.raises(ValueError):
            Subsystem.coerce([0, 0])

    def test_complement_and_proper_subset(self):
        assert Subsystem((1,)).complement(3).indices == (0, 2)
        assert Subsystem((0, 2)).complement(3).indices == (1,)
        with pytest.raises(ValueError):
            Subsystem((3,)).validate_for(3)
        with pytest.raises(ValueError):
            Subsystem((0, 1)).validate_for(2)


class TestMakeState:
    def test_basic_lookup_and_sorting(self):
        v = make_state((2, 2), {(1, 0): 2j, (0, 1): 1.0})
        assert v.dims == (2, 2)
        assert v.nnz == 2
        assert v.amplitude((0, 1)) == 1.0
        assert v.amplitude((1, 0)) == 2j
        assert v.amplitude((0, 0)) == 0j
        assert [idx for idx, _ in v.items()] == [(0, 1), (1, 0)]

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            make_state((2,), {(0,): 1.0})
        with pytest.raises(ValueError):
            make_state((2, 1), {(0, 0): 1.0})
        with pytest.raises(ValueError):
            make_state((2, 2), {(0,): 1.0})
        with pytest.raises(ValueError):
            make_state((2, 2), {(0, 2): 1.0})
        with pytest.raises(ValueError):
            make_state((2, 2), {(-1, 0): 1.0})
        with pytest.raises(ValueError):
            make_state((2, 2), {(0, 0): float("nan")})
        with pytest.raises(ValueError):
            make_state((2, 2), [((0, 0), 1.0), ((0, 0), 2.0)])

    def test_normalize(self):
        v = make_state((2, 2), {(0, 1): 3.0, (1, 0): 4.0}, normalize=True)
        assert abs(norm(v) - 1.0) <= 1e-15
        assert abs(v.amplitude((0, 1)) - 0.6) <= 1e-15
        assert v.is_normalized

    def test_normalize_zero_state_fails(self):
        with pytest.raises(ValueError):
            make_state((2, 2), {}, normalize=True)
        # amplitudes at the drop threshold vanish, leaving nothing to scale
        with pytest.raises(ValueError):
            make_state((2, 2), {(0, 0): 1e-320}, normalize=True)

    def test_drop_threshold(self):
        v = make_state((2, 2), {(0, 0): 1.0, (1, 1): 1e-320})
        assert v.nnz == 1

    def test_metadata_and_flags_copied(self):
        meta = {"tag": 1}
        v = make_state((2, 2), {(0, 0): 1.0}, truncated_from_infinite=True, metadata=meta)
        assert v.truncated_from_infinite
        assert v.metadata == {"tag": 1}
        meta["tag"] = 2
        assert v.metadata == {"tag": 1}

    def test_metadata_is_a_deep_copy(self):
        meta = {"history": [{"p": 2}]}
        v = make_state((2, 2), {(0, 0): 1.0}, metadata=meta)
        meta["history"][0]["p"] = 3
        got = v.metadata
        got["history"].append("x")
        got["tag"] = 1
        assert v.metadata == {"history": [{"p": 2}]}
        bohm = paper_state("bohm")
        bohm.metadata["catalog"] = "ghz"
        assert bohm.metadata["catalog"] == "bohm"

    def test_equality(self):
        a = make_state((2, 2), {(0, 1): R2, (1, 0): R2})
        b = make_state((2, 2), {(1, 0): R2, (0, 1): R2})
        c = make_state((2, 2), {(0, 1): R2, (1, 0): -R2})
        assert a == b
        assert a != c

    def test_equality_with_a_non_state(self):
        v = make_state((2, 2), {(0, 0): 1.0})
        assert v.__eq__(1) is NotImplemented  # so Python falls back to identity
        assert (v == 1) is False
        assert v != "v"


class TestUnitRule:
    """``is_normalized`` is the one unit-state rule that degree and repair apply."""

    USERS = {
        "degree_bipartite": degree_bipartite,
        "degree_multipartite": lambda v: degree_multipartite(v, restarts=1),
        "repair_bipartite": repair_bipartite,
    }

    @staticmethod
    def bohm_off_by(excess):
        """A bohm-like state with ``norm - 1`` equal to ``excess``."""
        a = R2 * (1.0 + excess)
        v = make_state((2, 2), {(0, 1): a, (1, 0): a})
        assert norm(v) - 1.0 == pytest.approx(excess, rel=1e-4)
        return v

    @pytest.mark.parametrize("use", USERS.values(), ids=USERS.keys())
    def test_just_inside_is_accepted(self, use):
        v = self.bohm_off_by(2.5e-11)
        assert v.is_normalized
        use(v)

    @pytest.mark.parametrize("use", USERS.values(), ids=USERS.keys())
    def test_outside_is_refused(self, use):
        v = self.bohm_off_by(4e-10)
        assert not v.is_normalized
        with pytest.raises(ValueError, match="unit states|must be normalized"):
            use(v)

    def test_repair_refuses_both_factors(self):
        with pytest.raises(ValueError, match="subsystem"):
            repair_bipartite(paper_state("bohm"), (0, 1))


@given(small_dims().flatmap(lambda d: st.tuples(st.just(tuple(d)), sparse_entries(d))))
def test_norm_matches_dense_oracle(data):
    dims, entries = data
    v = make_state(dims, entries)
    assert norm(v) == pytest.approx(np.linalg.norm(dense_tensor(v)), rel=1e-12, abs=1e-12)


@given(small_dims().flatmap(lambda d: st.tuples(st.just(tuple(d)), sparse_entries(d))))
def test_entry_insertion_order_irrelevant(data):
    dims, entries = data
    forward = make_state(dims, list(entries.items()))
    backward = make_state(dims, list(reversed(list(entries.items()))))
    assert forward == backward


def test_inner_products():
    u = make_state((2, 2), {(0, 1): 1.0})
    v = make_state((2, 2), {(0, 1): 2j, (1, 0): 5.0})
    assert inner(u, v) == 2j
    assert inner(v, u) == -2j
    assert inner(v, v) == pytest.approx(norm(v) ** 2)
    with pytest.raises(ValueError):
        inner(u, make_state((2, 3), {(0, 0): 1.0}))


def test_slice_family_frozen_example():
    # (|01> + |10>) / sqrt(2): slicing on factor 0 keys the vectors by the
    # factor-1 index, so key (0,) carries e_1 and key (1,) carries e_0; the
    # unfolding stacks the same vectors as its rows.
    v = make_state((2, 2), {(0, 1): R2, (1, 0): R2})
    fam = slice_family(v, 0)
    assert type(fam) is dict and list(fam) == [(0,), (1,)]
    np.testing.assert_allclose(fam[(0,)], [0.0, R2])
    np.testing.assert_allclose(fam[(1,)], [R2, 0.0])
    np.testing.assert_allclose(unfold(v, 0), [[0.0, R2], [R2, 0.0]])


def test_slice_family_three_factors():
    v = make_state((2, 2, 2), {(0, 0, 0): R2, (1, 1, 1): R2})
    fam = slice_family(v, (0, 2))
    # key is the factor-1 index; kept coords (i0, i2) ravel C-order
    expect = [[R2, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, R2]]
    np.testing.assert_allclose(unfold(v, (0, 2)), expect)
    assert list(fam) == [(0,), (1,)]
    np.testing.assert_allclose([fam[(0,)], fam[(1,)]], expect)


def test_slice_family_keeps_only_nonzero_slices():
    # key (1,) holds only an amplitude below DROP_THRESHOLD, key (2,) nothing
    v = make_state((2, 3), {(0, 0): 1.0, (1, 1): DROP_THRESHOLD, (1, 2): 0.0})
    fam = slice_family(v, 0)
    assert list(fam) == [(0,)]
    np.testing.assert_array_equal(fam[(0,)], [1.0, 0.0])
    np.testing.assert_array_equal(unfold(v, 0), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


def test_slice_family_refused_beyond_dense_budget():
    # three nonzero slices of 2**23 amplitudes each: a 384 MiB block
    v = make_state((2**23, 2, 2), {(0, 0, 0): 1.0, (1, 0, 1): 0.5, (2, 1, 0): 0.25})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="3x8388608.*budget"):
            slice_family(v, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # refused before the block exists
    assert len(slice_family(v, (1, 2))) == 3  # 3 x 4 block


@given(st.integers(0, 2 ** 31 - 1), small_dims())
def test_slice_roundtrip_reconstructs_exactly(seed, dims_list):
    dims = tuple(dims_list)
    v = random_state(np.random.default_rng(seed), dims)
    for nsel in range(1, len(dims)):
        for sel in itertools.combinations(range(len(dims)), nsel):
            comp = [k for k in range(len(dims)) if k not in sel]
            part_dims = [dims[k] for k in sel]
            rebuilt = np.zeros(dims, dtype=np.complex128)
            for key, vec in slice_family(v, sel).items():
                block = vec.reshape(part_dims)
                for coords in itertools.product(*(range(d) for d in part_dims)):
                    idx = [0] * len(dims)
                    for slot, k in enumerate(sel):
                        idx[k] = coords[slot]
                    for slot, k in enumerate(comp):
                        idx[k] = key[slot]
                    rebuilt[tuple(idx)] = block[coords]
            # extraction moves amplitudes without arithmetic: exact equality
            assert np.array_equal(rebuilt, dense_tensor(v))


@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(2, 4))
def test_bipartite_slice_transpose_relation(seed, d0, d1):
    v = random_state(np.random.default_rng(seed), (d0, d1))
    assert np.array_equal(unfold(v, 0), unfold(v, 1).T)


def test_slices_are_readonly():
    v = make_state((2, 3), {(0, 1): 1.0, (1, 2): 0.5})
    fam = slice_family(v, 0)
    assert not any(vec.flags.writeable for vec in fam.values())
    with pytest.raises(ValueError):
        fam[(1,)][0] = 0.0


def unkept_schmidt(attr: str) -> np.ndarray:
    """An array of a decomposition the state could not keep: the budget admits the 2x2
    unfolding (64 bytes) but not its SVD (144 bytes)."""
    v = copy.copy(paper_state("hardy2"))
    with mock.patch.object(hs_state, "DENSE_BUDGET", 100):
        sd = schmidt_decompose(v, 0)
    assert v._memos == {}
    return getattr(sd, attr)


HANDED_OUT = {
    "Projector.basis": lambda: Projector((0,), [[1.0, 0.0]]).basis,
    "copied Projector.basis": lambda: copy.copy(Projector((0,), [[1.0, 0.0]])).basis,
    "deep-copied Projector.basis": lambda: copy.deepcopy(Projector((0,), [[1.0, 0.0]])).basis,
    "unpickled Projector.basis": lambda: pickle.loads(
        pickle.dumps(Projector((0,), [[1.0, 0.0]]))
    ).basis,
    "steering_operator": lambda: steering_operator(paper_state("bohm"), 0, [1.0, 0.0]),
    "WitnessResult.target": lambda: correlation_witness(
        CorrelationQuery(paper_state("hardy2"), (0,), Projector((1,), [[1.0, 0.0]]))
    ).target,
    "degree_bipartite left": lambda: degree_bipartite(paper_state("bohm"), 0).best_product[0],
    "degree_bipartite right": lambda: degree_bipartite(paper_state("bohm"), 0).best_product[1],
    "degree_multipartite": lambda: degree_multipartite(paper_state("ghz"), restarts=2).best_product[0],
    "reduced_density": lambda: reduced_density(paper_state("hardy2"), 0),
    "scaled coeffs": lambda: schmidt_decompose(scaled_state(paper_state("hardy2"), 300), 0).coeffs,
    "CyclicityResult.witness": lambda: cyclicity_test(paper_state("spin1_two_term"), 0).witness,
    "unkept coeffs": lambda: unkept_schmidt("coeffs"),
    "unkept left_vectors": lambda: unkept_schmidt("left_vectors"),
    "unkept right_vectors": lambda: unkept_schmidt("right_vectors"),
}


@pytest.mark.parametrize("name", HANDED_OUT)
def test_handed_out_arrays_cannot_be_made_writeable(name):
    # each lies over immutable bytes (state._immutable), so its flag cannot be set back
    arr = HANDED_OUT[name]()
    with pytest.raises(ValueError):
        arr.flags.writeable = True


def test_repr_mentions_shape():
    v = make_state((2, 2), {(0, 1): 1.0})
    text = repr(v)
    assert "dims=(2, 2)" in text and "nnz=1" in text


def bits(z: complex) -> tuple[str, str]:
    """Both components as hex floats, so -0.0 and 0.0 differ."""
    return z.real.hex(), z.imag.hex()


class TestColumnarStorage:
    """A state is two read-only arrays: lexsorted int64 indices, complex128 amplitudes."""

    @given(small_dims().flatmap(lambda d: st.tuples(st.just(tuple(d)), sparse_entries(d))))
    def test_arrays_and_items_match_a_dict_oracle(self, data):
        dims, entries = data
        v = make_state(dims, list(reversed(list(entries.items()))))
        assert v.indices.dtype == np.int64 and v.indices.shape == (v.nnz, len(dims))
        assert v.amplitudes.dtype == np.complex128 and v.amplitudes.shape == (v.nnz,)
        rows = [tuple(r) for r in v.indices.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly lexsorted
        want = {idx: complex(a) for idx, a in entries.items()}
        assert v.items() == tuple(sorted(want.items()))
        for idx, amp in want.items():
            assert v.amplitude(idx) == amp

    def test_arrays_are_read_only(self):
        v = make_state((2, 3), {(1, 2): 1.0, (0, 1): 2j})
        with pytest.raises(ValueError):
            v.indices[0, 0] = 1
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0j
        with pytest.raises(AttributeError):
            v.indices = np.zeros((2, 2), dtype=np.int64)
        for arr in (v.indices, v.amplitudes, v.indices.base, v.amplitudes.base):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        with pytest.raises(TypeError):
            hash(v)
        for other in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert other == v and other is not v
            assert repr(other) == repr(v) == "StateTensor(dims=(2, 3), nnz=2, norm=2.23607, truncated=False)"
            assert (other.items(), other.metadata, norm(other)) == (v.items(), v.metadata, norm(v))
            for arr in (other.indices, other.amplitudes):  # rebuilt read-only, for good
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
        assert v != make_state((2, 3), {(1, 2): 1.0, (0, 1): 2j}, truncated_from_infinite=True)

    def test_amplitude_of_foreign_keys_is_zero(self):
        v = make_state((2, 3), {(0, 0): 1.0, (1, 2): 2.0})
        for key in [(0,), (), (0, 0, 0), (2, 0), (0, 3), (-1, 0), (2**64, 0), (0, 1)]:
            assert v.amplitude(key) == 0j, key
        assert v.amplitude(np.array([1, 2])) == 2.0

    @given(
        small_dims().flatmap(
            lambda d: st.tuples(st.just(tuple(d)), sparse_entries(d), sparse_entries(d))
        )
    )
    def test_inner_matches_dense_oracle(self, data):
        dims, a, b = data
        u, v = make_state(dims, a), make_state(dims, b)
        want = complex(np.vdot(dense_tensor(u), dense_tensor(v)))
        assert inner(u, v) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert inner(v, u) == pytest.approx(want.conjugate(), rel=1e-12, abs=1e-12)

    def test_inner_beyond_the_float_range(self):
        u = make_state((2, 2), {(0, 0): 2.0**600, (1, 1): 2.0**600})
        w = make_state((2, 2), {(0, 0): 2.0**500, (1, 1): -(2.0**500)})
        assert math.isfinite(norm(u)) and math.isfinite(norm(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
            assert bits(inner(u, w)) == bits(0j)  # the products cancel exactly
            assert inner(u, u) == math.inf
            assert inner(scaled_state(u, -1200), u) == 2.0
            t = make_state((2, 2), {(0, 0): 2.0**600 - 2.0**600 * 1j})
            assert inner(t, u) == complex(math.inf, math.inf)  # each part keeps its sign
            assert inner(u, t) == complex(math.inf, -math.inf)

    @pytest.mark.parametrize(
        "a, b", [(0, 0), (300, -300), (600, 0), (-700, 650), (550, 400), (-560, -470)]
    )
    def test_inner_scales_exactly(self, a, b):
        rng = np.random.default_rng(0)
        u, w = (random_state(rng, (3, 2)) for _ in range(2))
        want = inner(u, w)
        got = inner(scaled_state(u, a), scaled_state(w, b))
        assert bits(got) == bits(complex(*(math.ldexp(x, a + b) for x in (want.real, want.imag))))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0),
                st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0),
            ),
            min_size=1,
            max_size=9,
        )
    )
    @example([(-0.0, 1.0), (3.0, -0.0), (-2.0, -0.0)])
    @example([(-0.0, 1.0)])  # already unit: stored as given
    def test_normalize_is_python_complex_division(self, parts):
        entries = {(k // 3, k % 3): complex(re, im) for k, (re, im) in enumerate(parts)}
        raw = make_state((3, 3), entries)
        n = norm(raw)
        assume(n > 0.0)
        v = make_state((3, 3), entries, normalize=True)
        for idx, amp in raw.items():
            assert bits(v.amplitude(idx)) == bits(amp if n == 1.0 else amp / n), idx

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @example([(1e200, 0.0), (0.0, 1e200)])  # squares overflow
    @example([(1e-299, 0.0), (-3e-300, 2e-300)])  # squares underflow
    @example([(1.7e308, 1.7e308)])  # the norm itself overflows
    def test_norm_over_the_full_float_range(self, parts):
        entries = {(k // 2, k % 2): complex(re, im) for k, (re, im) in enumerate(parts)}
        kept = [x for re, im in parts if math.hypot(re, im) > DROP_THRESHOLD for x in (re, im)]
        assume(kept)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
            n = norm(make_state((2, 2), entries))
            assert n == pytest.approx(math.hypot(*kept), rel=1e-14)
            if math.isinf(n):
                with pytest.raises(ValueError, match="float range"):
                    make_state((2, 2), entries, normalize=True)
            else:
                assert make_state((2, 2), entries, normalize=True).is_normalized

    def test_errors_cite_the_entry_in_input_order(self):
        for entries, message in (
            ([((0, 0), 1.0), ((0, 1), 1.0), ((0, 5), 1.0)], r"entries\[2\]: index \(0, 5\) out of range"),
            ([((0, 0), 1.0), ((1,), 1.0)], r"entries\[1\]: index \(1,\) has wrong length"),
            ([((1, 1), 1.0), ((0, 0), 1.0), ((1, 1), 2.0)], r"entries\[2\]: duplicate index \(1, 1\)"),
            ([((0, 0), 1.0), ((1, 0), float("inf"))], r"entries\[1\]: amplitude at \(1, 0\) is not finite"),
            ([((0, 0), 1.0), ((2**63, 0), 1.0)], r"entries\[1\]: index \(9223372036854775808, 0\) out of range"),
            ([((0, 0), 1.0), ((-(2**70), 0), 1.0)], r"entries\[1\]: index .* out of range"),
        ):
            with pytest.raises(ValueError, match=message):
                make_state((2, 2), entries)

    def test_dims_beyond_int64_positions_are_refused(self):
        make_state((2**31, 2**31), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="2\\*\\*63"):
            make_state((2**32, 2**31), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="2\\*\\*63"):
            make_state((2, 2**70), {(0, 0): 1.0})


# Each call passes one non-integer where an integer belongs; int() would have
# truncated or parsed it into a valid argument.
NON_INTEGER_CALLS = {
    "Subsystem": lambda: Subsystem((0.7,)),
    "Subsystem.coerce float": lambda: Subsystem.coerce([0.7]),
    "Subsystem.coerce str": lambda: Subsystem.coerce(["1"]),
    "schmidt_decompose": lambda: schmidt_decompose(paper_state("bohm"), "0"),
    "Window axis": lambda: Window(axis=0.5, size=2),
    "Window size": lambda: Window(axis=0, size=2.5),
    "cube_window size": lambda: cube_window((5, 5, 5), 0, 2.7),
    "cube_window dims": lambda: cube_window((5.5, 5, 5), 0, 2),
    "dimension_gate": lambda: dimension_gate((2.5, 2)),
    "make_state dims": lambda: make_state((2.5, 2), {(0, 1): 1.0}),
    "method1_build bounds": lambda: method1_build(
        3, pairing_fn("injection_2a3b"), (3.9, 3, 37)
    ),
    "support_test": lambda: support_test(pairing_fn("injection_2a3b"), (1.0, 0, 0)),
    "pairing_eval": lambda: pairing_eval(pairing_fn("injection_2a3b"), 1.5, 0),
    "StateTensor.amplitude": lambda: paper_state("bohm").amplitude((0.0, 1.0)),
}


class TestIndexLikeArguments:
    @pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=list(NON_INTEGER_CALLS))
    def test_non_integers_are_refused(self, call):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()

    def test_numpy_integers_are_accepted(self):
        one, two = np.int64(1), np.int32(2)
        assert Subsystem.coerce(one) == Subsystem((1,))
        assert Subsystem.coerce([two, np.int8(0)]) == Subsystem((0, 2))
        assert Window(axis=one, size=two) == Window(axis=1, size=2)
        assert cube_window((np.int64(5),) * 3, one, two) == Window(axis=1, size=2)
        assert dimension_gate((two, two)).feasible
        assert make_state((two, np.int16(3)), {(one, two): 1.0}).dims == (2, 3)
        v = method1_build(3, pairing_fn("injection_2a3b"), (np.int64(3), 3, 37))
        assert v.dims == (3, 3, 37)
        assert support_test(pairing_fn("injection_2a3b"), (one, np.int8(0), 0))
        assert pairing_eval(pairing_fn("injection_2a3b"), one, np.uint8(0)) == 2
        sd = schmidt_decompose(paper_state("bohm"), np.int64(0))
        assert sd.rank == schmidt_decompose(paper_state("bohm"), 0).rank


class TestMakeStateEntryTypes:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (((0.5, 1), 1.0), r"index \(0\.5, 1\) must hold integers"),
            ((("1", 1), 1.0), r"index \('1', 1\) must hold integers"),
            ((1, 1.0), "index 1 must hold integers"),
            (((1, 1), "2j"), "amplitude '2j' is not a number"),
            (((1, 1), b"1"), "amplitude b'1' is not a number"),
            (((1, 1), None), "amplitude None is not a number"),
            (((1, 1), [1]), r"amplitude \[1\] is not a number"),
        ],
        ids=["float index", "str index", "int index", "str amp", "bytes amp", "None amp", "list amp"],
    )
    def test_rewritten_entries_are_refused(self, bad, message):
        # the bad pair comes second, so the message must cite entries[1]
        with pytest.raises(ValueError, match=r"^entries\[1\]: " + message):
            make_state((2, 2), [((0, 0), 1.0), bad])

    @pytest.mark.parametrize(
        "amp",
        [2, 0.5, 0.5 - 1j, True, np.True_, np.float32(0.5), np.int8(3), np.complex64(1j),
         Fraction(1, 4), Decimal("0.25")],
        ids=repr,
    )
    def test_numbers_numpy_converts_stay_accepted(self, amp):
        v = make_state((2, 2), {(0, 0): 1.0, (1, 1): amp})
        assert v.amplitude((1, 1)) == complex(np.complex128(amp))
