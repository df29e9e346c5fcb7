import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import dense_tensor, random_state
from hyperstate import (
    DROP_THRESHOLD,
    StateTensor,
    Subsystem,
    inner,
    make_state,
    norm,
    paper_state,
    slice_family,
    unfold,
)

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
