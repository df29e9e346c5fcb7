"""Sparse coefficient tensors for multipartite pure states.

A pure state on factors of dimensions ``dims`` is stored as two read-only
arrays: the indices of its nonzero entries (int64, one row per entry, in
strictly increasing lexicographic order) and their complex amplitudes;
absent indices are exact zeros.  Every layer reads these arrays directly.
Reductions run in a fixed order or exactly (the norm uses ``math.fsum``), so
results do not depend on insertion order or on how work is split across
threads.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "DENSE_BUDGET",
    "DROP_THRESHOLD",
    "UNIT_NORM_TOL",
    "MultiIndex",
    "Subsystem",
    "StateTensor",
    "make_state",
    "norm",
    "inner",
    "slice_family",
]

MultiIndex = tuple[int, ...]

# Amplitudes at or below this magnitude are discarded at construction time.
DROP_THRESHOLD = 1e-300
# |norm - 1| allowed for a state to count as normalized.
UNIT_NORM_TOL = 1e-12
# Largest dense complex matrix any layer makes from a state, in bytes.
DENSE_BUDGET = 64 * 2**20


class _DenseBudgetError(ValueError):
    """A dense matrix would exceed ``DENSE_BUDGET``."""


def _check_dense(rows: int, cols: int) -> None:
    """Refuse a complex ``rows`` x ``cols`` matrix beyond ``DENSE_BUDGET``, before it exists."""
    nbytes = rows * cols * np.dtype(np.complex128).itemsize
    if nbytes > DENSE_BUDGET:
        raise _DenseBudgetError(
            f"dense {rows}x{cols} matrix needs {nbytes} bytes, "
            f"beyond the {DENSE_BUDGET}-byte budget"
        )


@dataclass(frozen=True)
class Subsystem:
    """A nonempty set of factor positions, kept strictly increasing.

    ``Subsystem((0, 2))`` selects the first and third tensor factors.  Use
    :meth:`coerce` to build one from an int or any iterable of ints.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(k) for k in self.indices)
        if len(idx) == 0:
            raise ValueError("subsystem must contain at least one factor")
        if any(k < 0 for k in idx):
            raise ValueError(f"subsystem indices must be nonnegative, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"subsystem indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def coerce(cls, spec: "Subsystem | int | Iterable[int]") -> "Subsystem":
        if isinstance(spec, Subsystem):
            return spec
        if isinstance(spec, int):
            return cls((spec,))
        idx = sorted(int(k) for k in spec)
        if len(set(idx)) != len(idx):
            raise ValueError(f"subsystem indices must be distinct, got {tuple(idx)}")
        return cls(tuple(idx))

    def validate_for(self, nfactors: int) -> None:
        """Check this is a proper nonempty subset of ``range(nfactors)``."""
        if self.indices[-1] >= nfactors:
            raise ValueError(
                f"subsystem {self.indices} out of range for {nfactors} factors"
            )
        if len(self.indices) >= nfactors:
            raise ValueError(
                f"subsystem {self.indices} must be a proper subset of {nfactors} factors"
            )

    def complement(self, nfactors: int) -> "Subsystem":
        self.validate_for(nfactors)
        rest = tuple(k for k in range(nfactors) if k not in self.indices)
        return Subsystem(rest)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def _positions(indices: np.ndarray, dims: Sequence[int], axes: Iterable[int]) -> np.ndarray:
    """C-order position of each row's coordinates on ``axes``, within those factors."""
    return np.ravel_multi_index([indices[:, k] for k in axes], [dims[k] for k in axes])


class StateTensor:
    """Immutable sparse tensor of complex amplitudes.

    Instances are built through :func:`make_state`, which validates indices,
    drops negligible amplitudes and optionally rescales to unit norm.  The
    entries are the read-only arrays :attr:`indices` and :attr:`amplitudes`.
    """

    __slots__ = ("_dims", "_indices", "_amplitudes", "_norm", "_truncated", "_metadata")

    def __init__(
        self,
        dims: tuple[int, ...],
        indices: np.ndarray,
        amplitudes: np.ndarray,
        truncated_from_infinite: bool,
        metadata: dict,
    ):
        indices.flags.writeable = amplitudes.flags.writeable = False
        self._dims = dims
        self._indices = indices
        self._amplitudes = amplitudes
        # Squares of components beyond 2**+-500 would overflow or underflow, so
        # those are summed scaled by an exact power of two (Blue 1978, dnrm2).
        re, im = amplitudes.real, amplitudes.imag
        peak = float(np.maximum(np.abs(re), np.abs(im)).max(initial=0.0))
        e = 0 if 2.0**-500 <= peak <= 2.0**500 else math.frexp(peak)[1]
        if e:
            re, im = np.ldexp(re, -e), np.ldexp(im, -e)
        try:
            self._norm = math.ldexp(math.sqrt(math.fsum((re**2 + im**2).tolist())), e)
        except OverflowError:  # the norm itself lies beyond the float range
            self._norm = math.inf
        self._truncated = truncated_from_infinite
        self._metadata = metadata

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def nfactors(self) -> int:
        return len(self._dims)

    @property
    def nnz(self) -> int:
        return len(self._amplitudes)

    @property
    def indices(self) -> np.ndarray:
        """int64 ``(nnz, nfactors)``, rows strictly increasing lexicographically."""
        return self._indices

    @property
    def amplitudes(self) -> np.ndarray:
        """complex128 ``(nnz,)``, one per row of :attr:`indices`."""
        return self._amplitudes

    @property
    def truncated_from_infinite(self) -> bool:
        return self._truncated

    @property
    def metadata(self) -> dict:
        """A deep copy: editing it never changes the state."""
        return copy.deepcopy(self._metadata)

    @property
    def is_normalized(self) -> bool:
        return abs(self._norm - 1.0) <= UNIT_NORM_TOL

    def items(self) -> tuple[tuple[MultiIndex, complex], ...]:
        """All stored entries, sorted lexicographically by index."""
        return tuple(zip(map(tuple, self._indices.tolist()), self._amplitudes.tolist()))

    def amplitude(self, idx: Iterable[int]) -> complex:
        key = tuple(idx)
        if len(key) != len(self._dims):  # a shorter key would broadcast
            return 0j
        hit = np.flatnonzero((self._indices == key).all(axis=1))
        return complex(self._amplitudes[hit[0]]) if hit.size else 0j

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateTensor):
            return NotImplemented
        return (
            self._dims == other._dims
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._amplitudes, other._amplitudes)
            and self._truncated == other._truncated
        )

    def __repr__(self) -> str:
        return (
            f"StateTensor(dims={self._dims}, nnz={self.nnz}, "
            f"norm={self._norm:.6g}, truncated={self._truncated})"
        )


def make_state(
    dims: Iterable[int],
    entries: Mapping[MultiIndex, complex] | Iterable[tuple[MultiIndex, complex]],
    *,
    normalize: bool = False,
    truncated_from_infinite: bool = False,
    metadata: dict | None = None,
) -> StateTensor:
    """Build a :class:`StateTensor` from ``{index: amplitude}`` data.

    Parameters
    ----------
    dims:
        Factor dimensions; at least two factors, each of dimension >= 2, with
        a product below 2**63.
    entries:
        Mapping (or iterable of pairs) from index tuples to amplitudes.
        Indices must be in range and distinct; amplitudes must be finite.
        Errors cite the offending pair as ``entries[k]`` in input order.
        Amplitudes with magnitude <= ``DROP_THRESHOLD`` are discarded.
    normalize:
        Rescale to unit norm.  Raises on the zero state or an infinite norm.
    truncated_from_infinite:
        Marks finite windows cut out of infinite-dimensional constructions;
        certification treats those dimensions differently.
    """
    pairs = list(entries.items() if isinstance(entries, Mapping) else entries)
    amps = np.array([amp for _, amp in pairs], dtype=np.complex128)
    return _state_from_arrays(
        dims, [idx for idx, _ in pairs], amps, normalize, truncated_from_infinite, metadata
    )


def _state_from_arrays(
    dims: Iterable[int],
    indices: Sequence | np.ndarray,
    amps: np.ndarray,
    normalize: bool = False,
    truncated_from_infinite: bool = False,
    metadata: dict | None = None,
) -> StateTensor:
    """:func:`make_state` for index rows and an amplitude array."""
    dims_t = tuple(int(d) for d in dims)
    if len(dims_t) < 2:
        raise ValueError(f"need at least two tensor factors, got dims={dims_t}")
    if any(d < 2 for d in dims_t):
        raise ValueError(f"every factor dimension must be >= 2, got dims={dims_t}")
    if math.prod(dims_t) >= 2**63:  # every index must have an int64 position
        raise ValueError(f"dims {dims_t} span more than 2**63 - 1 positions")
    try:
        idx = np.asarray(indices, dtype=np.int64).reshape(len(amps), len(dims_t))
        bad = ((idx < 0) | (idx >= dims_t)).any(axis=1) | ~np.isfinite(amps)
    except (OverflowError, ValueError):  # ragged rows, or integers beyond int64
        idx, bad = None, None
    if bad is None or bad.any():  # name the first offending entry
        for k, row in enumerate(indices):
            key = tuple(int(i) for i in row)
            if len(key) != len(dims_t):
                problem = f"index {key} has wrong length for dims {dims_t}"
            elif not all(0 <= i < d for i, d in zip(key, dims_t)):
                problem = f"index {key} out of range for dims {dims_t}"
            elif not np.isfinite(amps[k]):
                problem = f"amplitude at {key} is not finite: {complex(amps[k])!r}"
            else:
                continue
            raise ValueError(f"entries[{k}]: {problem}")
    flat = _positions(idx, dims_t, range(len(dims_t)))
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise ValueError(f"entries[{k}]: duplicate index {tuple(idx[k].tolist())}")
    order = order[np.abs(amps[order]) > DROP_THRESHOLD]

    meta = copy.deepcopy(dict(metadata or {}))
    state = StateTensor(dims_t, idx[order], amps[order], bool(truncated_from_infinite), meta)
    n = state._norm
    if not normalize or n == 1.0:
        return state
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    if n == math.inf:
        raise ValueError("cannot normalize: the norm exceeds the float range")
    # Bit for bit what CPython 3.11's complex / float gives: it divides by n + 0j.
    re, im = state.amplitudes.real, state.amplitudes.imag
    scaled = np.empty_like(state.amplitudes)
    scaled.real, scaled.imag = (re + im * 0.0) / n, (im - re * 0.0) / n
    return StateTensor(dims_t, state.indices, scaled, state.truncated_from_infinite, meta)


def norm(v: StateTensor) -> float:
    """Euclidean norm, accumulated exactly (``math.fsum``) over the entries."""
    return v._norm


def inner(u: StateTensor, v: StateTensor) -> complex:
    """Inner product <u, v>, conjugate-linear in the first argument, summed exactly."""
    if u.dims != v.dims:
        raise ValueError(f"dimension mismatch: {u.dims} vs {v.dims}")
    fu, fv = (_positions(w.indices, w.dims, range(w.nfactors)) for w in (u, v))
    _, iu, iv = np.intersect1d(fu, fv, assume_unique=True, return_indices=True)
    a, b = u.amplitudes[iu], v.amplitudes[iv]
    re = a.real * b.real + a.imag * b.imag
    im = a.real * b.imag - a.imag * b.real
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


def slice_family(
    v: StateTensor, subsystem: Subsystem | int | Iterable[int]
) -> dict[MultiIndex, np.ndarray]:
    """The nonzero slices ``{j: v_j}`` of ``v = sum_j v_j (x) b_j`` over ``subsystem``.

    Each key is a multi-index over the complementary factors whose slice is
    nonzero; its value is that slice's read-only vector over ``subsystem``,
    raveled in C order.  Zero slices are absent (:func:`~hyperstate.bilinear.unfold`
    is the dense view with a row for every key).  Reassembling the sum
    reproduces ``v`` entry for entry: slice extraction only moves amplitudes,
    it never does arithmetic on them.  The block of nonzero slices is refused
    beyond ``DENSE_BUDGET`` bytes.
    """
    part = Subsystem.coerce(subsystem)
    comp = part.complement(v.nfactors)
    part_dim = math.prod(v.dims[k] for k in part)
    keys, rows = np.unique(_positions(v.indices, v.dims, comp), return_inverse=True)
    _check_dense(keys.size, part_dim)
    block = np.zeros((keys.size, part_dim), dtype=np.complex128)
    block[rows, _positions(v.indices, v.dims, part)] = v.amplitudes
    block.flags.writeable = False
    labels = zip(*(c.tolist() for c in np.unravel_index(keys, [v.dims[k] for k in comp])))
    return dict(zip(labels, block))
