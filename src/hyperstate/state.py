"""Sparse coefficient tensors for multipartite pure states.

A pure state on factors of dimensions ``dims`` is stored as a mapping from
index tuples to complex amplitudes; absent indices are exact zeros.  Every
reduction (norm, inner product, slice extraction) walks the entries in
lexicographic index order, so results do not depend on insertion order or on
how work is split across threads.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "DROP_THRESHOLD",
    "UNIT_NORM_TOL",
    "MultiIndex",
    "Subsystem",
    "StateTensor",
    "SliceFamily",
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
        rest = tuple(k for k in range(nfactors) if k not in set(self.indices))
        return Subsystem(rest)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def _ravel(idx: MultiIndex, dims: tuple[int, ...]) -> int:
    """C-order flat position of ``idx`` within a block of shape ``dims``."""
    flat = 0
    for k, d in zip(idx, dims):
        flat = flat * d + k
    return flat


class StateTensor:
    """Immutable sparse tensor of complex amplitudes.

    Instances are built through :func:`make_state`, which validates indices,
    drops negligible amplitudes and optionally rescales to unit norm.  Entry
    iteration via :meth:`items` is always in lexicographic index order.
    """

    __slots__ = ("_dims", "_items", "_lookup", "_norm", "_truncated", "_metadata")

    def __init__(
        self,
        dims: tuple[int, ...],
        items: tuple[tuple[MultiIndex, complex], ...],
        truncated_from_infinite: bool,
        metadata: dict,
    ):
        self._dims = dims
        self._items = items
        self._lookup = dict(items)
        self._norm = math.sqrt(
            math.fsum(a.real * a.real + a.imag * a.imag for _, a in items)
        )
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
        return len(self._items)

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
        return self._items

    def amplitude(self, idx: Iterable[int]) -> complex:
        return self._lookup.get(tuple(idx), 0j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateTensor):
            return NotImplemented
        return (
            self._dims == other._dims
            and self._items == other._items
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
        Factor dimensions; at least two factors, each of dimension >= 2.
    entries:
        Mapping (or iterable of pairs) from index tuples to amplitudes.
        Indices must be in range; amplitudes must be finite.  Amplitudes with
        magnitude <= ``DROP_THRESHOLD`` are discarded.
    normalize:
        Rescale so the result has unit norm.  Raises on the zero state.
    truncated_from_infinite:
        Marks finite windows cut out of infinite-dimensional constructions;
        certification treats those dimensions differently.
    """
    dims_t = tuple(int(d) for d in dims)
    if len(dims_t) < 2:
        raise ValueError(f"need at least two tensor factors, got dims={dims_t}")
    if any(d < 2 for d in dims_t):
        raise ValueError(f"every factor dimension must be >= 2, got dims={dims_t}")

    pairs = entries.items() if isinstance(entries, Mapping) else entries
    cleaned: dict[MultiIndex, complex] = {}
    for raw_idx, raw_amp in pairs:
        idx = tuple(int(k) for k in raw_idx)
        if len(idx) != len(dims_t):
            raise ValueError(f"index {idx} has wrong length for dims {dims_t}")
        if any(k < 0 or k >= d for k, d in zip(idx, dims_t)):
            raise ValueError(f"index {idx} out of range for dims {dims_t}")
        amp = complex(raw_amp)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"amplitude at {idx} is not finite: {amp!r}")
        if idx in cleaned:
            raise ValueError(f"duplicate index {idx}")
        if abs(amp) <= DROP_THRESHOLD:
            continue
        cleaned[idx] = amp

    items = tuple(sorted(cleaned.items()))
    meta = copy.deepcopy(dict(metadata or {}))
    state = StateTensor(dims_t, items, bool(truncated_from_infinite), meta)
    if normalize:
        n = state._norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        if abs(n - 1.0) > 0.0:
            items = tuple((idx, amp / n) for idx, amp in items)
            state = StateTensor(dims_t, items, bool(truncated_from_infinite), meta)
    return state


def norm(v: StateTensor) -> float:
    """Euclidean norm, accumulated over entries in lexicographic order."""
    return v._norm


def inner(u: StateTensor, v: StateTensor) -> complex:
    """Inner product <u, v>, conjugate-linear in the first argument."""
    if u.dims != v.dims:
        raise ValueError(f"dimension mismatch: {u.dims} vs {v.dims}")
    small, large = (u, v) if u.nnz <= v.nnz else (v, u)
    shared = sorted(idx for idx, _ in small.items() if large.amplitude(idx) != 0j)
    total = 0j
    for idx in shared:
        total += u.amplitude(idx).conjugate() * v.amplitude(idx)
    return total


@dataclass(frozen=True)
class SliceFamily:
    """The vectors ``{v_j}`` of ``v = sum_j v_j (x) b_j``.

    Each slice lives in the kept factors' space (C-order raveled) and is keyed
    by a multi-index over the complementary factors.  Only nonzero slices are
    stored; :meth:`vector` synthesizes zeros for the rest.
    """

    subsystem: Subsystem
    part_dims: tuple[int, ...]
    complement: Subsystem
    complement_dims: tuple[int, ...]
    nonzero: Mapping[MultiIndex, np.ndarray]

    @property
    def part_dim(self) -> int:
        return math.prod(self.part_dims)

    def vector(self, j: Iterable[int]) -> np.ndarray:
        key = tuple(int(k) for k in j)
        if len(key) != len(self.complement_dims) or any(
            k < 0 or k >= d for k, d in zip(key, self.complement_dims)
        ):
            raise ValueError(
                f"slice key {key} out of range for complement dims {self.complement_dims}"
            )
        vec = self.nonzero.get(key)
        if vec is None:
            vec = np.zeros(self.part_dim, dtype=np.complex128)
            vec.flags.writeable = False
        return vec

    def keys(self) -> Iterator[MultiIndex]:
        """All complement multi-indices, in lexicographic order."""
        return itertools.product(*(range(d) for d in self.complement_dims))

    def items(self) -> Iterator[tuple[MultiIndex, np.ndarray]]:
        for key in self.keys():
            yield key, self.vector(key)

    def matrix(self, members: Iterable[MultiIndex] | None = None) -> np.ndarray:
        """Stack slices as rows; ``members=None`` takes the whole family."""
        keys = list(self.keys()) if members is None else [tuple(j) for j in members]
        out = np.zeros((len(keys), self.part_dim), dtype=np.complex128)
        for r, key in enumerate(keys):
            out[r, :] = self.vector(key)
        return out


def slice_family(v: StateTensor, subsystem: Subsystem | int | Iterable[int]) -> SliceFamily:
    """Decompose ``v`` into slices over ``subsystem``.

    Reassembling ``sum_j v_j (x) b_j`` reproduces ``v`` entry for entry: slice
    extraction only moves amplitudes, it never does arithmetic on them.
    """
    part = Subsystem.coerce(subsystem)
    part.validate_for(v.nfactors)
    comp = part.complement(v.nfactors)
    part_dims = tuple(v.dims[k] for k in part)
    comp_dims = tuple(v.dims[k] for k in comp)

    part_size = math.prod(part_dims)
    slices: dict[MultiIndex, np.ndarray] = {}
    for idx, amp in v.items():
        key = tuple(idx[k] for k in comp)
        coords = tuple(idx[k] for k in part)
        vec = slices.get(key)
        if vec is None:
            vec = np.zeros(part_size, dtype=np.complex128)
            slices[key] = vec
        vec[_ravel(coords, part_dims)] = amp
    for vec in slices.values():
        vec.flags.writeable = False

    return SliceFamily(
        subsystem=part,
        part_dims=part_dims,
        complement=comp,
        complement_dims=comp_dims,
        nonzero=slices,
    )
