"""Sparse coefficient tensors for multipartite pure states.

A pure state on factors of dimensions ``dims`` is stored as two read-only
arrays: the indices of its nonzero entries (int64, one row per entry, in
strictly increasing lexicographic order) and their complex amplitudes; absent
indices are exact zeros.  One gather, ``_split_entries``, lays them out in a
matrix across a split (S | S') or a cube window of one, for ``unfold``,
``window_certificate`` and :func:`slice_family`.  Reductions run in a fixed
order or exactly (the norm uses ``math.fsum``), so results do not depend on
insertion order or on how work is split across threads.  A state also keeps
the spectra later layers ask of it (:func:`_memo`): a split's SVD and its
complement density's eigenvalues, one entry per split and ``DENSE_BUDGET``
bytes in all, so each that fits is computed once in its lifetime.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
# |norm - 1| allowed for a state to count as normalized: the one unit-state
# rule, which degree and repair apply.
UNIT_NORM_TOL = 1e-10
# Largest dense complex matrix any layer makes from a state, in bytes.
DENSE_BUDGET = 64 * 2**20
# Levels of dicts and lists metadata may hold, itself the first, whatever the caller's stack.
_METADATA_DEPTH = 64


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


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """``dims`` as ints where a state may have them, else ``ValueError``: the one dims rule."""
    dims_t = tuple(map(operator.index, dims))
    if len(dims_t) < 2:
        raise ValueError(f"need at least two tensor factors, got dims={dims_t}")
    if any(d < 2 for d in dims_t):
        raise ValueError(f"every factor dimension must be >= 2, got dims={dims_t}")
    if math.prod(dims_t) >= 2**63:  # every index must have an int64 position
        raise ValueError(f"dims {dims_t} span more than 2**63 - 1 positions")
    return dims_t


@dataclass(frozen=True)
class Subsystem:
    """A nonempty set of factor positions, kept strictly increasing.

    ``Subsystem((0, 2))`` selects the first and third tensor factors.  Use
    :meth:`coerce` to build one from an integer or any iterable of integers;
    floats, strings and other non-integers are refused, not truncated.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(map(operator.index, self.indices))
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
        if isinstance(spec, numbers.Integral):  # int, bool or a numpy integer
            return cls((spec,))
        idx = sorted(map(operator.index, spec))
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


def _is_count(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _is_finite_number(x: object) -> bool:
    try:  # a bool is no number here, and an integer beyond the float range is not finite
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _json_nodes(
    x: object, path: str, visit: Callable | None = None, depth: float = _METADATA_DEPTH
) -> object:
    """A copy of ``x`` with new plain dicts and lists, made after ``visit(path, node)`` for
    ``x`` and each node inside, depth first, parents first: the one JSON tree walker and
    copier, with a stack of its own.  ``ValueError`` is raised where a dict or list recurs
    inside itself or lies more than ``depth`` levels deep, ``x`` the first."""
    top: list = [None]
    stack = [(top, 0, path, x, ())]
    while stack:
        out, key, at, x, opened = stack.pop()
        if visit is not None:
            visit(at, x)
        if not isinstance(x, (dict, list)):
            out[key] = x
            continue
        if id(x) in opened:
            raise ValueError(f"{at}: {type(x).__name__} inside itself cannot be written as JSON")
        if len(opened) >= depth:
            raise ValueError(f"{path}: nested too deeply to copy and check")
        opened = (*opened, id(x))
        if isinstance(x, dict):
            out[key] = sub = {}
            stack += [(sub, k, f"{at}.{k}" if at else k, y, opened) for k, y in reversed(x.items())]
        else:
            out[key] = sub = [None] * len(x)
            stack += [(sub, k, f"{at}[{k}]", x[k], opened) for k in reversed(range(len(x)))]
    return top[0]


def _refuse_non_json(path: str, x: object) -> None:
    """Refuse, citing ``path``, the node ``x`` if ``cli.canonical_report_json`` would
    refuse it or ``json.loads`` give it back changed; float and int subclasses pass."""
    problem = None
    try:
        if isinstance(x, dict):
            keys = [k for k in x if not isinstance(k, str)]
            problem = keys and f"key {keys[0]!r} would load back from JSON as a string"
        elif isinstance(x, tuple):
            problem = f"tuple {x!r} would load back from JSON as a list"
        elif isinstance(x, float) and not math.isfinite(x):
            problem = f"non-finite number {x!r} is not JSON"
        elif not isinstance(x, (list, str, int, float, type(None))):
            problem = f"{x!r} ({type(x).__name__}) is not a JSON value"
        elif isinstance(x, int):
            int.__repr__(x)  # what the encoder writes; past the digit limit, ValueError
    except ValueError:  # an integer, or the repr of one, past sys.get_int_max_str_digits()
        problem = "integer too long to write as JSON"
    if problem:
        raise ValueError(f"{path}: {problem}")


def _check_metadata(metadata: dict) -> dict:
    """The :func:`_json_nodes` copy of ``metadata``, refusing by ``metadata.<field>`` what JSON
    would not give back as it is, then the fields that constructions and the CLI read back."""
    metadata = _json_nodes(metadata, "metadata", _refuse_non_json)

    def need(ok: bool, field: str, rule: str, value: object) -> None:
        if not ok:  # value's repr is within the digit limit: the walk above refused any other
            raise ValueError(f"metadata.{field}: must be {rule}, got {value!r}")

    history = metadata.get("stage_history", [])
    need(isinstance(history, list), "stage_history", "a list of stage records", history)
    for k, rec in enumerate(history):
        field = f"stage_history[{k}]"
        need(isinstance(rec, dict), field, "an object", rec)
        for key in ("p", "m", "p_prime", "epsilon"):
            if key not in rec:
                raise ValueError(f"metadata.{field}: missing field {key!r}")
        for key in ("p", "m", "p_prime"):
            need(_is_count(rec[key]), f"{field}.{key}", "an integer >= 1", rec[key])
        eps = rec["epsilon"]
        ok = _is_finite_number(eps) and eps > 0
        need(ok, f"{field}.epsilon", "a finite positive number", eps)
    sizes = metadata.get("window_sizes", [])
    need(isinstance(sizes, list), "window_sizes", "a list of integers >= 1", sizes)
    for k, size in enumerate(sizes):
        need(_is_count(size), f"window_sizes[{k}]", "an integer >= 1", size)
    return metadata


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """The complex array ``a * 2**e``, exact part by part; ``a`` itself when ``e`` is 0."""
    if not e:
        return a
    out = np.empty_like(a)
    np.ldexp(a.real, e, out=out.real)
    np.ldexp(a.imag, e, out=out.imag)
    return out


def _ldexp_scalar(x: float, e: int) -> float:
    """``x * 2**e``, or a signed inf where that lies beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scale_and_norm(amps: np.ndarray) -> tuple[int, float]:
    """``(e, norm)`` of ``amps``: ``e`` is 0 while their peak ``|re|`` or ``|im|`` lies within
    2**+-200, else the one scaling it into [1/2, 1); ``norm`` is ``2**e`` times the root of the
    exact sum (``fsum``) of the squares of ``amps * 2**-e``, which cannot overflow (Blue 1978)."""
    peak = float(np.maximum(np.abs(amps.real), np.abs(amps.imag)).max(initial=0.0))
    e = 0 if 2.0**-200 <= peak <= 2.0**200 else math.frexp(peak)[1]
    a = _ldexp(amps, -e)
    return e, _ldexp_scalar(math.sqrt(math.fsum((a.real**2 + a.imag**2).tolist())), e)


@dataclass(frozen=True, eq=False, repr=False)
class StateTensor:
    """Immutable sparse tensor of complex amplitudes.

    Instances are built through :func:`make_state`, which validates indices,
    drops negligible amplitudes and optionally rescales to unit norm.  The
    entries are the read-only arrays :attr:`indices` and :attr:`amplitudes`.
    """

    dims: tuple[int, ...]
    indices: np.ndarray  # int64 (nnz, nfactors), rows strictly increasing lexicographically
    amplitudes: np.ndarray  # complex128 (nnz,), one per row of indices
    truncated_from_infinite: bool
    _metadata: dict
    _scale: int  # from _scale_and_norm; dense products scale by 2**-_scale
    _norm: float
    # key -> immutable arrays, filled by _memo within DENSE_BUDGET; copies,
    # pickles and == ignore it
    _memos: dict = field(default_factory=dict, init=False)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    @property
    def nnz(self) -> int:
        return len(self.amplitudes)

    @property
    def metadata(self) -> dict:
        """A deep copy: editing it never changes the state."""
        return _json_nodes(self._metadata, "metadata")

    @property
    def is_normalized(self) -> bool:
        return abs(self._norm - 1.0) <= UNIT_NORM_TOL

    def items(self) -> tuple[tuple[MultiIndex, complex], ...]:
        """All stored entries, sorted lexicographically by index."""
        return tuple(zip(map(tuple, self.indices.tolist()), self.amplitudes.tolist()))

    def amplitude(self, idx: Iterable[int]) -> complex:
        key = tuple(map(operator.index, idx))
        if len(key) != len(self.dims):  # a shorter key would broadcast
            return 0j
        hit = np.flatnonzero((self.indices == key).all(axis=1))
        return complex(self.amplitudes[hit[0]]) if hit.size else 0j

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.amplitudes, other.amplitudes)
            and self.truncated_from_infinite == other.truncated_from_infinite
        )

    def __repr__(self) -> str:
        return (
            f"StateTensor(dims={self.dims}, nnz={self.nnz}, "
            f"norm={self._norm:.6g}, truncated={self.truncated_from_infinite})"
        )

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the one constructor: read-only
        # arrays, and a scale and norm taken from the copied amplitudes
        normalize = False
        return _state_from_arrays, (
            self.dims, self.indices, self.amplitudes, normalize,
            self.truncated_from_infinite, self._metadata,
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
        Indices must hold integers, in range and distinct; amplitudes must be
        finite numbers (strings and other non-numbers are refused).
        Errors cite the offending pair as ``entries[k]`` in input order.
        Amplitudes with magnitude <= ``DROP_THRESHOLD`` are discarded.
    normalize:
        Rescale to unit norm.  Raises on the zero state or an infinite norm.
    truncated_from_infinite:
        Marks finite windows cut out of infinite-dimensional constructions;
        certification treats those dimensions differently.
    metadata:
        Dict of JSON values at most 64 levels deep, itself the first (see
        README *Library*); copied.  The fields read back, ``stage_history``
        and ``window_sizes``, are checked first; errors cite ``metadata.<field>``.
    """
    pairs = list(entries.items() if isinstance(entries, Mapping) else entries)
    rows = []
    for k, (idx, amp) in enumerate(pairs):  # numpy would truncate or parse these
        try:
            rows.append(tuple(map(operator.index, idx)))
        except TypeError:
            raise ValueError(f"entries[{k}]: index {idx!r} must hold integers") from None
        if not isinstance(amp, (numbers.Number, np.bool_)):
            raise ValueError(f"entries[{k}]: amplitude {amp!r} is not a number")
    amps = np.array([amp for _, amp in pairs], dtype=np.complex128)
    return _state_from_arrays(dims, rows, amps, normalize, truncated_from_infinite, metadata)


def _state_from_arrays(
    dims: Iterable[int],
    indices: Sequence | np.ndarray,
    amps: np.ndarray,
    normalize: bool = False,
    truncated_from_infinite: bool = False,
    metadata: dict | None = None,
) -> StateTensor:
    """:func:`make_state` for index rows and an amplitude array."""
    meta = _check_metadata(metadata if isinstance(metadata, dict) else dict(metadata or {}))
    dims_t = _check_dims(dims)
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
    flat = np.ravel_multi_index(idx.T, dims_t)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        k = int(repeats.min())
        raise ValueError(f"entries[{k}]: duplicate index {tuple(idx[k].tolist())}")
    order = order[np.abs(amps[order]) > DROP_THRESHOLD]

    idx, amps = idx[order], amps[order]
    scale, n = _scale_and_norm(amps)
    if normalize and n != 1.0:
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        if n == math.inf:
            raise ValueError("cannot normalize: the norm exceeds the float range")
        # Bit for bit what CPython 3.11's complex / float gives: it divides by n + 0j.
        re, im = amps.real, amps.imag
        amps = np.empty_like(amps)
        amps.real, amps.imag = (re + im * 0.0) / n, (im - re * 0.0) / n
        scale, n = _scale_and_norm(amps)
    idx, amps = _immutable(idx), _immutable(amps)
    return StateTensor(dims_t, idx, amps, bool(truncated_from_infinite), meta, scale, n)


def _immutable(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` over immutable bytes, whose writeable flag cannot be set back."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def _memo(
    v: StateTensor, key: tuple, compute: Callable[[], tuple[np.ndarray, ...]]
) -> tuple[np.ndarray, ...]:
    """:func:`_immutable` copies of the arrays ``compute()`` gives, kept on ``v`` for ``key``.

    ``key`` names a split, never a threshold, so each state holds at most one
    entry per split it was asked about.  No caller can change what a later
    call returns, kept or not; a ``compute`` that raises keeps nothing.  A
    state keeps at most ``DENSE_BUDGET`` bytes in all: an entry that would go
    past it is returned, as immutable, and computed again on the next call.
    """
    found = v._memos.get(key)
    if found is not None:
        return found
    found = tuple(map(_immutable, compute()))
    kept = sum(a.nbytes for entry in v._memos.values() for a in entry)
    if kept + sum(a.nbytes for a in found) <= DENSE_BUDGET:
        v._memos[key] = found
    return found


def _split_entries(
    v: StateTensor, part: Subsystem, side: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """``(rows, cols, amps, shape)`` of ``v``'s matrix across (``part`` | rest), each entry's row
    and column raveled in C order over increasing factor position, its true amplitude: the one
    split layout, which checks no budget.  With ``side``, rows run over the cube of keys below
    ``side`` on every factor of the rest, and entries outside it are dropped."""
    comp = [k for k in range(v.nfactors) if k not in part.indices]  # callers check ``part``
    hit = slice(None) if side is None else (v.indices[:, comp] < side).all(axis=1)
    idx, amps = v.indices[hit], v.amplitudes[hit]
    row_dims = [v.dims[k] if side is None else side for k in comp]
    col_dims = [v.dims[k] for k in part.indices]
    rows = np.ravel_multi_index([idx[:, k] for k in comp], row_dims)
    cols = np.ravel_multi_index([idx[:, k] for k in part.indices], col_dims)
    return rows, cols, amps, (math.prod(row_dims), math.prod(col_dims))


def _scatter(rows: np.ndarray, cols: np.ndarray, amps: np.ndarray, shape: tuple) -> np.ndarray:
    """The complex ``shape`` matrix with ``amps`` at ``(rows, cols)``, its budget checked first."""
    _check_dense(*shape)
    m = np.zeros(shape, dtype=np.complex128)
    m[rows, cols] = amps
    return m


def norm(v: StateTensor) -> float:
    """Euclidean norm, accumulated exactly (``math.fsum``) over the entries."""
    return v._norm


def inner(u: StateTensor, v: StateTensor) -> complex:
    """Inner product <u, v>, conjugate-linear in the first argument, summed exactly.

    The products are formed of each operand scaled by its own
    ``2**-_scale``, so states with finite norms never overflow
    there; a part of the result beyond the float range is a signed ``inf``.
    """
    if u.dims != v.dims:
        raise ValueError(f"dimension mismatch: {u.dims} vs {v.dims}")
    fu, fv = (np.ravel_multi_index(w.indices.T, w.dims) for w in (u, v))
    _, iu, iv = np.intersect1d(fu, fv, assume_unique=True, return_indices=True)
    eu, ev = u._scale, v._scale
    a, b = _ldexp(u.amplitudes[iu], -eu), _ldexp(v.amplitudes[iv], -ev)
    re = a.real * b.real + a.imag * b.imag
    im = a.real * b.imag - a.imag * b.real
    return complex(*(_ldexp_scalar(math.fsum(p.tolist()), eu + ev) for p in (re, im)))


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
    beyond ``DENSE_BUDGET`` bytes; it is frozen by one :func:`_immutable` copy,
    so building it briefly needs twice its size.
    """
    part = Subsystem.coerce(subsystem)
    comp = part.complement(v.nfactors)
    rows, cols, amps, (_, part_dim) = _split_entries(v, part)
    keys, rows = np.unique(rows, return_inverse=True)
    block = _immutable(_scatter(rows, cols, amps, (keys.size, part_dim)))
    labels = zip(*(c.tolist() for c in np.unravel_index(keys, [v.dims[k] for k in comp])))
    return dict(zip(labels, block))
