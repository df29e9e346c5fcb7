"""Certification of hyperentanglement and of slice-window independence.

A state is hyperentangled when every subsystem is maximally correlated with
its complement.  For pure states that reduces to a cyclicity check per single
factor: the reduced density operator on the complement must have full
numerical rank (equivalently, the slice family must be linearly independent),
decided by the rank rule of :mod:`hyperstate.bilinear` on its eigenvalues.
Checking each atomic factor against its complement suffices; larger splits
follow.

Finite equal-dimension bipartite states can genuinely pass.  For more than
two factors only infinite-dimensional states can, so finite n > 2 states are
gated out by dimensions alone unless they are flagged as truncations, in
which case window certificates on slice families are the meaningful check.

A window certificate decides the rank of a cube window's slice vectors by
singleton elimination or, failing that, a dense SVD (:func:`window_certificate`).
Either dense matrix, reduced density or window, is refused beyond ``DENSE_BUDGET``.
:func:`certify_state` joins the two into the verdict the ``certify`` command prints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .bilinear import RankReport, _cutoff, _cyclicity, numerical_rank, rank_tolerance
from .bilinear import reduced_density
from .state import StateTensor, Subsystem, _check_dims, _DenseBudgetError, _immutable, _ldexp
from .state import _scatter, _split_entries

__all__ = [
    "Feasibility",
    "CyclicityResult",
    "CertVerdict",
    "Window",
    "WindowCertificate",
    "dimension_gate",
    "cyclicity_test",
    "hyperentanglement_test",
    "window_certificate",
    "cube_window",
    "recorded_windows",
    "StateVerdict",
    "certify_state",
    "STRUCTURAL_MARGIN",
]

HYPERENTANGLED = "hyperentangled"
NOT_HYPERENTANGLED = "not_hyperentangled"
INFEASIBLE_DIMS = "infeasible_dims"

# Factor by which a structural singular-value bound must clear the rank
# cutoff; it absorbs the rounding of both the bound and the dense SVD.
STRUCTURAL_MARGIN = 4.0


@dataclass(frozen=True)
class Feasibility:
    """Whether dimensions alone permit hyperentanglement."""

    feasible: bool
    reason: str  # "ok" | "unequal_dims" | "finite_dims_n_gt_2"


def dimension_gate(dims: Sequence[int], truncated_from_infinite: bool = False) -> Feasibility:
    """Pure dimension check, no tensor data needed; dims :func:`make_state` refuses raise first.

    Equal factor dimensions are necessary.  With more than two factors a
    finite common dimension is ruled out as well, unless the state is a
    declared truncation of an infinite-dimensional construction.
    """
    dims_t = _check_dims(dims)
    if len(set(dims_t)) != 1:
        return Feasibility(False, "unequal_dims")
    if len(dims_t) > 2 and not truncated_from_infinite:
        return Feasibility(False, "finite_dims_n_gt_2")
    return Feasibility(True, "ok")


@dataclass(frozen=True)
class CyclicityResult:
    """Outcome of one cyclicity check of ``v`` for a subsystem S.

    ``passed`` means the reduced density operator on the complement S' has
    full numerical rank ``full_dim``; ``report`` is the rank rule applied to
    its eigenvalues, with the margins and ``tied`` flag.  On failure
    ``witness`` is a unit eigenvector of that operator with eigenvalue <=
    the threshold, i.e. a direction on S' the state almost annihilates; it is
    computed on first access from the state a failing result keeps.
    """

    subsystem: Subsystem
    passed: bool
    min_eigenvalue: float
    full_dim: int
    report: RankReport
    _state: StateTensor | None = field(default=None, repr=False, compare=False)

    @cached_property
    def witness(self) -> np.ndarray | None:
        if self._state is None:
            return None
        comp = self.subsystem.complement(self._state.nfactors)
        _, vecs = np.linalg.eigh(reduced_density(self._state, comp))
        return _immutable(vecs[:, 0])  # eigenvector of the smallest eigenvalue

    @property
    def rank(self) -> int:
        return self.report.rank

    @property
    def threshold(self) -> float:
        return self.report.threshold


def cyclicity_test(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int],
    tol: float | None = None,
) -> CyclicityResult:
    """Test whether ``v`` is cyclic for ``subsystem``: the result of the rule
    ``bilinear._cyclicity`` applies, the one steering and the witness read too.

    ``tol`` (>= 0) cuts the eigenvalues of :func:`reduced_density` on the
    complement (squared Schmidt weights; of the scaled state when its peak is
    beyond ``2**+-200``); ``None`` uses the default policy, scaled to the largest one.
    The spectrum is computed once per state and split and kept on ``v`` while
    the state's memo has room (see ``state._memo``); the density is not kept.
    """
    part = Subsystem.coerce(subsystem)
    report, eig = _cyclicity(v, part, tol)
    passed = report.rank == eig.size
    return CyclicityResult(
        subsystem=part,
        passed=passed,
        min_eigenvalue=float(eig[-1]),
        full_dim=eig.size,
        report=report,
        _state=None if passed else v,
    )


@dataclass(frozen=True)
class CertVerdict:
    """Full certification outcome.

    ``overall`` is ``hyperentangled``, ``not_hyperentangled`` (feasible
    dimensions, some factor fails cyclicity) or ``infeasible_dims``.  All
    atomic subsystems are always evaluated so the diagnostics are complete
    even when the dimension gate already decides the verdict.
    """

    overall: str
    feasibility: Feasibility
    checks: tuple[CyclicityResult, ...]

    @property
    def failing(self) -> tuple[int, ...]:
        return tuple(c.subsystem.indices[0] for c in self.checks if not c.passed)


def hyperentanglement_test(v: StateTensor, tol: float | None = None) -> CertVerdict:
    """Certify ``v``: dimension gate plus a cyclicity check per factor."""
    _cutoff(0, 0.0, tol)  # checks tol before any dense work
    feas = dimension_gate(v.dims, v.truncated_from_infinite)
    checks = tuple(
        cyclicity_test(v, Subsystem((k,)), tol) for k in range(v.nfactors)
    )
    if not feas.feasible:
        overall = INFEASIBLE_DIMS
    elif all(c.passed for c in checks):
        overall = HYPERENTANGLED
    else:
        overall = NOT_HYPERENTANGLED
    return CertVerdict(overall=overall, feasibility=feas, checks=checks)


@dataclass(frozen=True)
class Window:
    """A cube of slice keys along one axis.

    ``axis`` names the factor whose space the slice vectors live in; the
    window holds every multi-index over the complementary factors whose
    coordinates are all below ``size``.
    """

    axis: int
    size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", operator.index(self.axis))
        object.__setattr__(self, "size", operator.index(self.size))
        if self.size < 1:
            raise ValueError("window size must be >= 1")


@dataclass(frozen=True)
class WindowCertificate:
    """Rank certificate for the slice vectors selected by a window.

    ``size`` counts the window's keys, ``window.size ** (n - 1)``.  ``route``
    says how the rank was decided.  On ``"structural"`` the rows were proved
    independent by singleton elimination: ``report.rank`` is ``size``,
    ``report.min_kept`` is a certified lower bound on the smallest singular
    value (not a computed one), ``max_dropped`` is 0.0 and
    ``report.threshold`` is the cutoff the bound cleared ``STRUCTURAL_MARGIN``
    times over.  On ``"dense_svd"`` the report is :func:`numerical_rank` of
    the window matrix.
    """

    window: Window
    size: int
    rank: int
    passed: bool
    report: RankReport
    route: str  # "structural" | "dense_svd"


def _singleton_bound(
    rows: np.ndarray, cols: np.ndarray, mags: np.ndarray, nrows: int
) -> float | None:
    """Lower bound on the smallest singular value of an ``nrows``-row matrix.

    The matrix holds magnitudes ``mags`` at ``(rows, cols)``; phases do not
    matter.  Rows are eliminated in rounds: a column with exactly one nonzero
    among the remaining rows pivots that row.  Each round's rows form a
    diagonal block ``D`` (smallest pivot ``d``) on its pivot columns, with
    zeros below it, so with ``N`` the Frobenius norm of the round's rows off
    their pivots and ``s`` a bound for the later rounds,
    ``sigma_min >= d * s / hypot(d + N, s)``.  Returns None when some row
    is never pivoted.
    """
    if rows.size < nrows:  # some row is empty; also caps the arrays below at nnz
        return None
    _, cols = np.unique(cols, return_inverse=True)
    entry = np.arange(rows.size)
    rounds: list[tuple[float, float]] = []
    remaining = nrows
    while remaining:
        counts = np.bincount(cols[entry])
        single = entry[counts[cols[entry]] == 1]
        if single.size == 0:
            return None
        # A row with several singleton columns pivots on its largest entry.
        single = single[np.lexsort((-mags[single], rows[single]))]
        first = np.ones(single.size, dtype=bool)
        first[1:] = rows[single[1:]] != rows[single[:-1]]
        pivots = single[first]
        pivot_row = np.zeros(nrows, dtype=bool)
        pivot_row[rows[pivots]] = True
        in_round = pivot_row[rows[entry]]
        off = np.setdiff1d(entry[in_round], pivots, assume_unique=True)
        rounds.append((float(mags[pivots].min()), float(np.linalg.norm(mags[off]))))
        entry = entry[~in_round]
        remaining -= pivots.size
    sigma = rounds[-1][0]
    for d, off_norm in reversed(rounds[:-1]):
        sigma = d * sigma / math.hypot(d + off_norm, sigma)
    return sigma


def window_certificate(
    v: StateTensor, window: Window, tol: float | None = None
) -> WindowCertificate:
    """Pass iff the window's slice vectors have full numerical rank.

    The window matrix is the rows of the unfolding across (axis | rest) at the
    cube's keys, renumbered on the cube grid by ``unfold``'s gather (row r is the
    r-th key in lexicographic order); only the entries in the cube are read, so
    this applies to truncated constructions far beyond the dense budget.  Singleton
    elimination (:func:`_singleton_bound`) settles the rank when its bound clears
    ``STRUCTURAL_MARGIN`` times both the cutoff in force and :func:`rank_tolerance`
    scaled by the Frobenius norm (which bounds the largest singular value); the SVD
    could then neither drop a row nor flag a tie.  The bound and the norm come from
    the magnitudes scaled as :func:`reduced_density` scales the state, and are
    compared in true units.  Otherwise the window matrix is scattered as
    ``unfold``'s is, up to ``DENSE_BUDGET`` bytes, and :func:`numerical_rank`
    decides with ``tol`` (>= 0, checked on either route) cutting singular values.
    """
    axis, side = window.axis, window.size
    cube_window(v.dims, axis, side)  # checks the axis and size against the dims
    rows_a, cols_a, amps_a, shape = _split_entries(v, Subsystem((axis,)), side)
    size = shape[0]
    e = v._scale
    mags = np.abs(_ldexp(amps_a, -e))
    bound = _singleton_bound(rows_a, cols_a, mags, size)
    frob = math.ldexp(float(np.linalg.norm(mags)), e)
    threshold = max(_cutoff(max(shape), frob, tol), rank_tolerance(max(shape), frob))
    if bound is not None and math.ldexp(bound, e) >= STRUCTURAL_MARGIN * threshold:
        report = RankReport(
            rank=size, min_kept=math.ldexp(bound, e), max_dropped=0.0, threshold=threshold,
            tied=False,
        )
        route = "structural"
    else:
        report = numerical_rank(_scatter(rows_a, cols_a, amps_a, shape), tol)
        route = "dense_svd"
    return WindowCertificate(
        window=window,
        size=size,
        rank=report.rank,
        passed=report.rank == size,
        report=report,
        route=route,
    )


def cube_window(dims: Sequence[int], axis: int, size: int) -> Window:
    """The window of keys with every coordinate below ``size``; ``dims`` as :func:`make_state`'s."""
    dims_t = _check_dims(dims)
    axis, size = operator.index(axis), operator.index(size)
    if axis < 0 or axis >= len(dims_t):
        raise ValueError(f"axis {axis} out of range for dims {dims_t}")
    comp_dims = dims_t[:axis] + dims_t[axis + 1 :]
    if any(size > d for d in comp_dims):
        raise ValueError(f"window size {size} exceeds complement dims {comp_dims}")
    return Window(axis=axis, size=size)  # rejects size < 1


def recorded_windows(v: StateTensor) -> list[Window]:
    """The cube windows of ``v.metadata["window_sizes"]``, size by size, then axis by axis."""
    sizes = v.metadata.get("window_sizes")
    if not sizes:
        raise ValueError("state metadata records no window sizes; --windows full unavailable")
    return [cube_window(v.dims, axis, size) for size in sizes for axis in range(v.nfactors)]


@dataclass(frozen=True)
class StateVerdict:
    """The combined verdict of :func:`certify_state`.

    ``dense`` is None when the cyclicity checks would exceed ``DENSE_BUDGET`` (with infeasible
    dims or windows asked for); ``feasibility`` is then the dimension gate alone.  ``windows``
    holds the certificates of :func:`recorded_windows` when they were asked for.
    ``positive`` means hyperentangled, or a truncation whose every window passed.
    """

    positive: bool
    feasibility: Feasibility
    dense: CertVerdict | None
    windows: tuple[WindowCertificate, ...] | None


def certify_state(v: StateTensor, tol: float | None = None, windows: bool = False) -> StateVerdict:
    """Dense test where it fits, plus the recorded windows if ``windows``; without them,
    feasible dims whose cyclicity checks exceed ``DENSE_BUDGET`` are refused."""
    try:
        dense = hyperentanglement_test(v, tol)
        feas = dense.feasibility
    except _DenseBudgetError as exc:  # cyclicity not evaluated beyond the budget
        dense, feas = None, dimension_gate(v.dims, v.truncated_from_infinite)
        if feas.feasible and not windows:
            raise _DenseBudgetError(f"{exc}; certify recorded windows (--windows full)") from None
    certs = tuple(window_certificate(v, w, tol) for w in recorded_windows(v)) if windows else None
    positive = (dense is not None and dense.overall == HYPERENTANGLED) or (
        v.truncated_from_infinite and certs is not None and all(c.passed for c in certs)
    )
    return StateVerdict(positive=positive, feasibility=feas, dense=dense, windows=certs)
