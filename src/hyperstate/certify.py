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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .bilinear import RankReport, _cutoff, _rank_report, numerical_rank, rank_tolerance
from .bilinear import reduced_density
from .state import StateTensor, Subsystem, _check_dense

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
    """Pure dimension check, no tensor data needed.

    Equal factor dimensions are necessary.  With more than two factors a
    finite common dimension is ruled out as well, unless the state is a
    declared truncation of an infinite-dimensional construction.
    """
    dims_t = tuple(int(d) for d in dims)
    if len(dims_t) < 2 or any(d < 2 for d in dims_t):
        raise ValueError(f"invalid dims {dims_t}: need >= 2 factors, each of dim >= 2")
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
    computed on first access from the density a failing result keeps.
    """

    subsystem: Subsystem
    passed: bool
    min_eigenvalue: float
    full_dim: int
    report: RankReport
    _density: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def witness(self) -> np.ndarray | None:
        if self._density is None:
            return None
        _, vecs = np.linalg.eigh(self._density)
        witness = vecs[:, 0].copy()  # eigenvector of the smallest eigenvalue
        witness.flags.writeable = False
        return witness

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
    """Test whether ``v`` is cyclic for ``subsystem``.

    ``tol`` (>= 0) cuts the density eigenvalues (squared Schmidt weights);
    ``None`` uses the default policy, scaled to the largest eigenvalue.
    """
    part = Subsystem.coerce(subsystem)
    comp = part.complement(v.nfactors)  # checks the subsystem
    rho = reduced_density(v, comp)
    eig = rho.eigenvalues  # nonincreasing
    report = _rank_report(eig, eig.size, tol)
    passed = report.rank == eig.size
    return CyclicityResult(
        subsystem=part,
        passed=passed,
        min_eigenvalue=float(eig[-1]),
        full_dim=eig.size,
        report=report,
        _density=None if passed else rho.matrix,
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
        object.__setattr__(self, "axis", int(self.axis))
        object.__setattr__(self, "size", int(self.size))
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

    Only the entries whose complement key lies in the cube are gathered, so
    this applies to truncated constructions far beyond the dense budget; row r
    is the r-th key in lexicographic order.  Singleton elimination
    (:func:`_singleton_bound`) settles the rank when its bound clears
    ``STRUCTURAL_MARGIN`` times both the cutoff in force and
    :func:`rank_tolerance` scaled by the Frobenius norm (which bounds the
    largest singular value); the SVD could then neither drop a row nor flag
    a tie.  Otherwise the window matrix is built densely, up to
    ``DENSE_BUDGET`` bytes, and :func:`numerical_rank` decides with
    ``tol`` (>= 0, checked on either route) cutting singular values.
    """
    axis, side = window.axis, window.size
    comp = list(Subsystem((axis,)).complement(v.nfactors))  # checks the axis
    comp_dims = tuple(v.dims[k] for k in comp)
    if side > min(comp_dims):
        raise ValueError(f"window size {side} exceeds complement dims {comp_dims}")
    keys = v.indices[:, comp]
    hit = (keys < side).all(axis=1)
    rows_a = np.ravel_multi_index(keys[hit].T, (side,) * len(comp))
    cols_a, amps_a = v.indices[hit, axis], v.amplitudes[hit]
    size = side ** len(comp)
    shape = (size, v.dims[axis])
    mags = np.abs(amps_a)

    bound = _singleton_bound(rows_a, cols_a, mags, size)
    frob = float(np.linalg.norm(mags))
    threshold = max(_cutoff(max(shape), frob, tol), rank_tolerance(max(shape), frob))
    if bound is not None and bound >= STRUCTURAL_MARGIN * threshold:
        report = RankReport(
            rank=size, min_kept=bound, max_dropped=0.0, threshold=threshold, tied=False
        )
        route = "structural"
    else:
        _check_dense(*shape)
        mat = np.zeros(shape, dtype=np.complex128)
        mat[rows_a, cols_a] = amps_a
        report = numerical_rank(mat, tol)
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
    """The window of all slice keys with every coordinate below ``size``."""
    dims_t = tuple(int(d) for d in dims)
    if axis < 0 or axis >= len(dims_t):
        raise ValueError(f"axis {axis} out of range for dims {dims_t}")
    comp_dims = dims_t[:axis] + dims_t[axis + 1 :]
    if any(size > d for d in comp_dims):
        raise ValueError(f"window size {size} exceeds complement dims {comp_dims}")
    return Window(axis=axis, size=size)  # rejects size < 1
