"""Matrix views of a state across a bipartition, and the one rank rule.

Everything here is dense linear algebra on the coefficient matrix of a state
for a split (S | S'): unfolding, Schmidt decomposition and reduced density
operators.  :func:`unfold` scatters the state's entry arrays into that matrix
and returns it as a plain complex128 array, which each caller builds once and
passes along; it and the reduced density are refused beyond ``DENSE_BUDGET``
bytes, and large truncated constructions are probed through slice windows.
Every rank decision counts the values of a spectrum strictly above one cutoff,
``tol`` (finite, >= 0) or :func:`rank_tolerance`: ``_rank_report`` applies it
to the spectrum its caller already has (singular values, density eigenvalues).
``_cyclicity`` is the cyclicity rule, and ``_pull_back`` its gate and solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .state import StateTensor, Subsystem, _check_dense, _immutable, _ldexp, _memo, _scatter
from .state import _split_entries

__all__ = [
    "RANK_SAFETY",
    "RankReport",
    "SchmidtDecomposition",
    "rank_tolerance",
    "numerical_rank",
    "unfold",
    "schmidt_decompose",
    "reduced_density",
]

# Multiplier on the machine-epsilon baseline in the default rank threshold.
RANK_SAFETY = 64


def rank_tolerance(largest_side: int, spectrum_max: float) -> float:
    """Default cutoff: ``largest_side * spectrum_max * 2**-52 * RANK_SAFETY``.

    Used for singular values and, with squared quantities, for density
    eigenvalues; callers pass the relevant spectrum maximum.  The factor before it
    is exact, so the cutoff is rounded once: finite near the float range, too.
    """
    return largest_side * RANK_SAFETY * 2.0**-52 * spectrum_max


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a spectrum plus the gap the threshold straddles.

    ``min_kept`` is the smallest value counted into the rank (0.0 when the
    rank is zero; see :class:`~hyperstate.certify.WindowCertificate` for the
    structural route), ``max_dropped`` the largest one discarded (0.0 when
    nothing was).  ``tied`` flags a cutoff inside a crowded stretch of the
    spectrum: some value lies within a factor of two of it.
    """

    rank: int
    min_kept: float
    max_dropped: float
    threshold: float
    tied: bool


def _check_tol(tol: float) -> float:
    """``tol`` as a float, once checked to be a finite number >= 0."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    return float(tol)


def _cutoff(side: int, spectrum_max: float, tol: float | None) -> float:
    """``tol`` once checked by :func:`_check_tol`, else :func:`rank_tolerance`."""
    if tol is None:
        return rank_tolerance(side, spectrum_max)
    return _check_tol(tol)


def _rank_report(spectrum: np.ndarray, side: int, tol: float | None = None) -> RankReport:
    """The rank rule on a nonincreasing ``spectrum`` from a matrix of larger side ``side``."""
    threshold = _cutoff(side, max(float(spectrum[0]), 0.0) if spectrum.size else 0.0, tol)
    rank = int(np.count_nonzero(spectrum > threshold))
    return RankReport(
        rank=rank,
        min_kept=float(spectrum[rank - 1]) if rank else 0.0,
        max_dropped=float(spectrum[rank]) if rank < spectrum.size else 0.0,
        threshold=threshold,
        tied=bool(np.any((spectrum > threshold / 2.0) & (spectrum < threshold * 2.0))),
    )


def numerical_rank(matrix: np.ndarray, tol: float | None = None) -> RankReport:
    """The rank rule on the singular values of ``matrix``."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"need a matrix, got shape {m.shape}")
    sigma = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    return _rank_report(sigma, max(m.shape), tol)


def unfold(v: StateTensor, subsystem: Subsystem | int | Iterable[int]) -> np.ndarray:
    """Dense complex128 coefficient matrix of ``v`` for the split (S | S').

    ``m[j, i]`` is the amplitude of (S-basis ``i``) tensor (S'-basis ``j``):
    rows run over the complement's product basis, columns over the
    subsystem's, both raveled in C order over increasing factor position.
    The Frobenius norm of the result equals the state norm exactly: unfolding
    is a rearrangement, not arithmetic.  Refused beyond ``DENSE_BUDGET`` bytes.
    """
    part = Subsystem.coerce(subsystem)
    comp = part.complement(v.nfactors)
    _check_dense(*(math.prod(v.dims[k] for k in s) for s in (comp, part)))  # before the gather
    return _scatter(*_split_entries(v, part))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """``v = sum_k coeffs[k] * left[k] (x) right[k]`` across (S | S').

    ``coeffs`` holds all ``min(dim H_S, dim H_S')`` values in nonincreasing
    order, including numerical zeros; those zeros are what bipartite repair
    replaces.  ``left_vectors[k]`` lives in H_S, ``right_vectors[k]`` in
    H_S', each row-stacked and orthonormal.  All three arrays are read-only, and the
    decompositions of one state across one split share them while it keeps them (``_memo``).
    """

    subsystem: Subsystem
    coeffs: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int
    rank_report: RankReport


def _kept_svd(v: StateTensor, part: Subsystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced SVD of ``unfold(v, part) * 2**-v._scale``, kept on ``v`` (see ``_memo``)."""
    return _memo(
        v,
        ("svd", part),
        lambda: np.linalg.svd(_ldexp(unfold(v, part), -v._scale), full_matrices=False),
    )


def schmidt_decompose(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int],
    tol: float | None = None,
) -> SchmidtDecomposition:
    """Full Schmidt decomposition from the kept SVD of the unfolding (:func:`_kept_svd`),
    its ``coeffs`` scaled back by ``2**v._scale``; its ``rank_report`` is the rank rule on
    ``coeffs``, cut by ``tol`` if given on each call.
    """
    part = Subsystem.coerce(subsystem)
    u, s, vh = _kept_svd(v, part)
    with np.errstate(over="ignore"):  # a coefficient beyond the float range is inf
        s = _immutable(np.ldexp(s, v._scale)) if v._scale else s
    report = _rank_report(s, max(u.shape[0], vh.shape[1]), tol)
    return SchmidtDecomposition(
        subsystem=part,
        coeffs=s,
        left_vectors=vh,
        right_vectors=u.T,
        rank=report.rank,
        rank_report=report,
    )


def reduced_density(v: StateTensor, subsystem: Subsystem | int | Iterable[int]) -> np.ndarray:
    """Partial trace onto ``subsystem``, computed as M M+ on the kept side.

    A read-only Hermitian array over the subsystem's product basis.  A state
    whose largest ``|re|`` or ``|im|`` lies beyond ``2**+-200`` is first
    scaled into [1/2, 1) by an exact power of two, so the result is the
    density of that scaled state: the same rank, free of overflow and underflow.
    """
    part = Subsystem.coerce(subsystem)
    kept_rows = unfold(v, part.complement(v.nfactors))  # checks the subsystem
    _check_dense(kept_rows.shape[0], kept_rows.shape[0])
    kept_rows = _ldexp(kept_rows, -v._scale)
    rho = kept_rows @ kept_rows.conj().T
    rho += rho.conj().T
    rho /= 2.0
    return _immutable(rho)


def _cyclicity(
    v: StateTensor, part: Subsystem, tol: float | None = None
) -> tuple[RankReport, np.ndarray]:
    """The cyclicity rule: the rank rule on the nonincreasing spectrum of the density on S',
    returned with that spectrum, which ``v`` keeps (``_memo``) without the density."""
    comp = part.complement(v.nfactors)  # checks the subsystem
    (eig,) = _memo(
        v, ("density", comp), lambda: (np.linalg.eigvalsh(reduced_density(v, comp))[::-1],)
    )
    return _rank_report(eig, eig.size, tol), eig


def _pull_back(v: StateTensor, part: Subsystem, rhs: np.ndarray) -> tuple[bool, int, np.ndarray]:
    """Whether ``v`` is cyclic for ``part`` (default cutoff), the rank r, and ``rhs`` on
    S' pulled back through the first r terms of the kept SVD of the scaled unfolding.
    """
    left, s, vh = _kept_svd(v, part)
    n_keys = left.shape[0]
    tall = n_keys > s.size  # more keys than dim_S: never cyclic; rule on s**2, no density
    r = (_rank_report(s * s, n_keys) if tall else _cyclicity(v, part)[0]).rank
    return r == n_keys, r, vh[:r].conj().T @ ((left[:, :r].conj().T @ rhs) / s[:r])
