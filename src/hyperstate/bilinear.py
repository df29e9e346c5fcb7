"""Matrix views of a state across a bipartition, and the one rank rule.

Everything here is dense linear algebra on the coefficient matrix of a state
for a split (S | S'): unfolding, Schmidt decomposition and reduced density
operators.  The unfolding is one scatter of the state's entry arrays into a
dense matrix, refused above ``DENSE_CAP`` total dimensions; large truncated
constructions are probed through slice windows (see :mod:`hyperstate.certify`).
Every rank decision counts the values of a spectrum strictly above one cutoff,
``tol`` (>= 0) or :func:`rank_tolerance`: ``_rank_report`` applies it to the
spectrum its caller already has (singular values, density eigenvalues).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .state import StateTensor, Subsystem, _positions

__all__ = [
    "DENSE_CAP",
    "RANK_SAFETY",
    "RankReport",
    "UnfoldingMatrix",
    "SchmidtDecomposition",
    "DensityMatrix",
    "rank_tolerance",
    "numerical_rank",
    "unfold",
    "schmidt_decompose",
    "reduced_density",
]

# Largest total dimension (product of all factor dims) converted to dense.
DENSE_CAP = 4096
# Multiplier on the machine-epsilon baseline in the default rank threshold.
RANK_SAFETY = 64


def rank_tolerance(largest_side: int, spectrum_max: float) -> float:
    """Default cutoff: ``largest_side * spectrum_max * 2**-52 * RANK_SAFETY``.

    Used for singular values and, with squared quantities, for density
    eigenvalues; callers pass the relevant spectrum maximum.
    """
    return largest_side * spectrum_max * 2.0**-52 * RANK_SAFETY


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


def _cutoff(side: int, spectrum_max: float, tol: float | None) -> float:
    """``tol`` once checked to be a number >= 0, else :func:`rank_tolerance`."""
    if tol is None:
        return rank_tolerance(side, spectrum_max)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    return float(tol)


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


def numerical_rank(
    matrix: "np.ndarray | UnfoldingMatrix", tol: float | None = None
) -> RankReport:
    """The rank rule on the singular values of ``matrix``."""
    m = matrix.matrix if isinstance(matrix, UnfoldingMatrix) else np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError(f"need a matrix, got shape {m.shape}")
    sigma = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    return _rank_report(sigma, max(m.shape), tol)


@dataclass(frozen=True)
class UnfoldingMatrix:
    """Coefficient matrix of ``v`` for the split (S | S').

    ``matrix[j, i]`` is the amplitude of (S-basis ``i``) tensor (S'-basis
    ``j``); rows run over the complement's product basis, columns over the
    subsystem's, both raveled in C order over increasing factor position.
    """

    matrix: np.ndarray
    subsystem: Subsystem
    part_dims: tuple[int, ...]
    complement_dims: tuple[int, ...]

    @property
    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))


def unfold(v: StateTensor, subsystem: Subsystem | int | Iterable[int]) -> UnfoldingMatrix:
    """Dense coefficient matrix of ``v`` over the given split.

    The Frobenius norm of the result equals the state norm exactly: unfolding
    is a rearrangement, not arithmetic.
    """
    total = math.prod(v.dims)
    if total > DENSE_CAP:
        raise ValueError(
            f"total dimension {total} exceeds the dense cap {DENSE_CAP}; "
            "use slice windows for large truncated states"
        )
    part = Subsystem.coerce(subsystem)
    comp = part.complement(v.nfactors)
    part_dims = tuple(v.dims[k] for k in part)
    comp_dims = tuple(v.dims[k] for k in comp)
    matrix = np.zeros((math.prod(comp_dims), math.prod(part_dims)), dtype=np.complex128)
    rows, cols = (_positions(v.indices, v.dims, s) for s in (comp, part))
    matrix[rows, cols] = v.amplitudes
    return UnfoldingMatrix(matrix, part, part_dims, comp_dims)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """``v = sum_k coeffs[k] * left[k] (x) right[k]`` across (S | S').

    ``coeffs`` holds all ``min(dim H_S, dim H_S')`` values in nonincreasing
    order, including numerical zeros; those zeros are what bipartite repair
    replaces.  ``left_vectors[k]`` lives in H_S, ``right_vectors[k]`` in
    H_S', each row-stacked and orthonormal.  All three arrays are read-only.
    """

    subsystem: Subsystem
    coeffs: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int
    rank_report: RankReport
    part_dims: tuple[int, ...]
    complement_dims: tuple[int, ...]


def schmidt_decompose(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int],
    tol: float | None = None,
) -> SchmidtDecomposition:
    """Full Schmidt decomposition from one SVD of the unfolding; its
    ``rank_report`` is the rank rule on ``coeffs``, cut by ``tol`` if given."""
    unf = unfold(v, subsystem)
    m = unf.matrix
    # Full matrices: zero Schmidt directions carry the orthonormal vectors
    # that repair and witnesses need.
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    for arr in (u, s, vh):
        arr.flags.writeable = False
    report = _rank_report(s, max(m.shape), tol)
    return SchmidtDecomposition(
        subsystem=unf.subsystem,
        coeffs=s,
        left_vectors=vh[: s.size, :],
        right_vectors=u[:, : s.size].T,
        rank=report.rank,
        rank_report=report,
        part_dims=unf.part_dims,
        complement_dims=unf.complement_dims,
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density operator on a subsystem, eigenvalues nonincreasing.

    Both arrays are read-only.
    """

    subsystem: Subsystem
    matrix: np.ndarray
    eigenvalues: np.ndarray


def reduced_density(v: StateTensor, subsystem: Subsystem | int | Iterable[int]) -> DensityMatrix:
    """Partial trace onto ``subsystem``, computed as M M+ on the kept side."""
    part = Subsystem.coerce(subsystem)
    kept_rows = unfold(v, part.complement(v.nfactors)).matrix  # checks the subsystem
    rho = kept_rows @ kept_rows.conj().T
    rho = (rho + rho.conj().T) / 2.0
    eig = np.linalg.eigvalsh(rho)[::-1]
    rho.flags.writeable = False
    eig.flags.writeable = False
    return DensityMatrix(subsystem=part, matrix=rho, eigenvalues=eig)
