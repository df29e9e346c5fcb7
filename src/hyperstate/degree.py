"""Distance from the product states: degree of entanglement.

The degree is E(v) = (1/2) min over unit product states w of ||v - w||^2,
which with the phase freedom equals 1 - max |<w, v>|.  Across a bipartition
the maximum overlap is the top Schmidt coefficient (exact, via SVD); over
full n-fold product states it is estimated by alternating rank-1 power
iterations with seeded random restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bilinear import _check_tol, schmidt_decompose
from .state import StateTensor, Subsystem, norm

__all__ = ["DegreeResult", "degree_bipartite", "degree_multipartite"]


@dataclass(frozen=True)
class DegreeResult:
    """Degree value together with the maximizing product state.

    ``value = 1 - overlap`` where ``overlap = |<best_product, v>|``; the
    vectors in ``best_product`` are unit, one per side of the split (two for
    the bipartite route, one per factor for the multipartite route).
    """

    value: float
    overlap: float
    best_product: tuple[np.ndarray, ...]
    converged: bool
    restarts_used: int
    sweeps: int


def _require_unit(v: StateTensor) -> None:
    if abs(norm(v) - 1.0) > 1e-10:
        raise ValueError(f"degree is defined for unit states, norm is {norm(v)!r}")


def degree_bipartite(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int] = 0,
) -> DegreeResult:
    """Exact degree across the split (S | S'): 1 - top Schmidt coefficient."""
    _require_unit(v)
    sd = schmidt_decompose(v, subsystem)
    top = float(sd.coeffs[0])
    value = max(0.0, 1.0 - top)
    # A unit state cannot be farther from the products than the flattest
    # Schmidt spectrum allows.
    bound = 1.0 - 1.0 / math.sqrt(sd.coeffs.size)
    if value > bound + 1e-12:
        raise RuntimeError(f"degree {value} exceeds the spectral bound {bound}")
    left = sd.left_vectors[0].copy()
    right = sd.right_vectors[0].copy()
    left.flags.writeable = False
    right.flags.writeable = False
    return DegreeResult(
        value=value,
        overlap=top,
        best_product=(left, right),
        converged=True,
        restarts_used=0,
        sweeps=0,
    )


def _als_sweep(
    v: StateTensor, factors: list[np.ndarray]
) -> tuple[list[np.ndarray], float]:
    """One round of factor updates; returns the new overlap |<w, v>|."""
    overlap = 0.0
    for k in range(v.nfactors):
        re, im = v.amplitudes.real, v.amplitudes.imag
        for l in range(v.nfactors):
            if l != k:  # times conj(factor), by components to round as scalar products do
                f = factors[l][v.indices[:, l]]
                re, im = re * f.real + im * f.imag, im * f.real - re * f.imag
        g = np.zeros(v.dims[k], dtype=np.complex128)
        np.add.at(g.real, v.indices[:, k], re)
        np.add.at(g.imag, v.indices[:, k], im)
        ng = float(np.linalg.norm(g))
        if ng == 0.0:
            continue  # keep the previous factor; the next sweep moves on
        factors[k] = g / ng
        overlap = ng
    return factors, overlap


def degree_multipartite(
    v: StateTensor,
    restarts: int = 16,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
) -> DegreeResult:
    """Degree over n-fold product states via alternating power iterations.

    Runs ``restarts`` (>= 1) seeded random starts, each swept until the
    overlap gain drops below ``tol`` (finite, >= 0) or ``max_iters`` (>= 1)
    sweeps pass, and keeps the best.  The overlap is monotonically
    nondecreasing within a run, so the result is a certified lower bound on
    the true maximum overlap (hence an upper bound on the degree).
    """
    _require_unit(v)
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"need at least one sweep, got max_iters={max_iters}")
    _check_tol(tol)
    rng = np.random.default_rng(seed)

    best_overlap = -1.0
    best_factors: list[np.ndarray] | None = None
    best_converged = False
    best_sweeps = 0
    for _ in range(restarts):
        factors = []
        for d in v.dims:
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(x / np.linalg.norm(x))
        overlap = 0.0
        converged = False
        sweeps = 0
        for sweeps in range(1, max_iters + 1):
            factors, new_overlap = _als_sweep(v, factors)
            if abs(new_overlap - overlap) <= tol * max(1.0, new_overlap):
                overlap = new_overlap
                converged = True
                break
            overlap = new_overlap
        if overlap > best_overlap:
            best_overlap = overlap
            best_factors = [f.copy() for f in factors]
            best_converged = converged
            best_sweeps = sweeps

    assert best_factors is not None
    for f in best_factors:
        f.flags.writeable = False
    return DegreeResult(
        value=max(0.0, 1.0 - best_overlap),
        overlap=best_overlap,
        best_product=tuple(best_factors),
        converged=best_converged,
        restarts_used=restarts,
        sweeps=best_sweeps,
    )
