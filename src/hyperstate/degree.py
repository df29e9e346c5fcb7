"""Distance from the product states: degree of entanglement.

The degree is E(v) = (1/2) min over unit product states w of ||v - w||^2,
which with the phase freedom equals 1 - max |<w, v>|.  Across a bipartition
the maximum overlap is the top Schmidt coefficient (exact, via SVD); over
full n-fold product states it is estimated by alternating rank-1 power
iterations with seeded random restarts.  The restarts are swept together,
in blocks whose largest working array stays under 128 KiB, and every
result is bit-identical to sweeping them one at a time: the products and
scatter-adds run element for element as in a single restart, and each row
norm rounds as ``np.linalg.norm`` rounds one vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bilinear import _check_tol, schmidt_decompose
from .state import StateTensor, Subsystem, _check_dense, _immutable, norm

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


def _check_seed(seed: int) -> None:
    """Refuse a negative ``seed``, which ``np.random.default_rng`` cannot take."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def degree_bipartite(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int] = 0,
) -> DegreeResult:
    """Exact degree across the split (S | S'): 1 - top Schmidt coefficient."""
    if not v.is_normalized:
        raise ValueError(f"degree is defined for unit states, norm is {norm(v)!r}")
    sd = schmidt_decompose(v, subsystem)
    top = float(sd.coeffs[0])
    return DegreeResult(
        value=max(0.0, 1.0 - top),
        overlap=top,
        best_product=(_immutable(sd.left_vectors[0]), _immutable(sd.right_vectors[0])),
        converged=True,
        restarts_used=0,
        sweeps=0,
    )


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of the complex ``(rows, d)`` array ``x``.

    ``norm`` of one complex row is ``sqrt(re.dot(re) + im.dot(im))`` on the
    strided real and imaginary views.  A stacked row-times-column product
    makes that same dot call per row, so each result rounds exactly as
    ``norm`` rounds it; ``einsum`` and ``sum`` order the additions otherwise.
    """
    re, im = x.real, x.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def _bins(v: StateTensor, rows: int) -> list[np.ndarray]:
    """Per factor k, where each entry's coordinate lies in a flattened
    ``(rows, dims[k])`` array: ``r * dims[k] + indices[:, k]`` for restart
    ``r``, restart after restart, so a prefix serves fewer restarts."""
    return [
        (np.arange(rows)[:, None] * d + v.indices[:, k]).ravel() for k, d in enumerate(v.dims)
    ]


def _als_sweep(
    v: StateTensor, factors: list[np.ndarray], bins: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """One round of factor updates on a block of restarts.

    ``factors[k]`` holds one unit row of length ``dims[k]`` per restart, and
    ``bins`` comes from :func:`_bins` for at least that many restarts.
    Returns the new factors and each restart's overlap |<w, v>|.
    """
    rows = factors[0].shape[0]
    n = rows * v.nnz
    overlap = np.zeros(rows)
    for k, d in enumerate(v.dims):
        re, im = v.amplitudes.real, v.amplitudes.imag
        for l in range(v.nfactors):
            if l != k:  # times conj(factor), by components to round as scalar products do
                f = factors[l].ravel()[bins[l][:n]].reshape(rows, -1)
                re, im = re * f.real + im * f.imag, im * f.real - re * f.imag
        # bincount adds each bin's weights in entry order from zero, as np.add.at does
        g = np.empty((rows, d), dtype=np.complex128)
        g.real = np.bincount(bins[k][:n], re.ravel(), rows * d).reshape(rows, d)
        g.imag = np.bincount(bins[k][:n], im.ravel(), rows * d).reshape(rows, d)
        ng = _row_norms(g)
        moved = ng != 0.0  # a zero row keeps its previous factor; the next sweep moves on
        factors[k] = np.where(moved[:, None], g / np.where(moved, ng, 1.0)[:, None], factors[k])
        overlap = np.where(moved, ng, overlap)
    return factors, overlap


# numpy allocates every intermediate afresh.  Below glibc's default mmap
# threshold (128 KiB) the heap hands those back warm; above it each one is
# mapped and page-faulted anew, and a block of restarts then sweeps slower
# than its restarts one at a time.
_BLOCK_BYTES = 2**17


def _block_size(v: StateTensor) -> int:
    """Restarts swept together, so that a block's largest working array stays
    below ``_BLOCK_BYTES``: per restart, that array holds one complex
    ``(nnz,)`` product or the ``2 * sum(dims)`` draws of the starting factors.
    """
    return max(1, (_BLOCK_BYTES - 1) // (16 * max(v.nnz, sum(v.dims))))


def degree_multipartite(
    v: StateTensor,
    restarts: int = 16,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
) -> DegreeResult:
    """Degree over n-fold product states via alternating power iterations.

    Runs ``restarts`` (>= 1) random starts drawn from ``seed`` (>= 0), each
    swept until the overlap gain drops below ``tol`` (finite, >= 0) or
    ``max_iters`` (>= 1) sweeps pass, and keeps the first best.  The
    overlap is monotonically nondecreasing within a run, so the result is a
    certified lower bound on the true maximum overlap (hence an upper bound
    on the degree).  Restarts are swept together in blocks of bounded
    working memory, so no call allocates in proportion to ``restarts``;
    every result is bit-identical to sweeping the restarts one at a time.
    """
    if not v.is_normalized:
        raise ValueError(f"degree is defined for unit states, norm is {norm(v)!r}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"need at least one sweep, got max_iters={max_iters}")
    _check_seed(seed)
    _check_tol(tol)
    _check_dense(1, sum(v.dims))  # one restart's factors, and its draws
    rng = np.random.default_rng(seed)
    block = _block_size(v)
    bins = _bins(v, min(block, restarts))
    width = 2 * sum(v.dims)

    best_overlap = -1.0
    for first in range(0, restarts, block):
        rows = min(block, restarts - first)
        # Drawn in the order of one restart at a time: per restart, per
        # factor, the real parts and then the imaginary parts.
        draws = rng.standard_normal((rows, width))
        factors = []
        at = 0
        for d in v.dims:
            x = draws[:, at : at + d] + 1j * draws[:, at + d : at + 2 * d]
            factors.append(x / _row_norms(x)[:, None])
            at += 2 * d
        overlap = np.zeros(rows)
        converged = np.zeros(rows, dtype=bool)
        sweeps = np.zeros(rows, dtype=np.int64)
        active = np.arange(rows)  # restarts still sweeping
        for sweep in range(1, max_iters + 1):
            swept, new_overlap = _als_sweep(v, [f[active] for f in factors], bins)
            for f, s in zip(factors, swept):
                f[active] = s
            done = np.abs(new_overlap - overlap[active]) <= tol * np.maximum(1.0, new_overlap)
            overlap[active] = new_overlap
            sweeps[active] = sweep
            converged[active[done]] = True
            active = active[~done]
            if active.size == 0:
                break
        top = int(np.argmax(overlap))  # the first of equal maxima, as in restart order
        if overlap[top] > best_overlap:
            best_overlap = float(overlap[top])
            best_factors = [_immutable(f[top]) for f in factors]
            best_converged = bool(converged[top])
            best_sweeps = int(sweeps[top])

    return DegreeResult(
        value=max(0.0, 1.0 - best_overlap),
        overlap=best_overlap,
        best_product=tuple(best_factors),
        converged=best_converged,
        restarts_used=restarts,
        sweeps=best_sweeps,
    )
