"""Conditional probabilities, steering operators and correlation witnesses.

The operational content of maximal correlation: for a state cyclic on S, any
yes-no question P' on the complement can be answered with certainty by a
rank-1 question P on S, conditioning on which drives the conditional
probability of P' to 1.  Both constructions take the gate, the rank and the
solve from ``bilinear._pull_back``: the rule :func:`~hyperstate.certify.cyclicity_test`
applies, and the (pseudo)inverse given by the state's kept Schmidt SVD of the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bilinear import _pull_back, unfold
from .state import DROP_THRESHOLD, UNIT_NORM_TOL, StateTensor, Subsystem, _check_dense, _ldexp
from .state import _immutable

__all__ = [
    "ORTHONORMALITY_TOL",
    "ZERO_EVENT_TOL",
    "Projector",
    "CorrelationQuery",
    "WitnessResult",
    "conditional_probability",
    "steering_operator",
    "correlation_witness",
]

# Allowed deviation of a projector's Gram matrix from the identity.
ORTHONORMALITY_TOL = 1e-10
# Conditioning events below this fraction of the state's squared norm are
# treated as probability zero.
ZERO_EVENT_TOL = 1e-14


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector on a subsystem, given by a basis of its range.

    ``basis`` is row-stacked: ``basis[k]`` is the k-th range vector over the
    subsystem's product basis (C-order raveled).  Rows must be orthonormal
    within ``ORTHONORMALITY_TOL``.
    """

    subsystem: Subsystem
    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.array(self.basis, dtype=np.complex128)
        if basis.ndim != 2:
            raise ValueError(f"basis must be a 2-D row-stacked array, got shape {basis.shape}")
        if basis.shape[0] == 0:
            raise ValueError("projector needs at least one range vector")
        if basis.shape[0] > basis.shape[1]:  # never orthonormal: refused before the Gram matrix
            raise ValueError("projector range vectors are not orthonormal")
        with np.errstate(over="ignore", invalid="ignore"):  # huge rows: inf/NaN, refused below
            gram = basis.conj() @ basis.T
        if not (np.abs(gram - np.eye(basis.shape[0])) <= ORTHONORMALITY_TOL).all():
            raise ValueError("projector range vectors are not orthonormal")
        object.__setattr__(self, "basis", _immutable(basis))
        object.__setattr__(self, "subsystem", Subsystem.coerce(self.subsystem))

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor: the basis is checked and frozen again
        return Projector, (self.subsystem, self.basis)

    @property
    def rank(self) -> int:
        return int(self.basis.shape[0])

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def _split(v: StateTensor, part: Subsystem, pp: Projector) -> np.ndarray:
    """The unfolding of ``v`` for (part | pp), checked, then scaled as the kept SVD
    and the complement density of ``bilinear`` are scaled.

    Only ratios and directions are read off it, and the exact power-of-two
    scaling changes none of them.
    """
    comp = part.complement(v.nfactors)  # checks the subsystem
    if pp.subsystem != comp:
        raise ValueError(f"P' acts on {pp.subsystem.indices}, expected complement {comp.indices}")
    m = unfold(v, part)
    if pp.dim != m.shape[0]:
        raise ValueError(f"P' dimension {pp.dim} does not match complement dimension {m.shape[0]}")
    return _ldexp(m, -v._scale)


def conditional_probability(v: StateTensor, p: Projector, p_prime: Projector) -> float:
    """Prob(P' = 1 | P = 1) in the state ``v``.

    Computed as <v, (P (x) P') v> / <v, (P (x) I) v> through compressions of
    the unfolding; raises when the conditioning event has probability ~0
    (below ``ZERO_EVENT_TOL`` relative to the squared norm).
    """
    m = _split(v, p.subsystem, p_prime)
    if p.dim != m.shape[1]:
        raise ValueError(f"P dimension {p.dim} does not match subsystem dimension {m.shape[1]}")
    return _conditional(m, p, p_prime)


def _conditional(m: np.ndarray, p: Projector, p_prime: Projector) -> float:
    """:func:`conditional_probability` on the unfolding ``m`` of a checked split."""
    side = m @ p.basis.conj().T  # restrict the S side to range(P)
    marginal = float(np.linalg.norm(side) ** 2)
    total = float(np.linalg.norm(m) ** 2)
    if marginal <= ZERO_EVENT_TOL * total:
        raise ValueError("conditioning event has probability zero")
    joint = float(np.linalg.norm(p_prime.basis.conj() @ side) ** 2)
    return min(1.0, max(0.0, joint / marginal))


def steering_operator(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int],
    target: np.ndarray,
    embed: np.ndarray | None = None,
) -> np.ndarray:
    """The read-only ``dim_S x dim_S`` array A on S with (A (x) I) v = embed (x) target.

    ``target`` on S' is normalised first.  Solves A v_j = target_j * embed
    against the slice family through the kept Schmidt SVD, and refuses exactly the
    states that are not cyclic for S (:func:`~hyperstate.certify.cyclicity_test`'s
    rule).  ``target`` and ``embed`` must be finite.  ``embed`` defaults to the
    first basis vector of H_S.  An ``n_keys x dim_S`` slice matrix beyond
    ``DENSE_BUDGET`` bytes is refused, then an operator A beyond it, before the solve.
    """
    part = Subsystem.coerce(subsystem)
    comp = part.complement(v.nfactors)  # checks the subsystem
    n_keys, dim_s = (math.prod(v.dims[k] for k in s) for s in (comp, part))
    _check_dense(n_keys, dim_s)  # the slice matrix the kept SVD decomposes
    _check_dense(dim_s, dim_s)  # the returned operator

    phi = np.asarray(target, dtype=np.complex128).reshape(-1)
    if phi.shape[0] != n_keys:
        raise ValueError(f"target has dimension {phi.shape[0]}, complement has {n_keys}")
    if not np.isfinite(phi).all():
        raise ValueError("target vector must be finite")
    nphi = float(np.linalg.norm(phi))
    if nphi == 0.0:
        raise ValueError("target vector must be nonzero")
    phi = phi / nphi

    u = np.asarray(np.eye(1, dim_s)[0] if embed is None else embed, dtype=np.complex128).reshape(-1)
    if u.shape[0] != dim_s:
        raise ValueError(f"embed has dimension {u.shape[0]}, H_S has {dim_s}")
    if not abs(np.linalg.norm(u) - 1.0) <= UNIT_NORM_TOL:  # NaN is refused too
        raise ValueError("embed vector must be a unit vector")

    passed, rank, y = _pull_back(v, part, phi)
    if not passed:
        raise ValueError(
            f"state is not cyclic for subsystem {part.indices}: "
            f"slice family has rank {rank} < {n_keys}"
        )
    # slices @ y = phi  <=>  A = outer(u, y) maps v_j to phi_j * u; y is in true units.
    return _immutable(np.outer(u, _ldexp(y, -v._scale)))


@dataclass(frozen=True)
class CorrelationQuery:
    """A witness request: drive P' (on the complement of S) to certainty."""

    state: StateTensor
    subsystem: Subsystem
    p_prime: Projector
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsystem", Subsystem.coerce(self.subsystem))
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class WitnessResult:
    """A rank-1 conditioning projector and the probability it achieves.

    ``warning`` is set when :func:`~hyperstate.certify.cyclicity_test` finds
    the state not cyclic for S (so the pseudoinverse route was only best-effort)
    or the achieved probability missed the 1 - epsilon goal; ``achieved`` is
    always the honest value of :func:`conditional_probability` for the
    returned projectors.
    """

    projector: Projector
    achieved: float
    warning: bool
    target: np.ndarray


def correlation_witness(query: CorrelationQuery) -> WitnessResult:
    """Construct a rank-1 P on S making P' on S' near-certain.

    Picks the unit vector w in range(P') best represented in the state's
    slices, pulls it back through the pseudoinverse of the kept SVD cut to the
    ``cyclicity_test`` rank and projects onto the resulting direction.  For a
    cyclic state this achieves probability 1 up to roundoff.
    """
    v = query.state
    part = query.subsystem
    pp = query.p_prime
    m = _split(v, part, pp)  # rows: complement, cols: subsystem
    compressed = pp.basis.conj() @ m  # (rank', dim_S)
    total = float(np.linalg.norm(m) ** 2)
    if float(np.linalg.norm(compressed) ** 2) <= ZERO_EVENT_TOL * total:
        raise ValueError("projector annihilates the state; nothing to condition on")

    # Unit w in range(P') with the largest reachable overlap.
    bu, _, _ = np.linalg.svd(compressed, full_matrices=False)
    w = pp.basis.T @ bu[:, 0]

    passed, _, x = _pull_back(v, part, w)  # through the SVD of m itself: the same 2**-_scale
    nx = float(np.linalg.norm(x))
    if nx <= DROP_THRESHOLD:
        raise ValueError(
            f"state is not cyclic for subsystem {part.indices} and the "
            "selected direction is unreachable"
        )
    direction = np.conj(x) / nx
    p = Projector(subsystem=part, basis=direction[None, :])

    achieved = _conditional(m, p, pp)  # p is on part, with m's column count
    warning = not passed or achieved < 1.0 - query.epsilon
    return WitnessResult(projector=p, achieved=achieved, warning=warning, target=_immutable(w))
