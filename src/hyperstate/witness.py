"""Conditional probabilities, steering operators and correlation witnesses.

The operational content of maximal correlation: for a state cyclic on S, any
yes-no question P' on the complement can be answered with certainty by a
rank-1 question P on S, conditioning on which drives the conditional
probability of P' to 1.  The witness construction solves the slice linear
system through the unfolding's (pseudo)inverse.  Its least-squares solves
apply the package's one rank rule with the default cutoff (LAPACK ``rcond``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bilinear import rank_tolerance, unfold
from .state import StateTensor, Subsystem

__all__ = [
    "ORTHONORMALITY_TOL",
    "ZERO_EVENT_TOL",
    "Projector",
    "CorrelationQuery",
    "WitnessResult",
    "LocalOperator",
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
        if basis.ndim != 2 or basis.shape[0] == 0:
            raise ValueError("projector needs at least one range vector")
        with np.errstate(over="ignore", invalid="ignore"):  # huge rows: inf/NaN, refused below
            gram = basis.conj() @ basis.T
        if not (np.abs(gram - np.eye(basis.shape[0])) <= ORTHONORMALITY_TOL).all():
            raise ValueError("projector range vectors are not orthonormal")
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "subsystem", Subsystem.coerce(self.subsystem))

    @property
    def rank(self) -> int:
        return int(self.basis.shape[0])

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def _check_split(v: StateTensor, p: Projector, p_prime: Projector) -> None:
    comp = p.subsystem.complement(v.nfactors)
    if p_prime.subsystem != comp:
        raise ValueError(
            f"projectors must act on complementary subsystems, got "
            f"{p.subsystem.indices} and {p_prime.subsystem.indices}"
        )
    dim_s = math.prod(v.dims[k] for k in p.subsystem)
    dim_c = math.prod(v.dims[k] for k in comp)
    if p.dim != dim_s or p_prime.dim != dim_c:
        raise ValueError(
            f"projector dimensions ({p.dim}, {p_prime.dim}) do not match the "
            f"split dimensions ({dim_s}, {dim_c})"
        )


def conditional_probability(v: StateTensor, p: Projector, p_prime: Projector) -> float:
    """Prob(P' = 1 | P = 1) in the state ``v``.

    Computed as <v, (P (x) P') v> / <v, (P (x) I) v> through compressions of
    the unfolding; raises when the conditioning event has probability ~0
    (below ``ZERO_EVENT_TOL`` relative to the squared norm).
    """
    _check_split(v, p, p_prime)
    m = unfold(v, p.subsystem).matrix  # rows: complement, cols: subsystem
    side = m @ p.basis.conj().T  # restrict the S side to range(P)
    marginal = float(np.linalg.norm(side) ** 2)
    total = float(np.linalg.norm(m) ** 2)
    if marginal <= ZERO_EVENT_TOL * total:
        raise ValueError("conditioning event has probability zero")
    joint = float(np.linalg.norm(p_prime.basis.conj() @ side) ** 2)
    return min(1.0, max(0.0, joint / marginal))


@dataclass(frozen=True)
class LocalOperator:
    """An operator on one side of a split, with its norm on record."""

    subsystem: Subsystem
    matrix: np.ndarray
    operator_norm: float


def steering_operator(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int],
    target: np.ndarray,
    embed: np.ndarray | None = None,
) -> LocalOperator:
    """A on S with (A (x) I) v = embed (x) target, for unit target on S'.

    Solves A v_j = target_j * embed against the slice family; requires the
    family to have full rank under the default rank rule (the cyclicity
    criterion), otherwise raises.  ``embed`` defaults to the first basis
    vector of H_S.  The slices come from :func:`unfold`, so states above
    ``DENSE_CAP`` are refused.
    """
    unf = unfold(v, subsystem)
    part = unf.subsystem
    slices = unf.matrix  # (n_keys, dim_S)
    n_keys, dim_s = slices.shape

    phi = np.asarray(target, dtype=np.complex128).reshape(-1)
    if phi.shape[0] != n_keys:
        raise ValueError(
            f"target has dimension {phi.shape[0]}, complement has {n_keys}"
        )
    nphi = float(np.linalg.norm(phi))
    if nphi == 0.0:
        raise ValueError("target vector must be nonzero")
    phi = phi / nphi

    if embed is None:
        u = np.zeros(dim_s, dtype=np.complex128)
        u[0] = 1.0
    else:
        u = np.asarray(embed, dtype=np.complex128).reshape(-1)
        if u.shape[0] != dim_s:
            raise ValueError(f"embed has dimension {u.shape[0]}, H_S has {dim_s}")
        if abs(np.linalg.norm(u) - 1.0) > 1e-10:
            raise ValueError("embed vector must be a unit vector")

    # slices @ y = phi  <=>  A = outer(u, y) maps v_j to phi_j * u.
    y, _, rank, _ = np.linalg.lstsq(slices, phi, rcond=rank_tolerance(max(n_keys, dim_s), 1.0))
    if rank < n_keys:
        raise ValueError(
            f"state is not cyclic for subsystem {part.indices}: "
            f"slice family has rank {rank} < {n_keys}"
        )
    residual = float(np.linalg.norm(slices @ y - phi))
    if residual > 1e-9:
        raise ValueError(f"steering solve residual {residual} exceeds 1e-9")

    a = np.outer(u, y)
    a.flags.writeable = False
    return LocalOperator(
        subsystem=part, matrix=a, operator_norm=float(np.linalg.norm(a, 2))
    )


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

    ``warning`` is set when the slice family was rank-deficient under the
    default rank rule (so the pseudoinverse route was only best-effort) or
    the achieved probability missed the 1 - epsilon goal; ``achieved`` is
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
    slices, pulls it back through the unfolding's least-squares inverse and
    projects onto the resulting direction.  For a cyclic state this achieves
    probability 1 up to roundoff.
    """
    v = query.state
    part = query.subsystem
    comp = part.complement(v.nfactors)  # checks the subsystem
    pp = query.p_prime
    if pp.subsystem != comp:
        raise ValueError(
            f"P' acts on {pp.subsystem.indices}, expected complement {comp.indices}"
        )

    m = unfold(v, part).matrix  # rows: complement, cols: subsystem
    if pp.dim != m.shape[0]:
        raise ValueError(
            f"P' dimension {pp.dim} does not match complement dimension {m.shape[0]}"
        )
    compressed = pp.basis.conj() @ m  # (rank', dim_S)
    total = float(np.linalg.norm(m) ** 2)
    if float(np.linalg.norm(compressed) ** 2) <= ZERO_EVENT_TOL * total:
        raise ValueError("projector annihilates the state; nothing to condition on")

    # Unit w in range(P') with the largest reachable overlap.
    bu, _, _ = np.linalg.svd(compressed, full_matrices=False)
    w = pp.basis.T @ bu[:, 0]

    x, _, rank, _ = np.linalg.lstsq(m, w, rcond=rank_tolerance(max(m.shape), 1.0))
    nx = float(np.linalg.norm(x))
    if nx <= 1e-300:
        raise ValueError(
            f"state is not cyclic for subsystem {part.indices} and the "
            "selected direction is unreachable"
        )
    direction = np.conj(x) / nx
    p = Projector(subsystem=part, basis=direction[None, :])

    achieved = conditional_probability(v, p, pp)
    warning = int(rank) < m.shape[0] or achieved < 1.0 - query.epsilon
    w.flags.writeable = False
    return WitnessResult(projector=p, achieved=achieved, warning=warning, target=w)
