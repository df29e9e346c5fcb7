"""Constructors: pairing-support states, seed-and-extend, repair, catalog.

Two families of finite truncations of infinite-dimensional constructions are
built here, plus a repair step that nudges a rank-deficient bipartite state
into a certified hyperentangled one, and a small catalog of named reference
states used throughout the tests and the CLI.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .bilinear import schmidt_decompose
from .certify import HYPERENTANGLED, cube_window, hyperentanglement_test, window_certificate
from .state import DROP_THRESHOLD, MultiIndex, StateTensor, Subsystem, make_state, norm
from .state import _check_dims, _state_from_arrays

__all__ = [
    "PairingFn",
    "pairing_fn",
    "pairing_eval",
    "geometric_weights",
    "support_test",
    "method1_build",
    "ExtensionParams",
    "method2_extend",
    "method2_build",
    "default_seed",
    "repair_bipartite",
    "paper_state",
    "PAPER_STATE_NAMES",
    "PAIRING_NAMES",
]

# Pairing values must stay within unsigned 64-bit range.
_PAIRING_MAX = 2**64 - 1


@dataclass(frozen=True)
class PairingFn:
    """An injection j(a, b) on pairs of nonnegative integers.

    The constructions need injectivity, and :func:`pairing_eval`, the one
    check of a value, needs an integer of at most 64 bits with j(a, b) >=
    max(a, b).  :func:`method1_build` assumes growth to skip pairs, so a
    custom evaluator that breaks it only on skipped pairs builds unchecked.
    """

    kind: str
    func: Callable[[int, int], int]


def _pow_2a3b(a: int, b: int) -> int:
    # Exponent guard first: beyond it the product cannot fit 64 bits, and
    # evaluating it would build astronomically large integers.
    if a > 64 or b > 40:
        raise OverflowError(f"j({a}, {b}) exceeds the 64-bit range")
    return 2**a * 3**b


def _interleave_bits(a: int, b: int) -> int:
    # Bit i of a lands at position 2i, bit i of b at position 2i + 1.
    out = 0
    shift = 0
    while a or b:
        out |= (a & 1) << (2 * shift)
        out |= (b & 1) << (2 * shift + 1)
        a >>= 1
        b >>= 1
        shift += 1
    return out


_BUILTINS: dict[str, Callable[[int, int], int]] = {
    "injection_2a3b": _pow_2a3b,
    "bijection_interleave": _interleave_bits,
}

PAIRING_NAMES: tuple[str, ...] = tuple(_BUILTINS)


def pairing_fn(kind: str) -> PairingFn:
    """Look up a built-in pairing by name."""
    try:
        return PairingFn(kind=kind, func=_BUILTINS[kind])
    except KeyError:
        raise ValueError(
            f"unknown pairing {kind!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def pairing_eval(p: PairingFn, a: int, b: int) -> int:
    """j(a, b) as an ``int``: the one check of a value (``operator.index``, 64 bits, growth)."""
    a, b = operator.index(a), operator.index(b)
    if a < 0 or b < 0:
        raise ValueError(f"pairing arguments must be nonnegative, got ({a}, {b})")
    value = operator.index(p.func(a, b))
    if value > _PAIRING_MAX:
        # Report the width, not the value: a custom pairing may return an
        # integer too large for str conversion.
        raise OverflowError(
            f"j({a}, {b}) needs {value.bit_length()} bits, beyond the 64-bit range"
        )
    if value < max(a, b):
        raise ValueError(f"pairing violates j(a, b) >= max(a, b) at ({a}, {b})")
    return value


def _fold(p: PairingFn, rest: Sequence[int]) -> int | None:
    # j folded from the right over rest: j(b, c), or j(b, j(c, d)).  Values
    # past 64 bits exceed every admissible index, so such a clause is false.
    value = rest[-1]
    try:
        for x in reversed(rest[:-1]):
            value = pairing_eval(p, x, value)
    except OverflowError:
        return None
    return value


def support_test(p: PairingFn, idx: Sequence[int]) -> bool:
    """Whether ``idx`` is in the support of the pairing construction.

    For three factors, (a, b, c) is supported iff one coordinate is the
    pairing of the other two in order: a = j(b, c), b = j(a, c) or
    c = j(a, b).  For four factors each coordinate is tested against the
    nested pairing of the remaining three, e.g. a = j(b, j(c, d)).
    """
    idx = tuple(map(operator.index, idx))
    if any(k < 0 for k in idx):
        raise ValueError(f"indices must be nonnegative, got {idx}")
    if len(idx) not in (3, 4):
        raise ValueError(f"support is defined for 3 or 4 factors, got {len(idx)}")
    return any(idx[t] == _fold(p, idx[:t] + idx[t + 1 :]) for t in range(len(idx)))


def geometric_weights(idx: Sequence[int]) -> complex:
    """Default amplitude rule 2**-(sum of coordinates)."""
    return complex(2.0 ** -float(sum(idx)))


def method1_build(
    n: int,
    pairing: PairingFn,
    bounds: Sequence[int],
    weights: Callable[[MultiIndex], complex] | None = None,
) -> StateTensor:
    """Truncated pairing-support state on ``n`` factors.

    Bounds that :func:`make_state` would refuse as dims are refused first.  Then the
    :func:`support_test` support is listed clause by clause: coordinate t is j folded
    over the others, where that is below ``bounds[t]``.  Assuming j(a, b) >= max(a, b),
    the others run only below min(their bound, ``bounds[t]``): O(n b**(n-1)) pairing
    evaluations, each checked by :func:`pairing_eval`.  The sorted indices, weighted in
    lexicographic order (default geometric decay), go as rows to the one array
    constructor and are normalized.  The result is flagged as a truncation of an
    infinite-dimensional state; its certification target is window certificates, not
    the finite hyperentanglement test.
    """
    if n not in (3, 4):
        raise ValueError(f"pairing-support construction needs n in {{3, 4}}, got {n}")
    bounds_t = _check_dims(bounds)
    if len(bounds_t) != n:
        raise ValueError(f"bounds {bounds_t} must have length {n}")
    rule = geometric_weights if weights is None else weights

    support: set[MultiIndex] = set()
    for t, bound in enumerate(bounds_t):
        others = (range(min(b, bound)) for k, b in enumerate(bounds_t) if k != t)
        for rest in itertools.product(*others):
            value = _fold(pairing, rest)
            if value is not None and value < bound:
                support.add(rest[:t] + (value,) + rest[t:])
    if not support:
        raise ValueError(f"no support indices within bounds {bounds_t}")
    rows = sorted(support)
    amps = np.array([complex(rule(idx)) for idx in rows], dtype=np.complex128)
    vanishing = np.flatnonzero(np.abs(amps) <= DROP_THRESHOLD)
    if vanishing.size:
        raise ValueError(f"weight rule vanishes on support index {rows[vanishing[0]]}")

    return _state_from_arrays(
        bounds_t,
        rows,
        amps,
        normalize=True,
        truncated_from_infinite=True,
        metadata={
            "construction": "pairing_support",
            "pairing": pairing.kind,
            "bounds": list(bounds_t),
        },
    )


@dataclass(frozen=True)
class ExtensionParams:
    """One seed-and-extend stage: input side ``p``, window ``m``, mass ``epsilon``.

    ``p >= m**2`` is required: the window hypothesis puts m**2 slice vectors
    in a p-dimensional space, so independence is impossible otherwise.  The
    default iteration (2,1) -> (5,2) -> (26,5) -> (677,26) keeps the bound
    inductively.
    """

    p: int
    m: int
    epsilon: float

    def __post_init__(self) -> None:
        for name in ("p", "m"):  # plain ints, as the stage record must hold them
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not (1 <= self.m <= self.p):
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.p < self.m * self.m:
            raise ValueError(f"need p >= m**2, got p={self.p}, m={self.m}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        appended = 3 * (self.p * self.p - self.m * self.m)  # p > m, so never zero
        if math.sqrt(self.epsilon / appended) <= DROP_THRESHOLD:
            raise ValueError(
                f"epsilon {self.epsilon} is too small: its {appended} appended amplitudes "
                f"sqrt(epsilon / {appended}) would be at most {DROP_THRESHOLD} and dropped"
            )

    @property
    def p_prime(self) -> int:
        return self.p * self.p + self.p - self.m * self.m


def method2_extend(
    v: StateTensor, params: ExtensionParams, *, normalize: bool = False
) -> StateTensor:
    """One extension stage of the seed-and-extend construction.

    Output dims (p', p', p') that :func:`make_state` would refuse are refused first.
    Then a stage's only input checks: 3 factors, dims (p, p, p), a ``stage_history``
    that is empty or ends at p, and independent m-window slice vectors on each
    axis.  The p**3 block is preserved verbatim.  Along each axis, the slices keyed
    by pairs with a coordinate >= m are appended with scaled standard-basis vectors
    (pairwise distinct directions, lexicographic key order), the others are
    extended by zeros, and the rest of the p'**3 cube stays zero.  The appended mass
    is exactly ``epsilon``, split evenly over the axes.  The stage is recorded in
    ``stage_history``, and ``window_sizes`` lists every record's p.  As in
    :func:`make_state`, only ``normalize=True`` normalizes the result.
    """
    p, m = params.p, params.m
    pp = _check_dims((params.p_prime,) * 3)[0]
    if v.nfactors != 3:
        raise ValueError(f"extension is defined for 3 factors, got {v.nfactors}")
    if v.dims != (p, p, p):
        raise ValueError(f"state dims {v.dims} are not {(p, p, p)}")
    metadata = v.metadata
    history = metadata.setdefault("stage_history", [])
    if history and history[-1]["p_prime"] != p:
        raise ValueError(f"metadata records a stage ending at p={history[-1]['p_prime']}, not {p}")
    for axis in range(3):
        cert = window_certificate(v, cube_window(v.dims, axis, m))
        if not cert.passed:
            raise ValueError(
                f"window hypothesis fails on axis {axis}: "
                f"rank {cert.rank} < {cert.size} for the {m}-window"
            )

    # Pairs (x, y) with a coordinate >= m, in lexicographic order; pair i
    # gets the new coordinate p + i on axis 2, then axis 1, then axis 0.
    x, y = np.divmod(np.arange(p * p), p)
    wide = (x >= m) | (y >= m)
    x, y, new = x[wide], y[wide], p + np.arange(np.count_nonzero(wide))
    slots = ((x, y, new), (x, new, y), (new, x, y))
    appended = np.concatenate([np.stack(cols, axis=1) for cols in slots])
    scale = math.sqrt(params.epsilon / len(appended))

    history.append({"p": p, "m": m, "epsilon": params.epsilon, "p_prime": pp})
    metadata.setdefault("construction", "seed_extend")
    metadata["window_sizes"] = [rec["p"] for rec in history]

    return _state_from_arrays(
        (pp, pp, pp),
        np.concatenate([v.indices, appended]),
        np.concatenate([v.amplitudes, np.full(len(appended), scale, dtype=np.complex128)]),
        normalize=normalize,
        truncated_from_infinite=True,
        metadata=metadata,
    )


def default_seed() -> StateTensor:
    """The 2 x 2 x 2 seed with a single unit amplitude at the origin."""
    return make_state(
        (2, 2, 2),
        {(0, 0, 0): 1.0},
        truncated_from_infinite=True,
        metadata={"construction": "seed_extend"},
    )


def method2_build(
    stages: int,
    eps_schedule: Sequence[float],
    seed: StateTensor | None = None,
) -> StateTensor:
    """Iterate the extension from the (p, m) = (2, 1) seed and normalize.

    Each stage consumes the previous output with m set to the previous p, so
    every slice stabilizes after finitely many stages.  ``eps_schedule``
    supplies one appended-mass budget per stage.  A seed is accepted exactly
    when stage 1 accepts it.  Every stage is one :func:`method2_extend` call,
    and only the last normalizes, in that same pass.  The appended layout, the
    mass and the preserved block are not re-checked at run time: the test
    suite checks them against an independent transcription of the layout.
    """
    stages = operator.index(stages)
    if stages < 1:
        raise ValueError(f"need at least one stage, got {stages}")
    eps = [float(e) for e in eps_schedule]
    if len(eps) != stages:
        raise ValueError(
            f"eps_schedule has {len(eps)} entries for {stages} stages"
        )
    plan: list[ExtensionParams] = []  # every stage is checked before any is built
    p, m = 2, 1
    for e in eps:
        plan.append(ExtensionParams(p=p, m=m, epsilon=e))
        p, m = plan[-1].p_prime, p
        _check_dims((p,) * 3)
    v = default_seed() if seed is None else seed
    for k, params in enumerate(plan, 1):
        v = method2_extend(v, params, normalize=k == stages)
    return v


def repair_bipartite(
    v: StateTensor,
    subsystem: Subsystem | int | Iterable[int] = 0,
    delta: float = 0.1,
    tol: float | None = None,
) -> StateTensor:
    """Nudge a bipartite state onto the hyperentangled set, within ``delta``.

    Zero Schmidt coefficients (cut at the rank threshold) are replaced by
    delta / (2 sqrt(#zeros)) and the state is renormalized; full-rank inputs
    are returned unchanged.  The output is within ``delta`` of the input in
    norm, and :func:`hyperentanglement_test` accepts it: where either would
    fail, ``ValueError`` names the remedy, a larger ``delta`` or another ``tol``.
    """
    part = Subsystem.coerce(subsystem)
    if v.nfactors != 2:
        raise ValueError(f"repair is defined for two factors, got {v.nfactors}")
    part.validate_for(2)
    if v.dims[0] != v.dims[1]:
        raise ValueError(f"repair needs equal dimensions, got {v.dims}")
    if not v.is_normalized:
        raise ValueError(f"input must be normalized, norm is {norm(v)!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")

    sd = schmidt_decompose(v, part, tol)
    nzeros = sd.coeffs.size - sd.rank
    fill = delta / (2.0 * math.sqrt(max(nzeros, 1)))
    coeffs = [float(c) if k < sd.rank else fill for k, c in enumerate(sd.coeffs)]
    out = v
    if nzeros:
        # The output is coeffs / |coeffs| in the input's Schmidt basis, so its
        # distance from the input needs no dense matrix.  A large tol cuts
        # coefficients far above the fill, which can move it beyond delta.
        dist = float(np.linalg.norm(sd.coeffs - np.divide(coeffs, np.linalg.norm(coeffs))))
        if dist > delta:
            raise ValueError(
                f"repair would move the state {dist!r}, beyond delta={delta}; use a smaller tol"
            )
        # Rows of mat run over the subsystem's factor, columns over the other;
        # transposed to (factor 0, factor 1) order when the subsystem is 1.
        mat = (sd.left_vectors.T * coeffs) @ sd.right_vectors
        if part.indices[0] == 1:
            mat = mat.T
        support = np.nonzero(mat)

        metadata = dict(v.metadata)
        metadata["repair"] = {"replaced": int(nzeros), "delta": float(delta)}
        out = _state_from_arrays(
            v.dims,
            np.stack(support, axis=1),
            mat[support],
            normalize=True,
            truncated_from_infinite=v.truncated_from_infinite,
            metadata=metadata,
        )

    verdict = hyperentanglement_test(out)
    if verdict.overall != HYPERENTANGLED:
        # the largest coefficient, in the input's units, that certification drops
        c = sorted(coeffs, reverse=True)[min(check.rank for check in verdict.checks)]
        fix = f"a delta above {delta}" if nzeros and c == fill else f"tol={c!r} or above"
        raise ValueError(f"Schmidt coefficient {c!r} is too small to certify; use {fix}")
    return out


_R2 = 1.0 / math.sqrt(2.0)
_R3 = 1.0 / math.sqrt(3.0)
_R7 = 1.0 / math.sqrt(7.0)


# name -> the named reference state, built once from its (dims, amplitudes).
_CATALOG: dict[str, StateTensor] = {
    name: make_state(dims, entries, metadata={"catalog": name})
    for name, (dims, entries) in {
        # Two spin-1/2 particles, one up and one down, z basis (up = 0).
        "bohm": ((2, 2), {(0, 1): _R2, (1, 0): _R2}),
        # Two qubits, z basis: equal weight on every index except (0, 0).
        "hardy2": ((2, 2), {(0, 1): _R3, (1, 0): _R3, (1, 1): _R3}),
        # Two spin-1 particles in the orthonormal basis of null directions
        # of the y, x, z spin components (indices 0, 1, 2 respectively).
        "spin1_singlet": ((3, 3), {(0, 0): _R3, (1, 1): -_R3, (2, 2): -_R3}),
        # Same basis as spin1_singlet with the z-null term removed: one
        # Schmidt coefficient is exactly zero, so this is not cyclic.
        "spin1_two_term": ((3, 3), {(0, 0): _R2, (1, 1): -_R2}),
        "ghz": ((2, 2, 2), {(0, 0, 0): _R2, (1, 1, 1): _R2}),
        # Three qubits, z basis: equal weight everywhere except (0, 0, 0).
        "hardy3": (
            (2, 2, 2),
            {idx: _R7 for idx in itertools.product(range(2), repeat=3) if idx != (0, 0, 0)},
        ),
    }.items()
}

PAPER_STATE_NAMES: tuple[str, ...] = tuple(sorted(_CATALOG))


def paper_state(name: str) -> StateTensor:
    """The named reference state: one shared immutable state per name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown state {name!r}; expected one of {list(PAPER_STATE_NAMES)}"
        ) from None
