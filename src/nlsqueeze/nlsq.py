"""Nonlinear squeezing of the cubic quadrature p - 3 lambda q^2.

V(lambda) is quadratic in lambda with coefficients fixed by five
mechanical moments plus the symmetrized mixed moment <p q^2 + q^2 p>:

    V = Var(p) - 3 lambda (<p q^2 + q^2 p> - 2 <p><q^2>)
        + 9 lambda^2 (<q^4> - <q^2>^2)

The classicality threshold (1 + 9 lambda^2)/2 doubles as the vacuum
value and as the P-function nonclassicality benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HermiticityError, IncompleteMomentError
from .hilbert import (
    IMAG_TOL,
    QuantumState,
    canonical_phase,
    quadrature_matrix,
    quadrature_moment,
)

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

# (phase, order) pairs a MomentSet must hold before a curve can be built.
REQUIRED_KEYS = (
    (0.0, 1), (0.0, 2), (0.0, 4),
    (HALF_PI, 1), (HALF_PI, 2), (HALF_PI, 3),
    (QUARTER_PI, 1), (QUARTER_PI, 3),
    (-QUARTER_PI, 1), (-QUARTER_PI, 3),
)


class UnsupportedOrderError(ValueError):
    """Only the cubic nonlinearity (order 3) is implemented."""


def _key(phi: float, n: int):
    return (round(canonical_phase(phi), 12), int(n))


class MomentSet:
    """Quadrature moments keyed by (phase, order), with standard errors.

    The symmetrized mixed moment <p q^2 + q^2 p> does not fit the
    (phase, order) indexing and lives in a dedicated slot, filled either
    by exact computation or by estimate.mixed_moment_recovery.
    """

    def __init__(self, provenance: str = "exact"):
        if provenance not in ("exact", "estimated"):
            raise ValueError(f"provenance must be exact or estimated, got {provenance!r}")
        self.provenance = provenance
        self._entries: dict = {}
        self._mixed: tuple | None = None

    def set(self, phi: float, n: int, value: float, std_error: float = 0.0):
        if std_error < 0:
            raise ValueError("std_error must be >= 0")
        self._entries[_key(phi, n)] = (float(value), float(std_error))
        return self

    def has(self, phi: float, n: int) -> bool:
        return _key(phi, n) in self._entries

    def get(self, phi: float, n: int) -> float:
        try:
            return self._entries[_key(phi, n)][0]
        except KeyError:
            raise IncompleteMomentError(f"moment (phi={phi}, n={n}) missing") from None

    def error(self, phi: float, n: int) -> float:
        try:
            return self._entries[_key(phi, n)][1]
        except KeyError:
            raise IncompleteMomentError(f"moment (phi={phi}, n={n}) missing") from None

    def set_mixed(self, value: float, std_error: float = 0.0):
        self._mixed = (float(value), float(std_error))
        return self

    @property
    def mixed(self) -> float:
        if self._mixed is None:
            raise IncompleteMomentError("mixed moment <pq^2+q^2p> not set")
        return self._mixed[0]

    @property
    def mixed_error(self) -> float:
        if self._mixed is None:
            raise IncompleteMomentError("mixed moment <pq^2+q^2p> not set")
        return self._mixed[1]

    @property
    def has_mixed(self) -> bool:
        return self._mixed is not None

    def keys(self):
        return self._entries.keys()

    def update(self, other: "MomentSet"):
        self._entries.update(other._entries)
        if other._mixed is not None:
            self._mixed = other._mixed
        return self

    def require(self, keys=REQUIRED_KEYS):
        missing = [k for k in keys if _key(*k) not in self._entries]
        if missing:
            raise IncompleteMomentError(f"moments missing: {missing}")
        return self


@dataclass
class NlsCurve:
    """Parabola V(lambda) = a0 + a1 lambda + a2 lambda^2 with coefficient
    errors."""

    a0: float
    a1: float
    a2: float
    a0_err: float = 0.0
    a1_err: float = 0.0
    a2_err: float = 0.0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
        return self.a0 + lam * (self.a1 + lam * self.a2)

    def error(self, lam):
        lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
        return np.sqrt(
            self.a0_err ** 2 + (lam * self.a1_err) ** 2 + (lam * lam * self.a2_err) ** 2
        )


def _coefficients(m: MomentSet):
    m.require(((0.0, 2), (0.0, 4), (HALF_PI, 1), (HALF_PI, 2)))
    if not m.has_mixed:
        raise IncompleteMomentError(
            "mixed moment required; supply it exactly or via mixed_moment_recovery"
        )
    q2, q4 = m.get(0.0, 2), m.get(0.0, 4)
    p1, p2 = m.get(HALF_PI, 1), m.get(HALF_PI, 2)
    mixed = m.mixed
    a0 = p2 - p1 * p1
    a1 = -3.0 * (mixed - 2.0 * p1 * q2)
    a2 = 9.0 * (q4 - q2 * q2)
    sq2, sq4 = m.error(0.0, 2), m.error(0.0, 4)
    sp1, sp2 = m.error(HALF_PI, 1), m.error(HALF_PI, 2)
    smix = m.mixed_error
    a0_err = math.sqrt(sp2 ** 2 + (2.0 * p1 * sp1) ** 2)
    a1_err = 3.0 * math.sqrt(smix ** 2 + (2.0 * q2 * sp1) ** 2 + (2.0 * p1 * sq2) ** 2)
    a2_err = 9.0 * math.sqrt(sq4 ** 2 + (2.0 * q2 * sq2) ** 2)
    return a0, a1, a2, a0_err, a1_err, a2_err


def assemble_curve(m: MomentSet) -> NlsCurve:
    """Build the V(lambda) parabola from a complete MomentSet.

    a0 = Var(p), a1 = -3(<pq^2+q^2p> - 2<p><q^2>), a2 = 9 Var(q^2);
    coefficient errors are first-order propagated from the moment errors
    (cross-moment covariances within a quadrature neglected).
    """
    m.require()
    return NlsCurve(*_coefficients(m))


def nls_variance(m: MomentSet, lam: float, order: int = 3) -> float:
    """V[rho](lambda) for the cubic nonlinear quadrature.

    order is part of the interface for the general p - n lambda q^{n-1}
    family but only order 3 is supported here.
    """
    if order != 3:
        raise UnsupportedOrderError(f"only the cubic case (order 3) is implemented, got {order}")
    return NlsCurve(*_coefficients(m))(float(lam))


def second_moment(m: MomentSet, lam: float) -> float:
    """V2[rho](lambda) = <(p - 3 lambda q^2)^2>, no mean subtraction."""
    lam = float(lam)
    first = m.get(HALF_PI, 1) - 3.0 * lam * m.get(0.0, 2)
    return nls_variance(m, lam) + first * first


def matched_displacement(m: MomentSet, lam: float) -> float:
    """Momentum shift p_bar = 3 lambda <q^2> - <p> that makes V2 of the
    displaced state equal V of the original."""
    return 3.0 * float(lam) * m.get(0.0, 2) - m.get(HALF_PI, 1)


def classical_threshold(lam: float):
    """Vacuum value (1 + 9 lambda^2)/2, also the nonclassicality threshold."""
    lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
    return 0.5 * (1.0 + 9.0 * lam * lam)


def squeezing_margin(m: MomentSet, lam: float, k: float = 3.0):
    """Margin below the classical threshold and the k-sigma verdict.

    Returns (margin, nonclassical) where margin = threshold - V and the
    verdict requires margin > k * sigma_margin; exact moments carry
    sigma = 0, so any positive margin certifies.
    """
    curve = NlsCurve(*_coefficients(m))
    lam = float(lam)
    margin = classical_threshold(lam) - curve(lam)
    return margin, bool(margin > k * curve.error(lam))


def resource_condition(gamma: float, gamma_G: float) -> bool:
    """Whether the cubic state gamma beats the vacuum benchmark at the
    gate nonlinearity gamma_G, i.e. 0 < gamma < 2 gamma_G."""
    if not (gamma > 0 and gamma_G > 0):
        raise ValueError("resource_condition is stated for positive gamma and gamma_G")
    return 0.5 * (1.0 + 9.0 * (gamma - gamma_G) ** 2) < 0.5 * (1.0 + 9.0 * gamma_G ** 2)


@lru_cache(maxsize=8)
def _mixed_operator(N: int) -> np.ndarray:
    q = quadrature_matrix(N, 0.0)
    p = quadrature_matrix(N, HALF_PI)
    qq = q @ q
    return p @ qq + qq @ p


def exact_mixed_moment(state: QuantumState) -> float:
    """tr(rho (p q^2 + q^2 p)) evaluated with dense operators."""
    val = complex(np.einsum("ij,ji->", state.rho, _mixed_operator(state.dim)))
    if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
        raise HermiticityError(f"imaginary residue {val.imag:.2e} in mixed moment")
    return val.real


# orders filled by exact_moment_set: the curve minimum plus the entries the
# round-trip tests compare against ((0,3) and (+-pi/4, 2)).
_EXACT_KEYS = REQUIRED_KEYS + ((0.0, 3), (QUARTER_PI, 2), (-QUARTER_PI, 2))


def exact_moment_set(state: QuantumState, keys=_EXACT_KEYS) -> MomentSet:
    """MomentSet of exact truncated-Fock moments, mixed moment included."""
    m = MomentSet(provenance="exact")
    for phi, n in keys:
        m.set(phi, n, quadrature_moment(state, phi, n), 0.0)
    m.set_mixed(exact_mixed_moment(state), 0.0)
    return m
