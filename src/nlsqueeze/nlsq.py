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

# phase schedule of one reconstruction: q needs orders up to 4, the others
# up to 3 (the +-pi/4 first moments are estimated even though they cancel
# from the curve, the n=3 inversion row consumes them).
PHASE_ORDERS = ((0.0, 4), (HALF_PI, 3), (QUARTER_PI, 3), (-QUARTER_PI, 3))
MAX_ORDER = 4


class MomentSet:
    """Quadrature moments <Q_phi^n> and their standard errors in two
    (schedule phase, order 1..MAX_ORDER) tables, NaN where unset.

    Phases match a PHASE_ORDERS phase after reduction to (-pi, pi].  The
    symmetrized mixed moment <p q^2 + q^2 p> has no (phase, order) entry;
    it sits in mixed and mixed_error, NaN until set exactly or from
    estimate.mixed_moment_recovery.
    """

    def __init__(self):
        self.values = np.full((len(PHASE_ORDERS), MAX_ORDER), np.nan)
        self.errors = np.full_like(self.values, np.nan)
        self.mixed = self.mixed_error = math.nan

    @staticmethod
    def _index(phi: float, n: int):
        phi_c = canonical_phase(phi)
        for i, (phase, _) in enumerate(PHASE_ORDERS):
            if abs(phi_c - phase) <= 1e-12 and 1 <= n <= MAX_ORDER:
                return i, n - 1
        raise ValueError(f"moment (phi={phi}, n={n}) is outside the schedule "
                         f"{PHASE_ORDERS} of orders 1..{MAX_ORDER}")

    def _entry(self, phi: float, n: int):
        idx = self._index(phi, n)
        if math.isnan(self.values[idx]):
            raise IncompleteMomentError(f"moment (phi={phi}, n={n}) missing")
        return float(self.values[idx]), float(self.errors[idx])

    def set(self, phi: float, n: int, value: float, std_error: float = 0.0):
        if std_error < 0:
            raise ValueError("std_error must be >= 0")
        idx = self._index(phi, n)
        self.values[idx], self.errors[idx] = value, std_error
        return self

    def get(self, phi: float, n: int) -> float:
        return self._entry(phi, n)[0]

    def error(self, phi: float, n: int) -> float:
        return self._entry(phi, n)[1]


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


def assemble_curve(m: MomentSet) -> NlsCurve:
    """Build the V(lambda) parabola from the MomentSet entries it reads.

    a0 = Var(p), a1 = -3(<pq^2+q^2p> - 2<p><q^2>), a2 = 9 Var(q^2);
    coefficient errors are first-order propagated from the moment errors
    (cross-moment covariances within a quadrature neglected).
    """
    if math.isnan(m.mixed):
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
    return NlsCurve(a0, a1, a2, a0_err, a1_err, a2_err)


def second_moment(m: MomentSet, lam: float) -> float:
    """V2[rho](lambda) = <(p - 3 lambda q^2)^2>, no mean subtraction."""
    lam = float(lam)
    first = m.get(HALF_PI, 1) - 3.0 * lam * m.get(0.0, 2)
    return assemble_curve(m)(lam) + first * first


def classical_threshold(lam: float):
    """Vacuum value (1 + 9 lambda^2)/2, also the nonclassicality threshold."""
    lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
    return 0.5 * (1.0 + 9.0 * lam * lam)


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


def exact_moment_set(state: QuantumState, keys=None) -> MomentSet:
    """MomentSet of exact truncated-Fock moments at the (phase, order)
    keys, by default all of PHASE_ORDERS, mixed moment included."""
    if keys is None:
        keys = [(phi, n) for phi, order in PHASE_ORDERS for n in range(1, order + 1)]
    m = MomentSet()
    for phi, n in keys:
        m.set(phi, n, quadrature_moment(state, phi, n), 0.0)
    m.mixed, m.mixed_error = exact_mixed_moment(state), 0.0
    return m
