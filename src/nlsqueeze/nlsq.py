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

import numpy as np

from .hilbert import QuantumState, quadrature_moment

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

# phase schedule of one reconstruction: q needs orders up to 4, the others
# up to 3 (the +-pi/4 first moments are estimated even though they cancel
# from the curve, the n=3 inversion row consumes them).
PHASE_ORDERS = ((0.0, 4), (HALF_PI, 3), (QUARTER_PI, 3), (-QUARTER_PI, 3))
Q, P, PLUS, MINUS = range(len(PHASE_ORDERS))  # rows of PHASE_ORDERS
MAX_ORDER = 4


class MomentSet:
    """Quadrature moments <Q_phi^n> and their standard errors in two
    (schedule row, order 0..MAX_ORDER) tables.

    values[k, n] is <Q_phi^n> at phi = PHASE_ORDERS[k][0], addressed by
    the rows Q, P, PLUS, MINUS; entries outside 1 <= n <= the row's top
    order stay NaN.  The symmetrized mixed moment <p q^2 + q^2 p> has no
    (row, order) entry; it sits in mixed and mixed_error, set from
    mixed_moment_recovery.
    """

    def __init__(self):
        self.values = np.full((len(PHASE_ORDERS), MAX_ORDER + 1), np.nan)
        self.errors = np.full_like(self.values, np.nan)
        self.mixed = self.mixed_error = math.nan


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


def mixed_moment_recovery(m: MomentSet):
    """Symmetrized mixed moment from the rotated third moments.

    <p q^2 + q^2 p> = (2 sqrt(2)/3)(<Q^3_{pi/4}> - <Q^3_{-pi/4}>)
                      - (2/3) <p^3>,
    with the +-iq commutator terms cancelling in the difference, read
    from the order-3 entries of the rows PLUS, MINUS and P.
    Returns (value, std_error).
    """
    c = 2.0 * math.sqrt(2.0) / 3.0
    plus, minus, p3 = m.values[[PLUS, MINUS, P], 3].tolist()
    s_plus, s_minus, s_p3 = m.errors[[PLUS, MINUS, P], 3].tolist()
    value = c * (plus - minus) - (2.0 / 3.0) * p3
    err = math.sqrt(c ** 2 * (s_plus ** 2 + s_minus ** 2) + (2.0 / 3.0) ** 2 * s_p3 ** 2)
    return value, err


def assemble_curve(m: MomentSet) -> NlsCurve:
    """Build the V(lambda) parabola from the rows Q and P and the mixed
    moment of m.

    a0 = Var(p), a1 = -3(<pq^2+q^2p> - 2<p><q^2>), a2 = 9 Var(q^2);
    coefficient errors are first-order propagated from the moment errors
    (cross-moment covariances within a quadrature neglected).
    """
    q, p = m.values[Q].tolist(), m.values[P].tolist()
    sq, sp = m.errors[Q].tolist(), m.errors[P].tolist()
    a0 = p[2] - p[1] * p[1]
    a1 = -3.0 * (m.mixed - 2.0 * p[1] * q[2])
    a2 = 9.0 * (q[4] - q[2] * q[2])
    a0_err = math.sqrt(sp[2] ** 2 + (2.0 * p[1] * sp[1]) ** 2)
    a1_err = 3.0 * math.sqrt(m.mixed_error ** 2 + (2.0 * q[2] * sp[1]) ** 2
                             + (2.0 * p[1] * sq[2]) ** 2)
    a2_err = 9.0 * math.sqrt(sq[4] ** 2 + (2.0 * q[2] * sq[2]) ** 2)
    return NlsCurve(a0, a1, a2, a0_err, a1_err, a2_err)


def second_moment(m: MomentSet, lam: float) -> float:
    """V2[rho](lambda) = <(p - 3 lambda q^2)^2>, no mean subtraction."""
    lam = float(lam)
    first = m.values[P, 1] - 3.0 * lam * m.values[Q, 2]
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


def exact_moment_set(state: QuantumState) -> MomentSet:
    """MomentSet of exact truncated-Fock moments over the whole schedule,
    every error 0; the mixed moment is recovered from its own rows, as
    a reconstruction recovers it."""
    m = MomentSet()
    for k, (phi, order) in enumerate(PHASE_ORDERS):
        for n in range(1, order + 1):
            m.values[k, n] = quadrature_moment(state, phi, n)
        m.errors[k, 1:order + 1] = 0.0
    m.mixed, m.mixed_error = mixed_moment_recovery(m)
    return m
