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
MAX_ORDER = max(order for _, order in PHASE_ORDERS)
MIXED_C = 2.0 * math.sqrt(2.0) / 3.0  # weight of the rotated cubes in mixed_moment_recovery


class MomentSet:
    """Quadrature moments <Q_phi^n> in a (schedule row, order
    0..MAX_ORDER) table, with their covariance per row.

    values[k, n] is <Q_phi^n> at phi = PHASE_ORDERS[k][0], addressed by
    the rows Q, P, PLUS, MINUS; entries outside 1 <= n <= the row's top
    order stay NaN.  cov[k, n-1, m-1] is the covariance of the orders n
    and m of row k, zero outside the row's orders; rows are independent
    records, so moments of different rows do not covary.  The
    symmetrized mixed moment <p q^2 + q^2 p> has no (row, order) entry;
    it sits in mixed, set from mixed_moment_recovery.
    """

    def __init__(self):
        self.values = np.full((len(PHASE_ORDERS), MAX_ORDER + 1), np.nan)
        self.cov = np.zeros((len(PHASE_ORDERS), MAX_ORDER, MAX_ORDER))
        self.mixed = math.nan


@dataclass
class NlsCurve:
    """Parabola V(lambda) = a0 + a1 lambda + a2 lambda^2 with the 3 x 3
    covariance of (a0, a1, a2)."""

    a0: float
    a1: float
    a2: float
    cov: np.ndarray

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
        return self.a0 + lam * (self.a1 + lam * self.a2)

    def error(self, lam):
        """sqrt(v cov v^T) with v = (1, lambda, lambda^2)."""
        lam = np.asarray(lam, dtype=float)
        v = np.array([np.ones_like(lam), lam, lam * lam])
        return np.sqrt(np.sum(v * (self.cov @ v), axis=0))


def mixed_moment_recovery(m: MomentSet) -> float:
    """Symmetrized mixed moment from the rotated third moments.

    <p q^2 + q^2 p> = (2 sqrt(2)/3)(<Q^3_{pi/4}> - <Q^3_{-pi/4}>)
                      - (2/3) <p^3>,
    with the +-iq commutator terms cancelling in the difference, read
    from the order-3 entries of the rows PLUS, MINUS and P.
    """
    plus, minus, p3 = m.values[[PLUS, MINUS, P], 3].tolist()
    return MIXED_C * (plus - minus) - (2.0 / 3.0) * p3


def assemble_curve(m: MomentSet) -> NlsCurve:
    """Build the V(lambda) parabola from the rows Q and P and the mixed
    moment of m.

    a0 = Var(p), a1 = -3(<pq^2+q^2p> - 2<p><q^2>), a2 = 9 Var(q^2).  Their
    covariance is first-order propagated, sum_k g_k cov_k g_k^T, with
    g_k = d(a0, a1, a2)/d(orders 1..MAX_ORDER of row k).
    """
    q, p = m.values[Q].tolist(), m.values[P].tolist()
    a0 = p[2] - p[1] * p[1]
    a1 = -3.0 * (m.mixed - 2.0 * p[1] * q[2])
    a2 = 9.0 * (q[4] - q[2] * q[2])
    g = np.zeros((len(PHASE_ORDERS), 3, MAX_ORDER))  # g[k, i, n-1] = d a_i / d values[k, n]
    g[P, 0, :2] = -2.0 * p[1], 1.0                  # a0 through p, p^2
    g[P, 1, [0, 2]] = 6.0 * q[2], 2.0               # a1 through p, and p^3 in the mixed moment
    g[Q, 1, 1] = 6.0 * p[1]                         # a1 through q^2
    g[PLUS, 1, 2], g[MINUS, 1, 2] = -3.0 * MIXED_C, 3.0 * MIXED_C  # and the rotated cubes
    g[Q, 2, [1, 3]] = -18.0 * q[2], 9.0             # a2 through q^2, q^4
    return NlsCurve(a0, a1, a2, (g @ m.cov @ g.transpose(0, 2, 1)).sum(axis=0))


def second_moment(m: MomentSet, lam: float) -> float:
    """V2[rho](lambda) = <(p - 3 lambda q^2)^2>, no mean subtraction."""
    lam = float(lam)
    first = m.values[P, 1] - 3.0 * lam * m.values[Q, 2]
    return assemble_curve(m)(lam) + first * first


# A margin threshold - V(lambda) of at most this is no verdict: on the
# threshold (vacuum, coherent states with Re beta = 0) every margin is
# rounding or truncation noise, at most 1.5e-7 over beta = iy, y in
# 0..9 step 0.25, N in {16, 24, 32, 48, 64, 96, 128, 192}.  Real margins
# sit far outside it: the displaced cubic state's is 1.7e-2 (7.0e-4 at
# gamma 0.02, the least of the benchmark family), coherent 1.2-0.8j's -2.1e-4.
MARGIN_TOL = 1e-6


def classical_threshold(lam: float):
    """Vacuum value (1 + 9 lambda^2)/2, also the nonclassicality threshold."""
    lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
    return 0.5 * (1.0 + 9.0 * lam * lam)


def resource_condition(gamma: float, gamma_G: float) -> bool:
    """Whether the cubic state gamma beats the vacuum benchmark at the
    gate nonlinearity gamma_G, i.e. 0 < gamma < 2 gamma_G."""
    if not (gamma > 0 and gamma_G > 0):
        raise ValueError("resource_condition is stated for positive gamma and gamma_G")
    return classical_threshold(gamma - gamma_G) < classical_threshold(gamma_G)


def exact_moment_set(state: QuantumState) -> MomentSet:
    """MomentSet of exact truncated-Fock moments over the whole schedule,
    with zero covariance; the mixed moment is recovered from its own
    rows, as a reconstruction recovers it."""
    m = MomentSet()
    for k, (phi, order) in enumerate(PHASE_ORDERS):
        for n in range(1, order + 1):
            m.values[k, n] = quadrature_moment(state, phi, n)
    m.mixed = mixed_moment_recovery(m)
    return m
