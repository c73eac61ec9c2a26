"""Forward model of the QND measurement chain.

After adiabatic elimination of the cavity and filtering with the flat
temporal mode 1/sqrt(tau), the detected output quadrature is

    Y_out = Y_in + c_Q Q_phi(0) + c_E E

with Y_in the filtered optical vacuum (variance 1/2), Q_phi(0) the
mechanical quadrature at t = 0, and E a Gaussian quadrature of the
thermal bath with variance n_bar + 1/2.  The three terms are
independent, which is what makes the output-moment hierarchy triangular.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SamplingError
from .hilbert import PositionGrid, QuantumState, default_grid, marginal_density
from .nlsq import PHASE_ORDERS

# Below this Gamma_m * tau the exact radicand x + 4 e^{-x/2} - e^{-x} - 3
# cancels catastrophically (relative error ~ 12 eps / x^2), so the series
# x^3/12 - x^4/32 + 7 x^5/960 takes over; both are ~1e-7 accurate at the
# crossover.
_SERIES_CROSSOVER = 1e-4

SAMPLE_BLOCK = 1 << 16
# Guide-table buckets per inverse-CDF table.  A power of two, so u * K and
# b / K are exact and the guided lookup equals a binary search bit for bit.
GUIDE_BUCKETS = 1 << 14


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of the readout channel, all rates in units of
    kappa (kappa itself sets the frequency scale and defaults to 1)."""

    G: float
    Gamma_m: float
    n_bar: float
    tau: float
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("G", "Gamma_m", "n_bar", "tau", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("G", "Gamma_m", "n_bar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if not self.adiabatic:
            warnings.warn(
                "channel outside the adiabatic regime (needs kappa*tau >> 1 "
                "and G <= kappa); coefficients may not describe the physics",
                stacklevel=2,
            )

    @property
    def adiabatic(self) -> bool:
        return self.kappa * self.tau >= 10.0 and self.G <= self.kappa

    @property
    def cooperativity(self) -> float:
        denom = self.n_bar * self.Gamma_m * self.kappa
        if denom == 0:
            return math.inf
        return self.G ** 2 / denom


@dataclass(frozen=True)
class ChannelCoefficients:
    """The linear-Gaussian channel Y_out = c_Q Q_phi(0) + W: the gains
    multiplying Q_phi(0) and the thermal quadrature E, both <= 0 and
    carrying the overall minus sign of the interaction, and the variance
    noise_var = 1/2 + c_E^2 (n_bar + 1/2) of the channel noise
    W = Y_in + c_E E, a sum of two independent zero-mean Gaussians."""

    c_Q: float
    c_E: float
    noise_var: float


def _radicand(x: float) -> float:
    # f(x) = x + 4 exp(-x/2) - exp(-x) - 3 >= 0 for x >= 0
    if x < _SERIES_CROSSOVER:
        return x ** 3 / 12.0 - x ** 4 / 32.0 + 7.0 * x ** 5 / 960.0
    return x + 4.0 * math.expm1(-0.5 * x) - math.expm1(-x)


def channel_coefficients(p: ChannelParams, order: str = "exact") -> ChannelCoefficients:
    """Channel gains (c_Q, c_E) for the filtered output quadrature.

    Parameters
    ----------
    p : ChannelParams
    order : {"exact", "first_order"}
        exact uses the closed forms
        c_Q = -(4G/Gamma_m) sqrt(2/(kappa tau)) (1 - e^{-Gamma_m tau/2}),
        c_E = -4G sqrt(2 f(Gamma_m tau) / (kappa tau Gamma_m^2)),
        f(x) = x + 4 e^{-x/2} - e^{-x} - 3,
        with series limits for small Gamma_m tau; first_order keeps the
        leading corrections
        c_Q = -2G sqrt(2 tau/kappa) (1 - Gamma_m tau/4),
        c_E = -2 G tau sqrt(2 Gamma_m/(3 kappa)).
    """
    if order not in ("exact", "first_order"):
        raise ValueError(f"order must be exact or first_order, got {order!r}")
    G, kappa, tau, Gm = p.G, p.kappa, p.tau, p.Gamma_m
    cq0 = -2.0 * G * math.sqrt(2.0 * tau / kappa)
    x = Gm * tau
    if order == "first_order":
        c_Q = cq0 * (1.0 - 0.25 * x)
        c_E = -2.0 * G * tau * math.sqrt(2.0 * Gm / (3.0 * kappa))
    elif x == 0.0:
        c_Q, c_E = cq0, 0.0
    else:
        c_Q = cq0 * (-2.0 * math.expm1(-0.5 * x) / x)
        f = _radicand(x)
        if f < 0:  # impossible for x >= 0; kept as an internal consistency guard
            raise ArithmeticError(f"negative radicand {f} at Gamma_m tau = {x}")
        c_E = -4.0 * G * math.sqrt(2.0 * f / (kappa * tau)) / Gm
    return ChannelCoefficients(c_Q=c_Q, c_E=c_E, noise_var=0.5 + c_E ** 2 * (p.n_bar + 0.5))


def hierarchy_matrix(coeffs: ChannelCoefficients, max_n: int) -> np.ndarray:
    """Lower-triangular map H with <Y_out^n> = sum_k H[n, k] <Q^k>, n, k = 0..max_n.

    Y_out = c_Q Q + W with the channel noise W = Y_in + c_E E independent
    of Q, so H[n, k] = C(n, k) c_Q^k <W^{n-k}>.  W is Gaussian with
    variance noise2 = coeffs.noise_var, so
    <W^m> = noise2^{m/2} (m-1)!! for even m and 0 for odd m, and the rows
    up to n = 4 read

        <Y>   = c_Q <Q>
        <Y^2> = noise2 + c_Q^2 <Q^2>
        <Y^3> = 3 c_Q <Q> noise2 + c_Q^3 <Q^3>
        <Y^4> = 3 noise2^2 + 6 c_Q^2 <Q^2> noise2 + c_Q^4 <Q^4>
    """
    noise2 = coeffs.noise_var
    noise = [0.0 if m % 2 else noise2 ** (m // 2) * math.prod(range(m - 1, 0, -2))
             for m in range(max_n + 1)]
    H = np.zeros((max_n + 1, max_n + 1))
    for n in range(max_n + 1):
        for k in range(n + 1):
            H[n, k] = math.comb(n, k) * coeffs.c_Q ** k * noise[n - k]
    return H


def forward_output_moments(q, coeffs: ChannelCoefficients) -> np.ndarray:
    """Predicted <Y_out^n> for n = 1..len(q) from the mechanical moments
    q = (<Q>, ..., <Q^max_n>) at one phase, the product of hierarchy_matrix
    with (1, <Q>, ..., <Q^max_n>)."""
    qmom = np.concatenate(([1.0], np.asarray(q, dtype=float)))
    return (hierarchy_matrix(coeffs, qmom.size - 1) @ qmom)[1:]


@dataclass(frozen=True, eq=False)
class InverseCDF:
    """Inverse-CDF sampling table of the Q_phi marginal of one state.

    The grid node x[j] carries the mass p(x_j) / sum_k p(x_k) of the
    marginal density p, and cdf is the cumulative node mass (n_points + 1
    entries, cdf[0] = 0, cdf[-1] = 1, nondecreasing), so node j owns the
    cell [cdf[j], cdf[j + 1]) of [0, 1).  The guide table splits [0, 1)
    into K = GUIDE_BUCKETS equal buckets [b / K, (b + 1) / K): guide[b] is
    the one cell holding the whole bucket, or -1 when the bucket straddles
    a cell edge.
    """

    x: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    def cell(self, u: np.ndarray) -> np.ndarray:
        """Cell j with cdf[j] <= u < cdf[j + 1] for each u in [0, 1).

        Equal to searchsorted(cdf, u, side="right") - 1 bit for bit: one
        gather gives the cell of every uniform in a single-cell bucket, and
        only the uniforms in straddling buckets are searched.
        """
        b = np.multiply(u, GUIDE_BUCKETS, out=np.empty(u.size, np.intp), casting="unsafe")
        j = np.take(self.guide, b)
        tail = np.flatnonzero(j < 0)
        if tail.size:
            j[tail] = np.searchsorted(self.cdf, u[tail], side="right") - 1
        return j


def inverse_cdf_table(state: QuantumState, phi: float,
                      grid: PositionGrid | None = None) -> InverseCDF:
    """Sampling table of the Q_phi marginal on the nodes of grid
    (default_grid(state.dim) when omitted).

    Node j's mass p(x_j) / sum_k p(x_k) is its trapezoid weight (the end
    values of p vanish), so sum_j (cdf[j + 1] - cdf[j]) x_j^n is the
    trapezoid rule for <Q_phi^n>, which converges exponentially for these
    Gaussian-decaying marginals (Trefethen & Weideman 2014, SIAM Rev.
    56:385): the sampled Q_phi has the state's moments to rounding.
    """
    if grid is None:
        grid = default_grid(state.dim)
    F = np.concatenate(([0.0], np.cumsum(marginal_density(state, phi, grid))))
    total = F[-1]
    if not np.isfinite(total) or total <= 0:
        raise SamplingError(f"degenerate marginal: cumulative mass {total}")
    F = np.maximum.accumulate(F / total)
    # b / K is exact in binary and cell(u) is nondecreasing, so
    # edges[b] <= cell(u) <= edges[b + 1] holds exactly for u in bucket b,
    # and equal edges pin the bucket to one cell.
    edges = np.searchsorted(F, np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS,
                            side="right") - 1
    guide = np.where(edges[1:] == edges[:-1], edges[:-1], -1)
    return InverseCDF(x=grid.points, cdf=F, guide=guide)


def sampling_tables(state: QuantumState,
                    grid: PositionGrid | None = None) -> tuple[InverseCDF, ...]:
    """One InverseCDF per schedule phase, in nlsq.PHASE_ORDERS order."""
    return tuple(inverse_cdf_table(state, phi, grid) for phi, _ in PHASE_ORDERS)


def sample_homodyne(table: InverseCDF, c_Q: float, count: int, seed: int,
                    noise_std: float) -> np.ndarray:
    """Synthesize count homodyne records Y_out = c_Q Q_phi(0) + W.

    Q_phi(0) is drawn by inverse-CDF lookup in table, so the record is
    taken at the table's phase; the channel gains do not depend on it.  A
    guide table of GUIDE_BUCKETS equal u-buckets picks the cell in O(1)
    (Chen & Asau 1974; Devroye 1986, section III.2), with a binary search
    only in the buckets that straddle a cell edge, and Q_phi(0) is the
    cell's grid node, so c_Q Q_phi(0) is one gather from c_Q * table.x.
    The channel noise W = Y_in + c_E E is one Gaussian of standard
    deviation noise_std = sqrt(ChannelCoefficients.noise_var); it smooths
    the node lattice, whose spacing the runner holds to |c_Q| dx <=
    noise_std / 2 before a run.  The stream is partitioned into fixed-size
    blocks, each seeded from (seed, block index), so the result depends
    only on (seed, count) and any concurrent schedule producing the same
    blocks yields identical samples.  Per
    block the stream layout is fixed: SAMPLE_BLOCK uniforms for Q, then
    standard normals for W, one per sample.  A block that holds m samples
    draws m uniforms, advances the generator past the other
    SAMPLE_BLOCK - m uniforms (PCG64 spends one 64-bit output per double),
    and draws m normals, so a longer record extends a shorter one.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = np.empty(count)
    nodes = table.x * c_Q
    u = np.empty(min(count, SAMPLE_BLOCK))
    z = np.empty_like(u)
    for lo in range(0, count, SAMPLE_BLOCK):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, lo // SAMPLE_BLOCK))))
        dst = out[lo:lo + SAMPLE_BLOCK]
        m = dst.size
        rng.random(out=u[:m])
        rng.bit_generator.advance(SAMPLE_BLOCK - m)
        rng.standard_normal(out=z[:m])
        np.take(nodes, table.cell(u[:m]), out=dst)
        dst += np.multiply(z[:m], noise_std, out=z[:m])
    return out
