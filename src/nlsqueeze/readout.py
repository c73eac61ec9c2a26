"""Forward model of the QND measurement chain.

After adiabatic elimination of the cavity and filtering with the flat
temporal mode 1/sqrt(tau), the detected output quadrature is

    Y_out = Y_in + c_Q Q_phi(0) + c_E E

with Y_in the filtered optical vacuum (variance 1/2), Q_phi(0) the
mechanical quadrature at t = 0, and E a Gaussian quadrature of the
thermal bath with variance n_bar + 1/2.  The three terms are
independent, which is what makes the output-moment hierarchy triangular.

Records are drawn from the marginal of Y_out itself: the state's node
masses of Q_phi(0), smeared by the channel Gaussian onto an output
lattice once per channel (output_table), so each sample is one uniform
and one guided inverse-CDF lookup, kept as its lattice cell j (the value
is the node x[j]).  A block's stream holds one region, a uniform per
sample, so a longer record extends a shorter one (sample_homodyne).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hilbert import PositionGrid, QuantumState, default_grid, marginal_density
from .nlsq import PHASE_ORDERS

# Below this Gamma_m * tau the exact radicand x + 4 e^{-x/2} - e^{-x} - 3
# cancels catastrophically (relative error ~ 12 eps / x^2), so the series
# x^3/12 - x^4/32 + 7 x^5/960 takes over; both are ~1e-7 accurate at the
# crossover.
_SERIES_CROSSOVER = 1e-4

SAMPLE_BLOCK = 1 << 16
# Guide-table buckets per inverse-CDF table.  A power of two, so u * K,
# F * K and b / K are exact and the guided lookup equals a binary search
# bit for bit.
GUIDE_BUCKETS = 1 << 16

# The output lattice's Gaussian kernel reaches KERNEL_REACH noise deviations;
# the mass past it, erfc(13 / sqrt(2)) ~ 1e-38, is left out.
KERNEL_REACH = 13.0


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
    # f(x) = x + 4 exp(-x/2) - exp(-x) - 3 >= 0 for x = Gamma_m tau >= 0,
    # which ChannelParams guarantees
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
        c_E = -4.0 * G * math.sqrt(2.0 * _radicand(x) / (kappa * tau)) / Gm
    return ChannelCoefficients(c_Q=c_Q, c_E=c_E, noise_var=0.5 + c_E ** 2 * (p.n_bar + 0.5))


def hierarchy_matrix(c_Q: float, noise_var: float, max_n: int) -> np.ndarray:
    """Lower-triangular map H with <Y^n> = sum_k H[n, k] <Q^k>, n, k = 0..max_n,
    for Y = c_Q Q + W with W Gaussian of variance noise_var and independent of Q.

    H[n, k] = C(n, k) c_Q^k <W^{n-k}>, with <W^m> = noise_var^{m/2} (m-1)!!
    for even m and 0 for odd m, so the rows up to n = 4 read

        <Y>   = c_Q <Q>
        <Y^2> = noise_var + c_Q^2 <Q^2>
        <Y^3> = 3 c_Q <Q> noise_var + c_Q^3 <Q^3>
        <Y^4> = 3 noise_var^2 + 6 c_Q^2 <Q^2> noise_var + c_Q^4 <Q^4>

    H(c', v') H(c, v) = H(c' c, c'^2 v + v'), so H(1/c_Q, -noise_var/c_Q^2) inverts H.
    """
    noise = [0.0 if m % 2 else noise_var ** (m // 2) * math.prod(range(m - 1, 0, -2))
             for m in range(max_n + 1)]
    H = np.zeros((max_n + 1, max_n + 1))
    for n in range(max_n + 1):
        for k in range(n + 1):
            H[n, k] = math.comb(n, k) * c_Q ** k * noise[n - k]
    return H


def forward_output_moments(q, coeffs: ChannelCoefficients) -> np.ndarray:
    """Predicted <Y_out^n> for n = 1..len(q) from the mechanical moments
    q = (<Q>, ..., <Q^max_n>) at one phase, the product of hierarchy_matrix
    with (1, <Q>, ..., <Q^max_n>)."""
    qmom = np.concatenate(([1.0], np.asarray(q, dtype=float)))
    return (hierarchy_matrix(coeffs.c_Q, coeffs.noise_var, qmom.size - 1) @ qmom)[1:]


class BlockBuffers:
    """Work arrays for one block of at most SAMPLE_BLOCK samples, made once
    and reused for every block a caller draws, so that no block allocates
    a sample-sized array: the uniforms u and the lookup cells with their
    guide entries and straddle flags.  The cells are the block's samples,
    as sample_homodyne returns them.
    """

    def __init__(self):
        self.u = np.empty(SAMPLE_BLOCK)
        self.cells = np.empty(SAMPLE_BLOCK, np.intp)
        self.guide = np.empty(SAMPLE_BLOCK, np.int32)  # viewed as the guide's dtype
        self.straddle = np.empty(SAMPLE_BLOCK, bool)


@dataclass(frozen=True, eq=False)
class InverseCDF:
    """Inverse-CDF sampling table over the nodes x.

    cdf is the cumulative node mass (x.size + 1 entries, cdf[0] = 0,
    cdf[-1] = 1, nondecreasing), so node j owns the cell
    [cdf[j], cdf[j + 1]) of [0, 1).  The guide table splits [0, 1) into
    K = GUIDE_BUCKETS equal buckets [b / K, (b + 1) / K): guide[b] is the
    one cell holding the whole bucket, or -1 when the bucket straddles a
    cell edge.  It is stored in the narrowest signed integer dtype that
    holds -1 and every cell index: int16 for every default grid's output
    lattice (128 KB), int32 above 32,768 nodes.
    """

    x: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray

    def cell(self, u: np.ndarray, buf: BlockBuffers) -> np.ndarray:
        """Cell j with cdf[j] <= u < cdf[j + 1] for each u in [0, 1).

        Equal to searchsorted(cdf, u, side="right") - 1 bit for bit: one
        gather gives the cell of every uniform in a single-cell bucket, and
        only the uniforms in straddling buckets are searched.  u is one
        block, at most SAMPLE_BLOCK long; its cells are written into
        buf.cells and a view of them is returned, so nothing of u's size is
        allocated.
        """
        m = u.size
        cells, g, straddle = (buf.cells[:m], buf.guide.view(self.guide.dtype)[:m],
                              buf.straddle[:m])
        # u * K lands as floats in the cells' own memory and is cast in
        # place, element by element, so numpy needs no cast buffer
        np.copyto(cells, np.multiply(u, GUIDE_BUCKETS, out=cells.view(np.float64)),
                  casting="unsafe")
        # u * K < K, so no index is clipped; mode="raise" would buffer out
        np.take(self.guide, cells, out=g, mode="clip")
        np.copyto(cells, g)
        tail = np.flatnonzero(np.less(g, 0, out=straddle))
        if tail.size:
            cells[tail] = np.searchsorted(self.cdf, u[tail], side="right") - 1
        return cells


def _inverse_cdf(x: np.ndarray, mass: np.ndarray) -> InverseCDF:
    """The table of the nodes x with masses proportional to mass (finite,
    >= 0 and of positive total)."""
    F = np.concatenate(([0.0], np.cumsum(mass)))
    F /= F[-1]
    # F * K is exact and K is a power of two, so ceil(F_j K) <= b exactly
    # when F_j <= b / K, and edges[b] = searchsorted(F, b / K, side="right")
    # - 1 is the last j with c_j = ceil(F_j K) <= b: cell j owns the buckets
    # c_j .. c_{j+1} - 1, built in O(x.size + K).  cell(u) is
    # nondecreasing, so edges[b] <= cell(u) <= edges[b + 1] for u in bucket
    # b, and the bucket straddles a cell edge exactly when some c_j = b + 1.
    c = np.ceil(F * GUIDE_BUCKETS).astype(np.intp)
    # -x.size fits exactly when every cell index 0..x.size - 1 does
    guide = np.repeat(np.arange(x.size, dtype=np.min_scalar_type(-x.size)), np.diff(c))
    guide[c[c > 0] - 1] = -1
    return InverseCDF(x=x, cdf=F, guide=guide)


@dataclass(frozen=True, eq=False)
class NodeMasses:
    """The Q_phi marginal of one state on the nodes of grid.

    Node x_j = grid.points[j] carries mass[j] = p(x_j) / sum_k p(x_k) of
    the marginal density p, its trapezoid weight (the end values of p
    vanish), so sum_j mass[j] x_j^n is the trapezoid rule for <Q_phi^n>,
    which converges exponentially for these Gaussian-decaying marginals
    (Trefethen & Weideman 2014, SIAM Rev. 56:385): the nodes carry the
    state's moments to rounding.
    """

    grid: PositionGrid
    mass: np.ndarray


def node_masses(state: QuantumState, phi: float, grid: PositionGrid | None = None) -> NodeMasses:
    """Node masses of the Q_phi marginal on grid (default_grid(state.dim)
    when omitted)."""
    if grid is None:
        grid = default_grid(state.dim)
    # marginal_density's density is finite, >= 0 and of positive total
    density = marginal_density(state, phi, grid)
    return NodeMasses(grid, density / density.sum())


def schedule_masses(state: QuantumState,
                    grid: PositionGrid | None = None) -> tuple[NodeMasses, ...]:
    """One NodeMasses per schedule phase, in nlsq.PHASE_ORDERS order."""
    return tuple(node_masses(state, phi, grid) for phi, _ in PHASE_ORDERS)


def _smear(mass: np.ndarray, t: np.ndarray, k: int, reach: int, beta: float) -> np.ndarray:
    """p_i = sum_j mass_j exp(-beta d^2) over the nodes j within reach of
    t_i, d = t_i - j, for the lattice t of step k.

    With k below the node count n, row i is the window of a zero-padded
    copy of the masses that starts at i k, against one kernel row (the
    kernel is symmetric in d).  At k >= n the kernel, about 52 k long,
    would outgrow the grid many times over, so each row's weights over
    the n nodes are computed instead.  Only elementwise products and
    numpy's row sums, never BLAS, whose sums change their bits with its
    thread count; a chunk of rows at a time, so the temporaries stay near
    SAMPLE_BLOCK entries.
    """
    n = mass.size
    if k < n:
        d = np.arange(-reach, reach + 1.0)
        kernel = np.exp(-beta * d * d)
        padded = np.zeros((t.size - 1) * k + kernel.size)
        # padded[start + j] = mass_j, so row i starts at i k, at j = t_i - reach
        start = reach - int(t[0])
        padded[start:start + n] = mass
        rows = sliding_window_view(padded, kernel.size)[::k]

        def block(lo, hi):
            return rows[lo:hi] * kernel
    else:
        j = np.arange(float(n))

        def block(lo, hi):
            d = t[lo:hi, None] - j
            w = np.exp(-beta * d * d)
            w *= np.abs(d) <= reach
            w *= mass
            return w
    p = np.empty(t.size)
    step = max(1, SAMPLE_BLOCK // (2 * reach + 1 if k < n else n))
    for lo in range(0, t.size, step):
        np.sum(block(lo, lo + step), axis=1, out=p[lo:lo + step])
    return p


def output_table(nodes: NodeMasses, coeffs: ChannelCoefficients) -> InverseCDF:
    """Sampling table of Y_out = c_Q Q_phi + W for the node masses m_j of
    Q_phi and the channel coeffs.

    With x_j = x_0 + j dx, the density of Y_out is the mixture
    sum_j m_j N(c_Q x_j, sigma_W^2).  The table samples it on the lattice
    y_i = c_Q (x_0 + t_i dx), where t_i = i k - h runs over the multiples
    of k = floor(sigma_W / (2 |c_Q| dx)) within D = floor(KERNEL_REACH
    sigma_W / (|c_Q| dx)) grid steps of the grid, with the masses
    p_i = sum_j m_j exp(-(y_i - c_Q x_j)^2 / (2 sigma_W^2)) over
    |t_i - j| <= D.  The lattice step k |c_Q| dx <= sigma_W / 2 puts each
    Gaussian's lattice moments within e^{-2 pi^2 (sigma_W / step)^2} <=
    e^{-79} of its own, wherever its centre falls (Poisson summation;
    Trefethen & Weideman 2014), so the sampled Y_out has the moments of
    c_Q Q_phi + W; the cut at D leaves out about 1e-38 of each Gaussian.

    A channel without noise (noise_var = 0) samples the nodes c_Q x_j
    themselves, and one without gain (c_Q = 0) samples W alone on the
    lattice of step sigma_W / 2.  Raises ValueError when
    0 < sigma_W < 2 |c_Q| dx, against the runner's lattice rule.
    """
    sigma = math.sqrt(coeffs.noise_var)
    x, mass = nodes.grid.points, nodes.mass
    if sigma == 0.0:
        return _inverse_cdf(coeffs.c_Q * x, mass)
    if coeffs.c_Q == 0.0:
        # every centre is 0: one node of unit mass, at lattice step sigma / 2
        y0, dy, mass = 0.0, 0.5 * sigma, np.ones(1)
    else:
        y0, dy = coeffs.c_Q * x[0], coeffs.c_Q * nodes.grid.spacing
    if abs(dy) > 0.5 * sigma:
        raise ValueError(f"|c_Q| dx = {abs(dy):.3g} exceeds half the noise deviation "
                         f"{sigma:.3g}; the output lattice would ripple")
    k = int(sigma / (2.0 * abs(dy)))
    reach = int(KERNEL_REACH * sigma / abs(dy))
    t = np.arange(reach % k - reach, mass.size + reach, k, dtype=float)
    return _inverse_cdf(y0 + dy * t, _smear(mass, t, k, reach, 0.5 * (dy / sigma) ** 2))


def sample_homodyne(table: InverseCDF, seed: int, count: int, block: int,
                    buf: BlockBuffers) -> np.ndarray:
    """The lattice cells of the first count <= SAMPLE_BLOCK homodyne
    records Y_out of block `block` of the stream `seed`, drawn from table
    (an output_table, so the record is taken at its phase and channel):
    the records are table.x[cells].

    Each sample is one uniform u and the cell j with
    cdf[j] <= u < cdf[j + 1].  A guide table of GUIDE_BUCKETS equal
    u-buckets picks the cell in O(1) (Chen & Asau 1974; Devroye 1986,
    section III.2), with a binary search only in the buckets that
    straddle a cell edge.

    The stream is partitioned into fixed-size blocks, each seeded from
    (seed, block index), so the result depends only on (seed, block,
    count) and any concurrent schedule producing the same blocks yields
    identical samples.  A block's stream has one region: SAMPLE_BLOCK
    uniforms, one per sample in order, of which a block of count samples
    reads the first count, so a longer record extends a shorter one.

    The cells are written into buf.cells and a view of them is returned,
    so a block allocates no sample-sized array; estimate.run_reconstruction
    draws a record by calling this once per block index.
    """
    if not 1 <= count <= SAMPLE_BLOCK:
        raise ValueError(f"count must be in 1..{SAMPLE_BLOCK} (one block), got {count}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
    return table.cell(rng.random(out=buf.u[:count]), buf)
