"""Forward model of the QND measurement chain.

After adiabatic elimination of the cavity and filtering with the flat
temporal mode 1/sqrt(tau), the detected output quadrature is

    Y_out = Y_in + c_Q Q_phi(0) + c_E E

with Y_in the filtered optical vacuum (variance 1/2), Q_phi(0) the
mechanical quadrature at t = 0, and E a Gaussian quadrature of the
thermal bath with variance n_bar + 1/2.  The three terms are
independent, which is what makes the output-moment hierarchy triangular.

Records are drawn one block per sample_homodyne call, each from its own
seeded stream: Q_phi(0) by inverse-CDF lookup on the grid nodes, and the
channel noise by a ziggurat run on the whole block at once (Marsaglia &
Tsang 2000), exact up to rounding.  A block's stream has fixed regions, in
order: the Q uniforms, the noise-proposal uniforms, the slow-slot
uniforms, the tail uniforms and last the restart normals; every region but
the last has room for a whole block, so a longer record extends a shorter
one (sample_homodyne gives the sizes and the exactness argument).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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

# The channel noise comes from the ziggurat of Marsaglia & Tsang (2000,
# J. Stat. Softw. 5(8)) with numpy's constants: 256 layers of area
# ZIGGURAT_V under f(x) = exp(-x^2/2), the base layer reaching to
# ZIGGURAT_R and holding the tail beyond it.
ZIGGURAT_R = 3.6541528853610088
ZIGGURAT_V = 4.9286732339746519e-3
ZIGGURAT_LAYERS = 256
# Marsaglia's exponential tries per tail slot; each succeeds with
# probability 0.938, so four fail for about one tail slot in 66,000
TAIL_TRIES = 4


def _ziggurat_edges() -> list:
    """Layer edges x[0..256]: layer i spans [0, x[i]) over
    [f(x[i]), f(x[i + 1])), each of area v, with x[1] = r, x[256] = 0 and
    the base layer's virtual width x[0] = v / f(r)."""
    x = [ZIGGURAT_V / math.exp(-0.5 * ZIGGURAT_R ** 2), ZIGGURAT_R]
    while len(x) < ZIGGURAT_LAYERS:
        x.append(math.sqrt(-2.0 * math.log(ZIGGURAT_V / x[-1] + math.exp(-0.5 * x[-1] ** 2))))
    return x + [0.0]


# The tables are built from Python floats: a numpy ufunc called at import
# would map its code pages into every process, sampling or not.
_X = _ziggurat_edges()
_F = [math.exp(-0.5 * x * x) for x in _X]
ZIGGURAT_X, ZIGGURAT_F = np.array(_X), np.array(_F)
# Tables over the 2 * 256 signed layers j (layer j % 256, negative for
# j >= 256): a proposal t - j in [0, 1) lands at x = (t - j) W[j] and lies
# under f, inside the next layer's width, when t - j < K[j].
_W = np.array(_X[:-1] + [-x for x in _X[:-1]])
_K = np.array([b / a for a, b in zip(_X, _X[1:])] * 2)
_FLOOR = np.array(_F[:-1] * 2)
_RISE = np.array([b - a for a, b in zip(_F, _F[1:])] * 2)
_TAIL = np.array(([True] + [False] * (ZIGGURAT_LAYERS - 1)) * 2)


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
    and reused for every block a caller draws and sums, so that no block
    allocates a sample-sized array: the samples y, the uniforms u, the
    noise z, the power terms w and cur of estimate.empirical_moments, and
    the lookup cells with their guide entries and straddle flags.  While a
    block's noise is drawn, u, w, cur, cells and the straddle flags hold
    the ziggurat's scratch (layer offsets, layer indices, acceptance flags
    and the slow slots' values).
    """

    def __init__(self):
        self.y, self.u, self.z, self.w, self.cur = np.empty((5, SAMPLE_BLOCK))
        self.cells = np.empty(SAMPLE_BLOCK, np.intp)
        self.guide = np.empty(SAMPLE_BLOCK, np.int32)  # viewed as the guide's dtype
        self.straddle = np.empty(SAMPLE_BLOCK, bool)


@dataclass(frozen=True, eq=False)
class InverseCDF:
    """Inverse-CDF sampling table of the Q_phi marginal of one state.

    The grid node x[j] carries the mass p(x_j) / sum_k p(x_k) of the
    marginal density p, and cdf is the cumulative node mass (n_points + 1
    entries, cdf[0] = 0, cdf[-1] = 1, nondecreasing), so node j owns the
    cell [cdf[j], cdf[j + 1]) of [0, 1).  The guide table splits [0, 1)
    into K = GUIDE_BUCKETS equal buckets [b / K, (b + 1) / K): guide[b] is
    the one cell holding the whole bucket, or -1 when the bucket straddles
    a cell edge.  It is stored in the narrowest signed integer dtype that
    holds -1 and every cell index: int16 for every default grid (128 KB),
    int32 above 32,768 points.
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
    # marginal_density's density is finite, >= 0 and of positive total
    F = np.concatenate(([0.0], np.cumsum(marginal_density(state, phi, grid))))
    F /= F[-1]
    # F * K is exact and K is a power of two, so ceil(F_j K) <= b exactly
    # when F_j <= b / K, and edges[b] = searchsorted(F, b / K, side="right")
    # - 1 is the last j with c_j = ceil(F_j K) <= b: cell j owns the buckets
    # c_j .. c_{j+1} - 1, built in O(n_points + K).  cell(u) is
    # nondecreasing, so edges[b] <= cell(u) <= edges[b + 1] for u in bucket
    # b, and the bucket straddles a cell edge exactly when some c_j = b + 1.
    c = np.ceil(F * GUIDE_BUCKETS).astype(np.intp)
    # -n_points fits exactly when every cell index 0..n_points - 1 does
    guide = np.repeat(np.arange(grid.n_points, dtype=np.min_scalar_type(-grid.n_points)),
                      np.diff(c))
    guide[c[c > 0] - 1] = -1
    return InverseCDF(x=grid.points, cdf=F, guide=guide)


def sampling_tables(state: QuantumState,
                    grid: PositionGrid | None = None) -> tuple[InverseCDF, ...]:
    """One InverseCDF per schedule phase, in nlsq.PHASE_ORDERS order."""
    return tuple(inverse_cdf_table(state, phi, grid) for phi, _ in PHASE_ORDERS)


def _gaussian_noise(rng: np.random.Generator, count: int, noise_std: float,
                    buf: BlockBuffers) -> np.ndarray:
    """count draws of N(0, noise_std^2) into buf.z, read from rng's noise
    regions in the layout sample_homodyne documents."""
    u, z, w = buf.u[:count], buf.z[:count], buf.w[:count]
    j = buf.cells[:count]
    rng.random(out=u)
    rng.bit_generator.advance(SAMPLE_BLOCK - count)
    # t = 512 u: the signed layer j = floor(t) and the proposal's offset
    # t - j in [0, 1) along the layer's width
    t = np.multiply(u, 2 * ZIGGURAT_LAYERS, out=u)
    np.subtract(t, np.floor(t, out=w), out=u)
    np.copyto(j, w, casting="unsafe")
    np.take(_K, j, out=w, mode="clip")  # j < 512, so no index is clipped
    slow = np.greater_equal(u, w, out=buf.straddle[:count])
    np.take(_W * noise_std, j, out=z, mode="clip")
    z *= u
    slots = np.flatnonzero(slow)
    n = slots.size
    # the slow slots in sample order, each at its signed abscissa x
    layer = j[slots]
    x = np.take(_W, layer, out=buf.cur[:n])
    x *= np.take(u, slots, out=w[:n])
    tails = np.flatnonzero(np.take(_TAIL, layer, out=buf.straddle[:n]))
    # a wedge point is kept when f(x_i) + s (f(x_{i+1}) - f(x_i)) < f(x)
    s = rng.random(out=u[:n])
    rng.bit_generator.advance(SAMPLE_BLOCK - n)
    s *= np.take(_RISE, layer, out=w[:n])
    s += np.take(_FLOOR, layer, out=w[:n])
    density = np.multiply(x, x, out=w[:n])
    density *= -0.5
    keep = np.less(s, np.exp(density, out=density), out=buf.straddle[:n])
    # a tail point is r + a with a = -ln(1 - u1) / r from the first of its
    # tries that has -2 ln(1 - u2) > a^2 (Marsaglia's method).  math.log1p,
    # unlike numpy's, takes no CPU-dependent SIMD path to these outputs.
    exhausted = []
    tries = rng.random((tails.size, TAIL_TRIES, 2))
    rng.bit_generator.advance(2 * TAIL_TRIES * (SAMPLE_BLOCK - tails.size))
    for i, pairs in zip(tails.tolist(), tries.tolist()):
        keep[i] = False
        for u1, u2 in pairs:
            a = -math.log1p(-u1) / ZIGGURAT_R
            if -2.0 * math.log1p(-u2) > a * a:
                x[i] = math.copysign(ZIGGURAT_R + a, x[i])
                keep[i] = True
                break
        else:
            exhausted.append(i)
    # a rejected wedge point restarts with the next standard normal, and a
    # tail whose tries all fail takes the next normals until one has |z| >= r
    redo = np.flatnonzero(np.logical_not(keep, out=keep))
    if not exhausted:
        x[redo] = rng.standard_normal(redo.size)
    else:
        for k in redo:
            x[k] = rng.standard_normal()
            while k in exhausted and abs(x[k]) < ZIGGURAT_R:
                x[k] = rng.standard_normal()
    x *= noise_std
    z[slots] = x
    return z


def sample_homodyne(table: InverseCDF, c_Q: float, count: int, seed: int,
                    noise_std: float, block: int, buf: BlockBuffers) -> np.ndarray:
    """Synthesize the first count <= SAMPLE_BLOCK homodyne records
    Y_out = c_Q Q_phi(0) + W of block `block` of the stream.

    Q_phi(0) is drawn by inverse-CDF lookup in table, so the record is
    taken at the table's phase; the channel gains do not depend on it.  A
    guide table of GUIDE_BUCKETS equal u-buckets picks the cell in O(1)
    (Chen & Asau 1974; Devroye 1986, section III.2), with a binary search
    only in the buckets that straddle a cell edge, and Q_phi(0) is the
    cell's grid node, so c_Q Q_phi(0) is one gather from c_Q * table.x.
    The channel noise W = Y_in + c_E E is one Gaussian of standard
    deviation noise_std = sqrt(ChannelCoefficients.noise_var); it smooths
    the node lattice, whose spacing the runner holds to |c_Q| dx <=
    noise_std / 2 before a run.

    W comes from the ziggurat of Marsaglia & Tsang (2000, J. Stat. Softw.
    5(8)), run on the whole block at once.  Each sample proposes a point
    uniformly in one of 512 equal-area layers, 256 per sign, that cover
    f(x) = exp(-x^2/2); about 98.5% land in a layer's core, under f, and
    are kept at once.  The others are slow slots: a point in a layer's
    wedge is kept when a second uniform puts it under f, a point in the
    base layer past r is replaced by a tail draw (Marsaglia's exponential
    method, TAIL_TRIES tries), and a rejected wedge point restarts with a
    fresh standard normal from numpy's exact standard_normal.  A tail
    whose tries all fail takes standard normals until one has |z| >= r
    and keeps that normal's sign, which the two equally likely signs of
    the base layer allow.  Every replacement is an exact draw from
    the distribution its slot would have yielded, so W is exactly
    Gaussian up to rounding.

    The stream is partitioned into fixed-size blocks, each seeded from
    (seed, block index), so the result depends only on (seed, block,
    count) and any concurrent schedule producing the same blocks yields
    identical samples.  Per block the stream has fixed regions, in order:
    SAMPLE_BLOCK uniforms for Q; SAMPLE_BLOCK noise-proposal uniforms, one
    per sample; SAMPLE_BLOCK slow-slot uniforms, one per slow slot in
    sample order; 2 TAIL_TRIES SAMPLE_BLOCK tail uniforms, 2 TAIL_TRIES per
    tail slot in sample order; and last the restart normals, taken in
    sample order.  A block that holds m samples, n slow slots and k tail
    slots draws m, m, n and 2 TAIL_TRIES k uniforms and advances the
    generator past the rest of each region (PCG64 spends one 64-bit output
    per double), so a longer record extends a shorter one.

    The samples are written into buf.y and a view of them is returned, so
    a block allocates no sample-sized array; estimate.run_reconstruction
    draws a record by calling this once per block index.
    """
    if not 1 <= count <= SAMPLE_BLOCK:
        raise ValueError(f"count must be in 1..{SAMPLE_BLOCK} (one block), got {count}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
    u, y = buf.u[:count], buf.y[:count]
    rng.random(out=u)
    rng.bit_generator.advance(SAMPLE_BLOCK - count)
    np.take(table.x * c_Q, table.cell(u, buf), out=y, mode="clip")
    y += _gaussian_noise(rng, count, noise_std, buf)
    return y
