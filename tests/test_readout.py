import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsqueeze.hilbert import PositionGrid, default_grid, marginal_density, quadrature_moment
from nlsqueeze.nlsq import (HALF_PI, PHASE_ORDERS, MomentSet, assemble_curve, exact_moment_set,
                            mixed_moment_recovery)
from nlsqueeze.readout import (
    GUIDE_BUCKETS,
    SAMPLE_BLOCK,
    TAIL_TRIES,
    ZIGGURAT_F,
    ZIGGURAT_R,
    ZIGGURAT_V,
    ZIGGURAT_X,
    BlockBuffers,
    ChannelParams,
    channel_coefficients,
    forward_output_moments,
    inverse_cdf_table,
    sample_homodyne,
    sampling_tables,
)
from nlsqueeze.states import StateSpec, make_state

import oracles

STANDARD = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3)


# ------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(G=-0.1, Gamma_m=0.0, n_bar=0.0, tau=1.0)
    with pytest.raises(ValueError):
        ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=0.0)
    with pytest.raises(ValueError):
        ChannelParams(G=0.1, Gamma_m=0.0, n_bar=-1.0, tau=1.0)
    with pytest.raises(ValueError):
        ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=10.0, kappa=0.0)
    for field in ("G", "Gamma_m", "n_bar", "tau", "kappa"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                dataclasses.replace(STANDARD, **{field: bad})


def test_params_warn_outside_adiabatic_regime():
    with pytest.warns(UserWarning):
        ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=5.0)
    with pytest.warns(UserWarning):
        ChannelParams(G=2.0, Gamma_m=0.0, n_bar=0.0, tau=100.0)


def test_cooperativity():
    assert STANDARD.cooperativity == pytest.approx(1e3, rel=1e-12)
    clean = ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=1e3)
    assert math.isinf(clean.cooperativity)


# ------------------------------------------------------------- coefficients

def test_exact_coefficients_frozen():
    co = channel_coefficients(STANDARD)
    assert co.c_Q == pytest.approx(-8.944269673931554, rel=1e-12)
    assert co.c_E == pytest.approx(-0.005163976826697523, rel=1e-10)


def test_lossless_limit():
    co = channel_coefficients(ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=1e3))
    assert co.c_Q == pytest.approx(-0.2 * math.sqrt(2e3), rel=1e-12)
    assert co.c_E == 0.0


def test_first_order_formulas():
    co = channel_coefficients(STANDARD, "first_order")
    x = STANDARD.Gamma_m * STANDARD.tau
    cq_ref = -2.0 * 0.1 * math.sqrt(2e3) * (1.0 - x / 4.0)
    ce_ref = -2.0 * 0.1 * 1e3 * math.sqrt(2.0 * 1e-9 / 3.0)
    assert co.c_Q == pytest.approx(cq_ref, rel=1e-12)
    assert co.c_E == pytest.approx(ce_ref, rel=1e-12)
    assert co.c_E == pytest.approx(-5.1639778e-3, rel=1e-7)


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        channel_coefficients(STANDARD, "second_order")


def test_first_order_approaches_exact():
    # ratio drifts like 3x/8 in c_E and x^2/24 in c_Q near zero
    for x, tol in ((1e-3, 5e-4), (1e-5, 5e-6)):
        p = ChannelParams(G=0.1, Gamma_m=x / 1e3, n_bar=10.0, tau=1e3)
        exact = channel_coefficients(p)
        first = channel_coefficients(p, "first_order")
        assert abs(exact.c_Q / first.c_Q - 1.0) < tol
        assert abs(exact.c_E / first.c_E - 1.0) < tol


def test_series_continuous_at_crossover():
    # the series and expm1 branches must agree where they hand over; the
    # expm1 side carries ~1e-7 relative cancellation noise at x = 1e-4,
    # which is precisely why the series takes over below it
    def series_ce(x, p):
        f = x ** 3 / 12.0 - x ** 4 / 32.0 + 7.0 * x ** 5 / 960.0
        return -4.0 * p.G * math.sqrt(2.0 * f / (p.kappa * p.tau)) / p.Gamma_m

    below = ChannelParams(G=0.1, Gamma_m=0.99e-7, n_bar=10.0, tau=1e3)
    above = ChannelParams(G=0.1, Gamma_m=1.01e-7, n_bar=10.0, tau=1e3)
    co_below = channel_coefficients(below)
    co_above = channel_coefficients(above)
    assert co_below.c_E == pytest.approx(series_ce(0.99e-4, below), rel=1e-12)
    assert co_above.c_E == pytest.approx(series_ce(1.01e-4, above), rel=1e-6)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-8, max_value=50.0))
def test_coefficients_signs_and_bounds(x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ChannelParams(G=0.2, Gamma_m=x / 500.0, n_bar=5.0, tau=500.0)
    co = channel_coefficients(p)
    assert co.c_Q <= 0.0
    assert co.c_E <= 0.0
    # gain reduction factor stays within the first-order envelope
    g = co.c_Q / (-2.0 * p.G * math.sqrt(2.0 * p.tau / p.kappa))
    assert 0.0 < g <= 1.0
    assert (1.0 - g) <= x / 4.0 + 1e-12


# ------------------------------------------------------------- forward model

def cubic_state():
    return make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128))


def mech_moments(state, phi, up_to=4):
    return [quadrature_moment(state, phi, n) for n in range(1, up_to + 1)]


def test_forward_second_moment_frozen():
    st_ = cubic_state()
    co = channel_coefficients(STANDARD)
    y = forward_output_moments(mech_moments(st_, 0.0, up_to=2), co)
    # 1/2 + c_Q^2 <q^2> + c_E^2 (n_bar + 1/2) at the standard channel
    composed = 0.5 + co.c_Q ** 2 * 0.5 + co.c_E ** 2 * (STANDARD.n_bar + 0.5)
    assert y[1] == pytest.approx(composed, rel=1e-10)
    assert y[1] == pytest.approx(40.766660, abs=1e-5)


def test_forward_matches_collapsed_gaussian_oracle():
    st_ = cubic_state()
    co = channel_coefficients(STANDARD)
    for phi in (0.0, HALF_PI, math.pi / 4):
        mech = mech_moments(st_, phi)
        y = forward_output_moments(mech, co)
        qm = [1.0] + mech
        for n in range(1, 5):
            ref = oracles.oracle_output_moment(qm, co.c_Q, co.c_E, STANDARD.n_bar, n)
            assert y[n - 1] == pytest.approx(ref, rel=1e-12)


def test_forward_odd_moments_from_coherent():
    st_ = make_state(StateSpec(kind="coherent", beta=0.4 + 0.3j, N=48))
    mech = mech_moments(st_, 0.0, up_to=3)
    co = channel_coefficients(STANDARD)
    y = forward_output_moments(mech, co)
    qm = [1.0] + mech
    for n in range(1, 4):
        assert y[n - 1] == pytest.approx(
            oracles.oracle_output_moment(qm, co.c_Q, co.c_E, STANDARD.n_bar, n),
            rel=1e-12)


# ------------------------------------------------------------- sampling

def sample(state, p, count, seed, phi=0.0):
    co = channel_coefficients(p)
    return oracles.draw_record(inverse_cdf_table(state, phi), co.c_Q, count, seed,
                               math.sqrt(co.noise_var))


def test_sampler_deterministic():
    st_ = cubic_state()
    a = sample(st_, STANDARD, 5000, seed=11)
    b = sample(st_, STANDARD, 5000, seed=11)
    np.testing.assert_array_equal(a, b)
    c = sample(st_, STANDARD, 5000, seed=12)
    assert not np.array_equal(a, c)


def test_sampler_prefix_property():
    # growing the record must only append, never reshuffle; every count
    # ends inside a block, in the same block or in a later one
    st_ = cubic_state()
    for short, long in ((SAMPLE_BLOCK + 1000, 2 * SAMPLE_BLOCK + 2000), (1000, 40_000)):
        a = sample(st_, STANDARD, short, seed=21)
        b = sample(st_, STANDARD, long, seed=21)
        np.testing.assert_array_equal(b[:short], a)


def reference_block(table, c_Q, noise_std, seed, block, m):
    """The first m samples of one block rebuilt from the documented stream
    layout one sample at a time, and each sample's noise kind: core, wedge,
    restart, tail or exhausted (a tail whose tries all failed)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
    q_u = rng.random(SAMPLE_BLOCK)
    proposal = rng.random(SAMPLE_BLOCK)
    slow_u = iter(rng.random(SAMPLE_BLOCK))
    tail_u = iter(rng.random(2 * TAIL_TRIES * SAMPLE_BLOCK))
    # the stream now stands at the restart normals
    # the binary search the guide table replaces, then the cell's node
    q = c_Q * table.x[np.searchsorted(table.cdf, q_u[:m], side="right") - 1]
    X, F = ZIGGURAT_X.tolist(), ZIGGURAT_F.tolist()
    f = lambda x: float(np.exp(-0.5 * (x * x)))  # numpy's exp, as the sampler's
    y, kinds = [], []
    for i in range(m):
        t = 512.0 * float(proposal[i])
        j = math.floor(t)
        offset = t - j
        layer = j % 256
        width = X[layer] if j < 256 else -X[layer]
        if offset < X[layer + 1] / X[layer]:
            y.append(q[i] + offset * (noise_std * width))
            kinds.append("core")
            continue
        x = offset * width
        s = next(slow_u)
        if layer == 0:
            tries = [(next(tail_u), next(tail_u)) for _ in range(TAIL_TRIES)]
            kind = "exhausted"
            for u1, u2 in tries:
                a = -math.log1p(-u1) / ZIGGURAT_R
                if -2.0 * math.log1p(-u2) > a * a:
                    x, kind = math.copysign(ZIGGURAT_R + a, x), "tail"
                    break
        else:
            kind = "wedge" if F[layer] + s * (F[layer + 1] - F[layer]) < f(x) else "restart"
        if kind in ("restart", "exhausted"):
            x = rng.standard_normal()
            while kind == "exhausted" and abs(x) < ZIGGURAT_R:
                x = rng.standard_normal()
        y.append(q[i] + x * noise_std)
        kinds.append(kind)
    return np.array(y), kinds


def reference_record(table, c_Q, noise_std, seed, n):
    return np.concatenate([reference_block(table, c_Q, noise_std, seed, b,
                                           min(SAMPLE_BLOCK, n - b * SAMPLE_BLOCK))[0]
                           for b in range(-(-n // SAMPLE_BLOCK))])


@pytest.mark.parametrize("n", [1, 100, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                               SAMPLE_BLOCK + 1000, 2 * SAMPLE_BLOCK + 1000],
                         ids=["1", "100", "B-1", "B", "B+1", "B+1000", "2B+1000"])
def test_sampler_follows_the_documented_stream(n):
    # every block rebuilt one sample at a time from whole regions of its
    # stream: SAMPLE_BLOCK uniforms for Q, SAMPLE_BLOCK noise proposals,
    # SAMPLE_BLOCK slow-slot uniforms, 2 TAIL_TRIES SAMPLE_BLOCK tail
    # uniforms, then the restart normals; a partial last block must read
    # the same stream
    table = inverse_cdf_table(cubic_state(), 0.0)
    co = channel_coefficients(STANDARD)
    noise_std = math.sqrt(co.noise_var)
    np.testing.assert_array_equal(oracles.draw_record(table, co.c_Q, n, 77, noise_std),
                                  reference_record(table, co.c_Q, noise_std, 77, n))


def test_ziggurat_layers_have_equal_area():
    X, F, v = ZIGGURAT_X, ZIGGURAT_F, ZIGGURAT_V
    assert X.shape == (257,) and X[1] == ZIGGURAT_R and X[256] == 0.0 and F[256] == 1.0
    assert np.all(np.diff(X[1:]) < 0)
    np.testing.assert_array_equal(F, [math.exp(-0.5 * x * x) for x in X])
    # layers 1..255 are the rectangles [0, x_i) x [f(x_i), f(x_{i+1}))
    np.testing.assert_allclose(X[1:256] * np.diff(F[1:]), v, rtol=1e-12, atol=0)
    # the top layer closes at x = 0: its recurrence step lands on f = 1
    assert abs(v / X[255] + F[255] - 1.0) < 1e-14
    # the base layer: the rectangle up to r plus the tail beyond it, and
    # its virtual width x_0 = v / f(r)
    tail = math.sqrt(math.pi / 2.0) * math.erfc(ZIGGURAT_R / math.sqrt(2.0))
    assert ZIGGURAT_R * F[1] + tail == pytest.approx(v, rel=1e-12, abs=0)
    assert X[0] * F[1] == pytest.approx(v, rel=1e-15, abs=0)


FALSE_ALARM = 1e-4  # chance that a correct generator fails the whole test


def test_noise_is_standard_normal():
    # 306 blocks of pure noise (c_Q = 0, unit deviation), about 2e7 draws:
    # moments 1..8 and the counts beyond 1, 2, 3, r and 4 each within k
    # standard errors, k set so that the 13 checks together fail a correct
    # generator with probability FALSE_ALARM
    from scipy.special import ndtri

    table = inverse_cdf_table(make_state(StateSpec(kind="vacuum", N=16)), 0.0)
    buf = BlockBuffers()
    orders = np.arange(1, 9)
    edges = (1.0, 2.0, 3.0, ZIGGURAT_R, 4.0)
    sums, beyond = np.zeros(orders.size), np.zeros(len(edges))
    blocks = 306
    for b in range(blocks):
        z = sample_homodyne(table, 0.0, SAMPLE_BLOCK, 2024, 1.0, b, buf)
        power = np.ones(SAMPLE_BLOCK)
        for k in orders:
            power *= z
            sums[k - 1] += power.sum()
        np.abs(z, out=power)
        beyond += [np.count_nonzero(power > e) for e in edges]
    n = blocks * SAMPLE_BLOCK
    k = float(ndtri(1.0 - FALSE_ALARM / (2 * (orders.size + len(edges)))))
    gauss = [0.0 if m % 2 else float(math.prod(range(m - 1, 0, -2))) for m in range(17)]
    for m in orders:
        se = math.sqrt((gauss[2 * m] - gauss[m] ** 2) / n)
        assert abs(sums[m - 1] / n - gauss[m]) < k * se, m
    for e, count in zip(edges, beyond):
        p = math.erfc(e / math.sqrt(2.0))
        assert abs(count - n * p) < k * math.sqrt(n * p * (1.0 - p)), e


def slow_slot_prefixes(table, c_Q, noise_std, seed, block, kinds):
    # each count ends just after the first slot of a kind
    buf = BlockBuffers()
    longer = sample_homodyne(table, c_Q, SAMPLE_BLOCK, seed, noise_std, block, buf).copy()
    _, seen = reference_block(table, c_Q, noise_std, seed, block, SAMPLE_BLOCK)
    for kind in kinds:
        count = seen.index(kind) + 1
        short = sample_homodyne(table, c_Q, count, seed, noise_std, block, buf)
        np.testing.assert_array_equal(short, longer[:count])
        ref, _ = reference_block(table, c_Q, noise_std, seed, block, count)
        np.testing.assert_array_equal(short, ref)
    return longer, seen


def test_sampler_prefix_ends_after_a_restart_and_a_tail():
    table = inverse_cdf_table(cubic_state(), 0.0)
    co = channel_coefficients(STANDARD)
    slow_slot_prefixes(table, co.c_Q, math.sqrt(co.noise_var), 21, 0,
                       ("restart", "tail", "wedge"))


def test_sampler_prefix_ends_after_an_exhausted_tail():
    # found by search: in block 311 of seed 13, all TAIL_TRIES tries of the
    # tail slot 52528 fail, so it takes normals from the restart region
    # until one lies past r (c_Q = 0 and unit deviation leave the noise)
    table = inverse_cdf_table(make_state(StateSpec(kind="vacuum", N=16)), 0.0)
    z, kinds = slow_slot_prefixes(table, 0.0, 1.0, 13, 311, ("exhausted",))
    assert [i for i, kind in enumerate(kinds) if kind == "exhausted"] == [52528]
    assert abs(z[52528]) >= ZIGGURAT_R
    assert "restart" in kinds[52529:]  # a later restart reads past its normals


def test_sampler_rejects_bad_count():
    # one call draws one block of 1..SAMPLE_BLOCK samples
    table = inverse_cdf_table(cubic_state(), 0.0)
    for count in (0, SAMPLE_BLOCK + 1):
        with pytest.raises(ValueError, match="count"):
            sample_homodyne(table, channel_coefficients(STANDARD).c_Q, count, 1, 1.0, 0,
                            BlockBuffers())


def test_reused_buffers_give_the_samples_of_fresh_ones():
    # one BlockBuffers across two tables, two gains and two deviations in
    # alternation: nothing of one block's table, c_Q or noise_std may leak
    # into the next.  The settings run through a Gray code, so each step
    # changes exactly one of the three and each of them changes alone; the
    # tables are on different grids, so their nodes differ too.
    state = cubic_state()
    tables = (inverse_cdf_table(state, 0.0),
              inverse_cdf_table(state, HALF_PI, PositionGrid(extent=20.0, n_points=3001)))
    co = channel_coefficients(STANDARD)
    gains = (co.c_Q, 0.5 * co.c_Q)
    deviations = (math.sqrt(co.noise_var), 2.0)
    buf = BlockBuffers()
    for i in range(16):
        g = i ^ (i >> 1)
        args = (tables[g & 1], gains[g >> 1 & 1], 1000 + i, 17, deviations[g >> 2 & 1], i % 3)
        np.testing.assert_array_equal(sample_homodyne(*args, buf),
                                      sample_homodyne(*args, BlockBuffers()), err_msg=str(i))


@pytest.mark.parametrize("spec", [StateSpec(kind="vacuum", N=32),
                                  StateSpec(kind="thermal", n_bar=1.0, N=96),
                                  StateSpec(kind="coherent", beta=1.2 - 0.8j, N=64),
                                  StateSpec(kind="cubic_phase", gamma=0.1, N=128),
                                  StateSpec(kind="displaced", alpha=0.3 + 0.4j,
                                            inner=StateSpec(kind="thermal", n_bar=0.7, N=64))],
                         ids=["vacuum", "thermal", "coherent", "cubic", "displaced-thermal"])
def test_guided_lookup_equals_binary_search(spec):
    # the reference is the binary search the guide table replaces
    rng = np.random.default_rng(61)
    state = make_state(spec)
    for table, (phi, _) in zip(sampling_tables(state), PHASE_ORDERS, strict=True):
        F = table.cdf
        # the tables come in schedule-row order
        np.testing.assert_array_equal(F, inverse_cdf_table(state, phi).cdf)
        assert F.shape == (table.x.size + 1,) and F[0] == 0.0 and F[-1] == 1.0
        assert np.all(np.diff(F) >= 0)
        assert_guide_is_the_binary_search(table)
        assert table.guide.dtype == np.int16
        if spec.kind == "cubic_phase":
            # each bucket carries probability 1 / GUIDE_BUCKETS, and the
            # uniforms of straddling buckets (guide -1) are searched; a
            # lookup that searched most of them again would fail here
            assert (table.guide < 0).mean() < 0.01
        plateau = F[1:][np.diff(F) == 0.0]  # cell edges inside zero-density runs
        assert plateau.size > 0
        assert_cells_are_the_binary_search(table, rng, plateau)


def assert_guide_is_the_binary_search(table):
    # the guide built from the counted ceilings equals the one built from
    # K + 1 binary searches for the bucket edges
    edges = np.searchsorted(table.cdf, np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS,
                            side="right") - 1
    assert table.guide.shape == (GUIDE_BUCKETS,)
    np.testing.assert_array_equal(table.guide,
                                  np.where(edges[1:] == edges[:-1], edges[:-1], -1))


def assert_cells_are_the_binary_search(table, rng, plateau=()):
    F = table.cdf
    buckets = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], F, plateau, np.nextafter(F, 0.0),
                        buckets, np.nextafter(buckets, 0.0), rng.random(200_000)])
    u = u[(u >= 0.0) & (u < 1.0)]  # the sampler's uniforms lie in [0, 1)
    reference = np.searchsorted(F, u, side="right") - 1
    # the buffered lookup of the sampler, one block at a time
    buf = BlockBuffers()
    for lo in range(0, u.size, SAMPLE_BLOCK):
        np.testing.assert_array_equal(table.cell(u[lo:lo + SAMPLE_BLOCK], buf),
                                      reference[lo:lo + SAMPLE_BLOCK])


def test_guide_of_a_grid_past_int16_is_int32():
    # cell indices up to 39,999 do not fit int16
    state = make_state(StateSpec(kind="coherent", beta=0.5, N=8))
    table = inverse_cdf_table(state, 0.3, PositionGrid(extent=18.0, n_points=40_000))
    assert table.guide.dtype == np.int32
    assert_guide_is_the_binary_search(table)
    assert_cells_are_the_binary_search(table, np.random.default_rng(62))


def test_noiseless_samples_are_scaled_grid_nodes():
    table = inverse_cdf_table(cubic_state(), 0.0)
    c_Q = channel_coefficients(STANDARD).c_Q
    y = oracles.draw_record(table, c_Q, SAMPLE_BLOCK + 1000, 5, 0.0)
    assert np.isin(y, c_Q * table.x).all()
    assert np.unique(y).size > 100


# one state of each kind the sampler must reproduce exactly, displaced
# around a cubic state so that every schedule row has odd moments
MOMENT_STATES = [StateSpec(kind="cubic_phase", gamma=0.1, N=128),
                 StateSpec(kind="coherent", beta=1.2 - 0.8j, N=64),
                 StateSpec(kind="thermal", n_bar=0.7, N=64),
                 StateSpec(kind="displaced", alpha=0.3 + 0.4j, N=96,
                           inner=StateSpec(kind="cubic_phase", gamma=0.1, N=96))]


@pytest.mark.parametrize("spec", MOMENT_STATES, ids=["cubic", "coherent", "thermal",
                                                     "displaced"])
def test_tables_carry_the_exact_moments(spec):
    # the distribution the sampler draws Q from has the state's moments:
    # node j with probability diff(cdf)_j, so the sampled V(lambda) is the
    # certified one
    state = make_state(spec)
    grid = default_grid(state.dim)
    sampled = MomentSet()
    for k, (table, (phi, order)) in enumerate(zip(sampling_tables(state), PHASE_ORDERS,
                                                  strict=True)):
        weights = np.diff(table.cdf)
        dens = marginal_density(state, phi, grid)
        np.testing.assert_allclose(weights, dens / dens.sum(), rtol=0, atol=1e-13)
        for n in range(1, order + 1):
            value = float(weights @ table.x ** n)
            exact = quadrature_moment(state, phi, n)
            assert abs(value - exact) <= 1e-11 * max(1.0, abs(exact)), (k, n)
            sampled.values[k, n] = value
    sampled.mixed = mixed_moment_recovery(sampled)
    lam = np.linspace(-0.2, 0.4, 101)
    exact_v = assemble_curve(exact_moment_set(state))(lam)
    np.testing.assert_allclose(assemble_curve(sampled)(lam), exact_v, rtol=1e-11, atol=0)


def test_sample_mean_and_variance_vacuum():
    st_ = make_state(StateSpec(kind="vacuum", N=32))
    p = ChannelParams(G=0.1, Gamma_m=0.0, n_bar=0.0, tau=1e3)
    co = channel_coefficients(p)
    n = 400_000
    y = sample(st_, p, n, seed=31)
    var_ref = 0.5 + co.c_Q ** 2 * 0.5
    assert y.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(var_ref / n))
    assert y.var() == pytest.approx(var_ref, rel=0.02)


def test_sample_moments_match_forward_model():
    # the end-to-end check that sampling and the analytic channel agree
    st_ = cubic_state()
    n = 1_000_000
    co = channel_coefficients(STANDARD)
    for phi in (0.0, HALF_PI):
        ref = forward_output_moments(mech_moments(st_, phi, up_to=3), co)
        y = sample(st_, STANDARD, n, seed=41, phi=phi)
        for order in (1, 2, 3):
            sample_moment = float(np.mean(y ** order))
            spread = float(np.std(y ** order)) / math.sqrt(n)
            assert abs(sample_moment - ref[order - 1]) < 5.0 * spread, (phi, order)


def test_sample_moments_match_forward_model_noise_dominated():
    # thermal noise c_E^2 (n_bar + 1/2) ~ 270 swamps the vacuum 1/2 and the
    # signal c_Q^2 <q^2> ~ 40, so orders 2 and 4 test the noise draw
    p = ChannelParams(G=0.1, Gamma_m=1e-6, n_bar=1e4, tau=1e3)
    co = channel_coefficients(p)
    assert co.c_E ** 2 * (p.n_bar + 0.5) > 100.0
    st_ = cubic_state()
    n = 1_000_000
    for phi in (0.0, HALF_PI):
        ref = forward_output_moments(mech_moments(st_, phi), co)
        y = sample(st_, p, n, seed=43, phi=phi)
        for order in (1, 2, 3, 4):
            yn = y ** order
            spread = float(np.std(yn)) / math.sqrt(n)
            assert abs(float(np.mean(yn)) - ref[order - 1]) < 5.0 * spread, (phi, order)


def test_pure_noise_channel_is_gaussian():
    st_ = make_state(StateSpec(kind="vacuum", N=16))
    p = ChannelParams(G=0.0, Gamma_m=0.0, n_bar=0.0, tau=1e3)
    y = sample(st_, p, 200_000, seed=51)
    z = y / math.sqrt(0.5)
    assert np.mean(z ** 2) == pytest.approx(1.0, rel=0.02)
    assert np.mean(z ** 4) == pytest.approx(3.0, rel=0.05)
