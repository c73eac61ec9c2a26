import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsqueeze.hilbert import default_grid, marginal_density, quadrature_moment
from nlsqueeze.nlsq import (HALF_PI, PHASE_ORDERS, MomentSet, assemble_curve, exact_moment_set,
                            mixed_moment_recovery)
from nlsqueeze.readout import (
    GUIDE_BUCKETS,
    SAMPLE_BLOCK,
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
    return sample_homodyne(inverse_cdf_table(state, phi), co.c_Q, count, seed,
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


@pytest.mark.parametrize("n", [1, 100, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                               SAMPLE_BLOCK + 1000, 2 * SAMPLE_BLOCK + 1000],
                         ids=["1", "100", "B-1", "B", "B+1", "B+1000", "2B+1000"])
def test_sampler_follows_the_documented_stream(n):
    # every block rebuilt from the seed tree by whole-block draws: per
    # block SAMPLE_BLOCK uniforms, then SAMPLE_BLOCK normals, one per
    # sample for W; a partial last block must read the same stream
    st_ = cubic_state()
    table = inverse_cdf_table(st_, 0.0)
    co = channel_coefficients(STANDARD)
    noise_std = math.sqrt(co.noise_var)
    seed = 77
    ref = []
    for b in range(-(-n // SAMPLE_BLOCK)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, b))))
        u = rng.random(SAMPLE_BLOCK)
        z = rng.standard_normal(SAMPLE_BLOCK)
        # the binary search the guide table replaces, then the cell's node
        ref.append(co.c_Q * table.x[np.searchsorted(table.cdf, u, side="right") - 1]
                   + noise_std * z)
    ref = np.concatenate(ref)[:n]
    np.testing.assert_array_equal(sample_homodyne(table, co.c_Q, n, seed, noise_std), ref)


def test_sampler_rejects_bad_count():
    with pytest.raises(ValueError):
        sample(cubic_state(), STANDARD, 0, seed=1)


@pytest.mark.parametrize("spec", [StateSpec(kind="vacuum", N=32),
                                  StateSpec(kind="thermal", n_bar=1.0, N=96),
                                  StateSpec(kind="coherent", beta=1.2 - 0.8j, N=64),
                                  StateSpec(kind="cubic_phase", gamma=0.1, N=128)],
                         ids=["vacuum", "thermal", "coherent", "cubic"])
def test_guided_lookup_equals_binary_search(spec):
    # the reference is the binary search the guide table replaces
    rng = np.random.default_rng(61)
    state = make_state(spec)
    for table, (phi, _) in zip(sampling_tables(state), PHASE_ORDERS, strict=True):
        F = table.cdf
        # the tables come in schedule-row order
        np.testing.assert_array_equal(F, inverse_cdf_table(state, phi).cdf)
        assert F.shape == (table.x.size + 1,) and F[0] == 0.0 and F[-1] == 1.0
        assert table.guide.shape == (GUIDE_BUCKETS,)
        if spec.kind == "cubic_phase":
            # each bucket carries probability 1 / GUIDE_BUCKETS, and the
            # uniforms of straddling buckets (guide -1) are searched; a
            # lookup that searched most of them again would fail here
            assert (table.guide < 0).mean() < 0.05
        plateau = F[1:][np.diff(F) == 0.0]  # cell edges inside zero-density runs
        assert plateau.size > 0
        buckets = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], F, plateau, np.nextafter(F, 0.0),
                            buckets, np.nextafter(buckets, 0.0), rng.random(200_000)])
        u = u[(u >= 0.0) & (u < 1.0)]  # the sampler's uniforms lie in [0, 1)
        np.testing.assert_array_equal(table.cell(u), np.searchsorted(F, u, side="right") - 1)


def test_noiseless_samples_are_scaled_grid_nodes():
    table = inverse_cdf_table(cubic_state(), 0.0)
    c_Q = channel_coefficients(STANDARD).c_Q
    y = sample_homodyne(table, c_Q, SAMPLE_BLOCK + 1000, 5, 0.0)
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
