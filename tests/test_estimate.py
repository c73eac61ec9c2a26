import dataclasses
import math
import warnings

import numpy as np
import pytest

from nlsqueeze.errors import ChannelConditionError, DataError
from nlsqueeze.estimate import (
    derive_seed,
    empirical_moments,
    ensemble_run,
    invert_hierarchy,
    run_reconstruction,
)
from nlsqueeze.hilbert import quadrature_moment
from nlsqueeze.nlsq import (
    HALF_PI,
    MINUS,
    P,
    PHASE_ORDERS,
    PLUS,
    Q,
    MomentSet,
    assemble_curve,
    exact_moment_set,
    mixed_moment_recovery,
)
from nlsqueeze.readout import (SAMPLE_BLOCK, ChannelParams, channel_coefficients,
                               forward_output_moments, hierarchy_matrix, sampling_tables)
from nlsqueeze.states import StateSpec, make_state

STANDARD = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3)
STANDARD_CO = channel_coefficients(STANDARD)


def cubic_state(gamma=0.1, N=128):
    return make_state(StateSpec(kind="cubic_phase", gamma=gamma, N=N))


# ------------------------------------------------------------- empirical

def test_empirical_moments_basic():
    x = np.full(200, 2.0)
    means, cov = empirical_moments(x, 3)
    assert means[0] == pytest.approx(2.0, rel=1e-14)
    assert means[2] == pytest.approx(8.0, rel=1e-14)
    assert cov[1, 1] == pytest.approx(0.0, abs=1e-24)


def test_empirical_moments_standard_normal():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1_000_000)
    means, cov = empirical_moments(x, 2)
    assert means[1] == pytest.approx(1.0, abs=5.0 * math.sqrt(2.0) / 1e3)
    assert math.sqrt(cov[1, 1]) == pytest.approx(math.sqrt(2.0) / 1e3, rel=0.05)


def test_empirical_moments_survives_huge_values():
    # the accumulators are rescaled, so eighth powers of 1e60 still work;
    # the covariance of the fourth power, about 1e480, is inf without a warning
    x = np.linspace(-1e60, 1e60, 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        means, cov = empirical_moments(x, 4)
    assert np.all(np.isfinite(means))
    assert means[3] > 0
    assert cov[3, 3] == math.inf


@pytest.mark.parametrize("count", [100, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   7 * SAMPLE_BLOCK // 2])
def test_empirical_moments_blockwise_matches_fsum(count):
    x = 1.5 + np.random.default_rng(count).standard_normal(count)
    means, cov = empirical_moments(x, 4)
    for n in range(1, 5):
        mean = math.fsum(x ** n) / count
        var = (math.fsum(x ** (2 * n)) / count - mean * mean) * count / (count - 1.0)
        assert means[n - 1] == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert math.sqrt(cov[n - 1, n - 1]) == pytest.approx(math.sqrt(var / count),
                                                             rel=1e-12, abs=0.0)
    # the covariance of the means of the power columns
    columns = np.array([x ** n for n in range(1, 5)])
    np.testing.assert_allclose(cov, np.cov(columns) / count, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_moments_non_finite_in_last_partial_slice(bad):
    x = np.ones(7 * SAMPLE_BLOCK // 2)
    x[-1] = bad
    with pytest.raises(DataError):
        empirical_moments(x, 2)


def test_empirical_moments_input_validation():
    with pytest.raises(ValueError):
        empirical_moments(np.zeros(99), 2)
    with pytest.raises(ValueError):
        empirical_moments(np.zeros(500), 5)
    with pytest.raises(ValueError):
        empirical_moments(np.zeros(500), 0)
    bad = np.zeros(500)
    bad[3] = np.nan
    with pytest.raises(DataError):
        empirical_moments(bad, 2)
    bad[3] = np.inf
    with pytest.raises(DataError):
        empirical_moments(bad, 2)
    # finite samples whose fourth power is not a float
    with pytest.raises(DataError, match="overflows"):
        empirical_moments(np.array([1e100, -3e99] * 100), 4)


# ------------------------------------------------------------- inversion

def test_invert_first_order_division():
    co = channel_coefficients(STANDARD)
    q, _ = invert_hierarchy([co.c_Q * 0.15], np.zeros((1, 1)), co)
    assert q[0] == pytest.approx(0.15, rel=1e-12)


def test_invert_rejects_weak_channel():
    co = dataclasses.replace(channel_coefficients(STANDARD), c_Q=-1e-8)
    with pytest.raises(ChannelConditionError):
        invert_hierarchy([0.0, 1.0], np.zeros((2, 2)), co)


def test_invert_error_scaling():
    co = channel_coefficients(STANDARD)
    _, q_cov = invert_hierarchy([0.0, 41.0], np.diag([0.01, 0.5]) ** 2, co)
    errs = np.sqrt(np.diag(q_cov))
    assert errs[0] == pytest.approx(0.01 / abs(co.c_Q), rel=1e-12)
    assert errs[1] == pytest.approx(0.5 / co.c_Q ** 2, rel=1e-12)
    # a full covariance goes through the inverse of the hierarchy block
    a = np.random.default_rng(4).normal(size=(4, 4))
    cov = a @ a.T
    _, q_cov = invert_hierarchy([0.1, 41.0, 0.3, 5e3], cov, co)
    hinv = np.linalg.inv(hierarchy_matrix(co, 4)[1:, 1:])
    np.testing.assert_allclose(q_cov, hinv @ cov @ hinv.T, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("state_spec", [
    StateSpec(kind="vacuum", N=64),
    StateSpec(kind="thermal", n_bar=1.0, N=64),
    StateSpec(kind="coherent", beta=1.0 + 0j, N=64),
    StateSpec(kind="cubic_phase", gamma=0.1, N=128),
])
def test_round_trip_through_channel(state_spec):
    st = make_state(state_spec)
    co = channel_coefficients(STANDARD)
    for phi in (0.0, HALF_PI):
        mech = [quadrature_moment(st, phi, n) for n in range(1, 5)]
        y = forward_output_moments(mech, co)
        back, _ = invert_hierarchy(y, np.zeros((4, 4)), co)
        np.testing.assert_allclose(back, mech, rtol=0, atol=1e-10)


# ------------------------------------------------------------- mixed moment

def test_mixed_recovery_from_exact_rotations():
    st = cubic_state()
    m = MomentSet()
    for k in (PLUS, MINUS, P):
        m.values[k, 3] = quadrature_moment(st, PHASE_ORDERS[k][0], 3)
    assert mixed_moment_recovery(m) == pytest.approx(0.45, abs=1e-6)


# ------------------------------------------------------------- reconstruction

def test_noiseless_inversion_reproduces_exact_curve():
    st = cubic_state()
    co = channel_coefficients(STANDARD)
    ms = MomentSet()
    for k, (phi, order) in enumerate(PHASE_ORDERS):
        mech = [quadrature_moment(st, phi, n) for n in range(1, order + 1)]
        y = forward_output_moments(mech, co)
        ms.values[k, 1:order + 1], ms.cov[k, :order, :order] = invert_hierarchy(
            y, np.zeros((order, order)), co)
    ms.mixed = mixed_moment_recovery(ms)
    est = assemble_curve(ms)
    ref = assemble_curve(exact_moment_set(st))
    lam = np.linspace(-0.2, 0.4, 101)
    assert np.max(np.abs(est(lam) - ref(lam))) < 1e-10


def test_run_reconstruction_recovers_curve():
    st = cubic_state()
    ms, curve = run_reconstruction(sampling_tables(st), STANDARD_CO, 200_000, seed=7)
    for k, n in ((Q, 1), (Q, 4), (P, 3), (PLUS, 3)):
        assert math.isfinite(ms.values[k, n])
    # estimates land within a few propagated errors of the closed forms
    assert abs(curve.a0 - 0.545) < 4.0 * math.sqrt(curve.cov[0, 0])
    assert abs(curve(0.1) - 0.5) < 4.0 * curve.error(0.1)


def test_run_reconstruction_deterministic():
    tables = sampling_tables(cubic_state(N=64))
    _, c1 = run_reconstruction(tables, STANDARD_CO, 5000, seed=13)
    _, c2 = run_reconstruction(tables, STANDARD_CO, 5000, seed=13)
    assert (c1.a0, c1.a1, c1.a2) == (c2.a0, c2.a1, c2.a2)


@pytest.mark.parametrize("params", [STANDARD, dataclasses.replace(STANDARD, Gamma_m=1e-7)],
                         ids=["clean", "hot"])
def test_estimator_error_calibration(params):
    # propagated sigma should match the scatter of independent runs within
    # the two-sided 99.9% chi-square band of a 50-replicate deviation, and
    # the 1-sigma interval should cover the truth at a plausible rate
    st = cubic_state()
    true_v = assemble_curve(exact_moment_set(st))(0.1)
    tables = sampling_tables(st)
    hits = 0
    values = []
    errors = []
    for r in range(50):
        _, curve = run_reconstruction(tables, channel_coefficients(params), 100_000,
                                      derive_seed(303, r))
        values.append(curve(0.1))
        errors.append(curve.error(0.1))
        if abs(curve(0.1) - true_v) <= curve.error(0.1):
            hits += 1
    coverage = hits / 50.0
    assert 0.55 <= coverage <= 0.95
    scatter = float(np.std(values, ddof=1))
    assert 0.74 < float(np.mean(errors)) / scatter < 1.47


# ------------------------------------------------------------- ensemble

def test_ensemble_requires_replicates():
    with pytest.raises(ValueError):
        ensemble_run(sampling_tables(cubic_state(N=64)), STANDARD_CO, 1000, 1, 5)


def test_ensemble_statistics_shapes():
    tables = sampling_tables(cubic_state(N=64))
    lam = np.linspace(-0.1, 0.3, 21)
    rep = ensemble_run(tables, STANDARD_CO, 2000, 3, 17)
    v_mean, v_std = rep.v_stats(lam)
    assert v_mean.shape == (21,)
    assert v_std.shape == (21,)
    assert np.all(v_std >= 0.0)
    assert len(rep.seeds) == 3
    assert len(set(rep.seeds)) == 3
    assert rep.coeff_values["a0"].shape == (3,)
    # curve evaluation consistency: v_mean equals the mean of curves
    mid = 10
    per_rep = rep.v_at(lam[mid])
    assert v_mean[mid] == pytest.approx(float(per_rep.mean()), rel=1e-12)


def test_ensemble_deterministic_and_thread_invariant():
    tables = sampling_tables(cubic_state(N=64))
    lam = np.linspace(0.0, 0.2, 5)
    a = ensemble_run(tables, STANDARD_CO, 3000, 4, 23).v_stats(lam)
    b = ensemble_run(tables, STANDARD_CO, 3000, 4, 23).v_stats(lam)
    c = ensemble_run(tables, STANDARD_CO, 3000, 4, 23, threads=4).v_stats(lam)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[0], c[0])
    np.testing.assert_array_equal(a[1], c[1])


def test_adiabatic_warning_only_when_the_channel_is_built():
    tables = sampling_tables(cubic_state(N=64))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=5.0)
        assert len(caught) == 1 and "adiabatic" in str(caught[0].message)
        ensemble_run(tables, channel_coefficients(params), 1000, 3, 29)
    assert len(caught) == 1


# ------------------------------------------------------------- seeds

def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(0) == derive_seed(0)
    assert 0 <= derive_seed(123, 456) < 2 ** 64
    # frozen: the chain must never drift between releases
    assert derive_seed(0, 0) == 15793235383387715774
