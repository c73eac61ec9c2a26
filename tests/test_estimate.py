import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nlsqueeze import estimate
from nlsqueeze.errors import ChannelConditionError, DataError
from nlsqueeze.estimate import (
    PowerSums,
    derive_seed,
    empirical_moments,
    ensemble_run,
    invert_hierarchy,
    run_reconstruction,
)
from nlsqueeze.hilbert import MAX_MOMENT_ORDER, quadrature_moment
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
from nlsqueeze.readout import (SAMPLE_BLOCK, BlockBuffers, ChannelParams, channel_coefficients,
                               forward_output_moments, hierarchy_matrix, output_table,
                               schedule_masses)
from nlsqueeze.states import StateSpec, make_state

from oracles import draw_cells, lattice_table, record_moments

STANDARD = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3)
STANDARD_CO = channel_coefficients(STANDARD)


def cubic_state(gamma=0.1, N=128):
    return make_state(StateSpec(kind="cubic_phase", gamma=gamma, N=N))


def output_tables(state, coeffs=STANDARD_CO):
    """The state's output tables through coeffs, one per schedule row, as
    ensemble_run builds them."""
    return tuple(output_table(m, coeffs) for m in schedule_masses(state))


# ------------------------------------------------------------- empirical

def test_empirical_moments_basic():
    x = np.full(200, 2.0)
    means, cov = record_moments(x, 3).moments()
    assert means[0] == pytest.approx(2.0, rel=1e-14)
    assert means[2] == pytest.approx(8.0, rel=1e-14)
    assert cov[1, 1] == pytest.approx(0.0, abs=1e-24)


def test_empirical_moments_standard_normal():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1_000_000)
    means, cov = record_moments(x, 2).moments()
    assert means[1] == pytest.approx(1.0, abs=5.0 * math.sqrt(2.0) / 1e3)
    assert math.sqrt(cov[1, 1]) == pytest.approx(math.sqrt(2.0) / 1e3, rel=0.05)


def test_empirical_moments_survives_huge_values():
    # the power sums are scaled, so eighth powers of 1e60 still work;
    # the covariance of the fourth power, about 1e480, is inf without a warning
    x = np.linspace(-1e60, 1e60, 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        means, cov = record_moments(x, 4).moments()
    assert np.all(np.isfinite(means))
    assert means[3] > 0
    assert cov[3, 3] == math.inf


@pytest.mark.parametrize("count", [100, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   7 * SAMPLE_BLOCK // 2])
def test_empirical_moments_blockwise_matches_fsum(count):
    x = 1.5 + np.random.default_rng(count).standard_normal(count)
    means, cov = record_moments(x, 4).moments()
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
        record_moments(x, 2).moments()


def test_empirical_moments_input_validation():
    with pytest.raises(ValueError):
        record_moments(np.zeros(99), 2).moments()
    with pytest.raises(ValueError):
        record_moments(np.zeros(500), 5)
    with pytest.raises(ValueError):
        record_moments(np.zeros(500), 0)
    bad = np.zeros(500)
    bad[3] = np.nan
    with pytest.raises(DataError):
        record_moments(bad, 2).moments()
    bad[3] = np.inf
    with pytest.raises(DataError):
        record_moments(bad, 2).moments()
    # finite samples whose fourth power is not a float
    with pytest.raises(DataError, match="overflows"):
        record_moments(np.array([1e100, -3e99] * 100), 4).moments()
    # the guard tests the true max, not its power-of-two scale: 1.8 * 2^255
    # has a finite fourth power although 2^256 has none, and 2^341.5 has no
    # finite cube although 2^341 has one
    means, _ = record_moments(np.full(200, 1.8 * 2.0 ** 255), 4).moments()
    assert np.isfinite(means).all()
    with pytest.raises(DataError, match="overflows"):
        record_moments(np.full(200, 2.0 ** 341.5), 3).moments()


@pytest.mark.parametrize("block", [np.zeros(SAMPLE_BLOCK + 1, np.intp), np.zeros((2, 200), np.intp),
                                   np.zeros(0, np.intp)],
                         ids=["B+1", "2-d", "empty"])
def test_empirical_moments_takes_one_block(block):
    sums = PowerSums(2, lattice_table([0.0])[0])
    with pytest.raises(ValueError, match="1-d block"):
        empirical_moments(block, sums)
    assert sums.count == 0


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
    hinv = np.linalg.inv(hierarchy_matrix(co.c_Q, co.noise_var, 4)[1:, 1:])
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


# the hottest channel of criterion 07 (n_bar Gamma_m tau = 1e2) and the
# weakest of criterion 08 (cooperativity 1e-3)
HOT = dataclasses.replace(STANDARD, Gamma_m=1e2 / (STANDARD.n_bar * STANDARD.tau))
WEAK = dataclasses.replace(STANDARD, Gamma_m=1e-8,
                           G=math.sqrt(1e-3 * STANDARD.n_bar * 1e-8 * STANDARD.kappa))


@pytest.mark.parametrize("params", [STANDARD, HOT, WEAK], ids=["standard", "hot", "weak"])
def test_inverse_hierarchy_is_the_inverse(params):
    # An entry of H or Hinv is a product of at most n + 1 rounded factors,
    # so a product through both is off by at most about 2 (n + 1) eps of
    # |Hinv| |H| (measured: up to 3 eps).  That bound is the conditioning:
    # it reaches 2.6e14 on the weak channel at n = 8, where the inverse
    # holds only a few digits.
    co = channel_coefficients(params)
    st = cubic_state()
    eps = np.finfo(float).eps
    for n in range(1, MAX_MOMENT_ORDER + 1):
        H = hierarchy_matrix(co.c_Q, co.noise_var, n)
        Hinv = hierarchy_matrix(1.0 / co.c_Q, -co.noise_var / co.c_Q ** 2, n)
        bound = np.abs(Hinv) @ np.abs(H)
        tol = 2 * (n + 1) * eps
        assert np.all(np.abs(Hinv @ H - np.eye(n + 1)) <= tol * bound)
        for phi in (0.0, 0.7):
            q = np.array([quadrature_moment(st, phi, k) for k in range(1, n + 1)])
            back, _ = invert_hierarchy(forward_output_moments(q, co), np.zeros((n, n)), co)
            assert np.all(np.abs(back - q) <= tol * (bound @ np.r_[1.0, np.abs(q)])[1:])


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
    ms, curve = run_reconstruction(output_tables(st), STANDARD_CO, 200_000, seed=7)
    for k, n in ((Q, 1), (Q, 4), (P, 3), (PLUS, 3)):
        assert math.isfinite(ms.values[k, n])
    # estimates land within a few propagated errors of the closed forms
    assert abs(curve.a0 - 0.545) < 4.0 * math.sqrt(curve.cov[0, 0])
    assert abs(curve(0.1) - 0.5) < 4.0 * curve.error(0.1)


def test_run_reconstruction_deterministic():
    tables = output_tables(cubic_state(N=64))
    _, c1 = run_reconstruction(tables, STANDARD_CO, 5000, seed=13)
    _, c2 = run_reconstruction(tables, STANDARD_CO, 5000, seed=13)
    assert (c1.a0, c1.a1, c1.a2) == (c2.a0, c2.a1, c2.a2)


@pytest.mark.parametrize("count", [100, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   7 * SAMPLE_BLOCK // 2],
                         ids=["100", "B-1", "B", "B+1", "7B/2"])
def test_one_pass_reconstruction_equals_the_record_path(count):
    # run_reconstruction draws and sums each block in one pass; the whole
    # record drawn first and summed after gives every row's moments and
    # covariance bit for bit
    tables = output_tables(cubic_state(N=64))
    seed = 41
    ms, _ = run_reconstruction(tables, STANDARD_CO, count, seed)
    for k, (table, (_, order)) in enumerate(zip(tables, PHASE_ORDERS, strict=True)):
        cells = draw_cells(table, count, derive_seed(seed, k))
        q, q_cov = invert_hierarchy(*record_moments(cells, order, table).moments(), STANDARD_CO)
        np.testing.assert_array_equal(ms.values[k, 1:order + 1], q)
        np.testing.assert_array_equal(ms.cov[k, :order, :order], q_cov)


@pytest.mark.parametrize("count", [100, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   7 * SAMPLE_BLOCK // 2],
                         ids=["100", "B-1", "B", "B+1", "7B/2"])
def test_reconstruction_equals_one_count_of_the_whole_record(count):
    # the counts are integers, so the record's cells counted by one
    # np.bincount give run_reconstruction's moments bit for bit, however
    # it splits the record into blocks; and the output moments are the
    # record's power sums to 1e-12
    tables = output_tables(cubic_state(N=64))
    seed = 29
    ms, _ = run_reconstruction(tables, STANDARD_CO, count, seed)
    for k, (table, (_, order)) in enumerate(zip(tables, PHASE_ORDERS, strict=True)):
        cells = draw_cells(table, count, derive_seed(seed, k))
        sums = PowerSums(order, table)
        sums.counts += np.bincount(cells, minlength=table.x.size)
        means, cov = sums.moments()
        q, q_cov = invert_hierarchy(means, cov, STANDARD_CO)
        np.testing.assert_array_equal(ms.values[k, 1:order + 1], q)
        np.testing.assert_array_equal(ms.cov[k, :order, :order], q_cov)
        y = table.x[cells]
        for n in range(1, order + 1):
            assert means[n - 1] == pytest.approx(math.fsum(y ** n) / count, rel=1e-12, abs=0.0)


def test_one_pass_rejects_non_finite_in_last_partial_block(monkeypatch):
    # each table carries one more node, a NaN, which only the last sample
    # of the last, partial block hits; a NaN node no sample hits is no fault
    count = 7 * SAMPLE_BLOCK // 2
    last = count // SAMPLE_BLOCK
    tables = tuple(dataclasses.replace(t, x=np.append(t.x, np.nan))
                   for t in output_tables(cubic_state(N=64)))
    run_reconstruction(tables, STANDARD_CO, count, 3)
    draw = estimate.sample_homodyne

    def spoiled(table, seed, m, block, buf):
        cells = draw(table, seed, m, block, buf)
        if block == last:
            cells[-1] = table.x.size - 1
        return cells

    monkeypatch.setattr(estimate, "sample_homodyne", spoiled)
    with pytest.raises(DataError, match="non-finite"):
        run_reconstruction(tables, STANDARD_CO, count, 3)


def test_reconstruction_calls_keep_the_traced_shapes(monkeypatch):
    # the benchmark's tracer wraps estimate's bindings and reads the count
    # as argument 2 of sample_homodyne and the block as argument 0 of
    # empirical_moments; every block drawn is summed before the next
    count, seed = 7 * SAMPLE_BLOCK // 2, 8
    draw, add = estimate.sample_homodyne, estimate.empirical_moments
    calls = []

    def traced_draw(*args):
        block = draw(*args)
        calls.append(("draw", args, block))
        return block

    def traced_add(*args):
        calls.append(("add", args, None))
        return add(*args)

    monkeypatch.setattr(estimate, "sample_homodyne", traced_draw)
    monkeypatch.setattr(estimate, "empirical_moments", traced_add)
    run_reconstruction(output_tables(cubic_state(N=64)), STANDARD_CO, count, seed)
    blocks = 4  # per phase: three whole blocks and a half one
    assert [kind for kind, _, _ in calls] == ["draw", "add"] * (len(PHASE_ORDERS) * blocks)
    for (_, _, block), (_, args, _) in zip(calls[::2], calls[1::2]):
        assert args[0] is block
    for k in range(len(PHASE_ORDERS)):
        drawn = [args for _, args, _ in calls[::2] if args[1] == derive_seed(seed, k)]
        assert sum(args[2] for args in drawn) == count
        assert [args[3] for args in drawn] == list(range(blocks))


def test_one_pass_allocates_no_per_block_array():
    # beyond the buffers made once per reconstruction, the small arrays of
    # the straddle search stay below SAMPLE_BLOCK bytes; a per-block array
    # of even one byte per sample would push the peak past it
    tables = output_tables(cubic_state(N=64))
    run_reconstruction(tables, STANDARD_CO, SAMPLE_BLOCK, 1)  # warm up
    buffers = sum(a.nbytes for a in vars(BlockBuffers()).values()
                  if isinstance(a, np.ndarray))
    tracemalloc.start()
    try:
        run_reconstruction(tables, STANDARD_CO, 4 * SAMPLE_BLOCK, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - buffers < SAMPLE_BLOCK


CALIBRATION_R = 200


def calibration_bands(R: int):
    """(hits_lo, hits_hi, ratio_lo, ratio_hi) for R replicates, at the
    false-alarm rates of the R = 50 bands they replace.  The 1-sigma
    interval covers the truth with p = erf(1/sqrt 2), so the hits are
    Binomial(R, p), whose tails below 28 and above 47 hits at R = 50
    (coverage 0.55 and 0.95) hold 0.024 and 1.5e-6.  (R - 1) s^2 / sigma^2
    of the replicate deviation s is chi-square with R - 1 degrees of
    freedom, and the mean propagated sigma over s keeps its two-sided
    99.9% band."""
    from scipy.special import bdtr, bdtrc, chdtri  # binomial cdf and sf, chi-square isf

    p = math.erf(1.0 / math.sqrt(2.0))
    low, high = bdtr(27, 50, p), bdtrc(47, 50, p)
    # the narrowest band with P(hits < lo) <= low and P(hits > hi) <= high
    return (np.count_nonzero(bdtr(np.arange(R + 1), R, p) <= low),
            R - np.count_nonzero(bdtrc(np.arange(R), R, p) <= high),
            math.sqrt((R - 1) / chdtri(R - 1, 5e-4)), math.sqrt((R - 1) / chdtri(R - 1, 1 - 5e-4)))


def test_calibration_bands_extend_the_fifty_replicate_gate():
    # at R = 50 the bands are the gate's own, 0.55..0.95 and 0.74..1.47
    lo, hi, rlo, rhi = calibration_bands(50)
    assert (lo, hi) == (28, 47)
    assert 0.74 < rlo < 0.75 and 1.46 < rhi < 1.47
    lo, hi, rlo, rhi = calibration_bands(CALIBRATION_R)
    assert (lo, hi) == (123, 166)
    assert 0.856 < rlo < 0.857 and 1.192 < rhi < 1.194


@pytest.mark.parametrize("params", [STANDARD, dataclasses.replace(STANDARD, Gamma_m=1e-7)],
                         ids=["clean", "hot"])
def test_estimator_error_calibration(params):
    # propagated sigma should match the scatter of CALIBRATION_R
    # independent runs, and the 1-sigma interval should cover the truth at
    # a plausible rate, both within calibration_bands
    st = cubic_state()
    true_v = assemble_curve(exact_moment_set(st))(0.1)
    co = channel_coefficients(params)
    tables = output_tables(st, co)
    hits = 0
    values = []
    errors = []
    for r in range(CALIBRATION_R):
        _, curve = run_reconstruction(tables, co, 100_000, derive_seed(303, r))
        values.append(curve(0.1))
        errors.append(curve.error(0.1))
        if abs(curve(0.1) - true_v) <= curve.error(0.1):
            hits += 1
    lo, hi, ratio_lo, ratio_hi = calibration_bands(CALIBRATION_R)
    assert lo <= hits <= hi
    scatter = float(np.std(values, ddof=1))
    assert ratio_lo < float(np.mean(errors)) / scatter < ratio_hi


# ------------------------------------------------------------- ensemble

def test_ensemble_requires_replicates():
    with pytest.raises(ValueError):
        ensemble_run(schedule_masses(cubic_state(N=64)), STANDARD_CO, 1000, 1, 5)


def test_ensemble_statistics_shapes():
    masses = schedule_masses(cubic_state(N=64))
    lam = np.linspace(-0.1, 0.3, 21)
    rep = ensemble_run(masses, STANDARD_CO, 2000, 3, 17)
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


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_keeps_each_replicates_curve(threads):
    state = cubic_state(N=64)
    rep = ensemble_run(schedule_masses(state), STANDARD_CO, 1500, 3, 41, threads=threads)
    assert len(rep.curves) == 3
    tables = output_tables(state)
    for r, curve in enumerate(rep.curves):
        _, alone = run_reconstruction(tables, STANDARD_CO, 1500, derive_seed(41, r))
        assert (curve.a0, curve.a1, curve.a2) == (alone.a0, alone.a1, alone.a2)
        np.testing.assert_array_equal(curve.cov, alone.cov)
        assert rep.v_at(0.1)[r] == curve(0.1)
    lam = np.linspace(-0.1, 0.3, 5)
    np.testing.assert_array_equal(rep.v_at(lam), [c(lam) for c in rep.curves])
    np.testing.assert_array_equal(rep.coeff_values["a1"], [c.a1 for c in rep.curves])


def test_ensemble_deterministic_and_thread_invariant():
    masses = schedule_masses(cubic_state(N=64))
    lam = np.linspace(0.0, 0.2, 5)
    a = ensemble_run(masses, STANDARD_CO, 3000, 4, 23).v_stats(lam)
    b = ensemble_run(masses, STANDARD_CO, 3000, 4, 23).v_stats(lam)
    c = ensemble_run(masses, STANDARD_CO, 3000, 4, 23, threads=4).v_stats(lam)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[0], c[0])
    np.testing.assert_array_equal(a[1], c[1])


def test_adiabatic_warning_only_when_the_channel_is_built():
    masses = schedule_masses(cubic_state(N=64))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=5.0)
        assert len(caught) == 1 and "adiabatic" in str(caught[0].message)
        ensemble_run(masses, channel_coefficients(params), 1000, 3, 29)
    assert len(caught) == 1


# ------------------------------------------------------------- seeds

def test_derive_seed_stable_and_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(0) == derive_seed(0)
    assert 0 <= derive_seed(123, 456) < 2 ** 64
    # frozen: the chain must never drift between releases
    assert derive_seed(0, 0) == 15793235383387715774
