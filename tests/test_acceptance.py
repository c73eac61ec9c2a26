"""Acceptance gate: one test per shipping criterion, run at full scale.

Each test records a one-line verdict through conftest.record_criterion so
the terminal summary shows the whole gate at a glance, then asserts.
The heavy Monte-Carlo criteria (06-08) take tens of seconds combined.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import record_criterion
from nlsqueeze.estimate import derive_seed, ensemble_run, invert_hierarchy
from nlsqueeze.hilbert import QuantumState, quadrature_moment
from nlsqueeze.nlsq import assemble_curve, classical_threshold, exact_moment_set, second_moment
from nlsqueeze.readout import (ChannelParams, channel_coefficients, forward_output_moments,
                               sampling_tables)
from nlsqueeze.runner import main
from nlsqueeze.states import StateSpec, make_state

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HALF_PI = math.pi / 2.0

# G = 0.1 kappa, kappa tau = 1e3, n_bar Gamma_m = 1e-5 kappa
CLEAN = ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3)


def conclude(name, ok, detail):
    record_criterion(name, ok, detail)
    assert ok, f"{name}: {detail}"


def detection_passes(rep, slack=3.0):
    """Squeezing detected at lambda = 0.1: ensemble mean consistent with
    the analytic 0.5 and mean + sigma below the 0.545 benchmark."""
    vals = rep.v_at(0.1)
    mean = float(np.mean(vals))
    sigma = float(np.std(vals, ddof=1))
    ok = abs(mean - 0.5) <= slack * sigma and mean + sigma < 0.545
    return ok, mean, sigma


def test_criterion_01_vacuum_threshold():
    t0 = time.perf_counter()
    m = exact_moment_set(make_state(StateSpec(kind="vacuum", N=32)))
    lams = np.linspace(-0.3, 0.3, 101)
    worst = max(abs(assemble_curve(m)(l) - classical_threshold(l)) for l in lams)
    dt = time.perf_counter() - t0
    conclude("01 vacuum curve equals classical threshold",
             worst <= 1e-12 and dt < 1.0,
             f"max dev {worst:.1e} (tol 1e-12), {dt:.2f} s")


def test_criterion_02_cubic_analytic_curve():
    t0 = time.perf_counter()
    lams = np.linspace(-0.2, 0.4, 101)
    worst = 0.0
    for gamma in (0.05, 0.1, 0.2):
        m = exact_moment_set(make_state(
            StateSpec(kind="cubic_phase", gamma=gamma, N=128)))
        for l in lams:
            ref = 0.5 * (1.0 + 9.0 * (gamma - l) ** 2)
            worst = max(worst, abs(assemble_curve(m)(l) - ref))
    dt = time.perf_counter() - t0
    conclude("02 cubic approximant matches closed-form curve",
             worst <= 1e-4 and dt < 10.0,
             f"max dev {worst:.1e} (tol 1e-4), {dt:.2f} s")


def test_criterion_03_coherent_bound():
    worst = 0.0
    for lam in (0.05, 0.1, 0.2):
        beta = 3j * lam / (2.0 * math.sqrt(2.0))
        m = exact_moment_set(make_state(
            StateSpec(kind="coherent", beta=beta, N=64)))
        worst = max(worst, abs(second_moment(m, lam) - classical_threshold(lam)))
    conclude("03 matched coherent state attains the threshold",
             worst <= 1e-6, f"max dev {worst:.1e} (tol 1e-6)")


def test_criterion_04_classicality_floor():
    rng = np.random.default_rng(20260822)
    lams = np.linspace(-0.3, 0.3, 61)
    thr = np.array([classical_threshold(l) for l in lams])
    floor = math.inf
    for _ in range(200):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        vectors = []
        for _ in weights:
            beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            vectors.append(make_state(StateSpec(kind="coherent", beta=beta, N=48)).vectors)
        m = exact_moment_set(QuantumState(vectors=np.hstack(vectors), weights=weights))
        v = np.array([assemble_curve(m)(l) for l in lams])
        floor = min(floor, float(np.min(v - thr)))
    conclude("04 coherent mixtures never beat the threshold",
             floor >= -1e-8, f"min margin {floor:.1e} (floor -1e-8)")


def test_criterion_05_round_trip_inversion():
    t0 = time.perf_counter()
    specs = [StateSpec(kind="vacuum", N=32),
             StateSpec(kind="thermal", n_bar=1.0, N=64),
             StateSpec(kind="coherent", beta=1.0, N=64),
             StateSpec(kind="cubic_phase", gamma=0.1, N=128)]
    states = [make_state(s) for s in specs]
    moments = [{phi: [quadrature_moment(st, phi, n) for n in range(1, 5)]
                for phi in (0.0, HALF_PI)} for st in states]
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(20):
        tau = rng.uniform(20.0, 2000.0)
        x = 0.0 if i % 5 == 0 else rng.uniform(0.0, 0.5)
        params = ChannelParams(G=rng.uniform(0.05, 0.5), Gamma_m=x / tau,
                               n_bar=rng.uniform(0.0, 100.0), tau=tau)
        phi = 0.0 if i % 2 == 0 else HALF_PI
        coeffs = channel_coefficients(params)
        for m in moments:
            exact = m[phi]
            ys = forward_output_moments(exact, coeffs)
            rec, _ = invert_hierarchy(ys, np.zeros((4, 4)), coeffs)
            worst = max(worst, float(np.max(np.abs(rec - exact))))
    dt = time.perf_counter() - t0
    conclude("05 moment hierarchy inverts exactly",
             worst <= 1e-10 and dt < 5.0,
             f"max dev {worst:.1e} (tol 1e-10), {dt:.2f} s")


def test_criterion_06_clean_point_monte_carlo():
    t0 = time.perf_counter()
    state = make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128))
    tables = sampling_tables(state)
    rep = ensemble_run(tables, channel_coefficients(CLEAN), 10 ** 6, 20, derive_seed(6, 0),
                       threads=4)
    ok_full, mean, sigma = detection_passes(rep, slack=3.0)
    quick = ensemble_run(tables, channel_coefficients(CLEAN), 10 ** 5, 5, derive_seed(6, 1),
                         threads=4)
    ok_quick, mean_q, sigma_q = detection_passes(quick, slack=4.0)
    dt = time.perf_counter() - t0
    conclude("06 clean-regime reconstruction finds the squeezing",
             ok_full and ok_quick and dt < 60.0,
             f"full V(0.1) = {mean:.5f} +- {sigma:.1e}, "
             f"quick {mean_q:.4f} +- {sigma_q:.1e}, {dt:.1f} s")


def test_criterion_07_thermalisation_degrades_errors():
    tables = sampling_tables(make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128)))
    sigmas = []
    R = 20
    for i, prod in enumerate((1e-4, 1e-2, 1.0, 1e2)):
        params = replace(CLEAN, Gamma_m=prod / (CLEAN.n_bar * CLEAN.tau))
        rep = ensemble_run(tables, channel_coefficients(params), 10 ** 5, R, derive_seed(7, i),
                           threads=4)
        sigmas.append(float(np.std(rep.v_at(0.3), ddof=1)))
    # sample std of R gaussian draws has relative error ~1/sqrt(2(R-1))
    se = [s / math.sqrt(2.0 * (R - 1)) for s in sigmas]
    steps = all(sigmas[i + 1] >= sigmas[i] - 2.0 * math.hypot(se[i], se[i + 1])
                for i in range(len(sigmas) - 1))
    ratio = sigmas[-1] / sigmas[0]
    conclude("07 error bars grow with the rethermalisation product",
             steps and ratio >= 10.0,
             "sigma = " + ", ".join(f"{s:.2e}" for s in sigmas)
             + f"; ratio {ratio:.0f} (need >= 10)")


def test_criterion_08_cooperativity_regimes():
    t0 = time.perf_counter()
    tables = sampling_tables(make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128)))
    base = replace(CLEAN, Gamma_m=1e-8)  # n_bar Gamma_m = 1e-4 kappa
    verdicts = {}
    stats = {}
    for i, C in enumerate((1e-3, 0.1, 10.0)):
        G = math.sqrt(C * base.n_bar * base.Gamma_m * base.kappa)
        rep = ensemble_run(tables, channel_coefficients(replace(base, G=G)), 10 ** 6, 20,
                           derive_seed(8, i), threads=4)
        ok, mean, sigma = detection_passes(rep)
        verdicts[C] = ok
        stats[C] = (mean, sigma)
    dt = time.perf_counter() - t0
    conclude("08 detection holds for C >= 0.1 and breaks at C = 1e-3",
             verdicts[0.1] and verdicts[10.0] and not verdicts[1e-3],
             f"C=1e-3 {'passed' if verdicts[1e-3] else 'failed'} "
             f"(V = {stats[1e-3][0]:.2g} +- {stats[1e-3][1]:.2g}), "
             f"C=0.1 ok, C=10 ok, {dt:.1f} s")


def test_criterion_09_preset_determinism(tmp_path):
    cfg = str(CONFIGS / "cooperativity.cfg")
    args = ["sweep", "--config", cfg, "--mode", "quick", "--seed", "31"]
    rc_a = main(args + ["--out", str(tmp_path / "a")])
    rc_b = main(args + ["--out", str(tmp_path / "b")])
    same = all((tmp_path / "a" / name).read_bytes()
               == (tmp_path / "b" / name).read_bytes()
               for name in ("sweep.csv", "plot.csv"))
    conclude("09 same preset and seed give byte-identical CSVs",
             rc_a == 0 and rc_b == 0 and same,
             "sweep.csv and plot.csv compared byte for byte")
