import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsqueeze.estimate import run_reconstruction
from nlsqueeze.nlsq import (
    MAX_ORDER,
    MINUS,
    P,
    PHASE_ORDERS,
    PLUS,
    Q,
    MomentSet,
    NlsCurve,
    assemble_curve,
    classical_threshold,
    exact_moment_set,
    mixed_moment_recovery,
    resource_condition,
    second_moment,
)
from nlsqueeze.readout import ChannelParams, channel_coefficients, output_table, schedule_masses
from nlsqueeze.states import StateSpec, make_state

import oracles


def analytic_set(moments: dict) -> MomentSet:
    """MomentSet of a {(phase, n): value, "mixed": value} dict, covariance 0."""
    row = {phase: k for k, (phase, _) in enumerate(PHASE_ORDERS)}
    m = MomentSet()
    for key, value in moments.items():
        if key == "mixed":
            m.mixed = value
        else:
            phase, n = key
            m.values[row[phase], n] = value
    return m


def vacuum_set() -> MomentSet:
    return analytic_set(oracles.coherent_moment_dict(0j))


# ------------------------------------------------------------- moment set

def test_named_rows_match_the_schedule():
    assert [PHASE_ORDERS[k][0] for k in (Q, P, PLUS, MINUS)] == [
        0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0]


def reconstructed_set(state) -> MomentSet:
    co = channel_coefficients(ChannelParams(G=0.1, Gamma_m=1e-9, n_bar=1e4, tau=1e3))
    tables = tuple(output_table(m, co) for m in schedule_masses(state))
    return run_reconstruction(tables, co, 1000, seed=3)[0]


@pytest.mark.parametrize("build", [exact_moment_set, reconstructed_set],
                         ids=["exact", "reconstructed"])
def test_exact_moment_set_fills_the_schedule(build):
    m = build(make_state(StateSpec(kind="vacuum", N=16)))
    filled = [[1 <= n <= order for n in range(MAX_ORDER + 1)] for _, order in PHASE_ORDERS]
    np.testing.assert_array_equal(np.isfinite(m.values), filled)
    assert np.isfinite(m.cov).all() and math.isfinite(m.mixed)
    # no covariance outside a row's orders
    inside = np.array([np.outer(row[1:], row[1:]) for row in filled])
    np.testing.assert_array_equal(m.cov[~inside], 0.0)


# ------------------------------------------------------------- curve

def test_vacuum_curve_is_threshold():
    m = vacuum_set()
    for lam in np.linspace(-0.3, 0.3, 101):
        assert assemble_curve(m)(lam) == pytest.approx(
            classical_threshold(lam), abs=1e-12)


def test_vacuum_minimum_at_zero():
    m = vacuum_set()
    lams = np.linspace(-0.5, 0.5, 2001)
    vals = [assemble_curve(m)(l) for l in lams]
    assert min(vals) == pytest.approx(0.5, abs=1e-12)
    assert abs(lams[int(np.argmin(vals))]) < 1e-4


def test_cubic_curve_coefficients_frozen():
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128))
    c = assemble_curve(exact_moment_set(st_))
    assert c.a0 == pytest.approx(0.545, abs=1e-6)
    assert c.a1 == pytest.approx(-0.9, abs=1e-6)
    assert c.a2 == pytest.approx(4.5, abs=1e-6)
    assert c(0.1) == pytest.approx(0.5, abs=1e-6)


def test_curve_and_variance_agree_bitwise():
    # V(lambda) at one lambda equals the entry of the curve on an array
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.15, N=128))
    c = assemble_curve(exact_moment_set(st_))
    lams = (-0.2, 0.0, 0.1, 0.37)
    assert [c(lam) for lam in lams] == list(c(np.array(lams)))


def test_variance_against_dense_oracle():
    rho = oracles.oracle_cubic(0.12, 128)
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.12, N=128))
    m = exact_moment_set(st_)
    for lam in (-0.1, 0.05, 0.25):
        assert assemble_curve(m)(lam) == pytest.approx(
            oracles.oracle_nls_variance(rho, lam), abs=1e-7)


def test_curve_error_propagation():
    c = NlsCurve(a0=0.5, a1=-0.9, a2=4.5, cov=np.diag([0.01, 0.1, 0.5]) ** 2)
    lam = 0.2
    expected = math.sqrt(0.01 ** 2 + (lam * 0.1) ** 2 + (lam * lam * 0.5) ** 2)
    assert c.error(lam) == pytest.approx(expected, rel=1e-12)
    # coupled coefficients: the variance expanded in powers of lambda
    cov = 1e-4 * np.array([[4.0, 1.0, -0.5], [1.0, 9.0, 2.0], [-0.5, 2.0, 25.0]])
    c = NlsCurve(a0=0.5, a1=-0.9, a2=4.5, cov=cov)
    lams = np.array([-0.3, 0.0, 0.2])
    var = (cov[0, 0] + 2.0 * lams * cov[0, 1] + lams ** 2 * (cov[1, 1] + 2.0 * cov[0, 2])
           + 2.0 * lams ** 3 * cov[1, 2] + lams ** 4 * cov[2, 2])
    np.testing.assert_allclose(c.error(lams), np.sqrt(var), rtol=1e-12, atol=0.0)
    assert c.error(0.2) == pytest.approx(math.sqrt(var[2]), rel=1e-12)


def _coefficients(m: MomentSet) -> np.ndarray:
    m.mixed = mixed_moment_recovery(m)
    c = assemble_curve(m)
    return np.array([c.a0, c.a1, c.a2])


def test_curve_covariance_matches_central_differences():
    # the coefficients are quadratic in the moments, so central differences
    # give their gradient to rounding; a displaced state makes every term count
    inner = StateSpec(kind="cubic_phase", gamma=0.1, N=96)
    m = exact_moment_set(make_state(StateSpec(kind="displaced", alpha=0.3 + 0.4j, N=96,
                                              inner=inner)))
    rng = np.random.default_rng(12)
    h = 1e-4
    expected = np.zeros((3, 3))
    for k, (_, order) in enumerate(PHASE_ORDERS):
        a = rng.normal(size=(order, order))
        m.cov[k, :order, :order] = a @ a.T  # a random PSD covariance per row
        grad = np.empty((3, order))
        for n in range(1, order + 1):
            ends = []
            for step in (h, -h):
                shifted = copy.deepcopy(m)
                shifted.values[k, n] += step
                ends.append(_coefficients(shifted))
            grad[:, n - 1] = (ends[0] - ends[1]) / (2.0 * h)
        expected += grad @ m.cov[k, :order, :order] @ grad.T
    np.testing.assert_allclose(assemble_curve(m).cov, expected, rtol=1e-8, atol=0.0)


# ------------------------------------------------------------- second moment

def test_second_moment_exceeds_variance():
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128))
    m = exact_moment_set(st_)
    for lam in (-0.1, 0.0, 0.1, 0.3):
        assert second_moment(m, lam) >= assemble_curve(m)(lam) - 1e-12


def test_matched_displacement_closes_gap():
    # after shifting p by the matched amount, V2 collapses onto V
    gamma, lam = 0.1, 0.2
    base = StateSpec(kind="cubic_phase", gamma=gamma, N=96)
    m = exact_moment_set(make_state(base))
    pbar = 3.0 * lam * m.values[Q, 2] - m.values[P, 1]
    shifted = StateSpec(kind="displaced", alpha=1j * pbar / math.sqrt(2.0),
                        inner=base, N=96)
    m2 = exact_moment_set(make_state(shifted))
    assert second_moment(m2, lam) == pytest.approx(assemble_curve(m)(lam), abs=1e-7)


def test_variance_invariant_under_momentum_displacement():
    base = StateSpec(kind="cubic_phase", gamma=0.1, N=96)
    m0 = exact_moment_set(make_state(base))
    for pbar in (-2.0, -0.5, 0.5, 2.0):
        spec = StateSpec(kind="displaced", alpha=1j * pbar / math.sqrt(2.0),
                         inner=base, N=96)
        m = exact_moment_set(make_state(spec))
        for lam in (-0.1, 0.1, 0.3):
            assert assemble_curve(m)(lam) == pytest.approx(
                assemble_curve(m0)(lam), abs=1e-8)


def test_coherent_bound_attained():
    lam = 0.1
    beta = 3j * lam / (2.0 * math.sqrt(2.0))
    m = exact_moment_set(make_state(StateSpec(kind="coherent", beta=beta, N=64)))
    assert second_moment(m, lam) == pytest.approx(
        classical_threshold(lam), abs=1e-8)


# ------------------------------------------------------------- thresholds

def test_threshold_values():
    assert classical_threshold(0.0) == 0.5
    assert classical_threshold(0.1) == pytest.approx(0.545, abs=1e-15)
    arr = classical_threshold(np.array([0.0, 0.1]))
    np.testing.assert_allclose(arr, [0.5, 0.545], atol=1e-15)


def test_resource_condition():
    assert resource_condition(0.1, 0.1) is True
    assert resource_condition(0.25, 0.1) is False
    assert resource_condition(0.19, 0.1) is True
    with pytest.raises(ValueError):
        resource_condition(-0.1, 0.1)
    with pytest.raises(ValueError):
        resource_condition(0.1, 0.0)


# ------------------------------------------------------------- classicality

@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2),
              st.floats(0.05, 1.0)),
    min_size=1, max_size=4))
def test_coherent_mixtures_respect_threshold(components):
    total = sum(w for _, _, w in components)
    mixed = {}
    for re, im, w in components:
        d = oracles.coherent_moment_dict(complex(re, im))
        for key, value in d.items():
            mixed[key] = mixed.get(key, 0.0) + (w / total) * value
    m = analytic_set(mixed)
    lams = np.linspace(-0.3, 0.3, 61)
    worst = min(assemble_curve(m)(l) - classical_threshold(l) for l in lams)
    assert worst >= -1e-8


# ------------------------------------------------------------- mixed moment

CUBIC = StateSpec(kind="cubic_phase", gamma=0.1, N=128)


@pytest.mark.parametrize("spec", [
    CUBIC,
    StateSpec(kind="coherent", beta=1.2 - 0.8j, N=64),
    StateSpec(kind="thermal", n_bar=0.7, N=64),
    StateSpec(kind="displaced", alpha=0.3 + 0.4j, N=96,
              inner=StateSpec(kind="cubic_phase", gamma=0.1, N=96)),
], ids=["cubic", "coherent", "thermal", "displaced"])
def test_mixed_moment_identity(spec):
    # the exact set recovers the mixed moment from its own rotated third
    # moments, as a reconstruction does; the dense operator is the oracle
    st_ = make_state(spec)
    m = exact_moment_set(st_)
    assert m.mixed == mixed_moment_recovery(m)
    assert m.mixed == pytest.approx(oracles.oracle_mixed(st_.rho), abs=1e-12)


def test_mixed_moment_closed_form():
    # p -> p + 3 gamma q^2 on the vacuum: <p q^2 + q^2 p> = 6 gamma <q^4> = 0.45
    assert exact_moment_set(make_state(CUBIC)).mixed == pytest.approx(0.45, abs=1e-6)


def test_mixed_moment_oracle():
    rho = oracles.oracle_cubic(0.2, 128)
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.2, N=128))
    assert exact_moment_set(st_).mixed == pytest.approx(
        oracles.oracle_mixed(rho), abs=1e-7)
