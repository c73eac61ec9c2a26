import math
import warnings

import numpy as np
import pytest

from nlsqueeze import hilbert, states
from nlsqueeze.errors import TruncationError
from nlsqueeze.hilbert import LEAK_TOL, default_grid, quadrature_moment
from nlsqueeze.states import GAMMA_MAX, StateSpec, make_state

import oracles

HALF_PI = math.pi / 2


# ------------------------------------------------------------- spec checks

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        StateSpec(kind="squeezed")


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StateSpec(kind="thermal", n_bar=-1.0)
    with pytest.raises(ValueError):
        StateSpec(kind="cubic_phase", gamma=GAMMA_MAX + 0.1)
    with pytest.raises(ValueError):
        StateSpec(kind="coherent", beta=complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        StateSpec(kind="vacuum", N=0)
    with pytest.raises(ValueError):
        StateSpec(kind="displaced", alpha=1.0)  # no inner spec


# ------------------------------------------------------------- vacuum

def test_vacuum_is_ground_state():
    st = make_state(StateSpec(kind="vacuum", N=16))
    assert st.rho[0, 0] == 1.0
    assert np.count_nonzero(st.rho) == 1
    assert st.leakage == 0.0


def test_cubic_gamma_zero_is_vacuum():
    st = make_state(StateSpec(kind="cubic_phase", gamma=0.0, N=64))
    ref = make_state(StateSpec(kind="vacuum", N=64))
    assert np.max(np.abs(st.rho - ref.rho)) < 1e-10


# ------------------------------------------------------------- coherent

def test_coherent_first_moments():
    beta = 1.0 + 0.5j
    st = make_state(StateSpec(kind="coherent", beta=beta, N=64))
    assert quadrature_moment(st, 0.0, 1) == pytest.approx(
        math.sqrt(2.0) * beta.real, abs=1e-10)
    assert quadrature_moment(st, HALF_PI, 1) == pytest.approx(
        math.sqrt(2.0) * beta.imag, abs=1e-10)
    assert quadrature_moment(st, 0.0, 2) == pytest.approx(
        2.0 * beta.real ** 2 + 0.5, abs=1e-10)


def test_coherent_against_exponential_route():
    beta = 0.8 - 0.6j
    st = make_state(StateSpec(kind="coherent", beta=beta, N=48))
    ref = oracles.oracle_coherent(beta, 48)
    assert np.max(np.abs(st.rho - ref)) < 1e-8


def test_coherent_leakage_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec(kind="coherent", beta=4.0 + 0j, N=8))


def test_coherent_rejects_a_huge_amplitude_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError):
            make_state(StateSpec(kind="coherent", beta=1e200 + 0j, N=64))


def test_coherent_past_the_underflow_of_the_vacuum_overlap():
    # e^{-|beta|^2/2} underflows to 0 at |beta| = 38.7, a state that fits N = 1800
    beta = 38.7
    st = make_state(StateSpec(kind="coherent", beta=beta, N=1800))
    assert st.leakage <= LEAK_TOL
    n_mean = float(np.arange(1800) @ np.diag(st.rho).real)
    assert n_mean == pytest.approx(beta ** 2, rel=1e-12)


def test_coherent_at_zero_is_vacuum():
    st = make_state(StateSpec(kind="coherent", beta=0j, N=16))
    ref = make_state(StateSpec(kind="vacuum", N=16))
    assert np.array_equal(st.rho, ref.rho) and st.leakage == ref.leakage == 0.0


def test_pure_state_rejects_a_non_finite_norm(monkeypatch):
    # max(0, 1 - nan) is 0: a NaN norm must not read as no leakage
    monkeypatch.setattr(states, "_coherent_amplitudes",
                        lambda beta, N: np.full(N, np.nan + 0j))
    with pytest.raises(TruncationError, match="non-finite norm"):
        make_state(StateSpec(kind="coherent", beta=0.5 + 0j, N=16))


# ------------------------------------------------------------- thermal

def test_thermal_populations_geometric():
    n_bar = 1.0
    st = make_state(StateSpec(kind="thermal", n_bar=n_bar, N=128))
    pops = np.diag(st.rho).real
    n = np.arange(8)
    expected = (n_bar / (n_bar + 1.0)) ** n / (n_bar + 1.0)
    np.testing.assert_allclose(pops[:8], expected, atol=1e-10)
    assert np.max(np.abs(st.rho - np.diag(np.diag(st.rho)))) == 0.0


def test_thermal_purity_and_width():
    st = make_state(StateSpec(kind="thermal", n_bar=1.0, N=128))
    purity = float(np.trace(st.rho @ st.rho).real)
    assert purity == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert quadrature_moment(st, 0.0, 2) == pytest.approx(1.5, abs=1e-10)
    assert quadrature_moment(st, 1.1, 2) == pytest.approx(1.5, abs=1e-10)


def test_thermal_zero_is_vacuum():
    st = make_state(StateSpec(kind="thermal", n_bar=0.0, N=16))
    assert st.rho[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_thermal_leakage_is_the_dropped_tail():
    # n_bar = 1 puts 2^-(n+1) on level n, so levels n >= 30 hold 2^-30
    st = make_state(StateSpec(kind="thermal", n_bar=1.0, N=30))
    assert st.leakage == pytest.approx(0.5 ** 30, rel=0, abs=1e-15)


def test_thermal_leakage_guard():
    # (9/10)^64 = 1.2e-3 of the population lies above N = 64
    with pytest.raises(TruncationError, match="thermal n_bar=9.0 leaks"):
        make_state(StateSpec(kind="thermal", n_bar=9.0, N=64))


# ------------------------------------------------------------- cubic phase

def test_cubic_closed_form_moments():
    # <p> = 3 gamma / 2, <p^2> = 1/2 + 27 gamma^2 / 4, <q^(2,4)> stay at
    # the vacuum values because the phase factor cancels in |psi(x)|^2
    gamma = 0.1
    st = make_state(StateSpec(kind="cubic_phase", gamma=gamma, N=128))
    assert quadrature_moment(st, HALF_PI, 1) == pytest.approx(0.15, abs=1e-6)
    assert quadrature_moment(st, HALF_PI, 2) == pytest.approx(0.5675, abs=1e-6)
    assert quadrature_moment(st, 0.0, 1) == pytest.approx(0.0, abs=1e-8)
    assert quadrature_moment(st, 0.0, 2) == pytest.approx(0.5, abs=1e-6)
    assert quadrature_moment(st, 0.0, 4) == pytest.approx(0.75, abs=1e-6)


def test_cubic_against_fock_exponential_route():
    st = make_state(StateSpec(kind="cubic_phase", gamma=0.2, N=128))
    ref = oracles.oracle_cubic(0.2, 128)
    for phi, n in ((0.0, 2), (0.0, 4), (HALF_PI, 1), (HALF_PI, 2),
                   (math.pi / 4, 3), (-math.pi / 4, 3)):
        assert quadrature_moment(st, phi, n) == pytest.approx(
            oracles.oracle_moment(ref, phi, n), abs=1e-7)


@pytest.mark.parametrize("gamma,tol", [(0.1, 1e-8), (0.2, 1e-8), (0.3, 1e-5)])
def test_cubic_moments_converged_in_dimension(gamma, tol):
    # doubling the dimension must not move the curve moments; the bound
    # loosens at gamma = 0.3 where the position tails fatten
    lo = make_state(StateSpec(kind="cubic_phase", gamma=gamma, N=128))
    hi = make_state(StateSpec(kind="cubic_phase", gamma=gamma, N=256))
    for phi, n in ((0.0, 2), (0.0, 4), (HALF_PI, 1), (HALF_PI, 2)):
        drift = abs(quadrature_moment(lo, phi, n) - quadrature_moment(hi, phi, n))
        assert drift < tol, (gamma, phi, n, drift)


@pytest.mark.parametrize(
    "N, gamma", [(N, gamma) for gamma in (0.1, 0.3, -0.2) for N in (128, 192)],
    ids=["128", "192", "128-g0.3", "192-g0.3", "128-g-0.2", "192-g-0.2"])
def test_cubic_projection_matches_the_complex_route(N, gamma):
    # reference: the projection as one complex product with a complex copy
    # of the basis on the whole grid, normalised like the package does;
    # the package sums only where h_0 >= 1e-20
    grid = default_grid(N)
    basis = oracles.full_basis(N, grid)
    psi = basis[0] * np.exp(1j * gamma * grid.points ** 3)
    c = (basis * grid.spacing) @ psi
    c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    st = make_state(StateSpec(kind="cubic_phase", gamma=gamma, N=N))
    np.testing.assert_allclose(st.rho, np.outer(c, c.conj()), rtol=0, atol=1e-15)


def test_cubic_truncation_guard():
    with pytest.raises(TruncationError):
        make_state(StateSpec(kind="cubic_phase", gamma=0.45, N=32))


def test_cubic_leakage_small_at_default_dimension():
    st = make_state(StateSpec(kind="cubic_phase", gamma=0.3, N=128))
    assert st.leakage < 1e-8


# ------------------------------------------------------------- displaced

def test_displaced_vacuum_equals_coherent():
    spec = StateSpec(kind="displaced", alpha=0.9 + 0.2j,
                     inner=StateSpec(kind="vacuum", N=64), N=64)
    st = make_state(spec)
    ref = make_state(StateSpec(kind="coherent", beta=0.9 + 0.2j, N=64))
    for phi, n in ((0.0, 1), (0.0, 2), (HALF_PI, 1), (HALF_PI, 2), (0.0, 4)):
        assert quadrature_moment(st, phi, n) == pytest.approx(
            quadrature_moment(ref, phi, n), abs=1e-8)


def test_displaced_cubic_momentum_shift():
    inner = StateSpec(kind="cubic_phase", gamma=0.1, N=96)
    spec = StateSpec(kind="displaced", alpha=0.3j, inner=inner, N=96)
    st = make_state(spec)
    base = make_state(inner)
    shift = math.sqrt(2.0) * 0.3
    assert quadrature_moment(st, HALF_PI, 1) == pytest.approx(
        quadrature_moment(base, HALF_PI, 1) + shift, abs=1e-7)
    # position statistics untouched by a pure momentum kick
    assert quadrature_moment(st, 0.0, 2) == pytest.approx(
        quadrature_moment(base, 0.0, 2), abs=1e-7)


def test_displaced_state_is_built_at_the_inner_dimension():
    # the outer N plays no part: the default grid follows the inner N = 192
    inner = StateSpec(kind="cubic_phase", gamma=0.1, N=192)
    built = [make_state(StateSpec(kind="displaced", alpha=0.3 + 0.4j, inner=inner, N=N))
             for N in (128, 192, 256)]
    for st in built:
        np.testing.assert_array_equal(st.rho, built[1].rho)
        assert st.leakage == built[1].leakage


# ------------------------------------------------------------- factored form

def _projector(c):
    c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    return np.outer(c, c.conj())


def _cubic_projector(gamma, N):
    grid = default_grid(N)
    basis = oracles.full_basis(N, grid)
    return _projector((basis * grid.spacing) @ (basis[0] * np.exp(1j * gamma * grid.points ** 3)))


def _dense_displaced(rho, alpha):
    # the kept block U S (U† rho U) Sᵀ U† of D(alpha) rho D(alpha)†, renormalised
    N = rho.shape[0]
    S = hilbert._displacement_block(N, abs(alpha))
    U = np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(N))
    block = U[:, None] * (S @ (U.conj()[:, None] * rho * U) @ S.T) * U.conj()
    return block / np.trace(block).real


def _dense_thermal(n_bar, N):
    pops = (1.0 / (n_bar + 1.0)) * (n_bar / (n_bar + 1.0)) ** np.arange(N)
    return np.diag(pops / pops.sum()).astype(complex)


CUBIC = StateSpec(kind="cubic_phase", gamma=0.1, N=128)
THERMAL = StateSpec(kind="thermal", n_bar=0.7, N=64)


@pytest.mark.parametrize("spec, dense, rank", [
    (StateSpec(kind="vacuum", N=32), lambda: _projector(np.eye(1, 32)[0]), 1),
    (StateSpec(kind="coherent", beta=1.2 - 0.8j, N=64),
     lambda: _projector(states._coherent_amplitudes(1.2 - 0.8j, 64)), 1),
    (THERMAL, lambda: _dense_thermal(0.7, 64), 64),
    (CUBIC, lambda: _cubic_projector(0.1, 128), 1),
    (StateSpec(kind="displaced", alpha=0.3 + 0.4j, inner=CUBIC),
     lambda: _dense_displaced(_cubic_projector(0.1, 128), 0.3 + 0.4j), 1),
    (StateSpec(kind="displaced", alpha=0.3 + 0.4j, inner=THERMAL),
     lambda: _dense_displaced(_dense_thermal(0.7, 64), 0.3 + 0.4j), 64),
], ids=["vacuum", "coherent", "thermal", "cubic", "displaced", "displaced_thermal"])
def test_factor_reproduces_the_dense_construction(spec, dense, rank):
    st = make_state(spec)
    assert st.vectors.shape == (spec.dim, rank) and st.weights.shape == (rank,)
    np.testing.assert_allclose(st.rho, dense(), rtol=0, atol=1e-13)


# ------------------------------------------------------------- grids

def test_custom_grid_accepted():
    g = default_grid(256)
    st = make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128), grid=g)
    assert quadrature_moment(st, HALF_PI, 1) == pytest.approx(0.15, abs=1e-6)
