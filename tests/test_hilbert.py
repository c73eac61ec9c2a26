import cmath
import math
import warnings

import numpy as np
import pytest

from nlsqueeze import hilbert
from nlsqueeze.errors import GridError, HermiticityError, StateError, TruncationError
from nlsqueeze.hilbert import (
    MAX_MOMENT_ORDER,
    PSD_TOL,
    PositionGrid,
    QuantumState,
    build_basis,
    default_grid,
    displace,
    marginal_density,
    quadrature_moment,
    validate_state,
)
from nlsqueeze.nlsq import PHASE_ORDERS
from nlsqueeze.states import StateSpec, make_state

import oracles

_trapz = getattr(np, "trapezoid", None) or np.trapz


# ------------------------------------------------------------- grids

def test_grid_spacing_and_symmetry():
    g = PositionGrid(10.0, 101)
    assert g.spacing == pytest.approx(0.2)
    assert g.points[0] == -10.0 and g.points[-1] == 10.0
    np.testing.assert_allclose(g.points, -g.points[::-1], atol=0)


def test_default_grid_covers_turning_points():
    g = default_grid(128)
    assert g.extent >= PositionGrid.min_extent(128)
    g.validate_for(128)


def test_too_small_grid_rejected():
    # classical turning point of |127> sits at sqrt(2*127+1) ~ 15.97, so an
    # extent-16 grid leaves no decay room and the basis is not orthonormal
    with pytest.raises(GridError):
        PositionGrid(16.0, 2048).validate_for(128)
    with pytest.raises(GridError):
        build_basis(128, PositionGrid(16.0, 2048))


def test_basis_orthonormal_on_default_grid():
    g = default_grid(128)
    b = build_basis(128, g)
    gram = (b * g.spacing) @ b.T
    assert np.max(np.abs(gram - np.eye(128))) < 1e-8


def test_cached_basis_is_read_only():
    g = PositionGrid(12.0, 241)
    b = build_basis(8, g)
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    assert build_basis(8, g) is b


def test_basis_ground_state_value():
    g = PositionGrid(12.0, 241)  # odd count so x = 0 is a grid point
    b = build_basis(8, g)
    i0 = g.n_points // 2
    assert b[0, i0] == pytest.approx(math.pi ** -0.25, abs=1e-14)


def test_basis_matches_hermite_polynomials():
    from scipy.special import eval_hermite

    g = PositionGrid(12.0, 301)
    b = build_basis(6, g)
    x = g.points
    for n in range(6):
        ref = (eval_hermite(n, x) * np.exp(-0.5 * x * x)
               / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi)))
        np.testing.assert_allclose(b[n], ref, atol=1e-10)


# ------------------------------------------------------------- moments

def vacuum_state(N=32):
    return make_state(StateSpec(kind="vacuum", N=N))


def test_vacuum_moments():
    st_ = vacuum_state()
    for phi in (0.0, 0.7, math.pi / 2):
        assert quadrature_moment(st_, phi, 0) == pytest.approx(1.0, abs=1e-12)
        assert quadrature_moment(st_, phi, 1) == 0.0
        assert quadrature_moment(st_, phi, 2) == pytest.approx(0.5, abs=1e-12)
        assert quadrature_moment(st_, phi, 4) == pytest.approx(0.75, abs=1e-12)


def test_vacuum_odd_moments_exactly_zero():
    st_ = vacuum_state()
    # X^odd has no path returning to |0> in the tridiagonal structure
    assert quadrature_moment(st_, 0.3, 3) == 0.0
    assert quadrature_moment(st_, 1.2, 5) == 0.0


def test_moment_rotation_periodicity():
    st_ = make_state(StateSpec(kind="coherent", beta=0.8 + 0.3j, N=48))
    for phi in (0.0, 0.4, -1.1):
        a = quadrature_moment(st_, phi, 3)
        b = quadrature_moment(st_, phi + 2.0 * math.pi, 3)
        assert a == pytest.approx(b, abs=2e-13)


def test_moment_against_oracle():
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=128))
    rho_ref = oracles.oracle_cubic(0.1, 128)
    for phi, n in ((0.0, 2), (0.0, 4), (math.pi / 2, 1), (math.pi / 2, 3),
                   (math.pi / 4, 3)):
        assert quadrature_moment(st_, phi, n) == pytest.approx(
            oracles.oracle_moment(rho_ref, phi, n), abs=1e-8)


def random_mixed_state(N, support, rank=3, seed=0):
    """Rank-`rank` Hermitian PSD rho with complex off-diagonals on the
    first `support` Fock levels of an N-level space."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(support, rank)) + 1j * rng.normal(size=(support, rank))
    rho = np.zeros((N, N), dtype=complex)
    rho[:support, :support] = G @ G.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("N", [8, 33, 128])
def test_moment_matches_oracle_on_random_mixed_states(N):
    support = N // 2
    rho = random_mixed_state(N, support, seed=N)
    st_ = QuantumState.from_rho(rho)
    assert st_.vectors.shape == (N, 3)  # the eigenpairs of weight 0 are dropped
    phases = [phi for phi, _ in PHASE_ORDERS] + [0.3, 2.9, -3.1]
    for n in range(1, MAX_MOMENT_ORDER + 1):
        for phi in phases:
            if n > N - support:  # the top-n levels hold population
                with pytest.raises(TruncationError):
                    quadrature_moment(st_, phi, n)
                continue
            assert quadrature_moment(st_, phi, n) == pytest.approx(
                oracles.oracle_moment(rho, phi, n), rel=1e-12, abs=1e-13)


def test_moment_order_limits():
    st_ = vacuum_state()
    with pytest.raises(ValueError):
        quadrature_moment(st_, 0.0, 9)
    with pytest.raises(ValueError):
        quadrature_moment(st_, 0.0, -1)
    assert quadrature_moment(st_, 0.0, 8) == pytest.approx(
        oracles.gaussian_moment(8, 0.5), abs=1e-10)


def test_moment_tail_guard():
    N = 32
    rho = np.zeros((N, N), dtype=complex)
    rho[N - 1, N - 1] = 1.0  # all mass on the last level
    st_ = QuantumState.from_rho(rho)
    with pytest.raises(TruncationError):
        quadrature_moment(st_, 0.0, 2)


def test_moment_hermiticity_guard():
    N = 8
    rho = np.zeros((N, N), dtype=complex)
    rho[0, 0] = 1.0
    rho[0, 1] = 0.4  # deliberately not matched by rho[1, 0]
    # a factored state is Hermitian by construction, so the dense entry
    # point rejects the unmatched element before any moment is taken
    with pytest.raises(HermiticityError):
        quadrature_moment(QuantumState.from_rho(rho), math.pi / 2, 1)


# ------------------------------------------------------------- marginals

def test_vacuum_marginal_is_gaussian():
    st_ = vacuum_state(8)
    g = PositionGrid(8.0, 801)
    dens = marginal_density(st_, 0.0, g)
    ref = np.exp(-g.points ** 2) / math.sqrt(math.pi)
    np.testing.assert_allclose(dens, ref, atol=1e-10)


def test_marginal_normalised_and_nonnegative():
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.2, N=128))
    g = default_grid(128)
    for phi in (0.0, math.pi / 4, 1.9):
        dens = marginal_density(st_, phi, g)
        assert np.all(dens >= 0.0)
        assert _trapz(dens, dx=g.spacing) == pytest.approx(1.0, abs=1e-6)


def test_marginal_moments_match_operator_route():
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.15, N=128))
    g = default_grid(128)
    for phi in (0.0, -math.pi / 4):
        dens = marginal_density(st_, phi, g)
        for n in range(1, 5):
            via_density = _trapz(dens * g.points ** n, dx=g.spacing)
            assert via_density == pytest.approx(
                quadrature_moment(st_, phi, n), abs=1e-6)


def _complex_route_marginal(st_, phi, g):
    # sum_{mn} rho'_{mn} h_m h_n in complex arithmetic, rho' rotated by
    # the diagonal Fock phase, before the density guards
    h = build_basis(st_.dim, g)
    phase = np.exp(-1j * phi * np.arange(st_.dim))
    rho_rot = phase[:, None] * st_.rho * phase.conj()[None, :]
    return np.einsum("mj,mj->j", h, rho_rot @ h).real


@pytest.mark.parametrize("spec", [
    StateSpec(kind="vacuum", N=16),
    StateSpec(kind="coherent", beta=1.2 - 0.8j, N=64),
    StateSpec(kind="thermal", n_bar=1.5, N=96),
    StateSpec(kind="cubic_phase", gamma=0.1, N=128),
    StateSpec(kind="cubic_phase", gamma=0.1, N=192),
    StateSpec(kind="displaced", alpha=0.3 + 0.4j, N=128,
              inner=StateSpec(kind="cubic_phase", gamma=0.1, N=128)),
    "mixture",
], ids=["vacuum", "coherent", "thermal", "cubic128", "cubic192", "displaced", "mixture"])
def test_marginal_real_route_matches_complex_route(spec):
    # the thermal state (r = N) takes the dense route, the others the factor
    if spec == "mixture":  # rank 2, with unequal weights
        pure = [make_state(StateSpec(kind="coherent", beta=b, N=64)).vectors
                for b in (1.2 - 0.8j, -0.5 + 1j)]
        st_ = QuantumState(vectors=np.hstack(pure), weights=np.array([0.7, 0.3]))
    else:
        st_ = make_state(spec)
    g = default_grid(st_.dim)
    for phi in (0.0, math.pi / 2, math.pi / 4, -math.pi / 4, 0.3):
        np.testing.assert_allclose(marginal_density(st_, phi, g),
                                   _complex_route_marginal(st_, phi, g), atol=1e-14, rtol=0)


def test_marginal_rejects_undersized_grid():
    st_ = vacuum_state()
    with pytest.raises(GridError):
        marginal_density(st_, 0.0, PositionGrid(2.0, 101))


def test_marginal_negative_dip_guard():
    # an indefinite matrix slipping past validation must still be caught
    # once its marginal goes visibly negative
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0 + 1e-5
    rho[7, 7] = -1e-5  # negative weight out at the |7> turning point
    st_ = QuantumState.from_rho(rho)
    with pytest.raises(TruncationError):
        marginal_density(st_, 0.0, PositionGrid(8.0, 401))


# ------------------------------------------------------------- displacement

def test_displace_zero_is_identity():
    st_ = vacuum_state()
    out = displace(st_, 0.0)
    np.testing.assert_array_equal(out.rho, st_.rho)
    assert not np.shares_memory(out.vectors, st_.vectors)
    assert not np.shares_memory(out.weights, st_.weights)


def test_displace_matches_coherent_construction():
    beta = 0.7 - 0.4j
    a = displace(vacuum_state(48), beta)
    b = make_state(StateSpec(kind="coherent", beta=beta, N=48))
    for phi, n in ((0.0, 1), (0.0, 2), (math.pi / 2, 1), (math.pi / 2, 2)):
        assert quadrature_moment(a, phi, n) == pytest.approx(
            quadrature_moment(b, phi, n), abs=1e-8)


ALPHAS = [0.7, -0.5, 0.6j, -0.4 - 0.9j, 0.3 + 0.4j]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_displace_matches_expm_oracle(alpha):
    # the closed-form matrix elements against scipy's matrix exponential
    out = displace(vacuum_state(48), alpha)
    np.testing.assert_allclose(out.rho, oracles.oracle_coherent(alpha, 48), rtol=0, atol=1e-13)


def _assert_matches_padded_expm_oracle(spec, alpha):
    st_ = make_state(spec)
    out = displace(st_, alpha)
    rho_ref, leak_ref = oracles.oracle_displace(st_.rho, alpha)
    np.testing.assert_allclose(out.rho, rho_ref, rtol=0, atol=1e-13)
    assert out.leakage - st_.leakage == pytest.approx(leak_ref, abs=1e-14)
    return out


@pytest.mark.parametrize("alpha", ALPHAS)
def test_displace_matches_padded_expm_oracle_on_cubic_state(alpha):
    _assert_matches_padded_expm_oracle(StateSpec(kind="cubic_phase", gamma=0.1, N=64), alpha)


@pytest.mark.parametrize("alpha", [3 + 1j, -2.5 + 2j])
def test_displace_matches_padded_expm_oracle_on_thermal_state(alpha):
    # the recurrence in m that follows from b D = D (b + alpha) misses by 0.17 here
    out = _assert_matches_padded_expm_oracle(StateSpec(kind="thermal", n_bar=3.0, N=160), alpha)
    assert out.vectors.shape == (160, 160)  # the full-rank factor route


@pytest.mark.parametrize("N, alpha", [(64, 3 + 1j), (400, 38.6 * cmath.exp(0.7j))],
                         ids=["N64", "N400-scaled"])
def test_displacement_block_matches_the_closed_form(N, alpha):
    # at |alpha| = 38.6 the near-diagonal columns start below the float
    # range; run unscaled, <387|D|387> read 0.079 instead of 0.046
    S = hilbert._displacement_block(N, abs(alpha))
    U = np.exp(1j * cmath.phase(alpha) * np.arange(N))
    levels = (0, 1, N // 4, N // 2, N - 13, N - 1)
    for m in levels:
        for n in levels:
            assert U[m] * S[m, n] * U[n].conjugate() == pytest.approx(
                oracles.oracle_displacement_element(m, n, alpha), rel=0, abs=1e-14)


def test_displaced_factor_holds_no_tiny_entry():
    # the displacement block flushes its entries below 1e-150, so no product
    # of the displaced factor runs through subnormal numbers (unflushed, the
    # smallest nonzero modulus here is about 2e-235)
    inner = make_state(StateSpec(kind="thermal", n_bar=0.7, N=192))
    mod = np.abs(displace(inner, 0.3 + 0.4j).vectors)
    assert mod[mod > 0].min() >= 1e-150


def test_displace_preserves_covariance():
    st_ = displace(vacuum_state(48), 1.1 + 0.2j)
    q1 = quadrature_moment(st_, 0.0, 1)
    q2 = quadrature_moment(st_, 0.0, 2)
    assert q2 - q1 * q1 == pytest.approx(0.5, abs=1e-8)
    assert q1 == pytest.approx(math.sqrt(2.0) * 1.1, abs=1e-8)


def test_displace_round_trip():
    st_ = make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=96))
    back = displace(displace(st_, 0.6j), -0.6j)
    for phi, n in ((0.0, 2), (math.pi / 2, 1), (math.pi / 2, 2)):
        assert quadrature_moment(back, phi, n) == pytest.approx(
            quadrature_moment(st_, phi, n), abs=1e-7)


def test_displace_leakage_guard():
    with pytest.raises(TruncationError):
        displace(vacuum_state(8), 4.0)


def test_displace_tracks_leakage():
    out = displace(vacuum_state(64), 1.0)
    assert 0.0 <= out.leakage < 1e-8


def test_displace_leakage_is_the_poisson_tail():
    out = displace(vacuum_state(32), 3.0)
    tail = 1.0 - sum(math.exp(-9.0) * 9.0 ** n / math.factorial(n) for n in range(32))
    assert out.leakage == pytest.approx(tail, rel=0, abs=1e-14)


@pytest.mark.parametrize("N, alpha", [(64, 20.0), (16, 11.0)])
def test_displace_does_not_wrap_a_state_back_into_the_kept_block(N, alpha):
    # the whole displaced vacuum lies beyond level N; an exponential of the
    # truncated generator reflected it back and reported no leakage
    with pytest.raises(TruncationError, match="leaks 1.00e\\+00"):
        displace(vacuum_state(N), alpha)


@pytest.mark.parametrize("N, alpha", [(192, 1e3), (64, 1e200)])
def test_displace_rejects_a_huge_displacement_without_overflow(N, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError):
            displace(vacuum_state(N), alpha)


# ------------------------------------------------------------- validation

def test_validate_state_rejects_bad_trace():
    rho = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(StateError, match="trace"):
        validate_state(QuantumState.from_rho(rho))
    with pytest.raises(StateError, match="trace"):  # no weight is kept
        validate_state(QuantumState.from_rho(np.zeros((4, 4))))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_validate_state_rejects_a_non_finite_entry(bad):
    # every tolerance test compares with > or <, which NaN passes
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rho[2, 2] = bad
    with pytest.raises(StateError, match="non-finite"):
        validate_state(QuantumState.from_rho(rho))


def _bad_factor(flaw):
    """A 3-level state whose factor or weights carry one flaw."""
    vectors, weights = np.eye(3, dtype=complex), np.array([0.5, 0.3, 0.2])
    if flaw in ("nan", "inf"):
        vectors[1, 2] = getattr(np, flaw)
    elif flaw in ("nan-weight", "inf-weight"):
        weights[0] = getattr(np, flaw.split("-")[0])
    elif flaw == "negative-weight":
        weights[:] = 0.5 + PSD_TOL, 0.5 + PSD_TOL, -2.0 * PSD_TOL
    elif flaw == "trace":  # trace 1 + 2 TRACE_TOL
        vectors[0, 0] = math.sqrt(1.0 + 4.0 * hilbert.TRACE_TOL)
    return QuantumState(vectors=vectors, weights=weights)


FLAW_MESSAGES = {"nan": "non-finite", "inf": "non-finite", "nan-weight": "non-finite",
                 "inf-weight": "non-finite",
                 "negative-weight": r"smallest eigenvalue -2\.00e-10", "trace": "trace"}


@pytest.mark.parametrize("flaw", FLAW_MESSAGES)
def test_validate_state_rejects_a_bad_factor(flaw):
    validate_state(_bad_factor(None))  # the unflawed state passes
    with pytest.raises(StateError, match=FLAW_MESSAGES[flaw]):
        validate_state(_bad_factor(flaw))


def test_validate_state_rejects_negative():
    rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateError, match="smallest eigenvalue"):
        validate_state(QuantumState.from_rho(rho))


def _with_smallest_eigenvalue(lam, N=6, seed=3):
    """Unit-trace Hermitian rho with eigenvalues (1 - lam, lam, 0, ...) in
    a random complex eigenbasis."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
    w = np.zeros(N)
    w[0], w[1] = 1.0 - lam, lam
    rho = (V * w) @ V.conj().T
    return QuantumState.from_rho(0.5 * (rho + rho.conj().T))


@pytest.fixture
def factorisations(monkeypatch):
    """Calls of the dense factorisations a positivity check could use."""
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_validate_state_rejects_just_below_the_bound():
    with pytest.raises(StateError, match=r"smallest eigenvalue -2\.0\de-10 below -1e-10"):
        validate_state(_with_smallest_eigenvalue(-2.0 * PSD_TOL))


@pytest.mark.parametrize("factor", [-0.6, -0.4])
def test_validate_state_accepts_just_above_the_bound(factor):
    validate_state(_with_smallest_eigenvalue(factor * PSD_TOL))


def test_validate_state_accepts_a_pure_state(factorisations):
    validate_state(make_state(StateSpec(kind="cubic_phase", gamma=0.1, N=64)))
    assert factorisations == []


@pytest.mark.parametrize("spec", [
    StateSpec(kind="thermal", n_bar=0.7, N=128),
    StateSpec(kind="displaced", alpha=0.3 + 0.4j, N=128,
              inner=StateSpec(kind="cubic_phase", gamma=0.1, N=128)),
    StateSpec(kind="displaced", alpha=3 + 1j, N=160,
              inner=StateSpec(kind="thermal", n_bar=3.0, N=160)),
], ids=["thermal", "displaced", "displaced_thermal"])
def test_mixed_and_displaced_states_are_checked_without_a_factorisation(spec, factorisations):
    validate_state(make_state(spec))
    assert factorisations == []
