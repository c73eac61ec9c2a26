"""Truncated-Hilbert-space numerics for a single mechanical mode.

Conventions: q = (b + b†)/√2 and p = i(b† - b)/√2, so the vacuum has
Var(q) = Var(p) = 1/2.  The rotated quadrature is
Q_φ = (b e^{-iφ} + b† e^{iφ})/√2, with Q_0 = q and Q_{π/2} = p.

States live in the Fock basis as a factor and its weights,
rho = sum_k w_k a_k a_k†: one vector for a pure state, a multiple of the
identity for a thermal one, and D(alpha) maps the factor.  Every built
state passes through truncated_state, which records the population the
truncation drops as leakage.  QuantumState.from_rho factors a dense
density matrix; validation checks the factor and the weights and never
factors rho.  A uniform, symmetric position grid
carries the orthonormal oscillator eigenfunctions h_n(x) used to build
wavefunctions, marginal densities along any phase, and the sampling CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError, HermiticityError, StateError, TruncationError

# Half-width margin (beyond the classical turning point sqrt(2N+1)) needed
# for the discrete Gram matrix of the first N Hermite functions to be the
# identity within 1e-8.  Measured: margin 1.5 gives defect ~1e-9 at N=128,
# margin 2 gives ~5e-13; 1.75 keeps the default grid minimal but safe.
GRID_MARGIN = 1.75

ORTHONORMALITY_TOL = 1e-8
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
LEAK_TOL = 1e-8
MAX_MOMENT_ORDER = 8

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class PositionGrid:
    """Uniform symmetric grid on [-extent, extent] with n_points samples."""

    extent: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise GridError(f"grid extent must be positive, got {self.extent}")
        if self.n_points < 2:
            raise GridError(f"grid needs at least 2 points, got {self.n_points}")
        object.__setattr__(
            self, "points", np.linspace(-self.extent, self.extent, self.n_points)
        )

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.n_points - 1)

    @staticmethod
    def min_extent(N: int) -> float:
        """Smallest half-width covering the classically allowed region of
        all n < N plus the evanescent margin."""
        return math.sqrt(2.0 * N + 1.0) + GRID_MARGIN

    def validate_for(self, N: int):
        need = self.min_extent(N)
        if self.extent < need:
            raise GridError(
                f"grid extent {self.extent:g} too small for N={N}; "
                f"need at least {need:.3f}"
            )


def default_grid(N: int = 128) -> PositionGrid:
    """Default grid for dimension N: extent 18 for N <= 128, grown with N.

    Point density is kept near 57 points per unit so trapezoid moments and
    the sampling CDF retain their accuracy as the extent grows.
    """
    extent = max(18.0, math.ceil(PositionGrid.min_extent(N)))
    n_points = int(round(2048 * extent / 18.0))
    return PositionGrid(extent=extent, n_points=n_points)


@lru_cache(maxsize=8)
def build_basis(N: int, grid: PositionGrid) -> np.ndarray:
    """Evaluate the first N oscillator eigenfunctions on the grid.

    Parameters
    ----------
    N : int
        Fock-space dimension, N >= 2 (N = 1 allowed for the bare vacuum).
    grid : PositionGrid
        Must satisfy extent >= sqrt(2N+1) + margin.

    Returns
    -------
    np.ndarray
        Shape (N, n_points), rows h_n(x_j) from the stable upward
        recurrence h_n = sqrt(2/n) x h_{n-1} - sqrt((n-1)/n) h_{n-2}.
        Read-only, because the result is cached and shared.

    Raises
    ------
    GridError
        If the grid is too small for N or discrete orthonormality fails.
    """
    if N < 1:
        raise GridError(f"basis dimension must be >= 1, got {N}")
    grid.validate_for(N)
    x = grid.points
    h = np.zeros((N, x.size))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if N > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, N):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1.0) / n) * h[n - 2]
    gram = (h * grid.spacing) @ h.T
    defect = float(np.max(np.abs(gram - np.eye(N))))
    if defect > ORTHONORMALITY_TOL:
        raise GridError(
            f"discrete orthonormality defect {defect:.2e} exceeds "
            f"{ORTHONORMALITY_TOL:g} for N={N} on extent {grid.extent:g}; "
            "enlarge the grid"
        )
    h.flags.writeable = False
    return h


@dataclass
class QuantumState:
    """rho = sum_k weights[k] a_k a_k† over the columns a_k of vectors
    (N x r, real or complex) in the truncated Fock basis, plus the
    accumulated leakage.

    A pure state has r = 1 and a thermal state is a multiple of the
    identity with its populations as weights, so rho is Hermitian by
    construction and positive when every weight is.  Treated as immutable
    once built: the diagonals of rho are cached as the moments read them.
    """

    vectors: np.ndarray
    weights: np.ndarray
    leakage: float = 0.0
    _bands: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_rho(cls, rho: np.ndarray) -> "QuantumState":
        """Factor a dense density matrix by eigh.  Eigenpairs whose weight
        is at rounding level, |w| <= N eps max|w|, far below PSD_TOL, are
        dropped, so a low-rank rho keeps a low-rank factor; negative
        eigenvalues beyond that stay as weights, so validate_state still
        rejects them.

        Raises
        ------
        StateError
            If rho has a non-finite entry.
        HermiticityError
            If rho is not Hermitian within HERMITICITY_TOL.
        """
        rho = np.asarray(rho, dtype=complex)
        if not np.isfinite(rho).all():
            raise StateError("density matrix has a non-finite entry")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > HERMITICITY_TOL:
            raise HermiticityError(f"density matrix asymmetry {herm:.2e} > {HERMITICITY_TOL:g}")
        weights, vectors = np.linalg.eigh(rho)
        keep = np.abs(weights) > len(rho) * np.finfo(float).eps * np.abs(weights).max()
        return cls(vectors=vectors[:, keep], weights=weights[keep])

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def rho(self) -> np.ndarray:
        """The dense N x N density matrix, cached."""
        return (self.vectors * self.weights) @ self.vectors.conj().T

    def band(self, d: int) -> np.ndarray:
        """Diagonal -d of rho, rho[m + d, m] = sum_k w_k a_k[m + d] a_k*[m]
        over m, for d >= 0 (empty from d = N on): O(N r), cached."""
        if d not in self._bands:
            a, lower = self.vectors, self.vectors[d:]
            self._bands[d] = np.einsum("mk,mk,k->m", lower, a[:len(lower)].conj(), self.weights)
        return self._bands[d]


def _trace(vectors: np.ndarray, weights: np.ndarray) -> float:
    """tr rho = sum_k w_k |a_k|^2, through one real buffer of |a|."""
    mod2 = np.abs(vectors)
    mod2 *= mod2
    return float(weights @ mod2.sum(axis=0))


def validate_state(state: QuantumState) -> QuantumState:
    """Check a finite factor and weights, weights >= -PSD_TOL, unit trace
    and truncation leakage.

    Finite entries come first: every later test compares against a
    tolerance, which NaN would pass.  rho is Hermitian by construction,
    and positive when no weight is negative, so nothing is factored: the
    smallest weight is the smallest eigenvalue for an orthonormal factor
    (QuantumState.from_rho), and every built state has nonnegative weights.
    """
    if not (np.isfinite(state.vectors).all() and np.isfinite(state.weights).all()):
        raise StateError("state factor or weights have a non-finite entry")
    lam_min = float(np.min(state.weights, initial=0.0))  # from_rho(0) has no weights
    if lam_min < -PSD_TOL:
        raise StateError(f"smallest eigenvalue {lam_min:.2e} below -{PSD_TOL:g}")
    tr = _trace(state.vectors, state.weights)
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateError(f"trace {tr} deviates from 1 by more than {TRACE_TOL:g}")
    if state.leakage > LEAK_TOL:
        raise TruncationError(
            f"truncation leakage {state.leakage:.2e} exceeds {LEAK_TOL:g}; "
            "increase the Fock dimension or grid extent"
        )
    return state


def truncated_state(vectors: np.ndarray, weights: np.ndarray, what: str, fix: str,
                    leakage: float = 0.0) -> QuantumState:
    """Validated unit-trace state from a fresh factor whose kept trace
    sum_k w_k |a_k|^2 falls short of 1 by the population the truncation
    dropped: the shortfall is added to leakage, and the factor is rescaled
    in place (the weights are kept as given).

    Raises
    ------
    TruncationError
        "<what> has a non-finite norm ..." for a non-finite kept trace
        (max(0, 1 - nan) would read as no leakage), or "<what> leaks <x>
        <fix>" when the leakage exceeds LEAK_TOL.
    """
    tr = _trace(vectors, weights)
    if not math.isfinite(tr):
        raise TruncationError(f"{what} has a non-finite norm {tr} {fix}")
    leakage += max(0.0, 1.0 - tr)
    if leakage > LEAK_TOL:
        raise TruncationError(f"{what} leaks {leakage:.2e} {fix}")
    vectors /= math.sqrt(tr)
    return validate_state(QuantumState(vectors=vectors, weights=weights, leakage=leakage))


@lru_cache(maxsize=32)
def _power_bands(N: int, n: int) -> tuple:
    """Nonzero diagonals of the real symmetric banded Q_0^n at dimension
    N on and above the main one, as (d, (Q_0^n)[m, m + d] over m) for
    d = n mod 2, n mod 2 + 2, ..., n, where Q_0[k-1, k] = Q_0[k, k-1] =
    sqrt(k/2)."""
    k = np.arange(1, N)
    Q0 = np.zeros((N, N))
    Q0[k - 1, k] = Q0[k, k - 1] = np.sqrt(k / 2.0)
    Qn = np.linalg.matrix_power(Q0, n)
    return tuple((d, np.diagonal(Qn, d).copy()) for d in range(n % 2, n + 1, 2))


def quadrature_moment(state: QuantumState, phi: float, n: int) -> float:
    """Exact tr(rho Q_phi^n) in the truncated basis.

    Q_phi = U† Q_0 U with U = diag(e^{-i phi m}), so the moment is a
    trigonometric polynomial in phi whose coefficients are dot products
    of the diagonals of rho, taken from its factor (QuantumState.band),
    with the fixed diagonals of the real banded Q_0^n.  rho and Q_0^n
    are Hermitian, so diagonal d and -d together give twice the real part
    of one of them.

    Parameters
    ----------
    state : QuantumState
    phi : float
        Quadrature phase in radians.
    n : int
        Moment order, 0 <= n <= MAX_MOMENT_ORDER.

    Raises
    ------
    TruncationError
        If the top-n Fock levels of rho carry more than LEAK_TOL population, in
        which case Q^n couples to the missing part of the space.
    """
    if n < 0 or n > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order {n} outside [0, {MAX_MOMENT_ORDER}]")
    if n == 0:
        return 1.0
    N = state.dim
    tail = float(np.sum(state.band(0).real[max(0, N - n):]))
    if tail > LEAK_TOL:
        raise TruncationError(
            f"top-{n} Fock tail holds population {tail:.2e} > {LEAK_TOL:g}; "
            "the moment is not trustworthy at this dimension"
        )
    # sum_d e^{-i phi d} sum_m rho[m + d, m] (Q_0^n)[m, m + d] over d = -n..n
    val = 0.0
    for d, band in _power_bands(N, n):
        term = complex(np.dot(state.band(d), band))
        val += term.real if d == 0 else 2.0 * (math.cos(phi * d) * term.real
                                               + math.sin(phi * d) * term.imag)
    return val


def marginal_density(state: QuantumState, phi: float, grid: PositionGrid) -> np.ndarray:
    """Probability density of Q_phi on the grid.

    Rotates the factor by the diagonal Fock phase, b_k = U a_k with
    U = diag(e^{-i phi m}), then evaluates Pr(x_j) = sum_k w_k
    |sum_m h_m(x_j) b_k[m]|^2 in real products of the real basis with
    the real and imaginary parts of b_k.  When r is not small against N,
    the dense rho is rotated instead and Pr(x_j) = sum_{mn}
    Re(U rho U†)_{mn} h_m(x_j) h_n(x_j), which costs one product with the
    basis instead of 2r.  Exact within truncation, no interpolation.

    Raises
    ------
    TruncationError
        If the density dips below -1e-8 or its trapezoid norm deviates
        from 1 by more than 1e-4.
    """
    basis = build_basis(state.dim, grid)
    phase = np.exp(-1j * phi * np.arange(state.dim))
    if 4 * state.weights.size <= state.dim:
        b = phase[:, None] * state.vectors
        re, im = b.real.T @ basis, b.imag.T @ basis
        dens = state.weights @ (re * re + im * im)
    else:
        # .real strides 16 bytes; the copy keeps matmul on BLAS under numpy 1.x.
        rho_rot = np.ascontiguousarray((phase[:, None] * state.rho * phase.conj()).real)
        dens = np.einsum("mj,mj->j", basis, rho_rot @ basis)
    low = float(dens.min())
    # PSD tolerance 1e-10 on rho can push the marginal a few times lower,
    # so the clamp threshold sits at -1e-8 rather than the matrix tolerance.
    if low < -1e-8:
        raise TruncationError(f"marginal density reaches {low:.2e} < -1e-8")
    dens = np.maximum(dens, 0.0)
    norm = float(_trapz(dens, dx=grid.spacing))
    if abs(norm - 1.0) > 1e-4:
        raise TruncationError(
            f"marginal norm {norm:.6f} off by more than 1e-4; "
            "grid or dimension insufficient"
        )
    return dens


def coherent_log_moduli(r: float, N: int) -> np.ndarray:
    """log |<n|beta>| = -r^2/2 + n log r - log(n!)/2 for n < N and |beta| = r > 0,
    finite where e^{-r^2/2} underflows: the start g_0^n of _displacement_block."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(N)])
    return -0.5 * (r * r) + np.arange(N) * math.log(r) - 0.5 * log_fact


def _displacement_block(N: int, r: float) -> np.ndarray:
    """Real S with the first N x N block of D(alpha) equal to U S U†,
    U = diag(e^{i theta k}), for alpha = r e^{i theta}, r > 0.

    From the closed form <n+a|D|n> = e^{i a theta} g_n^a for a >= 0, with
    the normalised Laguerre functions g_n^a = sqrt(n!/(n+a)!) e^{-x/2}
    x^{a/2} L_n^a(x), x = r^2: S[n+a, n] = g_n^a, and <n|D|n+a> =
    (-1)^a conj(<n+a|D|n>) gives S[n, n+a] = (-1)^a g_n^a.  The g_n^a
    run up the three-term recurrence in n, vectorised over a,
    g_{n+1} sqrt((n+1)(n+1+a)) = (2n+1+a-x) g_n - sqrt(n(n+a)) g_{n-1},
    from g_0^a = exp(-x/2 + (a/2) log x - log(a!)/2) taken in log space.
    (The recurrence in m that follows from b D = D (b + alpha) is
    unstable.)  Each column runs scaled, g_n^a = h_n^a e^{s_a}, with
    s_a < 0 only where the start lies below 1/limit, and is renormalised
    whenever |h| passes `limit`: a start below the float range loses no
    precision, a large r underflows to 0 rather than giving inf * 0, and
    one step, which grows |h| at most x + N + 2 fold, cannot overflow.
    """
    x = r * r
    if not x < 1e300:  # |g_n^a| <= e^{-x/2} (4x)^N underflows
        return np.zeros((N, N))
    a = np.arange(N)
    n = a[:, None]
    den = np.sqrt((n + 1.0) * (n + 1.0 + a))
    c_now = (2.0 * n + 1.0 + a - x) / den
    c_prev = np.sqrt(n * (n + a)) / den
    limit = 1e300 / (x + N + 2.0)
    log_g0 = coherent_log_moduli(r, N)
    s = np.minimum(log_g0 + math.log(limit), 0.0)
    h, h_prev, w = np.exp(log_g0 - s), np.zeros(N), np.exp(s)
    # row n of G holds g_n^a at column n + a, so G.T is the lower triangle
    G = np.zeros((N, N))
    G[0] = h * w
    for k in range(1, N):
        h, h_prev = c_now[k - 1] * h - c_prev[k - 1] * h_prev, h
        if np.abs(h).max() > limit:
            f = np.maximum(np.abs(h), 1.0)
            h, h_prev, s = h / f, h_prev / f, s + np.log(f)
            w = np.exp(s)
        G[k, k:] = h[:N - k] * w[:N - k]
    # below 1e-150 an entry times an amplitude <= 1 is lost under the last
    # bit of a unit-scale sum, and zeroing it keeps every product of the
    # kept entries a normal number
    G[np.abs(G) < 1e-150] = 0.0
    sign = (-1.0) ** a
    return G.T + np.triu(sign[:, None] * G * sign, 1)


def displace(state: QuantumState, alpha: complex) -> QuantumState:
    """Apply D(alpha) = exp(alpha b† - alpha* b) to the state.

    The kept block is D_N rho D_N†, where D_N is the first N x N block
    of the exact D(alpha) (see _displacement_block), so the population
    the displacement carries past level N is lost, never reflected back:
    truncated_state records the lost trace as leakage and renormalises.
    D_N = U S U† with S real, so the factor maps to U S (U† A), taken as
    two real products for the real and imaginary parts of U† A.

    Raises
    ------
    TruncationError
        If accumulated leakage exceeds LEAK_TOL, or the kept trace is not
        finite.
    """
    alpha = complex(alpha)
    if alpha == 0:
        return QuantumState(vectors=state.vectors.copy(), weights=state.weights.copy(),
                            leakage=state.leakage)
    N = state.dim
    S = _displacement_block(N, abs(alpha))
    U = np.exp(1j * math.atan2(alpha.imag, alpha.real) * np.arange(N))[:, None]
    a = U.conj() * state.vectors
    a = U * (S @ a.real + 1j * (S @ a.imag))
    return truncated_state(a, state.weights, f"displacement by {alpha}",
                           f"at dimension {N}", state.leakage)
