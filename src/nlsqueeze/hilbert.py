"""Truncated-Hilbert-space numerics for a single mechanical mode.

Conventions: q = (b + b†)/√2 and p = i(b† - b)/√2, so the vacuum has
Var(q) = Var(p) = 1/2.  The rotated quadrature is
Q_φ = (b e^{-iφ} + b† e^{iφ})/√2, with Q_0 = q and Q_{π/2} = p.

States live in the Fock basis as a factor and its weights,
rho = sum_k w_k a_k a_k†: one vector for a pure state, a multiple of the
identity for a thermal one, and D(alpha) maps the factor.  Every built
state passes through truncated_state, which records the population the
truncation drops as leakage; no state is made from a dense rho, and
validation checks the factor and the weights and never factors rho.
A uniform position grid, exactly antisymmetric, carries the orthonormal
oscillator eigenfunctions h_n(x) used to build wavefunctions, marginal
densities along any phase, and the sampling CDF; as h_n(-x) =
(-1)^n h_n(x), the basis is kept on the nodes x >= 0 only, and the cubic
projection keeps only its columns where h_0 >= 1e-20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError, StateError, TruncationError

# Half-width margin (beyond the classical turning point sqrt(2N+1)) needed
# for the discrete Gram matrix of the first N Hermite functions to be the
# identity within 1e-8.  Measured: margin 1.5 gives defect ~1e-9 at N=128,
# margin 2 gives ~5e-13; 1.75 keeps the default grid minimal but safe.
GRID_MARGIN = 1.75

ORTHONORMALITY_TOL = 1e-8
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
LEAK_TOL = 1e-8
MAX_MOMENT_ORDER = 8


@dataclass(frozen=True)
class PositionGrid:
    """Uniform grid on [-extent, extent] with n_points samples, exactly
    antisymmetric (points == -points[::-1], which the half basis needs):
    linspace's nodes x > 0 mirrored onto x < 0, and x = 0 on an odd grid."""

    extent: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise GridError(f"grid extent must be positive, got {self.extent}")
        if self.n_points < 2:
            raise GridError(f"grid needs at least 2 points, got {self.n_points}")
        points = np.linspace(-self.extent, self.extent, self.n_points)
        half = self.n_points // 2
        points[:half] = -points[:-half - 1:-1]
        if self.n_points % 2:
            points[half] = 0.0
        points.flags.writeable = False  # default_grid shares one grid per N
        object.__setattr__(self, "points", points)

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


@lru_cache(maxsize=8)
def default_grid(N: int = 128) -> PositionGrid:
    """Default grid for dimension N: extent 18 for N <= 128, grown with N.

    Point density is kept near 57 points per unit so trapezoid moments and
    the sampling CDF retain their accuracy as the extent grows.  Cached:
    callers share one grid per N.
    """
    extent = max(18.0, math.ceil(PositionGrid.min_extent(N)))
    n_points = int(round(2048 * extent / 18.0))
    return PositionGrid(extent=extent, n_points=n_points)


def _kept_nodes(N: int, grid: PositionGrid) -> np.ndarray:
    """The nodes x >= 0, grid.points[n_points // 2:], once N and the grid
    extent are checked: h_n(-x) = (-1)^n h_n(x), so they carry the basis."""
    if N < 1:
        raise GridError(f"basis dimension must be >= 1, got {N}")
    grid.validate_for(N)
    return grid.points[grid.n_points // 2:]


def _hermite(N: int, x: np.ndarray) -> np.ndarray:
    """Rows h_n(x_j) for n < N over the nodes x, shape (N, x.size), from the
    stable upward recurrence h_n = sqrt(2/n) x h_{n-1} - sqrt((n-1)/n) h_{n-2}.
    Each column depends on its own node only, so a block of nodes gives the
    same bits as those columns of a build over every node."""
    h = np.zeros((N, x.size))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if N > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, N):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1.0) / n) * h[n - 2]
    return h


def _parity_grams(h: np.ndarray) -> list:
    """h h^T over the even rows and over the odd rows of a block h of
    half-grid columns; the blocks of a partition of the nodes x >= 0 sum to
    the half-grid Gram matrices."""
    return [h[p::2] @ h[p::2].T for p in (0, 1)]


def _check_orthonormal(N: int, grid: PositionGrid, grams: list) -> None:
    """Raise GridError unless the first N eigenfunctions are orthonormal on
    the whole grid within ORTHONORMALITY_TOL, from the half-grid Gram
    matrices of their even and odd rows (_parity_grams).

    Rows of unlike parity are orthogonal on the mirrored grid, and a
    whole-grid sum is twice the half-grid one less the x = 0 node of an
    odd grid, counted once; each matrix becomes h h^T dx - 1 in place.
    """
    h0 = _hermite(N, np.zeros(1))[:, 0] if grid.n_points % 2 else None  # x = 0 is its own mirror
    defect = 0.0
    for p, gram in enumerate(grams):
        if h0 is not None:
            gram -= 0.5 * np.outer(h0[p::2], h0[p::2])
        gram *= 2.0 * grid.spacing
        gram.flat[::len(gram) + 1] -= 1.0
        defect = max(defect, float(np.abs(gram, out=gram).max(initial=0.0)))
    if defect > ORTHONORMALITY_TOL:
        raise GridError(
            f"discrete orthonormality defect {defect:.2e} exceeds "
            f"{ORTHONORMALITY_TOL:g} for N={N} on extent {grid.extent:g} "
            f"with {grid.n_points} points; add grid points or widen the extent"
        )


@lru_cache(maxsize=8)
def build_basis(N: int, grid: PositionGrid) -> np.ndarray:
    """Evaluate the first N oscillator eigenfunctions on the nodes x >= 0.

    h_n(-x) = (-1)^n h_n(x), so the nodes grid.points[n_points // 2:]
    carry the whole basis; the discrete orthonormality check runs on the
    even and on the odd rows (_check_orthonormal), in one buffer per
    parity: the basis is never copied.  The marginal densities read it.

    Parameters
    ----------
    N : int
        Fock-space dimension, N >= 2 (N = 1 allowed for the bare vacuum).
    grid : PositionGrid
        Must satisfy extent >= sqrt(2N+1) + margin.

    Returns
    -------
    np.ndarray
        Shape (N, n_points - n_points // 2), rows h_n(x_j) over the nodes
        x_j >= 0 (_hermite).  Read-only, because the result is cached and
        shared.

    Raises
    ------
    GridError
        If the grid is too small for N or discrete orthonormality fails.
    """
    h = _hermite(N, _kept_nodes(N, grid))
    _check_orthonormal(N, grid, _parity_grams(h))
    h.flags.writeable = False
    return h


@lru_cache(maxsize=8)
def projection_basis(N: int, grid: PositionGrid) -> np.ndarray:
    """The columns of build_basis(N, grid) on the support nodes, the first
    nodes x >= 0 up to the last one where h_0 >= 1e-20 (|x| < 9.6), bit for
    bit, read-only and C-contiguous: the rows the cubic projection reads.

    The same orthonormality check as build_basis runs on every node x >= 0.
    The other nodes are built first as one block, which enters the Gram
    matrices and is dropped before the support block is built, so no full
    basis is held or cached.

    Raises
    ------
    GridError
        If the grid is too small for N or discrete orthonormality fails.
    """
    x = _kept_nodes(N, grid)
    cut = np.flatnonzero(_hermite(1, x)[0] >= 1e-20)[-1] + 1
    rest = _parity_grams(_hermite(N, x[cut:]))
    h = _hermite(N, x[:cut])
    _check_orthonormal(N, grid, [g + r for g, r in zip(_parity_grams(h), rest)])
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
    once built: the diagonals of rho, and the phase-independent terms of
    each moment order, are cached as the moments read them.
    """

    vectors: np.ndarray
    weights: np.ndarray
    leakage: float = 0.0
    _bands: dict = field(default_factory=dict, init=False, repr=False)
    _moment_terms: dict = field(default_factory=dict, init=False, repr=False)

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
    and positive when no weight is negative, so nothing is factored: every
    built state has nonnegative weights, and the weight bound guards a
    factor built by hand with the QuantumState constructor.
    """
    if not (np.isfinite(state.vectors).all() and np.isfinite(state.weights).all()):
        raise StateError("state factor or weights have a non-finite entry")
    lam_min = float(np.min(state.weights, initial=0.0))  # an empty factor has no weights
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
    """Nonzero diagonals of the real symmetric banded Q_0^n at dimension N
    on and above the main one, read-only, as (d, (Q_0^n)[m, m + d] over m)
    for d = n mod 2, n mod 2 + 2, ..., n, Q_0[k-1, k] = Q_0[k, k-1] = sqrt(k/2):
    Q_0^k = Q_0 Q_0^(k-1) runs on the bands P[n + d, m] = (Q_0^k)[m, m + d]
    from P = 1 on d = 0, zero past either edge, so no N x N array is formed."""
    s = np.sqrt(np.arange(1, N) / 2.0)
    P = np.zeros((2 * n + 1, N))
    P[n] = 1.0
    for _ in range(n):
        prev, P = P, np.zeros_like(P)
        P[:-1, 1:] = s * prev[1:, :-1]
        P[1:, :-1] += s * prev[:-1, 1:]
    P.flags.writeable = False
    return tuple((d, P[n + d, :max(N - d, 0)]) for d in range(n % 2, n + 1, 2))


def quadrature_moment(state: QuantumState, phi: float, n: int) -> float:
    """Exact tr(rho Q_phi^n) in the truncated basis.

    Q_phi = U† Q_0 U with U = diag(e^{-i phi m}), so the moment is a
    trigonometric polynomial in phi whose coefficients are dot products
    of the diagonals of rho, taken from its factor (QuantumState.band),
    with the fixed diagonals of the real banded Q_0^n.  rho and Q_0^n
    are Hermitian, so diagonal d and -d together give twice the real part
    of one of them.  The coefficients and the top-n tail depend on the
    state and n only and are cached on the state, so a further phase
    costs only the cos/sin sum; the tail guard runs on every call.

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
    if n not in state._moment_terms:
        N = state.dim
        tail = float(np.sum(state.band(0).real[max(0, N - n):]))
        # sum_m rho[m + d, m] (Q_0^n)[m, m + d] for d = n mod 2, ..., n
        terms = [(d, complex(np.dot(state.band(d), band))) for d, band in _power_bands(N, n)]
        state._moment_terms[n] = tail, terms
    tail, terms = state._moment_terms[n]
    if tail > LEAK_TOL:
        raise TruncationError(
            f"top-{n} Fock tail holds population {tail:.2e} > {LEAK_TOL:g}; "
            "the moment is not trustworthy at this dimension"
        )
    # sum_d e^{-i phi d} (term d) over d = -n..n
    val = 0.0
    for d, term in terms:
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
    basis instead of 2r.  Both run on the basis of the nodes x >= 0, and
    the same product with U diag((-1)^m) gives the x < 0 half, because
    Q_{phi+pi} = -Q_phi.  Exact within truncation, no interpolation.

    Raises
    ------
    TruncationError
        If the density dips below -1e-8 or its norm, the node sum times
        the spacing (the trapezoid rule, as the density vanishes at both
        ends), is more than 1e-4 from 1; both tests fail on NaN, so a
        returned density is finite, nonnegative and of positive total.
    """
    N, r = state.dim, state.weights.size
    basis = build_basis(N, grid)
    # U for the nodes x >= 0, U diag((-1)^m) for their mirrors
    phases = np.exp(-1j * phi * np.arange(N)) * np.array([[1.0], [-1.0]]) ** np.arange(N)
    if 4 * r <= N:
        b = np.hstack([u[:, None] * state.vectors for u in phases])
        re, im = b.real.T @ basis, b.imag.T @ basis
        dens = state.weights @ (re * re + im * im).reshape(2, r, -1)
    else:
        # .real strides 16 bytes; the copy keeps matmul on BLAS under numpy 1.x.
        rho_rot = np.ascontiguousarray((phases[:, :, None] * state.rho * phases[:, None].conj()).real)
        prod = rho_rot.reshape(2 * N, N) @ basis
        dens = np.einsum("mj,smj->sj", basis, prod.reshape(2, N, -1))
    # the node x = 0 of an odd grid is the first of both halves
    dens = np.concatenate((dens[1, grid.n_points % 2:][::-1], dens[0]))
    low = float(dens.min())
    # PSD tolerance 1e-10 on rho can push the marginal a few times lower,
    # so the clamp threshold sits at -1e-8 rather than the matrix tolerance.
    if not low >= -1e-8:
        raise TruncationError(f"marginal density reaches {low:.2e} < -1e-8")
    dens = np.maximum(dens, 0.0)
    norm = float(dens.sum()) * grid.spacing
    if not abs(norm - 1.0) <= 1e-4:
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
    s_a < 0 only where the start lies below 1/check, and is renormalised
    when |h| passes check = 1e300 / (x + N + 2)^9, tested every 8 rows:
    a start below the float range loses no precision, a large r
    underflows to 0 rather than giving inf * 0, and the 8 steps between
    tests, each growing |h| at most x + N + 2 fold, cannot overflow.  A
    segment of rows between renormalisations takes its column scale
    e^{s} once, at its end.
    """
    x = r * r
    if not x < 1e32:  # |g_n^a| <= e^{-x/2} (4x)^N is below 1e-150 for any N < 1e29
        return np.zeros((N, N))
    # at most two N x N arrays live at once: buf (with the recurrence
    # coefficients of _RECURRENCE_ROWS rows at a time), then buf and S,
    # then S and |S|; the recurrence runs in _laguerre_rows, so that its
    # row views of buf die with it and del frees buf
    buf = _laguerre_rows(N, x, r)
    G = buf.reshape(-1)[:N * N].reshape(N, N)
    # S[n, n + a] = (-1)^a g_n^a above the diagonal, S[n + a, n] = g_n^a on
    # and below it: one strided copy of the transpose into the triangle
    sign = (-1.0) ** np.arange(float(N))
    S = G * sign[:, None]
    S *= sign
    np.copyto(S, G.T, where=np.tri(N, dtype=bool))
    del buf, G
    # below 1e-150 an entry times an amplitude <= 1 is lost under the last
    # bit of a unit-scale sum, and zeroing it keeps every product of the
    # kept entries a normal number
    S[np.abs(S) < 1e-150] = 0.0
    return S


_RECURRENCE_ROWS = 32  # rows of the recurrence coefficients built at a time


def _recurrence_coefficients(a: np.ndarray, x: float, lo: int, hi: int) -> tuple:
    """c_now = (2n+1+a-x) / den and c_prev = sqrt(n(n+a)) / den over the
    rows n = lo .. hi - 1 and a < N, den = sqrt((n+1)(n+1+a)), so that
    g_{n+1} = c_now g_n - c_prev g_{n-1}.  sqrt(n(n+a)) is den of row
    n - 1, which is 0 for n = 0.  Entrywise the operations of a build over
    every row, so a block of rows has the same bits."""
    n = np.arange(lo - 1.0, hi)[:, None]
    n1 = n + 1.0
    den = n1 + a
    den *= n1
    np.sqrt(den, out=den)
    c_now = 2.0 * n[1:] + 1.0 + a
    c_now -= x
    c_now /= den[1:]
    return c_now, den[:-1] / den[1:]


def _laguerre_rows(N: int, x: float, r: float) -> np.ndarray:
    """The N x (N + 1) buffer whose row n holds g_n^a over a < N (see
    _displacement_block), from the scaled recurrence in n.

    Read as a flat N x N block, the buffer holds g_n^a at [n, n + a], on
    and above the diagonal, and the entries past level N (a >= N - n)
    below it.  The coefficients are built _RECURRENCE_ROWS rows at a time.
    """
    a = np.arange(float(N))  # float: no integer-to-float cast per entry
    check = 1e300 / (x + N + 2.0) ** 9
    log_g0 = coherent_log_moduli(r, N)
    s = np.minimum(log_g0 + math.log(check), 0.0)
    w = np.exp(s)
    buf = np.zeros((N, N + 1))
    rows = buf[:, :N]
    h, h_prev, tmp = rows[0], np.zeros(N), np.empty(N)
    np.exp(log_g0 - s, out=h)
    start = 0
    for lo in range(0, N - 1, _RECURRENCE_ROWS):
        c_now, c_prev = _recurrence_coefficients(a, x, lo, min(lo + _RECURRENCE_ROWS, N - 1))
        for k, (cn, cp) in enumerate(zip(c_now, c_prev), lo + 1):
            row = rows[k]
            np.multiply(cn, h, out=row)
            np.multiply(cp, h_prev, out=tmp)
            np.subtract(row, tmp, out=row)
            h, h_prev = row, h
            if k % 8 == 0 and max(np.abs(h).max(), np.abs(h_prev).max()) > check:
                f = np.maximum(np.maximum(np.abs(h), np.abs(h_prev)), 1.0)
                h, h_prev = h / f, h_prev / f
                rows[start:k + 1] *= w
                start, s = k + 1, s + np.log(f)
                w = np.exp(s)
    rows[start:] *= w
    return buf


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
