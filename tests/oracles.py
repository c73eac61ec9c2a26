"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's construction routes:
the position basis covers the whole grid, with no use of parity,
states come from matrix exponentials acting on Fock vectors, moments
from dense operator powers, and output moments from collapsing the two
Gaussian noise sources into a single effective one.  Agreement between
these and the package is evidence, not tautology.

Some helpers are not oracles.  displacement_block_three_arrays keeps
an earlier build of the package's displacement block, the reference for
bit-for-bit tests of the current one.  The record helpers at the end run
the package's one-block sampler and cell counts over a whole record,
block by block through one set of buffers, as run_reconstruction does,
and put a record of given values on a lattice of its own.
"""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from nlsqueeze.estimate import PowerSums, empirical_moments
from nlsqueeze.hilbert import coherent_log_moduli
from nlsqueeze.readout import SAMPLE_BLOCK, BlockBuffers, _inverse_cdf, sample_homodyne


def ladder(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, N)), 1)


def q_matrix(N: int) -> np.ndarray:
    a = ladder(N)
    return (a + a.conj().T) / math.sqrt(2.0)


def p_matrix(N: int) -> np.ndarray:
    a = ladder(N)
    return 1j * (a.conj().T - a) / math.sqrt(2.0)


def quad_matrix(N: int, phi: float) -> np.ndarray:
    return math.cos(phi) * q_matrix(N) + math.sin(phi) * p_matrix(N)


def full_basis(N: int, grid) -> np.ndarray:
    """h_n(x_j) for n < N over every node of the grid, x < 0 too, by the
    plain upward recurrence h_n = sqrt(2/n) x h_{n-1} - sqrt((n-1)/n) h_{n-2}:
    no parity and no orthonormality check."""
    x = grid.points
    h = np.zeros((N, x.size))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if N > 1:
        h[1] = math.sqrt(2.0) * x * h[0]
    for n in range(2, N):
        h[n] = math.sqrt(2.0 / n) * x * h[n - 1] - math.sqrt((n - 1.0) / n) * h[n - 2]
    return h


def fock_vacuum(N: int) -> np.ndarray:
    e0 = np.zeros(N, dtype=complex)
    e0[0] = 1.0
    return e0


def oracle_coherent(beta: complex, N: int) -> np.ndarray:
    """Coherent state through the displacement exponential."""
    a = ladder(N)
    psi = expm(beta * a.conj().T - np.conj(beta) * a) @ fock_vacuum(N)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def oracle_thermal(n_bar: float, N: int) -> np.ndarray:
    n = np.arange(N)
    w = (n_bar / (n_bar + 1.0)) ** n / (n_bar + 1.0)
    w = w / w.sum()
    return np.diag(w).astype(complex)


def oracle_cubic(gamma: float, N: int, big: int = 256) -> np.ndarray:
    """exp(i gamma q^3)|0> built in a larger Fock space, then truncated."""
    q = q_matrix(big)
    psi = expm(1j * gamma * (q @ q @ q)) @ fock_vacuum(big)
    psi = psi[:N]
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def oracle_displace(rho: np.ndarray, alpha: complex) -> tuple:
    """D(alpha) rho D(alpha)† with D the expm of alpha a† - alpha* a in
    the doubled space: pad rho to 2N, cut back to N, renormalise.
    Returns (rho, leakage of this step)."""
    N = rho.shape[0]
    a = ladder(2 * N)
    D = expm(alpha * a.conj().T - np.conj(alpha) * a)
    pad = np.zeros((2 * N, 2 * N), dtype=complex)
    pad[:N, :N] = rho
    block = (D @ pad @ D.conj().T)[:N, :N]
    captured = np.trace(block).real
    return block / captured, 1.0 - captured


def oracle_displacement_element(m: int, n: int, alpha: complex) -> complex:
    """<m|D(alpha)|n> from its closed form, sqrt(n!/m!) alpha^(m-n)
    e^(-x/2) L_n^(m-n)(x) for m >= n with x = |alpha|^2, and
    <n|D|m> = (-1)^(m-n) conj(<m|D|n>).  The Laguerre polynomial is summed
    in exact rational arithmetic and scaled in 50-digit decimals, so there
    is no recurrence and nothing under- or overflows on the way."""
    if m < n:
        return (-1) ** (n - m) * oracle_displacement_element(n, m, alpha).conjugate()
    r = abs(alpha)
    x = Fraction(r * r)
    lag = sum(Fraction((-1) ** k * math.comb(m, n - k), math.factorial(k)) * x ** k
              for k in range(n + 1))
    with localcontext() as ctx:
        ctx.prec = 50
        xd = Decimal(r * r)
        g = (Decimal(lag.numerator) / lag.denominator
             * (Decimal(math.factorial(n)) / math.factorial(m)).sqrt()
             * (-xd / 2).exp() * xd.sqrt() ** (m - n))
    return float(g) * cmath.exp(1j * (m - n) * cmath.phase(alpha))


def displacement_block_three_arrays(N: int, r: float) -> np.ndarray:
    """The displacement block S as hilbert._displacement_block built it with
    three N x N arrays live (den, c_now and c_prev over every row, then
    buf, c_now and c_prev): the reference the two-array build must equal
    bit for bit."""
    x = r * r
    if not x < 1e32:  # |g_n^a| <= e^{-x/2} (4x)^N is below 1e-150 for any N < 1e29
        return np.zeros((N, N))
    a = np.arange(float(N))  # float: no integer-to-float cast per entry
    n = a[:, None]
    # at most three N x N arrays live at once: den, c_now and c_prev, then
    # buf, c_now and c_prev, and S and |S| reuse c_now and c_prev
    n1 = n + 1.0
    den = n1 + a
    den *= n1
    np.sqrt(den, out=den)
    c_now = 2.0 * n + 1.0 + a
    c_now -= x
    c_now /= den
    # c_prev = sqrt(n (n + a)) / den: sqrt(n (n + a)) is den[n - 1]
    c_prev = np.empty((N, N))
    c_prev[0] = 0.0
    np.divide(den[:-1], den[1:], out=c_prev[1:])
    del den
    check = 1e300 / (x + N + 2.0) ** 9
    log_g0 = coherent_log_moduli(r, N)
    s = np.minimum(log_g0 + math.log(check), 0.0)
    w = np.exp(s)
    # Row n of the recurrence, g_n^a over a, fills row n of buf.  Read as
    # a flat N x N block, buf holds g_n^a at [n, n + a], on and above the
    # diagonal, and the entries past level N (a >= N - n) below it.
    buf = np.zeros((N, N + 1))
    rows = buf[:, :N]
    h, h_prev, tmp = rows[0], np.zeros(N), np.empty(N)
    np.exp(log_g0 - s, out=h)
    start = 0
    for k, (cn, cp, row) in enumerate(zip(c_now, c_prev, rows[1:]), 1):
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
    G = buf.reshape(-1)[:N * N].reshape(N, N)
    # S[n, n + a] = (-1)^a g_n^a above the diagonal, S[n + a, n] = g_n^a on
    # and below it: one strided copy of the transpose into the triangle
    sign = (-1.0) ** a
    S = np.multiply(G, sign[:, None], out=c_now)
    S *= sign
    np.copyto(S, G.T, where=np.tri(N, dtype=bool))
    # below 1e-150 an entry times an amplitude <= 1 is lost under the last
    # bit of a unit-scale sum, and zeroing it keeps every product of the
    # kept entries a normal number
    S[np.abs(S, out=c_prev) < 1e-150] = 0.0
    return S


def oracle_moment(rho: np.ndarray, phi: float, n: int) -> float:
    X = quad_matrix(rho.shape[0], phi)
    val = np.trace(rho @ np.linalg.matrix_power(X, n))
    return float(val.real)


def oracle_mixed(rho: np.ndarray) -> float:
    N = rho.shape[0]
    q, p = q_matrix(N), p_matrix(N)
    qq = q @ q
    return float(np.trace(rho @ (p @ qq + qq @ p)).real)


def oracle_nls_variance(rho: np.ndarray, lam: float) -> float:
    N = rho.shape[0]
    A = p_matrix(N) - 3.0 * lam * (q_matrix(N) @ q_matrix(N))
    m1 = np.trace(rho @ A).real
    m2 = np.trace(rho @ (A @ A)).real
    return float(m2 - m1 * m1)


def oracle_second_moment(rho: np.ndarray, lam: float) -> float:
    N = rho.shape[0]
    A = p_matrix(N) - 3.0 * lam * (q_matrix(N) @ q_matrix(N))
    return float(np.trace(rho @ (A @ A)).real)


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def gaussian_moment(j: int, var: float) -> float:
    """<g^j> for centred Gaussian g with the given variance."""
    if j % 2:
        return 0.0
    return var ** (j // 2) * double_factorial(j - 1)


def oracle_output_moment(q_moments, c_Q: float, c_E: float, n_bar: float,
                         n: int) -> float:
    """<Y^n> with the vacuum and thermal noises merged into one Gaussian.

    Y = g + c_Q Q with g ~ N(0, 1/2 + c_E^2 (n_bar + 1/2)); expand the
    binomial against the supplied mechanical moments (q_moments[k] is
    <Q^k>, index 0 holds 1).
    """
    var_g = 0.5 + c_E ** 2 * (n_bar + 0.5)
    total = 0.0
    for k in range(n + 1):
        total += (math.comb(n, k) * c_Q ** k * q_moments[k]
                  * gaussian_moment(n - k, var_g))
    return total


def coherent_moment_dict(beta: complex) -> dict:
    """Closed-form quadrature moments of |beta>.

    Every rotated quadrature of a coherent state is Gaussian with
    variance 1/2 around the rotated mean, so all entries follow from
    the Gaussian moment formulas.
    """
    qb = math.sqrt(2.0) * beta.real
    pb = math.sqrt(2.0) * beta.imag
    quarter = math.pi / 4.0
    mu_plus = (qb + pb) / math.sqrt(2.0)
    mu_minus = (qb - pb) / math.sqrt(2.0)
    return {
        (0.0, 1): qb,
        (0.0, 2): qb * qb + 0.5,
        (0.0, 4): qb ** 4 + 3.0 * qb * qb + 0.75,
        (math.pi / 2.0, 1): pb,
        (math.pi / 2.0, 2): pb * pb + 0.5,
        (math.pi / 2.0, 3): pb ** 3 + 1.5 * pb,
        (quarter, 1): mu_plus,
        (quarter, 3): mu_plus ** 3 + 1.5 * mu_plus,
        (-quarter, 1): mu_minus,
        (-quarter, 3): mu_minus ** 3 + 1.5 * mu_minus,
        "mixed": 2.0 * pb * (qb * qb + 0.5),
    }


def draw_cells(table, count: int, seed: int) -> np.ndarray:
    """The lattice cells of the first count samples of the stream (seed)
    from an output table, drawn one block at a time through one
    BlockBuffers and copied out of it."""
    buf = BlockBuffers()
    out = np.empty(count, np.intp)
    for lo in range(0, count, SAMPLE_BLOCK):
        m = min(SAMPLE_BLOCK, count - lo)
        out[lo:lo + m] = sample_homodyne(table, seed, m, lo // SAMPLE_BLOCK, buf)
    return out


def draw_record(table, count: int, seed: int) -> np.ndarray:
    """The first count samples of the stream (seed) from an output table:
    the nodes of their cells."""
    return table.x[draw_cells(table, count, seed)]


def lattice_table(values):
    """(table, cells): a sampling table whose nodes are the distinct
    values, NaN included, and the cell of each value, so that
    table.x[cells] is values."""
    x, cells = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    return _inverse_cdf(x, np.ones(x.size)), cells


def record_moments(x, max_n: int, table=None) -> PowerSums:
    """The cell counts of a whole record, added one SAMPLE_BLOCK slice at
    a time, in slice order: x holds the record's cells on table, or, with
    no table, its values, counted on the lattice_table of x."""
    if table is None:
        table, x = lattice_table(x)
    sums = PowerSums(max_n, table)
    for lo in range(0, len(x), SAMPLE_BLOCK):
        empirical_moments(x[lo:lo + SAMPLE_BLOCK], sums)
    return sums
