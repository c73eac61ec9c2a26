"""From homodyne records to the nonlinear-squeezing curve.

The pipeline per reconstruction: estimate output moments <Y^n> and their
covariance at each of the four phases (0, pi/2, +-pi/4), invert the
triangular moment hierarchy phase by phase, carrying the covariance
through its Jacobian, recover the mixed moment from the rotated third
moments, and assemble the V(lambda) parabola with the covariance of its
coefficients.  Ensembles repeat this with independent derived seeds and
keep the per-replicate curve coefficients and mixed moments, from which
pointwise statistics on any lambda grid follow.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ChannelConditionError, DataError
from .nlsq import MAX_ORDER, PHASE_ORDERS, MomentSet, assemble_curve, mixed_moment_recovery
from .readout import (SAMPLE_BLOCK, ChannelCoefficients, InverseCDF, hierarchy_matrix,
                      sample_homodyne)

CQ_FLOOR = 1e-6
MIN_SAMPLES = 100   # per record, for moments with meaningful errors
MIN_REPLICATES = 2  # for a sample deviation over replicates


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from an integer tuple, platform stable."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


def empirical_moments(samples, max_n: int):
    """Power sums of Y^n up to 2*max_n for means and their covariance.

    Returns (means, cov): means[n-1] is the mean of Y^n for n = 1..max_n,
    and cov[n-1, m-1] = (<Y^(n+m)> - <Y^n><Y^m>)/(count - 1) the
    covariance of the means of Y^n and Y^m.  Samples are scaled by their
    max magnitude before powering, so the accumulators stay in range; a
    record whose max_n-th power leaves the float range raises DataError,
    and a covariance entry past it is inf.
    The sums run over SAMPLE_BLOCK-sized slices through buffers that stay
    in cache, and the slice sums are added in slice order.
    """
    if max_n < 1 or max_n > MAX_ORDER:
        raise ValueError(f"max_n must be in 1..{MAX_ORDER} (cubic protocol ceiling), got {max_n}")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < MIN_SAMPLES:
        raise ValueError(f"need a 1-d array of at least {MIN_SAMPLES} samples, "
                         f"got shape {x.shape}")
    count = x.size
    scale = max(float(x.max()), -float(x.min()))  # NaN propagates through both
    if not math.isfinite(scale):
        raise DataError("non-finite sample in homodyne record")
    if scale == 0.0:
        scale = 1.0
    try:
        powers = np.array([scale ** n for n in range(1, max_n + 1)])
    except OverflowError:
        raise DataError(f"sample magnitude {scale:.3g} overflows the order-{max_n} "
                        f"moment") from None
    raw = np.zeros(2 * max_n)  # raw[k] holds the power k + 1
    w = np.empty(min(count, SAMPLE_BLOCK))
    cur = np.empty_like(w)
    for lo in range(0, count, SAMPLE_BLOCK):
        ws = np.divide(x[lo:lo + SAMPLE_BLOCK], scale, out=w[:count - lo])
        cs = np.multiply(ws, ws, out=cur[:ws.size])
        raw[0] += ws.sum()
        raw[1] += cs.sum()
        for k in range(2, 2 * max_n):
            np.multiply(cs, ws, out=cs)
            raw[k] += cs.sum()
    raw /= count
    mu = raw[:max_n]
    i = np.arange(max_n)  # i + 1 = n
    cov = (raw[i[:, None] + i + 1] - np.outer(mu, mu)) / (count - 1.0)
    with np.errstate(over="ignore"):  # an entry past the float range is inf
        return powers * mu, cov * np.outer(powers, powers)


def invert_hierarchy(means, cov, coeffs: ChannelCoefficients):
    """Forward substitution through readout.hierarchy_matrix at one phase.

    Takes the output moments <Y^n> for n = 1..len(means) and their
    covariance, and returns (q, q_cov), the mechanical moments <Q^n> for
    the same orders and their covariance.  Row n gives
    <Q^n> = (<Y^n> - sum_{k<n} H[n, k] <Q^k>) / H[n, n].  The covariance
    is first-order propagated, J cov J^T, through the Jacobian
    J = d<Q>/d<Y> (the inverse of H).
    """
    cq = coeffs.c_Q
    if abs(cq) < CQ_FLOOR:
        raise ChannelConditionError(
            f"|c_Q| = {abs(cq):.2e} below {CQ_FLOOR:g}; channel too weak to invert"
        )
    max_n = len(means)
    H = hierarchy_matrix(coeffs, max_n)
    q = np.ones(max_n + 1)   # q[0] = <Q^0> = 1 exactly
    J = np.eye(max_n + 1)    # J[n, k] = d<Q^n>/d<Y^k>, filled row by row
    for n in range(1, max_n + 1):
        q[n] = (means[n - 1] - sum(H[n, k] * q[k] for k in range(n))) / H[n, n]
        J[n] = (J[n] - H[n, :n] @ J[:n]) / H[n, n]
    J = J[1:, 1:]
    return q[1:], J @ cov @ J.T


def run_reconstruction(tables: tuple[InverseCDF, ...], coeffs: ChannelCoefficients,
                       count: int, seed: int):
    """One full reconstruction through the channel coeffs: 4 phases, count
    samples each, drawn from tables (readout.sampling_tables, one per
    PHASE_ORDERS row, in row order).

    Returns (MomentSet, NlsCurve).
    """
    noise_std = math.sqrt(coeffs.noise_var)
    ms = MomentSet()
    for k, (table, (_, order)) in enumerate(zip(tables, PHASE_ORDERS, strict=True)):
        samples = sample_homodyne(table, coeffs.c_Q, count, derive_seed(seed, k), noise_std)
        means, cov = empirical_moments(samples, order)
        ms.values[k, 1:order + 1], ms.cov[k, :order, :order] = invert_hierarchy(
            means, cov, coeffs)
    ms.mixed = mixed_moment_recovery(ms)
    return ms, assemble_curve(ms)


@dataclass
class EnsembleReport:
    """Per-replicate curve coefficients and mixed moments of R
    reconstructions, and the replicate seeds."""

    coeff_values: dict     # name -> ndarray over replicates (a0, a1, a2)
    mixed_values: np.ndarray
    seeds: list

    def v_at(self, lam: float):
        """Per-replicate curve values at one lambda."""
        a0, a1, a2 = (self.coeff_values[k] for k in ("a0", "a1", "a2"))
        return a0 + lam * (a1 + lam * a2)

    def v_stats(self, lambdas):
        """Pointwise mean and sample deviation of V over the replicates on
        a lambda grid.  The C-ordered (R, L) table is reduced over axis 0,
        which fixes the summation order and so the last bits of plot.csv."""
        lam = np.asarray(lambdas, dtype=float)
        a0, a1, a2 = (self.coeff_values[k][:, None] for k in ("a0", "a1", "a2"))
        vmat = a0 + lam * (a1 + lam * a2)
        return vmat.mean(axis=0), vmat.std(axis=0, ddof=1)


def ensemble_run(tables: tuple[InverseCDF, ...], coeffs: ChannelCoefficients, count: int,
                 R: int, base_seed: int, threads: int = 1) -> EnsembleReport:
    """R independent reconstructions with seeds derived from
    (base_seed, replicate index), all sampling the same tables.

    Replicates are independent tasks; with threads > 1 they run in a
    thread pool and are reduced in index order, so the report does not
    depend on scheduling.
    """
    if R < MIN_REPLICATES:
        raise ValueError(f"R must be >= {MIN_REPLICATES} for ensemble statistics, got {R}")
    seeds = [derive_seed(base_seed, r) for r in range(R)]

    def one(seed):
        return run_reconstruction(tables, coeffs, count, seed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(s) for s in seeds]

    return EnsembleReport(
        coeff_values={k: np.array([getattr(c, k) for _, c in results])
                      for k in ("a0", "a1", "a2")},
        mixed_values=np.array([ms.mixed for ms, _ in results]),
        seeds=seeds,
    )
