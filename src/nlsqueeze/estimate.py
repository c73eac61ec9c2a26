"""From homodyne records to the nonlinear-squeezing curve.

The pipeline per reconstruction: estimate output moments <Y^n> and their
covariance at each of the four phases (0, pi/2, +-pi/4), invert the
triangular moment hierarchy phase by phase, carrying the covariance
through its Jacobian, recover the mixed moment from the rotated third
moments, and assemble the V(lambda) parabola with the covariance of its
coefficients.  Ensembles repeat this with independent derived seeds and
keep each replicate's curve, with its covariance, and mixed moment, from
which pointwise statistics on any lambda grid follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelConditionError, DataError
from .nlsq import MAX_ORDER, PHASE_ORDERS, MomentSet, assemble_curve, mixed_moment_recovery
from .readout import (SAMPLE_BLOCK, BlockBuffers, ChannelCoefficients, InverseCDF, NodeMasses,
                      hierarchy_matrix, output_table, sample_homodyne)

CQ_FLOOR = 1e-6
MIN_SAMPLES = 100   # per record, for moments with meaningful errors
MIN_REPLICATES = 2  # for a sample deviation over replicates
_EXP_FLOOR = -1022  # PowerSums' least scale 2^exp, so that 2^-exp is finite


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from an integer tuple, platform stable."""
    ss = np.random.SeedSequence(tuple(int(p) for p in parts))
    return int(ss.generate_state(1, np.uint64)[0])


class PowerSums:
    """The cell counts of one homodyne record on the output lattice of
    table, added block by block through empirical_moments.  The counts c_i
    fix every power sum: moments() forms raw_k = sum_i c_i (x_i 2^-exp)^k
    once, over the nodes x_i hit, 2^exp the power of two above the largest
    |x_i| hit (2^-1022 at least), so every (x_i 2^-exp)^k lies in [-1, 1].
    Integer counts make the sums independent of how the record is blocked.
    """

    def __init__(self, max_n: int, table: InverseCDF):
        if max_n < 1 or max_n > MAX_ORDER:
            raise ValueError(f"max_n must be in 1..{MAX_ORDER} (cubic protocol ceiling), "
                             f"got {max_n}")
        self.max_n = max_n
        self.x = table.x
        self.counts = np.zeros(table.x.size, np.int64)

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    def moments(self):
        """(means, cov) of the record so far: means[n-1] is the mean of Y^n
        for n = 1..max_n, and cov[n-1, m-1] = (<Y^(n+m)> - <Y^n><Y^m>)/(count - 1)
        the covariance of the means of Y^n and Y^m; an entry of cov past
        the float range is inf.  A non-finite node hit, or one whose
        max_n-th power leaves the float range, raises DataError."""
        count = self.count
        if count < MIN_SAMPLES:
            raise ValueError(f"need a record of at least {MIN_SAMPLES} samples, "
                             f"got {count}")
        hit = np.flatnonzero(self.counts)
        x = self.x[hit]
        peak = float(np.abs(x).max())  # NaN propagates
        if not math.isfinite(peak):
            raise DataError("non-finite sample in homodyne record")
        try:
            peak ** self.max_n
        except OverflowError:
            raise DataError(f"sample magnitude {peak:.3g} overflows the order-{self.max_n} "
                            f"moment") from None
        exp = max(math.frexp(peak)[1], _EXP_FLOOR)  # 2^(exp - 1) <= peak < 2^exp
        # row k - 1 holds (x_i 2^-exp)^k; products and numpy's pairwise row
        # sums, never BLAS, whose sums change their bits with its thread count
        powers = np.cumprod(np.broadcast_to(x * math.ldexp(1.0, -exp), (2 * self.max_n, x.size)),
                            axis=0)
        raw = (powers * self.counts[hit]).sum(axis=1) / count
        n = np.arange(1, self.max_n + 1)
        mu = raw[:self.max_n]
        cov = (raw[n[:, None] + n - 1] - np.outer(mu, mu)) / (count - 1.0)
        with np.errstate(over="ignore"):
            return np.ldexp(mu, exp * n), np.ldexp(cov, exp * (n[:, None] + n))


def empirical_moments(cells, sums: PowerSums) -> PowerSums:
    """Add one block of at most SAMPLE_BLOCK samples, given as their cells
    on the lattice of sums (sample_homodyne's result), to the cell counts
    of one record and return them; sums.moments() gives the means of Y^n
    and their covariance.

    A record of several blocks is summed by calling this once per block,
    as run_reconstruction does.
    """
    cells = np.asarray(cells)
    if cells.ndim != 1 or not 1 <= cells.size <= SAMPLE_BLOCK:
        raise ValueError(f"need a 1-d block of 1..{SAMPLE_BLOCK} cells, got shape {cells.shape}")
    sums.counts += np.bincount(cells, minlength=sums.counts.size)
    return sums


def invert_hierarchy(means, cov, coeffs: ChannelCoefficients):
    """(q, q_cov): the mechanical moments <Q^n> and their covariance from
    the output moments <Y^n>, n = 1..len(means), and their covariance cov
    at one phase.  (1, <Q>, ...) = H (1, <Y>, ...) through the inverse
    channel's hierarchy H = readout.hierarchy_matrix(1/c_Q, -noise_var/c_Q^2,
    max_n), and q_cov = J cov J^T through its exact Jacobian J = H[1:, 1:].
    """
    cq = coeffs.c_Q
    if abs(cq) < CQ_FLOOR:
        raise ChannelConditionError(
            f"|c_Q| = {abs(cq):.2e} below {CQ_FLOOR:g}; channel too weak to invert"
        )
    H = hierarchy_matrix(1.0 / cq, -coeffs.noise_var / (cq * cq), len(means))
    J = H[1:, 1:]
    return (H @ np.concatenate(([1.0], means)))[1:], J @ cov @ J.T


def run_reconstruction(tables: tuple[InverseCDF, ...], coeffs: ChannelCoefficients,
                       count: int, seed: int):
    """One full reconstruction through the channel coeffs: 4 phases, count
    samples each, drawn from tables (readout.output_table of coeffs, one
    per PHASE_ORDERS row, in row order).

    Each phase is drawn and counted one block at a time through buffers
    made once per reconstruction, so no record is ever kept.

    Returns (MomentSet, NlsCurve).
    """
    buf = BlockBuffers()
    ms = MomentSet()
    for k, (table, (_, order)) in enumerate(zip(tables, PHASE_ORDERS, strict=True)):
        phase_seed = derive_seed(seed, k)
        sums = PowerSums(order, table)
        for lo in range(0, count, SAMPLE_BLOCK):
            cells = sample_homodyne(table, phase_seed, min(SAMPLE_BLOCK, count - lo),
                                    lo // SAMPLE_BLOCK, buf)
            empirical_moments(cells, sums)
        ms.values[k, 1:order + 1], ms.cov[k, :order, :order] = invert_hierarchy(
            *sums.moments(), coeffs)
    ms.mixed = mixed_moment_recovery(ms)
    return ms, assemble_curve(ms)


@dataclass
class EnsembleReport:
    """The curves and mixed moments of R reconstructions, and their seeds."""

    curves: list           # NlsCurve per replicate, in replicate order
    mixed_values: np.ndarray
    seeds: list

    @property
    def coeff_values(self) -> dict:  # a0, a1, a2 -> ndarray over replicates, read from curves
        return {k: np.array([getattr(c, k) for c in self.curves]) for k in ("a0", "a1", "a2")}

    def v_at(self, lam):
        """Per-replicate curve values: (R,) at one lambda, C-ordered (R, L) on L."""
        return np.array([c(lam) for c in self.curves])

    def v_stats(self, lambdas):
        """Pointwise mean and sample deviation of V over the replicates on
        a lambda grid.  The (R, L) table of v_at is reduced over axis 0,
        which fixes the summation order and so the last bits of plot.csv."""
        vmat = self.v_at(lambdas)
        return vmat.mean(axis=0), vmat.std(axis=0, ddof=1)


def ensemble_run(masses: tuple[NodeMasses, ...], coeffs: ChannelCoefficients, count: int,
                 R: int, base_seed: int, threads: int = 1) -> EnsembleReport:
    """R independent reconstructions with seeds derived from
    (base_seed, replicate index), all sampling the same read-only output
    tables, built here once from the node masses of each PHASE_ORDERS row
    (readout.schedule_masses) and the channel coeffs.

    Replicates are independent tasks; with threads > 1 they run in a
    thread pool and are reduced in index order, so the report does not
    depend on scheduling.
    """
    if R < MIN_REPLICATES:
        raise ValueError(f"R must be >= {MIN_REPLICATES} for ensemble statistics, got {R}")
    seeds = [derive_seed(base_seed, r) for r in range(R)]
    tables = tuple(output_table(m, coeffs) for m in masses)

    def one(seed):
        return run_reconstruction(tables, coeffs, count, seed)

    if threads > 1:
        # imported here: it pulls in logging and queue, unused by one thread
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(s) for s in seeds]

    return EnsembleReport(
        curves=[c for _, c in results],
        mixed_values=np.array([ms.mixed for ms, _ in results]),
        seeds=seeds,
    )
