"""Factories for the mechanical states under test.

The cubic phase approximant exp(i gamma q^3)|0> is built in the position
representation, where the cubic unitary acts as a pointwise phase, and
projected back onto the first N Fock states.  The only approximation is
that projection, measured by the recorded leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    PositionGrid,
    QuantumState,
    coherent_log_moduli,
    default_grid,
    displace,
    projection_basis,
    truncated_state,
)

KINDS = ("vacuum", "coherent", "thermal", "cubic_phase", "displaced")
GAMMA_MAX = 0.5


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a mechanical state.

    kind selects the family; beta, n_bar, gamma, alpha are the
    kind-specific parameters; N is the truncation dimension.  A displaced
    state wraps an inner spec and applies the displacement alpha to it,
    so its state has the inner dimension (dim) and N plays no part.
    """

    kind: str
    beta: complex = 0j
    n_bar: float = 0.0
    gamma: float = 0.0
    alpha: complex = 0j
    N: int = 128
    inner: "StateSpec | None" = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}; expected one of {KINDS}")
        if self.N < 1:
            raise ValueError(f"truncation dimension must be >= 1, got {self.N}")
        for name in ("n_bar", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("beta", "alpha"):
            v = getattr(self, name)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.n_bar < 0:
            raise ValueError(f"n_bar must be >= 0, got {self.n_bar}")
        if self.kind == "cubic_phase" and abs(self.gamma) > GAMMA_MAX:
            raise ValueError(
                f"|gamma| = {abs(self.gamma)} exceeds the configured bound {GAMMA_MAX}"
            )
        if self.kind == "displaced" and self.inner is None:
            raise ValueError("displaced state needs an inner StateSpec")

    @property
    def dim(self) -> int:
        """Dimension of the state built from this spec."""
        return self.N if self.inner is None else self.inner.dim


def _coherent_amplitudes(beta: complex, N: int) -> np.ndarray:
    """<n|beta> = e^{i n theta} |<n|beta>| for beta = |beta| e^{i theta}, from
    the log moduli, so none underflows with e^{-|beta|^2/2}; beta = 0 is the vacuum."""
    if beta == 0:
        return np.eye(1, N, dtype=complex)[0]
    theta = math.atan2(beta.imag, beta.real)
    return np.exp(coherent_log_moduli(abs(beta), N) + 1j * theta * np.arange(N))


def make_state(spec: StateSpec, grid: PositionGrid | None = None) -> QuantumState:
    """Construct the state described by spec, as a factor and its weights.

    Parameters
    ----------
    spec : StateSpec
    grid : PositionGrid, optional
        Needed for the cubic phase construction; defaults to
        default_grid(spec.dim).

    Raises
    ------
    TruncationError
        If the construction loses more than LEAK_TOL of the norm; the fix
        is a larger N or a larger grid.
    """
    N = spec.N
    if spec.kind == "displaced":
        return displace(make_state(spec.inner, grid=grid), spec.alpha)
    if spec.kind == "thermal":
        ratio = spec.n_bar / (spec.n_bar + 1.0)
        return truncated_state(np.eye(N), (1.0 - ratio) * ratio ** np.arange(N),
                               f"thermal n_bar={spec.n_bar}", f"at N={N}; increase N")
    if spec.kind == "cubic_phase":
        grid = grid or default_grid(N)
        basis = projection_basis(N, grid)
        # Only the nodes where h_0 >= 1e-20 (|x| < 9.6) enter: |h_n| < 1, so the
        # dropped terms of c_n sum to at most dx M 1e-20 ~ 4e-19 over M nodes,
        # under the last bit of a unit-scale sum.  The basis holds those nodes
        # x >= 0, and the pair x, -x gives c_n twice h_n h_0 cos(theta) for even
        # n, i times twice h_n h_0 sin(theta) for odd n (x = 0 counts once).
        x, h0 = grid.points[grid.n_points // 2:][:basis.shape[1]], basis[0]
        theta = spec.gamma * (x * x * x)
        psi = np.stack((h0 * np.cos(theta), h0 * np.sin(theta)), axis=1)
        if grid.n_points % 2:
            psi[0] *= 0.5
        proj = basis @ psi
        c = np.where(np.arange(N) % 2, 1j * proj[:, 1], proj[:, 0])
        c *= 2.0 * grid.spacing
        what = f"cubic gamma={spec.gamma}"
        fix = f"at N={N} on extent {grid.extent:g}; increase N or the grid"
    else:
        beta = spec.beta if spec.kind == "coherent" else 0j  # the vacuum is beta = 0
        c = _coherent_amplitudes(beta, N)
        what, fix = f"{spec.kind} beta={beta}", f"at N={N}; increase N"
    return truncated_state(c[:, None], np.ones(1), what, fix)
