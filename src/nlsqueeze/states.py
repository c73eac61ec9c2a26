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

from .errors import TruncationError
from .hilbert import (
    LEAK_TOL,
    PositionGrid,
    QuantumState,
    build_basis,
    coherent_log_moduli,
    default_grid,
    displace,
    validate_state,
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


def _pure_state(c: np.ndarray, what: str, fix: str) -> QuantumState:
    """Pure state of the normalised Fock amplitudes c; the norm lost to the
    truncation is recorded as leakage, and a non-finite norm is rejected
    (max(0, 1 - nan) would read as no leakage)."""
    norm2 = float(np.sum(np.abs(c) ** 2))
    if not math.isfinite(norm2):
        raise TruncationError(f"{what} has a non-finite norm {norm2} {fix}")
    leak = max(0.0, 1.0 - norm2)
    if leak > LEAK_TOL:
        raise TruncationError(f"{what} leaks {leak:.2e} {fix}")
    return QuantumState(vectors=(c / math.sqrt(norm2))[:, None], weights=np.ones(1),
                        leakage=leak)


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
    if grid is None:
        grid = default_grid(spec.dim)

    if spec.kind == "vacuum":
        state = _pure_state(_coherent_amplitudes(0j, N), "vacuum", f"at N={N}")

    elif spec.kind == "coherent":
        state = _pure_state(_coherent_amplitudes(spec.beta, N),
                            f"coherent beta={spec.beta}", f"at N={N}; increase N")

    elif spec.kind == "thermal":
        ratio = spec.n_bar / (spec.n_bar + 1.0)
        pops = (1.0 - ratio) * ratio ** np.arange(N)
        total = float(pops.sum())
        leak = max(0.0, 1.0 - total)
        if leak > LEAK_TOL:
            raise TruncationError(
                f"thermal n_bar={spec.n_bar} leaks {leak:.2e} at N={N}; increase N"
            )
        state = QuantumState(vectors=np.eye(N), weights=pops / total, leakage=leak)

    elif spec.kind == "cubic_phase":
        basis = build_basis(N, grid)
        psi = basis[0] * np.exp(1j * spec.gamma * grid.points ** 3)
        # basis is real: two real products, no complex copy of it
        c = grid.spacing * (basis @ psi.real + 1j * (basis @ psi.imag))
        state = _pure_state(c, f"cubic gamma={spec.gamma}",
                            f"at N={N} on extent {grid.extent:g}; increase N or the grid")

    elif spec.kind == "displaced":
        inner = make_state(spec.inner, grid=grid)
        return displace(inner, spec.alpha)

    else:  # pragma: no cover - guarded by StateSpec
        raise ValueError(f"unhandled kind {spec.kind!r}")

    return validate_state(state)
