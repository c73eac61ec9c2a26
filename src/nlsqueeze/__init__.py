"""Nonlinear squeezing of a mechanical oscillator: simulation of the
QND optical readout and moment-based reconstruction of the squeezing
curve V(lambda) = Var(p - 3 lambda q^2) from homodyne records."""

__version__ = "0.1.0"
