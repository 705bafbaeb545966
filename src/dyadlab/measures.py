"""Discrete weights, scale functions, mixed and scalar norms, box integrals.

Three array shapes carry all function data:

* weights / atom functions: shape ``(atoms,)``,
* scale functions: shape ``(levels, atoms)`` -- one row per scale level.

All values are nonnegative binary64; validation helpers normalize dtype and
reject negatives, NaNs and infinities.  Scalar accumulations go through
:func:`ksum` (exact compensated summation) because downstream identity checks
run at 1e-10 .. 1e-12 relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Cube, DyadicSystem


def ksum(values) -> float:
    """Compensated (exactly rounded) sum of an array-like."""
    arr = np.asarray(values, dtype=np.float64)
    return math.fsum(arr.ravel().tolist())


@dataclass(frozen=True)
class Exponent:
    """An integrability exponent together with its Hoelder conjugate."""

    p: float
    q: float

    @classmethod
    def of(cls, p: float) -> "Exponent":
        p = float(p)
        if not (1.0 < p < math.inf):
            raise ValueError(f"exponent must lie in (1, inf), got {p}")
        return cls(p, p / (p - 1.0))


def conjugate(p: float) -> float:
    return Exponent.of(p).q


def _validated(values, shape, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{what} contains negative entries")
    return arr


def as_weights(sys: DyadicSystem, values) -> np.ndarray:
    return _validated(values, (sys.num_atoms,), "weights")


def as_scale_function(sys: DyadicSystem, values) -> np.ndarray:
    return _validated(values, (sys.num_levels, sys.num_atoms), "scale function")


def zero_preserving_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` with the convention 0**e = 0, needed for e <= 0."""
    base = np.asarray(base, dtype=np.float64)
    if exponent == 0.0:
        return (base > 0.0).astype(np.float64)
    out = np.zeros_like(base)
    np.power(base, exponent, out=out, where=base > 0.0)
    return out


def ell2_slice(f: np.ndarray) -> np.ndarray:
    """Pointwise (per atom) l2 norm across scale levels."""
    f = np.asarray(f, dtype=np.float64)
    return np.sqrt((f * f).sum(axis=0))


def mixed_norm(f: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Mixed norm: Lp in the weight ``sigma`` of the per-atom l2 slice."""
    s = ell2_slice(f)
    return ksum(sigma * s**p) ** (1.0 / p)


def lp_norm(g: np.ndarray, w: np.ndarray, p: float) -> float:
    g = np.asarray(g, dtype=np.float64)
    return ksum(w * g**p) ** (1.0 / p)


def box_integral(
    sys: DyadicSystem, f: np.ndarray, mu: np.ndarray, sigma: np.ndarray, cube: Cube
) -> float:
    """Weighted pairing of f and mu over the Carleson box of ``cube``."""
    level, _ = sys.validate(cube)
    am = sys.atom_mask(cube)
    f = np.asarray(f, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    block = f[level:, :][:, am] * mu[level:, :][:, am]
    return ksum(block * np.asarray(sigma)[am])


def cube_integral(sys: DyadicSystem, g: np.ndarray, w: np.ndarray, cube: Cube) -> float:
    am = sys.atom_mask(cube)
    return ksum((np.asarray(w) * np.asarray(g))[am])


def mass(sys: DyadicSystem, w: np.ndarray, cube: Cube) -> float:
    return ksum(np.asarray(w)[sys.atom_mask(cube)])


def average(sys: DyadicSystem, g: np.ndarray, w: np.ndarray, cube: Cube) -> float:
    """Weighted average over a cube; zero when the cube carries no mass."""
    m = mass(sys, w, cube)
    if m == 0.0:
        return 0.0
    return cube_integral(sys, g, w, cube) / m
