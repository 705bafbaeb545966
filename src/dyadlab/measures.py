"""Discrete weights, scale functions, mixed and scalar norms, their Hoelder
norming maps, box integrals.

Two array shapes carry all function data:

* weights / atom functions: shape ``(atoms,)``,
* scale functions: shape ``(levels, atoms)`` -- one row per scale level.

All values are nonnegative binary64; validation helpers normalize dtype and
reject negatives, NaNs and infinities.  Scalar accumulations go through
:func:`ksum` (exact compensated summation) because downstream identity checks
run at 1e-10 .. 1e-12 relative tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import DyadicSystem


def ksum(values) -> float:
    """Compensated (exactly rounded) sum of an array-like."""
    arr = np.asarray(values, dtype=np.float64)
    return math.fsum(arr.ravel().tolist())


def row_ksums(rows) -> list[float]:
    """``ksum`` of each row of a (k, n) array."""
    return [math.fsum(row) for row in np.asarray(rows, dtype=np.float64).tolist()]


def group_ksum(keys: np.ndarray, values: np.ndarray, groups) -> list[float]:
    """``ksum(values[keys == g])`` for each g in ``groups``, 0.0 for an empty one.

    One stable sort brings each group's values together in their original
    order, so every group is one ``math.fsum`` over a contiguous slice.
    """
    order = np.argsort(keys, kind="stable")
    ordered = np.asarray(values, dtype=np.float64)[order].tolist()
    keys = np.asarray(keys)[order]
    starts = np.searchsorted(keys, groups).tolist()
    ends = np.searchsorted(keys, groups, side="right").tolist()
    return [math.fsum(ordered[a:b]) for a, b in zip(starts, ends)]


def conjugate(p: float) -> float:
    """Hoelder conjugate of an exponent in (1, inf)."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def _checked(values, shape, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{what} contains negative entries")
    return arr


def as_weights(sys: DyadicSystem, values) -> np.ndarray:
    return _checked(values, (sys.num_atoms,), "weights")


def as_scale_function(sys: DyadicSystem, values) -> np.ndarray:
    return _checked(values, (sys.num_levels, sys.num_atoms), "scale function")


def zero_preserving_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` with the convention 0**e = 0, needed for e <= 0."""
    base = np.asarray(base, dtype=np.float64)
    if exponent == 0.0:
        return (base > 0.0).astype(np.float64)
    out = np.zeros_like(base)
    np.power(base, exponent, out=out, where=base > 0.0)
    return out


def ell2_slice(f: np.ndarray) -> np.ndarray:
    """Pointwise (per atom) l2 norm across scale levels; a leading batch axis
    passes through."""
    f = np.asarray(f, dtype=np.float64)
    return np.sqrt((f * f).sum(axis=-2))


def mixed_norm(f: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Mixed norm: Lp in the weight ``sigma`` of the per-atom l2 slice."""
    return lp_norm(ell2_slice(f), sigma, p)


def lp_norm(g: np.ndarray, w: np.ndarray, p: float) -> float:
    g = np.asarray(g, dtype=np.float64)
    return ksum(w * g**p) ** (1.0 / p)


def lp_norms(g: np.ndarray, w: np.ndarray, p: float) -> list[float]:
    """``lp_norm`` of each row of a (k, atoms) array: the same terms, one
    power for the batch and one exact sum per row."""
    return [total ** (1.0 / p) for total in row_ksums(w * g**p)]


def lp_norming(h: np.ndarray, w: np.ndarray, p: float):
    """The unit-Lq(w) atom function norming h, with q the conjugate of p.

    Returns (g, value) with value = ||h||_{Lp(w)} = the w-pairing of g and
    h; (None, 0.0) when h vanishes.  A batch of rows gives the rows of g, a
    zero row where h vanishes, and the array of values, each bit-identical.
    """
    h = np.asarray(h, dtype=np.float64)
    values = np.array(lp_norms(np.atleast_2d(h), w, p))
    return _normed(h.ndim == 1, h, values, values, p - 1.0)


def mixed_norming(k: np.ndarray, sigma: np.ndarray, p: float):
    """The unit mixed-p-norm scale function norming k in the sigma-pairing.

    Returns (f, value) with value = the mixed q-norm of k = the pairing of f
    and k, q the conjugate of p; (None, 0.0) when k vanishes.  Batches as
    :func:`lp_norming` does."""
    q = conjugate(p)
    k = np.asarray(k, dtype=np.float64)
    s = ell2_slice(k)
    values = np.array(lp_norms(np.atleast_2d(s), sigma, q))
    shaped = k if q == 2.0 else zero_preserving_power(s, q - 2.0)[..., None, :] * k
    norms = np.array(lp_norms(np.atleast_2d(ell2_slice(shaped)), sigma, p))
    return _normed(k.ndim == 2, shaped, norms, values, 1.0)


def _normed(single: bool, x: np.ndarray, by: np.ndarray, values: np.ndarray, power: float):
    """(x / by) ** power by rows, 0 where the value is 0.0, or one row and value."""
    out = x / np.where(values != 0.0, by, np.inf).reshape((-1,) + (1,) * (x.ndim - 1))
    if power != 1.0:  # x ** 1.0 is x
        out **= power
    if not single:
        return out, values
    return (None, 0.0) if values[0] == 0.0 else (out, float(values[0]))


def box_integral(
    sys: DyadicSystem, f: np.ndarray, mu: np.ndarray, sigma: np.ndarray, cube: int
) -> float:
    """Weighted pairing of f and mu over the Carleson box of ``cube``."""
    level = sys.level_of(cube)
    am = sys.atom_mask(cube)
    f = np.asarray(f, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    block = f[level:, :][:, am] * mu[level:, :][:, am]
    return ksum(block * np.asarray(sigma)[am])


def cube_integral(sys: DyadicSystem, g: np.ndarray, w: np.ndarray, cube: int) -> float:
    am = sys.atom_mask(cube)
    return ksum((np.asarray(w) * np.asarray(g))[am])


def mass(sys: DyadicSystem, w: np.ndarray, cube: int) -> float:
    return ksum(np.asarray(w)[sys.atom_mask(cube)])


def average(sys: DyadicSystem, g: np.ndarray, w: np.ndarray, cube: int) -> float:
    """Weighted average over a cube; zero when the cube carries no mass."""
    m = mass(sys, w, cube)
    if m == 0.0:
        return 0.0
    return cube_integral(sys, g, w, cube) / m
