"""Discrete weights, scale functions, mixed and scalar norms and their
Hoelder norming maps.

Two array shapes carry all function data:

* weights / atom functions: shape ``(atoms,)``,
* scale functions: shape ``(levels, atoms)`` -- one row per scale level.

All values are nonnegative binary64; one check, :func:`finite_nonnegative`,
normalizes dtype and rejects negatives, NaNs and infinities.  Reported
numbers sum exactly (:func:`ksum`, :func:`group_ksum`), as identity checks
run at 1e-10 relative; the norming maps, which the solvers call every
half-step, sum with numpy (:func:`lp_norms`, one ``np.add.reduce`` a row, kept
as a column), within about log2(n) u (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 4).  Per-cube
quantities are arrays over every cube at once: box and cube integrals and
averages in :mod:`dyadlab.forms`, cube masses as ``lattice.cube_sums``.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import DyadicSystem


def ksum(values) -> float:
    """Compensated (exactly rounded) sum of an array-like."""
    return math.fsum(np.asarray(values, dtype=np.float64).ravel().tolist())


def group_ksum(keys: np.ndarray, values: np.ndarray, groups) -> list[float]:
    """``ksum(values[keys == g])`` for each g in ``groups``, 0.0 for an empty one.

    One stable sort brings each group's values together in their original
    order, so every group is one ``math.fsum`` over a contiguous slice.
    """
    order = np.argsort(keys, kind="stable")
    ordered, keys = np.asarray(values, dtype=np.float64)[order].tolist(), np.asarray(keys)[order]
    starts, ends = np.searchsorted(keys, groups).tolist(), np.searchsorted(keys, groups, side="right").tolist()
    return [math.fsum(ordered[a:b]) for a, b in zip(starts, ends)]


def conjugate(p: float) -> float:
    """Hoelder conjugate of an exponent in (1, inf)."""
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent must lie in (1, inf), got {p}")
    return p / (p - 1.0)


def largest_ratio(num, den) -> tuple[float, bool]:
    """The largest ``num / den`` over ``den > 0`` (0.0 if none; a NaN ratio
    propagates), and whether a positive ``num`` stands over no positive ``den``."""
    num, den = np.asarray(num, dtype=np.float64), np.asarray(den, dtype=np.float64)
    positive = den > 0
    return float((num[positive] / den[positive]).max(initial=0.0)), bool((num[~positive] > 0).any())


def finite_nonnegative(values, shape, what: str) -> np.ndarray:
    """``values`` as a binary64 array of ``shape``; the one check that data
    is finite and nonnegative, a ValueError naming ``what`` otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{what} contains negative entries")
    return arr


def as_weights(sys: DyadicSystem, values) -> np.ndarray:
    return finite_nonnegative(values, (sys.num_atoms,), "weights")


def as_scale_function(sys: DyadicSystem, values) -> np.ndarray:
    return finite_nonnegative(values, (sys.num_levels, sys.num_atoms), "scale function")


def zero_preserving_power(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` with the convention 0**e = 0, needed for e <= 0."""
    base = np.asarray(base, dtype=np.float64)
    out = np.zeros(base.shape)
    np.power(base, exponent, out=out, where=base > 0.0)
    return out


def ell2_slice(f: np.ndarray) -> np.ndarray:
    """Pointwise (per atom) l2 norm across scale levels; a leading batch axis
    passes through."""
    f = np.asarray(f, dtype=np.float64)
    return np.sqrt(np.add.reduce(f * f, axis=-2))


def mixed_norm(f: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Mixed norm: Lp in the weight ``sigma`` of the per-atom l2 slice."""
    return lp_norm(ell2_slice(f), sigma, p)


def lp_norm(g: np.ndarray, w: np.ndarray, p: float) -> float:
    return ksum(w * np.asarray(g, dtype=np.float64) ** p) ** (1.0 / p)


def lp_norms(g: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """The solvers' ``lp_norm`` of each row of a (k, atoms) array, by numpy sums, as a (k, 1) column."""
    return np.add.reduce(w * g**p, axis=-1, keepdims=True) ** (1.0 / p)


def lp_norming(h: np.ndarray, w: np.ndarray, p: float):
    """The unit-Lq(w) atom function norming h, with q the conjugate of p.

    Returns (g, value) with value = ||h||_{Lp(w)} = the w-pairing of g and
    h.  A batch of rows gives the rows of g and the array of values, each as
    its own call; where h vanishes, a zero row and 0.0.
    """
    h = np.asarray(h, dtype=np.float64)
    values = lp_norms(h, w, p)
    return _normed(h, values, values, p - 1.0), values[..., 0]


def mixed_norming(k: np.ndarray, sigma: np.ndarray, p: float):
    """The unit mixed-p-norm scale function norming k in the sigma-pairing.

    Returns (f, value) with value = the mixed q-norm of k = the pairing of f
    and k, q the conjugate of p.  Batches, and vanishes, as
    :func:`lp_norming` does."""
    q = conjugate(p)
    k = np.asarray(k, dtype=np.float64)
    s = ell2_slice(k)
    values = lp_norms(s, sigma, q)
    shaped = k if q == 2.0 else zero_preserving_power(s, q - 2.0)[..., None, :] * k
    # at q == 2 the shaped function is k and p == q, so its norms are the values
    norms = values if q == 2.0 else lp_norms(ell2_slice(shaped), sigma, p)
    return _normed(shaped, norms[..., None], values[..., None], 1.0), values[..., 0]


def _normed(x: np.ndarray, by: np.ndarray, values: np.ndarray, power: float) -> np.ndarray:
    """(x / by) ** power by rows, 0 where ``values`` (shaped as ``by``) is 0.0."""
    out = x / np.where(values != 0.0, by, np.inf)
    if power != 1.0:  # x ** 1.0 is x
        out **= power
    return out
