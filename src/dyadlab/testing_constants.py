"""Exact testing constants of the localized form, via Lp duality.

Both constants are suprema over cubes of a ratio whose inner supremum (over
the free function) has a closed form:

* forward: feed the optimal test input on the box of Q to the localized box
  operator and measure it in Lp(omega); the free atom function is eliminated
  by scalar Lp duality.
* dual: feed the indicator of Q on the atom side; the free scale function is
  eliminated by mixed-norm duality against the kernel assembled from
  lam and the omega-masses of the subcubes of Q.

Neither ratio depends on Q beyond its level and its atoms.  The test input of
Q is the level profile ``level_test_input`` restricted to Q, and the dual
kernel of Q is ``mu * chain_running(lam * cube_sums(omega), start=level)``
restricted to Q.  So one level costs the same few whole-lattice passes for
all of its cubes (forward: one ``box_sums``, one ``chain_running`` and two
``bincount`` over ``ancestor_local[level]``; dual: one ``chain_running`` and
one ``bincount``), O(levels**2 * atoms) in all.

The scan sums with ``bincount``, not with the exactly rounded ``ksum``, so
its ratios are only close to the per-cube formula.  Selection is therefore
exact in a second step: every cube whose scanned ratio lies within
``RESELECT_MARGIN`` of the scan's maximum is evaluated again with the
per-cube formula, in enumeration order, and the first strict maximum wins.
Sums of at most 4096 nonnegative terms keep the scanned ratio within about
1e-12 of the exact one, so the winner, its value and its witness are those
of a loop over every cube.  Cubes the scan
cannot bound that tightly (non-finite level data, or a root or ratio below
the normal range) are always evaluated again.

The recorded witnesses are the norming functions, so plugging them back into
the localized form reproduces ``constant * norm * norm`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .forms import Instance, all_box_integrals, level_test_input, test_function
from .lattice import Cube
from .measures import (
    ell2_slice,
    lp_norm,
    mass,
    mixed_norm,
    zero_preserving_power,
)


@dataclass(frozen=True)
class TestingSide:
    value: float
    cube: Cube | None
    witness: np.ndarray  # atom function (forward) or scale function (dual)


@dataclass(frozen=True)
class TestingReport:
    forward: float
    dual: float
    forward_cube: Cube | None
    dual_cube: Cube | None
    witness_g: np.ndarray
    witness_f: np.ndarray


def norming_atom_function(h: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Unit-Lq(w) maximizer of the pairing against h; zero if h vanishes."""
    n = lp_norm(h, w, p)
    if n == 0.0:
        return np.zeros_like(h)
    return (h / n) ** (p - 1.0)


def norming_scale_function(k: np.ndarray, sigma: np.ndarray, p: float, q: float) -> np.ndarray:
    """Unit mixed-p-norm maximizer of the sigma-pairing against k."""
    s = ell2_slice(k)
    shaped = zero_preserving_power(s, q - 2.0)[None, :] * k if q != 2.0 else k
    n = mixed_norm(shaped, sigma, p)
    if n == 0.0:
        return np.zeros_like(k)
    return shaped / n


# Scanned ratios this close to the scan's maximum, relatively, are evaluated
# again with the exact per-cube formula.
RESELECT_MARGIN = 1e-9
_TINY = np.finfo(np.float64).tiny


def _select(inst: Instance, exponent: float, level_sums, exact):
    """Enumeration-order first maximizer of the per-cube ratio ``exact``.

    ``level_sums(level)`` gives, per cube of the level, the scanned numerator
    and denominator sums of the ratio (each taken to ``1/exponent``) and
    whether the level's data is finite.  ``exact(inst, cube)`` is the
    per-cube formula, returning ``(ratio, data)`` or None for a skipped cube.
    """
    sys = inst.sys
    ratio = np.zeros(sys.num_cubes)
    viable = np.zeros(sys.num_cubes, dtype=bool)
    sure = np.zeros(sys.num_cubes, dtype=bool)
    for level in range(sys.num_levels):
        cut = slice(sys.level_offset[level], sys.level_offset[level + 1])
        num, den, finite = level_sums(level)
        with np.errstate(all="ignore"):
            num_root, den_root = num ** (1.0 / exponent), den ** (1.0 / exponent)
            r = num_root / den_root
        ratio[cut] = r
        viable[cut] = (num > 0) & (den > 0)
        scanned = np.stack([num_root, den_root, r])
        sure[cut] = finite & np.all((scanned >= _TINY) & (scanned < np.inf), axis=0)
    top = ratio[viable & sure].max(initial=0.0)
    picks = viable & (~sure | (ratio >= (1.0 - RESELECT_MARGIN) * top))
    best, best_cube, best_data = 0.0, None, None
    for lin in np.flatnonzero(picks):
        cube = sys.cube_at(int(lin))
        got = exact(inst, cube)
        if got is not None and got[0] > best:
            best, best_cube, best_data = got[0], cube, got[1]
    return best, best_cube, best_data


def _forward_ratio(inst: Instance, cube: Cube):
    """Forward ratio of one cube and the operator image h it is measured on."""
    sys = inst.sys
    phi = test_function(inst, cube)
    phinorm = mixed_norm(phi, inst.sigma, inst.p)
    if phinorm == 0.0:
        return None
    contrib = inst.lam * all_box_integrals(inst, phi)
    running = lattice.chain_running(sys, contrib, start_level=cube.level)
    h = running[sys.depth] * sys.atom_mask(cube)
    return lp_norm(h, inst.omega, inst.p) / phinorm, h


def forward_testing_constant(inst: Instance) -> TestingSide:
    sys = inst.sys

    def level_sums(level: int):
        phi = level_test_input(inst, level)
        contrib = inst.lam * all_box_integrals(inst, phi)
        running = lattice.chain_running(sys, contrib, start_level=level)
        anc, size = sys.ancestor_local[level], int(sys.level_sizes[level])
        num = np.bincount(anc, weights=inst.omega * running[sys.depth] ** inst.p, minlength=size)
        den = np.bincount(anc, weights=inst.sigma * ell2_slice(phi) ** inst.p, minlength=size)
        # A cube's own test input vanishes off its atoms, so no value on the
        # rest of the level reaches its ratio, finite or not.
        return num, den, True

    best, cube, h = _select(inst, inst.p, level_sums, _forward_ratio)
    if cube is None:
        return TestingSide(0.0, None, np.zeros(sys.num_atoms))
    return TestingSide(best, cube, norming_atom_function(h, inst.omega, inst.p))


def dual_kernel(inst: Instance, cube: Cube) -> np.ndarray:
    """Scale-function kernel representing f -> localized form of (f, 1_cube)."""
    sys = inst.sys
    level, _ = sys.validate(cube)
    contrib = inst.lam * lattice.cube_sums(sys, inst.omega)
    running = lattice.chain_running(sys, contrib, start_level=level)
    return inst.mu * running * sys.atom_mask(cube)[None, :]


def _dual_ratio(inst: Instance, cube: Cube):
    """Dual ratio of one cube and its kernel."""
    denom = mass(inst.sys, inst.omega, cube) ** (1.0 / inst.q)
    if denom == 0.0:
        return None
    kernel = dual_kernel(inst, cube)
    return mixed_norm(kernel, inst.sigma, inst.q) / denom, kernel


def dual_testing_constant(inst: Instance) -> TestingSide:
    sys = inst.sys
    masses = lattice.cube_sums(sys, inst.omega)
    contrib = inst.lam * masses

    def level_sums(level: int):
        # A cube's kernel is this one masked to its atoms, and the mask turns
        # an overflow anywhere on the level into NaN: such levels go exact.
        kernel = inst.mu * lattice.chain_running(sys, contrib, start_level=level)
        num = np.bincount(
            sys.ancestor_local[level],
            weights=inst.sigma * ell2_slice(kernel) ** inst.q,
            minlength=int(sys.level_sizes[level]),
        )
        cut = slice(sys.level_offset[level], sys.level_offset[level + 1])
        return num, masses[cut], bool(np.isfinite(kernel).all())

    best, cube, kernel = _select(inst, inst.q, level_sums, _dual_ratio)
    if cube is None:
        return TestingSide(0.0, None, np.zeros((sys.num_levels, sys.num_atoms)))
    return TestingSide(best, cube, norming_scale_function(kernel, inst.sigma, inst.p, inst.q))


def testing_report(inst: Instance) -> TestingReport:
    fwd = forward_testing_constant(inst)
    dua = dual_testing_constant(inst)
    return TestingReport(
        forward=fwd.value,
        dual=dua.value,
        forward_cube=fwd.cube,
        dual_cube=dua.cube,
        witness_g=fwd.witness,
        witness_f=dua.witness,
    )
