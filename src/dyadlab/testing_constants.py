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
kernel of Q is ``mu`` times the running sum of ``lam * cube_sums(omega)``
down the levels from Q's own, restricted to Q.  So each ratio is a sum over
Q's atoms of per-atom terms that one level computes for all of its cubes at
once, from its own and finer rows only.  The levels go in batches of the
lattice's ``chunk_rows`` (``normest.power_ascent``'s chunks), each over the
rows from its coarsest level on: a ``box_sums`` (forward; one serves all at
p = 2) and a ``chain_running`` per batch, a row's coarser cubes zeroed as a
prefix.

Each level's terms are summed twice.  A ``level_sums`` scan gives every cube a
ratio close to the exact one; the cubes within ``RESELECT_MARGIN`` of the
scan's maximum, and the cubes it cannot bound to about 1e-12 (a root or
ratio outside the normal range), are the candidates.  Each level holding a
candidate then sums the same terms exactly with one ``group_ksum`` over the
level's atoms, and the first strict maximum in enumeration order wins.  The
terms off a cube are exact zeros in the per-cube formula and ``fsum`` is
correctly rounded, so the winner, its value and its witness are those of a
loop over every cube evaluating that formula.  The witness is rebuilt from
the winning level alone.

The recorded witnesses are the norming functions of the winning cube
(``measures.lp_norming`` and ``measures.mixed_norming``), so plugging them
back into the localized form reproduces ``constant * norm * norm`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .forms import Instance, all_box_integrals, level_test_input
from .measures import ell2_slice, group_ksum, lp_norming, mixed_norming


@dataclass(frozen=True)
class TestingSide:
    value: float
    cube: int | None
    witness: np.ndarray  # atom function (forward) or scale function (dual)


@dataclass(frozen=True)
class TestingReport:
    forward: float
    dual: float
    forward_cube: int | None
    dual_cube: int | None
    witness_g: np.ndarray
    witness_f: np.ndarray


# Scanned ratios this close to the scan's maximum, relatively, are candidates
# for the exact sums.
RESELECT_MARGIN = 1e-9
_TINY = np.finfo(np.float64).tiny


def _select(sys, exponent: float, num_terms, den_terms, skip: np.ndarray):
    """Enumeration-order first maximizer of the per-cube ratio
    ``sum(num)**(1/exponent) / sum(den)**(1/exponent)`` over the cube's atoms.

    ``num_terms[level]`` and ``den_terms[level]`` are the level's per-atom
    terms, scanned as the two rows of one ``level_sums`` batch; cubes flagged
    in ``skip`` (per linear id) have no ratio.  Returns the winning ratio and
    cube, or ``(0.0, None)``.
    """
    num, den = lattice.level_sums(sys, [num_terms, den_terms])
    with np.errstate(all="ignore"):
        num_root, den_root = num ** (1.0 / exponent), den ** (1.0 / exponent)
        ratio = num_root / den_root
    viable = (num > 0) & (den > 0) & ~skip
    scanned = np.stack([num_root, den_root, ratio])
    sure = np.all((scanned >= _TINY) & (scanned < np.inf), axis=0)
    top = ratio[viable & sure].max(initial=0.0)
    picks = viable & (~sure | (ratio >= (1.0 - RESELECT_MARGIN) * top))
    best, best_cube = 0.0, None
    for level in range(sys.num_levels):
        lo, hi = sys.level_offset[level : level + 2]
        cubes = lo + np.flatnonzero(picks[lo:hi])
        if cubes.size == 0:
            continue
        cells = sys.cell_cube[level]
        nums = group_ksum(cells, num_terms[level], cubes)
        dens = group_ksum(cells, den_terms[level], cubes)
        # a viable cube has a positive denominator term, so no zero divides
        for cube, num, den in zip(cubes.tolist(), nums, dens):
            r = num ** (1.0 / exponent) / den ** (1.0 / exponent)
            if r > best:
                best, best_cube = r, cube
    return best, best_cube


def _level_batches(sys):
    step = sys.chunk_rows
    return [range(lo, min(lo + step, sys.num_levels)) for lo in range(0, sys.num_levels, step)]


def _runs_from(sys, contrib: np.ndarray, levels: range) -> np.ndarray:
    """``chain_running`` from level ``levels.start`` on, row i begun at ``levels[i]``, of
    ``contrib``: one shared value per cube, or per row those of the finer cubes."""
    lo = sys.level_offset[levels.start]
    values = np.repeat(contrib[None, lo:], len(levels), axis=0) if contrib.ndim == 1 else contrib
    for row, level in zip(values, levels):
        row[: sys.level_offset[level] - lo] = 0.0  # the coarser cubes, a prefix
    return lattice.chain_running(sys, values)


def forward_testing_constant(inst: Instance) -> TestingSide:
    sys = inst.sys
    rows, den_terms = np.empty_like(inst.mu), np.empty_like(inst.mu)
    # at p = 2 a level's profile is mu on its rows: every level shares the box integrals
    contrib = inst.lam * all_box_integrals(inst, inst.mu) if inst.p == 2.0 else None
    for levels in _level_batches(sys):
        phi = np.stack([level_test_input(inst, level) for level in levels])
        if inst.p != 2.0:
            boxes = lattice.box_sums(sys, inst.sigma * phi[:, levels.start :] * inst.mu[levels.start :])
            contrib = inst.lam[sys.level_offset[levels.start] :] * boxes
        # the whole run, not ``chain_total``: with only its row kept, d1 D12
        # p3 rows took 3-5% longer, in page faults as the heap shrank and grew
        rows[levels.start : levels.stop] = _runs_from(sys, contrib, levels)[:, -1]
        # all rows: where s**(q-2) overflows, the profile is NaN above its level
        den_terms[levels.start : levels.stop] = inst.sigma * ell2_slice(phi) ** inst.p
    # A cube's own test input vanishes off its atoms, so no value on the rest
    # of the level reaches its ratio, finite or not.
    skip = np.zeros(sys.num_cubes, dtype=bool)
    best, cube = _select(sys, inst.p, inst.omega * rows**inst.p, den_terms, skip)
    if cube is None:
        return TestingSide(0.0, None, np.zeros(sys.num_atoms))
    h = np.where(sys.atom_mask(cube), rows[sys.level_of(cube)], 0.0)
    return TestingSide(best, cube, lp_norming(h, inst.omega, inst.p)[0])


def dual_testing_constant(inst: Instance) -> TestingSide:
    sys = inst.sys
    contrib = inst.lam * lattice.cube_sums(sys, inst.omega)
    num_terms, bad = np.empty_like(inst.mu), np.empty(inst.mu.shape, dtype=bool)
    for levels in _level_batches(sys):
        kernel = inst.mu[levels.start :] * _runs_from(sys, contrib, levels)
        num_terms[levels.start : levels.stop] = inst.sigma * ell2_slice(kernel) ** inst.q
        bad[levels.start : levels.stop] = ~np.isfinite(kernel).all(axis=-2)
    # A cube's kernel is its level's kernel times its atom mask, which turns a
    # non-finite column off the cube into NaN: such cubes have no ratio.
    skip = lattice.level_sums(sys, bad) < bad.sum(axis=1)[sys.cube_level]
    best, cube = _select(sys, inst.q, num_terms, [inst.omega] * sys.num_levels, skip)
    if cube is None:
        return TestingSide(0.0, None, np.zeros((sys.num_levels, sys.num_atoms)))
    level, kernel = sys.level_of(cube), np.zeros_like(inst.mu)  # the run begun at the cube's level
    run = lattice.chain_running(sys, contrib[sys.level_offset[level] :])
    kernel[level:] = inst.mu[level:] * run * sys.atom_mask(cube)[None, :]
    return TestingSide(best, cube, mixed_norming(kernel, inst.sigma, inst.p)[0])


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
