"""Carleson embedding checks: condition constant, empirical embedding
constant, the disjoint-set power inequality, and the stopping-family
embedding report.

The embedding inequality bounds a weighted sum of p-th powers of cube
averages by the p-th power of the Lp norm; its smallest constant is
comparable (p-dependently) to the smallest constant in the cube-mass
condition.  The condition side is exact arithmetic; the embedding side is a
seeded ratio maximization whose indicator seeds already certify that the
empirical constant dominates the condition constant.  The search evaluates
its functions in chunks, one batched cube-averages pass per chunk: the cube
indicators first, then the ascent seeds in lockstep, each step reusing the
averages of the last for its gradients.  A chunk holds more functions the
smaller the lattice, and a single one on the largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import generators, lattice
from .errors import GuardError
from .forms import Instance, all_box_integrals
from .lattice import DyadicSystem
from .measures import group_ksum, ksum, lp_norms, mixed_norm, row_ksums
from .stopping import StoppingFamily, _largest_subtree_ratio, _subtree_totals, cell_projection


@dataclass(frozen=True)
class CarlesonData:
    """A cube mass collection and an atom measure to test embedding against."""

    a: np.ndarray   # per-cube, shape (num_cubes,)
    nu: np.ndarray  # per-atom, shape (num_atoms,)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        if np.any(a < 0) or not np.all(np.isfinite(a)):
            raise ValueError("cube masses must be finite and nonnegative")
        if np.any(nu < 0) or not np.all(np.isfinite(nu)):
            raise ValueError("measure must be finite and nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "nu", nu)


def carleson_condition_constant(sys: DyadicSystem, data: CarlesonData) -> float:
    """Smallest constant bounding subtree cube mass by measure mass.

    Returns inf when some cube carries zero measure but positive cube mass
    at or below it (the condition cannot hold at any constant).
    """
    sub = lattice.subtree_sums(sys, data.a)
    masses = lattice.cube_sums(sys, data.nu)
    if np.any((masses == 0) & (sub > 0)):
        return float("inf")
    positive = masses > 0
    if not np.any(positive):
        return 0.0
    return float(np.max(sub[positive] / masses[positive]))


@dataclass(frozen=True)
class RatioSearchResult:
    value: float
    witness: np.ndarray
    evaluations: int


_ASCENT_STEPS = 40  # fixed-point steps per seed

# A chunk of functions, evaluated in one batched lattice pass, holds about
# this many (level, atom) cells, and at least one function.  Measured on the
# search alone (p = 3, two restarts, 1 BLAS thread): chunks of one row took
# 1.9x the rule's time at d1 D6 (36 rows a chunk), 1.6x at d1 D8 (7), 1.3x
# at d3 D3 (8), 1.2x at d1 D9 (3) and the same at d2 D5 (2).  From d1 D10 on
# (11264 cells a row) a chunk is one function, which takes the unbatched
# lattice path: batched passes measured slower there.
_CHUNK_CELLS = 1 << 14


def _chunk_rows(sys: DyadicSystem) -> int:
    return max(1, _CHUNK_CELLS // (sys.num_levels * sys.num_atoms))


def _ratios(sys: DyadicSystem, data: CarlesonData, masses: np.ndarray, h: np.ndarray, p: float):
    """Embedding ratios of the rows of h, with their Lp(nu) norms and cube
    averages: one batched averages pass, then one exact sum per row."""
    integrals = lattice.cube_sums(sys, data.nu * h)
    avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)
    norms = lp_norms(h, data.nu, p)
    sums = row_ksums(data.a * avg**p)
    ratios = [0.0 if n**p == 0.0 else total / n**p for n, total in zip(norms, sums)]
    return ratios, norms, avg


def _lockstep_ascent(
    sys: DyadicSystem, data: CarlesonData, masses: np.ndarray, h: np.ndarray, p: float
):
    """Fixed-point ascent from every row of h, the rows stepped together.

    Returns per row the first largest ratio among its iterates (0.0 when none
    is positive) with that iterate at unit norm, and the evaluation count.  A
    row leaves the batch when its step vanishes or its iterate settles.
    """
    best, witness = [0.0] * len(h), [None] * len(h)
    live = list(range(len(h)))  # the row of each iterate
    h_new, evals = h, 0
    for step in range(_ASCENT_STEPS + 1):
        ratios, norms, avg = _ratios(sys, data, masses, h_new, p)
        evals += len(live)
        for i, r, n, row in zip(live, ratios, norms, h_new):
            if r > best[i]:
                best[i], witness[i] = r, row / n
        if step > 0:
            # iterates are finite or NaN, and NaN never counts as converged
            going = ~np.all(np.abs(h_new - h) <= 1e-13 * np.abs(h), axis=1)
            if not going.all():
                h_new, avg = h_new[going], avg[going]
                live = list(compress(live, going.tolist()))
        h = h_new
        if step == _ASCENT_STEPS or not live:
            break
        t = np.divide(data.a * avg ** (p - 1.0), masses, out=np.zeros_like(avg), where=masses > 0)
        h_new = lattice.chain_running(sys, t)[:, -1] ** (1.0 / (p - 1.0))
        top = h_new.max(axis=1, keepdims=True)
        moving = top[:, 0] != 0.0  # a seed whose step vanishes ends unevaluated
        if not moving.all():
            h, h_new, top = h[moving], h_new[moving], top[moving]
            live = list(compress(live, moving.tolist()))
            if not live:
                break
        h_new /= top
    return best, witness, evals


def embedding_ratio_search(
    sys: DyadicSystem,
    data: CarlesonData,
    p: float,
    restarts: int = 4,
    seed: int = 0,
) -> RatioSearchResult:
    """Empirical embedding constant by seeded fixed-point ascent.

    Seeds: the indicator of every cube (these certify that the result
    dominates the condition constant), the constant function, and ``restarts``
    random starts.  From each seed the update replaces h by the (1/(p-1))-th
    power of the collected average-gradient, which is the stationarity shape
    of the ratio; the best ratio over every iterate is kept, the first one
    in the order indicators (cube order), then seed by seed, step by step.

    The work runs in chunks of ``_chunk_rows`` functions, each one batched
    lattice pass: the indicators of the cubes with mass, then the ascent
    seeds in lockstep, whose every step evaluates the live seeds' iterates
    together and takes the next gradients from those averages.
    """
    masses = lattice.cube_sums(sys, data.nu)
    rows = _chunk_rows(sys)
    best, best_h, evals = 0.0, np.zeros(sys.num_atoms), 0

    cubes = np.flatnonzero(masses > 0)
    indicator = None  # the first best indicator ratio and its function
    for start in range(0, len(cubes), rows):
        chunk = cubes[start : start + rows]
        h = (sys.cell_cube[sys.cube_level[chunk]] == chunk[:, None]).astype(np.float64)
        ratios, norms, _ = _ratios(sys, data, masses, h, p)
        evals += len(chunk)
        for r, n, row in zip(ratios, norms, h):
            if r > best:
                best, best_h = r, row / n
            if indicator is None or r > indicator[0]:
                indicator = (r, row)

    seeds = [np.ones(sys.num_atoms)]
    if indicator is not None:
        seeds.append(indicator[1])
    seeds += [generators.philox(seed, k).random(sys.num_atoms) for k in range(restarts)]
    for start in range(0, len(seeds), rows):
        found, witness, count = _lockstep_ascent(
            sys, data, masses, np.array(seeds[start : start + rows]), p
        )
        evals += count
        for r, h in zip(found, witness):
            if r > best:
                best, best_h = r, h
    return RatioSearchResult(best, best_h, evals)


@dataclass(frozen=True)
class DisjointnessReport:
    lhs: float
    rhs: float
    holds: bool


def disjointness_inequality(
    f: np.ndarray, sigma: np.ndarray, p: float, parts
) -> DisjointnessReport:
    """Compare the summed p-th power mixed norms over disjoint cell sets with
    the global one.  Guaranteed to hold for p >= 2; fails in general below."""
    f = np.asarray(f, dtype=np.float64)
    levels, atoms = f.shape
    cover = np.zeros(f.shape, dtype=np.int64)
    masks = []
    for part in parts:
        mask = np.zeros(f.shape, dtype=bool)
        for atom, level in part:
            mask[level, atom] = True
        cover += mask
        masks.append(mask)
    if np.any(cover > 1):
        raise ValueError("cell sets overlap")
    lhs = ksum([mixed_norm(f * m, sigma, p) ** p for m in masks])
    rhs = mixed_norm(f, sigma, p) ** p
    return DisjointnessReport(lhs, rhs, lhs <= rhs + 1e-12 * rhs)


@dataclass(frozen=True)
class StoppingEmbeddingReport:
    lhs: float
    rhs: float
    ratio: float
    nu_carleson_factor: float
    alpha_identity_rel_err: float


def stopping_embedding_report(
    inst: Instance, f: np.ndarray, family: StoppingFamily
) -> StoppingEmbeddingReport:
    """Embedding sum of bracket averages against test-input masses, plus the
    two structural facts its proof runs on: the lifted measure (each
    member's test-input mass summed over its stopping subtree) is a Carleson
    family with factor at most 4, and box masses of f reconstruct exactly
    from the exclusive boxes of the stopping subtree."""
    if inst.p < 2.0:
        raise GuardError(f"stopping embedding requires p >= 2, got {inst.p}")
    if family.kind != "ratio":
        raise ValueError("stopping embedding requires a ratio family")
    sys = inst.sys

    num = all_box_integrals(inst, f)
    brackets = {
        m: (num[m] / family.phi_mass[m] if family.phi_mass[m] > 0 else 0.0)
        for m in family.members
    }
    lhs = ksum([brackets[m] ** inst.p * family.phi_mass[m] for m in family.members])
    rhs = mixed_norm(f, inst.sigma, inst.p) ** inst.p
    ratio = lhs / rhs if rhs > 0 else 0.0

    factor = _largest_subtree_ratio(family, _subtree_totals(family, family.phi_mass))[0]

    # One grouping of the cells by owner gives every exclusive-box sum.
    weights = (inst.sigma[None, :] * f * inst.mu).ravel()
    owner = cell_projection(sys, family).ravel()
    exclusive = dict(zip(family.members, group_ksum(owner, weights, family.members)))
    acc = _subtree_totals(family, exclusive)
    err = 0.0
    for member in reversed(family.members):
        target = num[member]
        scale = max(abs(target), abs(acc[member]), 1e-300)
        err = max(err, abs(acc[member] - target) / scale)

    return StoppingEmbeddingReport(lhs, rhs, ratio, factor, err)
