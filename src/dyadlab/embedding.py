"""Carleson embedding checks: condition constant, empirical embedding
constant, the disjoint-set power inequality, and the stopping-family
embedding report.

The embedding inequality bounds a weighted sum of p-th powers of cube
averages by the p-th power of the Lp norm; its smallest constant is
comparable (p-dependently) to the smallest constant in the cube-mass
condition.  The condition side is exact arithmetic; the embedding side is a
seeded ratio maximization whose indicator seeds already certify that the
empirical constant dominates the condition constant.  The search evaluates
the cube indicators in chunks, one batched cube-averages pass per chunk, then
runs the power method of :func:`normest.power_ascent` on the cube-average
map, whose seeds step in lockstep on the same chunks.  A chunk holds more
functions the smaller the lattice, and a single one on the largest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import generators, lattice
from .errors import GuardError
from .forms import Instance, all_box_integrals
from .lattice import DyadicSystem
from .measures import conjugate, group_ksum, ksum, lp_norming, lp_norms, mixed_norm, row_ksums
from .normest import power_ascent
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


_MAX_ITER, _TOL = 40, 1e-10  # the ascent's step cap and stop tolerance


def _averages(sys: DyadicSystem, data: CarlesonData, masses: np.ndarray, h: np.ndarray):
    """The cube-average map A h = (avg_Q h)_Q, zero on the cubes without mass."""
    integrals = lattice.cube_sums(sys, data.nu * h)
    return np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)


def _ratios(sys: DyadicSystem, data: CarlesonData, masses: np.ndarray, h: np.ndarray, p: float):
    """Embedding ratios of the rows of h: one averages pass, one exact sum a row."""
    norms = lp_norms(h, data.nu, p)
    sums = row_ksums(data.a * _averages(sys, data, masses, h) ** p)
    return [0.0 if n**p == 0.0 else total / n**p for n, total in zip(norms, sums)]


def _average_maps(sys: DyadicSystem, data: CarlesonData, masses: np.ndarray, p: float):
    """The half-steps: A h normed in lp(a), and A* g normed in Lq(nu)."""

    def forward(h):
        return lp_norming(_averages(sys, data, masses, h), data.a, p)

    def backward(g):
        t = np.divide(data.a * g, masses, out=np.zeros_like(g), where=masses > 0)
        return lp_norming(lattice.chain_running(sys, t)[..., -1, :], data.nu, conjugate(p))

    return forward, backward


def embedding_ratio_search(
    sys: DyadicSystem,
    data: CarlesonData,
    p: float,
    restarts: int = 4,
    seed: int = 0,
) -> RatioSearchResult:
    """Empirical embedding constant: the largest ratio ||A h||^p / ||h||^p
    found for the cube-average map A: Lp(nu) -> lp(a).

    The indicators of the cubes with mass, which certify that the result
    dominates the condition constant, take one averages pass per chunk.  The
    constant function, the first best indicator and ``restarts`` random starts
    then seed :func:`normest.power_ascent`; the exact ratio of its best
    iterate wins only when larger, so the witness attains the value.
    """
    masses = lattice.cube_sums(sys, data.nu)
    rows = lattice.chunk_rows(sys)
    best, best_h, evals = 0.0, np.zeros(sys.num_atoms), 0

    cubes = np.flatnonzero(masses > 0)
    indicator = None  # the first best indicator ratio and its function
    for start in range(0, len(cubes), rows):
        chunk = cubes[start : start + rows]
        h = (sys.cell_cube[sys.cube_level[chunk]] == chunk[:, None]).astype(np.float64)
        evals += len(chunk)
        for r, row in zip(_ratios(sys, data, masses, h, p), h):
            if r > best:
                best, best_h = r, row
            if indicator is None or r > indicator[0]:
                indicator = (r, row)

    seeds = [np.ones(sys.num_atoms)]
    if indicator is not None:
        seeds.append(indicator[1])
    seeds += [generators.philox(seed, k).random(sys.num_atoms) for k in range(restarts)]
    forward, backward = _average_maps(sys, data, masses, p)
    _, pair, _, steps = power_ascent(sys, np.array(seeds), forward, backward, _TOL, _MAX_ITER)
    evals += steps
    if pair is not None:
        r = _ratios(sys, data, masses, pair[0][None, :], p)[0]
        evals += 1
        if r > best:
            best, best_h = r, pair[0]
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
