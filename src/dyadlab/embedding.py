"""Carleson embedding checks: condition constant, empirical embedding
constant, the disjoint-set power inequality, and the stopping-family
embedding report.

The embedding inequality bounds a weighted sum of p-th powers of cube
averages by the p-th power of the Lp norm; its smallest constant is
comparable (p-dependently) to the smallest constant in the cube-mass
condition.  The condition side is exact arithmetic; the embedding side is a
seeded ratio maximization whose indicator seeds already certify that the
empirical constant dominates the condition constant.  The search evaluates
every cube indicator in closed form, from the cube masses alone, then runs
the power method of :func:`normest.power_ascent` on the cube-average map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import GuardError
from .forms import Instance, all_box_integrals, cube_averages
from .generators import philox
from .lattice import DyadicSystem
from .measures import conjugate, finite_nonnegative, group_ksum, ksum, largest_ratio, lp_norm, lp_norming, mixed_norm
from .normest import best_start, power_ascent
from .stopping import StoppingFamily, largest_subtree_ratio, subtree_totals


@dataclass(frozen=True)
class CarlesonData:
    """A cube mass collection and an atom measure to test embedding against."""

    a: np.ndarray   # per-cube, shape (num_cubes,)
    nu: np.ndarray  # per-atom, shape (num_atoms,)

    def __post_init__(self):
        # no lattice to check against here: the functions that read it check its shape
        object.__setattr__(self, "a", finite_nonnegative(self.a, np.shape(self.a), "a"))
        object.__setattr__(self, "nu", finite_nonnegative(self.nu, np.shape(self.nu), "nu"))


def _fitted(sys: DyadicSystem, data: CarlesonData) -> CarlesonData:
    """``data`` if its ``a`` holds one value a cube of ``sys`` and its ``nu`` one an atom."""
    for name, shape in (("a", (sys.num_cubes,)), ("nu", (sys.num_atoms,))):
        if getattr(data, name).shape != shape:
            raise ValueError(f"Carleson data {name} has shape {getattr(data, name).shape}, the lattice's is {shape}")
    return data


def carleson_condition_constant(sys: DyadicSystem, data: CarlesonData) -> float:
    """Smallest constant bounding subtree cube mass by measure mass.

    Returns inf when some cube carries zero measure but positive cube mass
    at or below it (the condition cannot hold at any constant).
    """
    best, flagged = largest_ratio(lattice.subtree_sums(sys, _fitted(sys, data).a), lattice.cube_sums(sys, data.nu))
    return float("inf") if flagged else best


@dataclass(frozen=True)
class RatioSearchResult:
    value: float
    witness: np.ndarray
    evaluations: int


_MAX_ITER, _TOL = 40, 1e-10  # the ascent's step cap and stop tolerance


def _ratios(sys: DyadicSystem, nu, a, masses, h: np.ndarray, p: float):
    """Embedding ratios of the rows of h: one averages pass, exact sums a row."""
    norms = [lp_norm(row, w, p) for row, w in zip(h, nu)]
    sums = [ksum(row) for row in a * cube_averages(sys, nu, masses, masses > 0, h) ** p]
    return [0.0 if n**p == 0.0 else total / n**p for n, total in zip(norms, sums)]


@functools.lru_cache(maxsize=None)
def _indicator_ratios(sys: DyadicSystem):
    """The map (data, masses, cubes, p) -> :func:`_ratios` of the indicators
    of ``cubes``, cubes with mass, bit for bit, over pair tables of ``sys``.

    An averages pass of 1_Q adds the atoms of Q as the masses pass does, with
    only zeros between them: the averages are 1.0 on each R in Q with mass
    and fl(nu(Q) / nu(R)) on each R above Q.  So one exact sum over the
    (cube, ancestor) pairs and one over the atoms give every ratio's terms.
    """
    atom = np.empty(sys.num_cubes, dtype=np.intp)
    atom[sys.cell_cube] = np.arange(sys.num_atoms)  # an atom of each cube
    level = np.repeat(np.arange(sys.num_levels), sys.num_cubes - sys.level_offset[:-1])
    inner = np.concatenate([np.arange(lo, sys.num_cubes) for lo in sys.level_offset[:-1]])
    outer = sys.cell_cube[level, atom[inner]]  # the ancestor at ``level`` or the cube
    # a pair gives each of its cubes the other's term, averaged over the inner cube
    up = outer != inner
    keys, terms = np.concatenate([inner, outer[up]]), np.concatenate([outer, inner[up]])
    inner = np.concatenate([inner, inner[up]])
    # ``group_ksum``'s stable sorts, once a lattice: a run of each cube's pairs and one of its cells
    ids, cell_keys = np.arange(sys.num_cubes + 1), sys.cell_cube.ravel()
    order, cells = np.argsort(keys, kind="stable"), np.argsort(cell_keys, kind="stable")
    terms, inner, cell_atom = terms[order], inner[order], cells % sys.num_atoms
    pair_at, cell_at = np.searchsorted(keys[order], ids).tolist(), np.searchsorted(cell_keys[cells], ids).tolist()

    def ratios(data: CarlesonData, masses: np.ndarray, cubes, p: float):
        avg = np.divide(masses[inner], masses[terms], out=np.zeros(len(terms)), where=masses[terms] > 0)
        pairs, nu, cubes = (data.a[terms] * avg**p).tolist(), data.nu[cell_atom].tolist(), cubes.tolist()
        sums = [math.fsum(pairs[pair_at[c] : pair_at[c + 1]]) for c in cubes]
        norms = [math.fsum(nu[cell_at[c] : cell_at[c + 1]]) ** (1.0 / p) for c in cubes]
        return [0.0 if n**p == 0.0 else total / n**p for n, total in zip(norms, sums)]

    return ratios


def _average_maps(sys: DyadicSystem, p: float):
    """The half-steps, each row with its instance's ``nu``, ``a``, ``masses`` and
    ``held = masses > 0`` rows: A h normed in lp(a), and A* g normed in Lq(nu)."""
    q = conjugate(p)

    def forward(h, nu, a, masses, held):
        return lp_norming(cube_averages(sys, nu, masses, held, h), a, p)

    def backward(g, nu, a, masses, held):
        t = np.divide(a * g, masses, out=np.zeros(g.shape), where=held)
        return lp_norming(lattice.chain_total(sys, t), nu, q)

    return forward, backward


def embedding_ratio_searches(sys: DyadicSystem, datas, p: float, restarts: int, seeds):
    """Empirical embedding constant of each of ``datas`` on ``sys``, with its
    seed: the largest ratio ||A h||^p / ||h||^p found for the cube-average
    map A: Lp(nu) -> lp(a).  Each cube indicator with mass, which certifies
    that a result dominates the condition constant, is one evaluation, in
    closed form (:func:`_indicator_ratios`, kept per lattice).  The constant
    function, the first best indicator and ``restarts`` random starts of each
    instance (drawn once a seed) then step together in one ascent, each row
    with its instance's weight rows; the exact ratio of an instance's first
    best iterate wins only when larger, so the witness attains the value."""
    if not datas:
        return []
    nu = np.array([_fitted(sys, data).nu for data in datas]).reshape(-1, sys.num_atoms)
    a = np.array([data.a for data in datas]).reshape(-1, sys.num_cubes)
    masses = lattice.cube_sums(sys, nu)
    indicator_ratios, starts, found = _indicator_ratios(sys), [], []
    draws = {seed: [philox(seed, k).random(sys.num_atoms) for k in range(restarts)] for seed in set(seeds)}
    for i, (data, seed) in enumerate(zip(datas, seeds, strict=True)):
        cubes = np.flatnonzero(masses[i] > 0)
        best, best_h, rows = 0.0, np.zeros(sys.num_atoms), [np.ones(sys.num_atoms)]
        if len(cubes):
            ratios = indicator_ratios(data, masses[i], cubes, p)
            first = int(np.argmax(ratios))  # the first best indicator
            rows.append(sys.atom_mask(int(cubes[first])).astype(np.float64))
            if ratios[first] > best:
                best, best_h = ratios[first], rows[1]
        rows += draws[seed]
        found.append([best, best_h, len(cubes), len(starts), len(starts) + len(rows)])
        starts += rows
    owner = np.repeat(np.arange(len(datas)), [hi - lo for *_, lo, hi in found])
    starts = np.array(starts).reshape(-1, sys.num_atoms)
    weights = nu, a, masses, masses > 0
    values, pairs, _, steps = power_ascent(sys, starts, *_average_maps(sys, p), _TOL, _MAX_ITER, owner, *weights)
    wins = [best_start(values, pairs, lo, hi) for *_, lo, hi in found]
    won = [i for i, win in enumerate(wins) if win is not None]  # one ratios pass for all
    h = np.array([pairs[wins[i]][0] for i in won]).reshape(-1, sys.num_atoms)
    for i, r in zip(won, _ratios(sys, nu[won], a[won], masses[won], h, p) if won else []):
        found[i][2] += 1
        if r > found[i][0]:
            found[i][:2] = r, pairs[wins[i]][0]
    return [RatioSearchResult(best, witness, evals + sum(steps[lo:hi])) for best, witness, evals, lo, hi in found]


def embedding_ratio_search(
    sys: DyadicSystem, data: CarlesonData, p: float, restarts: int = 4, seed: int = 0
) -> RatioSearchResult:
    """:func:`embedding_ratio_searches` of one instance."""
    return embedding_ratio_searches(sys, [data], p, restarts, [seed])[0]


@dataclass(frozen=True)
class DisjointnessReport:
    lhs: float
    rhs: float
    holds: bool


def disjointness_inequality(
    f: np.ndarray, sigma: np.ndarray, p: float, parts
) -> DisjointnessReport:
    """Compare the summed p-th power mixed norms over disjoint cell sets, each
    a boolean mask of ``f``'s shape, with the global one.  Guaranteed to hold
    for p >= 2; fails in general below."""
    f = np.asarray(f, dtype=np.float64)
    masks = [np.asarray(part, dtype=bool) for part in parts]
    if any(mask.shape != f.shape for mask in masks):
        raise ValueError(f"cell sets must be masks of shape {f.shape}")
    if np.any(np.sum(masks, axis=0) > 1):
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


def stopping_embedding_ratio(inst: Instance, f: np.ndarray, family: StoppingFamily) -> tuple[float, float, float]:
    """(lhs, rhs, lhs / rhs): the embedding sum of the brackets (the stored stats) against
    the test-input masses of ``family``, f's ratio family, and the p-th power mixed norm of f."""
    if inst.p < 2.0:
        raise GuardError(f"stopping embedding requires p >= 2, got {inst.p}")
    if family.kind != "ratio":
        raise ValueError("stopping embedding requires a ratio family")
    members = list(family.members)
    # brackets in Python floats: numpy's array power may round otherwise than ``**``
    masses = family.phi_mass[members].tolist()
    lhs = ksum([b**inst.p * m for b, m in zip(family.stats[members].tolist(), masses) if m > 0])
    rhs = mixed_norm(f, inst.sigma, inst.p) ** inst.p
    return lhs, rhs, lhs / rhs if rhs > 0 else 0.0


def stopping_embedding_report(
    inst: Instance, f: np.ndarray, family: StoppingFamily
) -> StoppingEmbeddingReport:
    """:func:`stopping_embedding_ratio`, plus the two structural facts its proof
    runs on: the lifted measure (each member's test-input mass summed over its
    stopping subtree) is a Carleson family with factor at most 4, and box
    masses of f reconstruct exactly from the exclusive boxes of the subtree."""
    lhs, rhs, ratio = stopping_embedding_ratio(inst, f, family)
    sys, members = inst.sys, list(family.members)
    factor = largest_subtree_ratio(sys, family, subtree_totals(sys, family, family.phi_mass))[0]

    # One grouping of the cells by projection gives every exclusive-box sum.
    weights = (inst.sigma[None, :] * f * inst.mu).ravel()
    owner = family.projection[sys.cell_cube].ravel()
    exclusive = np.zeros(sys.num_cubes)
    exclusive[members] = group_ksum(owner, weights, members)
    acc, target = subtree_totals(sys, family, exclusive)[members], all_box_integrals(inst, f)[members]
    scale = np.maximum(np.maximum(np.abs(target), np.abs(acc)), 1e-300)
    err = float((np.abs(acc - target) / scale).max())

    return StoppingEmbeddingReport(lhs, rhs, ratio, factor, err)
