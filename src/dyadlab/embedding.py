"""Carleson embedding checks: condition constant, empirical embedding
constant, the disjoint-set power inequality, and the stopping-family
embedding report.

The embedding inequality bounds a weighted sum of p-th powers of cube
averages by the p-th power of the Lp norm; its smallest constant is
comparable (p-dependently) to the smallest constant in the cube-mass
condition.  The condition side is exact arithmetic; the embedding side is a
seeded ratio maximization whose indicator seeds already certify that the
empirical constant dominates the condition constant.  The search takes one
cube-averages pass per evaluated function; the ascent step after it reuses
those averages for its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import generators, lattice
from .errors import GuardError
from .forms import Instance, all_box_integrals
from .lattice import DyadicSystem
from .measures import group_ksum, ksum, lp_norm, mixed_norm
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
    of the ratio; the best ratio over every iterate is kept.  Each evaluation
    computes the iterate's cube averages once, and the next step takes its
    gradient from them.
    """
    masses = lattice.cube_sums(sys, data.nu)
    best = 0.0
    best_h = np.zeros(sys.num_atoms)
    evals = 0

    def consider(h: np.ndarray) -> tuple[float, np.ndarray]:
        """Embedding ratio of h and its cube averages."""
        nonlocal best, best_h, evals
        evals += 1
        integrals = lattice.cube_sums(sys, data.nu * h)
        avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)
        n = lp_norm(h, data.nu, p)
        den = n**p
        r = 0.0 if den == 0.0 else ksum(data.a * avg**p) / den
        if r > best:
            best = r
            best_h = h / n if n > 0 else h
        return r, avg

    def ascend(h: np.ndarray):
        _, avg = consider(h)
        for _ in range(_ASCENT_STEPS):
            t = np.divide(
                data.a * avg ** (p - 1.0),
                masses,
                out=np.zeros_like(avg),
                where=masses > 0,
            )
            grad = lattice.chain_running(sys, t)[-1]
            h_new = grad ** (1.0 / (p - 1.0))
            top = h_new.max()
            if top == 0.0:
                return
            h_new /= top
            _, avg = consider(h_new)
            # iterates are finite or NaN, and NaN never counts as converged
            if np.all(np.abs(h_new - h) <= 1e-13 * np.abs(h)):
                return
            h = h_new

    seeds = [np.ones(sys.num_atoms)]
    indicator_best = None
    for lin in range(sys.num_cubes):
        if masses[lin] == 0:
            continue
        h = sys.atom_mask(lin).astype(np.float64)
        r, _ = consider(h)
        if indicator_best is None or r > indicator_best[0]:
            indicator_best = (r, h)
    if indicator_best is not None:
        seeds.append(indicator_best[1])
    for k in range(restarts):
        rng = generators.philox(seed, k)
        seeds.append(rng.random(sys.num_atoms))
    for h in seeds:
        ascend(h)
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
