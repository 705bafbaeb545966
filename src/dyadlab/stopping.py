"""Stopping-cube families and the two-family decomposition machinery.

Two constructions, both iterated maximal-cube selections below a top cube:

* the *average* family stops at maximal cubes whose weighted average of an
  atom function more than doubles the average over the current member;
* the *ratio* family stops at maximal cubes where the box mass of a scale
  function, calibrated by the member's optimal test input, jumps by more than
  a factor ``A``.

Both are built by one top-down sweep over the levels below the top, which
tests each strict subcube once, one array comparison per level, against the
threshold of its nearest strict-ancestor member.  Members form a tree (the
stopping tree) that is in general much sparser than the lattice tree; a
member's stopping children are listed by level, then in Morton order (the
order of ``lattice.children``: coordinate 0 in the high bit of each child
code), and ``members`` is the breadth-first order of the stopping tree.  On
top of the families live the projection to the smallest member (one table
per family, which also defines the exclusive sets: member minus its stopping
children), the cross children (stopping children whose projection under the
*other* family stays inside the member), and the two collapse operations that
replace a function below cross children by calibrated profiles without
changing the integrals the form sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .forms import Instance, all_box_integrals, all_cube_integrals, level_test_input
from .lattice import Cube, DyadicSystem
from .measures import average, conjugate, ksum


@dataclass(frozen=True)
class StoppingFamily:
    kind: str                         # "average" or "ratio"
    top: int                          # linear cube id
    members: tuple[int, ...]          # enumeration order
    children: dict[int, tuple[int, ...]]
    parent: dict[int, int]            # stopping parent (absent for top)
    stats: dict[int, float]           # per-member average (avg) or bracket (ratio)
    phi_mass: dict[int, float] = field(default_factory=dict)  # ratio kind only
    params: dict[str, float] = field(default_factory=dict)


def default_ratio_constants(p: float) -> tuple[float, float]:
    """The (A, B) pair that makes the child test-input mass geometrically
    summable: B = 4**(1/q), A = 4*B**(2-q) with q the conjugate exponent."""
    q = conjugate(p)
    b = 4.0 ** (1.0 / q)
    return 4.0 * b ** (2.0 - q), b


def _level_sweep(
    sys: DyadicSystem, top: int, triggered
) -> tuple[list[int], dict[int, tuple[int, ...]], dict[int, int]]:
    """Members (BFS order), stopping children and parents below ``top``.

    One pass per level walks the top's subtree in ``lattice.children`` order,
    the order a per-member BFS visits cubes.  Each strict subcube is tested
    once, against its owner (its nearest strict-ancestor member):
    ``triggered(cubes, owners)`` marks the cubes that become members.
    """
    is_member = np.zeros(sys.num_cubes, dtype=bool)
    owner = np.zeros(sys.num_cubes, dtype=np.intp)
    is_member[top] = True
    codes = np.arange(1 << sys.dimension)
    offsets = [(codes >> (sys.dimension - 1 - i)) & 1 for i in range(sys.dimension)]
    cubes = np.array([top])
    found: list[int] = []
    for j in range(int(sys.cube_level[top]) + 1, sys.num_levels):
        digits = np.unravel_index(cubes - sys.level_offset[j - 1], (1 << (j - 1),) * sys.dimension)
        up = np.repeat(cubes, len(codes))
        cubes = sys.level_offset[j] + np.ravel_multi_index(
            tuple((2 * d[:, None] + o).ravel() for d, o in zip(digits, offsets)),
            (1 << j,) * sys.dimension,
        )
        owner[cubes] = np.where(is_member[up], up, owner[up])
        hits = cubes[triggered(cubes, owner[cubes])]
        is_member[hits] = True
        found.extend(hits.tolist())

    below: dict[int, list[int]] = {m: [] for m in [top, *found]}
    for c, o in zip(found, owner[found].tolist()):
        below[o].append(c)
    members = [top]
    for member in members:  # grows while it is walked: a BFS queue
        members.extend(below[member])
    children = {m: tuple(below[m]) for m in members}
    return members, children, {c: m for m in members for c in children[m]}


def build_average_family(inst: Instance, top: Cube, g: np.ndarray) -> StoppingFamily:
    """Average-stopping family for an atom function, threshold factor 2."""
    sys = inst.sys
    masses = lattice.cube_sums(sys, inst.omega)
    integrals = all_cube_integrals(inst, g)
    avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)

    top_lin = sys.linear(top)
    members, children, parents = _level_sweep(
        sys, top_lin, lambda cubes, owners: avg[cubes] > 2.0 * avg[owners]
    )
    stats = {m: float(avg[m]) for m in members}
    return StoppingFamily("average", top_lin, tuple(members), children, parents, stats)


def build_ratio_family(
    inst: Instance, top: Cube, f: np.ndarray, A: float | None = None
) -> StoppingFamily:
    """Ratio-stopping family for a scale function.

    The trigger compares box masses of ``f`` calibrated by the *member's* test
    input; 0/0 ratios never trigger (the calibrating mass vanishes only where
    the f-mass does).  Strict inequality throughout: equality never stops.
    """
    a_default, b = default_ratio_constants(inst.p)
    if A is None:
        A = a_default
    if not A > 0:
        raise ValueError(f"stopping factor A must be positive, got {A}")
    sys = inst.sys
    num = all_box_integrals(inst, f)
    # A member's test input is its level's profile restricted to the member,
    # and the trigger only reads box integrals of subcubes of the member:
    # there the profile's box integrals are the member's own.  ``ratio``
    # holds each cube's calibrated mass under its own level's profile.
    dens: dict[int, np.ndarray] = {}
    ratio = np.zeros(sys.num_cubes)

    def den_at(level: int) -> np.ndarray:
        if level not in dens:
            dens[level] = den = all_box_integrals(inst, level_test_input(inst, level))
            lo, hi = sys.level_offset[level], sys.level_offset[level + 1]
            np.divide(num[lo:hi], den[lo:hi], out=ratio[lo:hi], where=den[lo:hi] > 0)
        return dens[level]

    def triggered(cubes: np.ndarray, owners: np.ndarray) -> np.ndarray:
        owner_level = sys.cube_level[owners]
        den = np.empty(len(cubes))
        for level in set(owner_level.tolist()):
            at = owner_level == level
            den[at] = den_at(level)[cubes[at]]
        calibrated = np.divide(num[cubes], den, out=np.zeros_like(den), where=den > 0)
        return (den > 0) & (calibrated > A * ratio[owners])

    top_lin = sys.linear(top)
    members, children, parents = _level_sweep(sys, top_lin, triggered)
    levels = sys.cube_level[members].tolist()
    phi_mass = {m: float(den_at(level)[m]) for m, level in zip(members, levels)}
    stats = {m: float(ratio[m]) for m in members}  # den_at filled every member level
    return StoppingFamily(
        "ratio",
        top_lin,
        tuple(members),
        children,
        parents,
        stats,
        phi_mass,
        {"A": float(A), "B": float(b)},
    )


def projection(sys: DyadicSystem, family: StoppingFamily) -> np.ndarray:
    """Per linear cube id: the smallest family member containing the cube,
    -1 for cubes outside the top.  One top-down pass per level below the top:
    a cube that is no member inherits its parent's projection."""
    proj = np.full(sys.num_cubes, -1, dtype=np.intp)
    proj[list(family.members)] = family.members
    for j in range(int(sys.cube_level[family.top]) + 1, sys.num_levels):
        lo, hi = sys.level_offset[j], sys.level_offset[j + 1]
        proj[lo:hi] = np.where(proj[lo:hi] >= 0, proj[lo:hi], proj[sys.parent_linear[lo:hi]])
    return proj


def cell_projection(sys: DyadicSystem, family: StoppingFamily) -> np.ndarray:
    """Per cell ``(j, a)``: the projection of the level-j cube containing atom
    a.  A member's exclusive box (its box minus the boxes of its stopping
    children) is where this equals the member; its exclusive atoms (its atoms
    minus those of its stopping children) are where the last row does."""
    return projection(sys, family)[sys.level_offset[:-1, None] + sys.ancestor_local]


def _subtree_totals(family: StoppingFamily, own) -> dict[int, float]:
    """Per member: ``own[member]`` plus the totals of its stopping children,
    summed children before parents, in member order."""
    total: dict[int, float] = {}
    for member in reversed(family.members):
        total[member] = own[member] + sum(total[c] for c in family.children[member])
    return total


def _largest_subtree_ratio(family: StoppingFamily, own) -> tuple[float, bool]:
    """Largest ratio of a member's subtree total to its own value, over members
    with a positive own value, and whether a member with no own value carries
    a positive total."""
    total = _subtree_totals(family, own)
    best, flagged = 0.0, False
    for member in reversed(family.members):
        if own[member] > 0:
            best = max(best, float(total[member] / own[member]))
        elif total[member] > 0:
            flagged = True
    return best, flagged


def carleson_constant(sys: DyadicSystem, family: StoppingFamily, w: np.ndarray) -> float:
    """Largest subfamily-to-member mass ratio; inf if a massless member
    carries positive subfamily mass."""
    masses = lattice.cube_sums(sys, np.asarray(w, dtype=np.float64))
    best, flagged = _largest_subtree_ratio(family, masses)
    return float("inf") if flagged else best


def cross_children(
    sys: DyadicSystem, family: StoppingFamily, other: StoppingFamily, member: int
) -> list[int]:
    """Stopping children of ``member`` whose projection under the other
    family stays inside ``member``."""
    proj = projection(sys, other)
    level = sys.cube_level[member]
    out = []
    for c in family.children[member]:
        if proj[c] < 0:
            raise ValueError(f"cube {sys.cube_at(c)} lies outside the family top")
        # proj and member both contain c, so they nest: proj lies inside
        # member exactly when it is no coarser
        if sys.cube_level[proj[c]] >= level:
            out.append(c)
    return out


def collapse_scale_function(
    inst: Instance,
    f: np.ndarray,
    avg_family: StoppingFamily,
    ratio_family: StoppingFamily,
    member: int,
) -> np.ndarray:
    """Replace f below the cross children of an average-family member by
    calibrated test-input profiles; box integrals over cubes projecting to
    this member (strictly inside their ratio projection) are unchanged."""
    if member not in avg_family.children:
        raise ValueError("member does not belong to the average family")
    sys = inst.sys
    out = f * (cell_projection(sys, avg_family) == member)
    num = all_box_integrals(inst, f)
    proj = projection(sys, ratio_family)
    profiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for c in cross_children(sys, avg_family, ratio_family, member):
        # c lies inside its ratio projection, whose test input is therefore
        # the projection level's profile on the box of c.
        level = int(sys.cube_level[proj[c]])
        if level not in profiles:
            phi = level_test_input(inst, level)
            profiles[level] = (phi, all_box_integrals(inst, phi))
        phi, den = profiles[level]
        coeff = num[c] / den[c] if den[c] > 0 else 0.0
        out = out + coeff * (phi * sys.box_mask(sys.cube_at(c)))
    return out


def collapse_atom_function(
    inst: Instance,
    g: np.ndarray,
    avg_family: StoppingFamily,
    ratio_family: StoppingFamily,
    member: int,
) -> np.ndarray:
    """Replace g below the cross children of a ratio-family member by its
    averages; cube integrals over cubes projecting to this member are kept."""
    if member not in ratio_family.children:
        raise ValueError("member does not belong to the ratio family")
    sys = inst.sys
    out = g * (cell_projection(sys, ratio_family)[-1] == member)
    for c in cross_children(sys, ratio_family, avg_family, member):
        cube = sys.cube_at(c)
        out = out + average(sys, g, inst.omega, cube) * sys.atom_mask(cube)
    return out


def child_mass_bound(family: StoppingFamily) -> float:
    """Largest ratio (sum of children test-input masses) / (member mass)."""
    if family.kind != "ratio":
        raise ValueError("test-input masses exist only for ratio families")
    worst = 0.0
    for member in family.members:
        parent_mass = family.phi_mass[member]
        if parent_mass == 0.0:
            continue
        child_sum = ksum([family.phi_mass[c] for c in family.children[member]])
        worst = max(worst, child_sum / parent_mass)
    return worst


def subfamily_mass_bound(family: StoppingFamily) -> float:
    """Largest ratio (sum of test-input masses over the stopping subtree) /
    (member mass)."""
    if family.kind != "ratio":
        raise ValueError("test-input masses exist only for ratio families")
    return _largest_subtree_ratio(family, family.phi_mass)[0]
