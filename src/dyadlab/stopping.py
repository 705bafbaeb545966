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
stopping tree) that is in general much sparser than the lattice tree, listed
in ``members`` breadth first, each member's children by level, then in
Morton order (that of ``lattice.children``: coordinate 0 in the high bit of
each child code).  The sweep also builds the family's projection table (each
cube's smallest containing member), which defines the tree (a member's
parent is the projection of its lattice parent, :func:`stopping_parents`;
children are implied by ``members`` and not stored), the exclusive sets
(member minus its stopping children), the cross children (stopping children
whose projection under the *other* family stays inside the member), and the
two collapse operations that replace a function below cross children by
calibrated profiles without changing the integrals the form sees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .forms import Instance, all_box_integrals, all_cube_averages, level_test_input
from .lattice import DyadicSystem
from .measures import conjugate, group_ksum, largest_ratio


@dataclass(frozen=True)
class StoppingFamily:
    kind: str                         # "average" or "ratio"
    top: int                          # linear cube id
    members: tuple[int, ...]          # breadth-first order of the stopping tree
    # Per cube id, read-only: the smallest member holding it (-1 outside the
    # top); the member's average (avg) or bracket (ratio) and, ratio kind
    # only, its test-input mass, 0.0 off the members.
    projection: np.ndarray = field(compare=False)
    stats: np.ndarray = field(compare=False)
    phi_mass: np.ndarray | None = field(default=None, compare=False)
    params: dict[str, float] = field(default_factory=dict)


def default_ratio_constants(p: float) -> tuple[float, float]:
    """The (A, B) pair that makes the child test-input mass geometrically
    summable: B = 4**(1/q), A = 4*B**(2-q) with q the conjugate exponent."""
    q = conjugate(p)
    b = 4.0 ** (1.0 / q)
    return 4.0 * b ** (2.0 - q), b


def _level_sweep(sys: DyadicSystem, top: int, triggered) -> tuple[list[int], np.ndarray]:
    """Members (BFS order) and projection below ``top``.

    One pass per level walks the top's subtree along the lattice's
    ``child_linear`` rows, in ``lattice.children`` order, the order a
    per-member BFS visits cubes.  Each strict subcube takes its parent's
    projection, its owner, and is tested once against it:
    ``triggered(cubes, owners)`` marks the cubes that become members, each
    its own projection.  Cubes outside the top keep -1.
    """
    steps = sys.depth - sys.level_of(top)  # before ``top`` indexes anything
    proj = np.full(sys.num_cubes, -1, dtype=np.intp)
    proj[top] = top
    cubes = np.array([top])
    found: list[int] = []
    for _ in range(steps):
        owners = np.repeat(proj[cubes], 1 << sys.dimension)
        cubes = sys.child_linear[cubes].ravel()
        proj[cubes] = owners
        hits = cubes[triggered(cubes, owners)]
        proj[hits] = hits
        found.extend(hits.tolist())
    proj.flags.writeable = False

    # the level order, grouped by stopping parent, is the breadth-first order
    below: dict[int, list[int]] = {m: [] for m in [top, *found]}
    for c, o in zip(found, proj[sys.parent_linear[found]].tolist()):
        below[o].append(c)
    members = [top]
    for member in members:  # grows while it is walked: a BFS queue
        members.extend(below[member])
    return members, proj


def _is_member(proj: np.ndarray) -> np.ndarray:
    """Mask over cube ids of the members, the cubes that are their own projection."""
    return proj == np.arange(proj.size)


def build_average_family(inst: Instance, top: int, g: np.ndarray) -> StoppingFamily:
    """Average-stopping family for an atom function, threshold factor 2."""
    sys = inst.sys
    avg = all_cube_averages(inst, g)
    members, proj = _level_sweep(sys, top, lambda cubes, owners: avg[cubes] > 2.0 * avg[owners])
    stats = np.where(_is_member(proj), avg, 0.0)
    stats.flags.writeable = False
    return StoppingFamily("average", top, tuple(members), proj, stats)


def build_ratio_family(
    inst: Instance, top: int, f: np.ndarray, A: float | None = None
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
    # there the profile's box integrals, and f's box masses calibrated by
    # them, are the member's own.
    @functools.cache
    def calibrated(level: int) -> tuple[np.ndarray, np.ndarray]:
        den = all_box_integrals(inst, level_test_input(inst, level))
        return den, np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def triggered(cubes: np.ndarray, owners: np.ndarray) -> np.ndarray:
        owner_level = sys.cube_level[owners]
        hit = np.empty(len(cubes), dtype=bool)
        for level in set(owner_level.tolist()):
            at = owner_level == level
            den, ratio = calibrated(level)
            hit[at] = (den[cubes[at]] > 0) & (ratio[cubes[at]] > A * ratio[owners[at]])
        return hit

    members, proj = _level_sweep(sys, top, triggered)
    member, phi_mass = _is_member(proj), np.zeros(sys.num_cubes)
    for level in set(sys.cube_level[members].tolist()):
        at = slice(sys.level_offset[level], sys.level_offset[level + 1])
        phi_mass[at] = np.where(member[at], calibrated(level)[0][at], 0.0)
    stats = np.divide(num, phi_mass, out=np.zeros_like(num), where=phi_mass > 0)
    stats.flags.writeable = phi_mass.flags.writeable = False
    params = {"A": float(A), "B": float(b)}
    return StoppingFamily("ratio", top, tuple(members), proj, stats, phi_mass, params)


def stopping_parents(sys: DyadicSystem, family: StoppingFamily) -> np.ndarray:
    """The stopping parent of each member after the top, in ``members``
    order: the projection of its lattice parent."""
    return family.projection[sys.parent_linear[list(family.members[1:])]]


def subtree_totals(sys: DyadicSystem, family: StoppingFamily, own: np.ndarray) -> np.ndarray:
    """Per cube: the sum of the per-cube ``own`` over the members inside it,
    one ``lattice.subtree_sums`` pass.  At a member, its own value plus the
    totals of its stopping children."""
    return lattice.subtree_sums(sys, np.where(_is_member(family.projection), own, 0.0))


def largest_subtree_ratio(sys: DyadicSystem, family: StoppingFamily, own) -> tuple[float, bool]:
    """Largest ratio of a member's subtree total to its own value, over members
    with a positive own value, and whether a member with no own value carries
    a positive total."""
    member = _is_member(family.projection)
    return largest_ratio(subtree_totals(sys, family, own)[member], np.asarray(own)[member])


def carleson_constant(sys: DyadicSystem, family: StoppingFamily, w: np.ndarray) -> float:
    """Largest subfamily-to-member mass ratio; inf if a massless member
    carries positive subfamily mass."""
    masses = lattice.cube_sums(sys, np.asarray(w, dtype=np.float64))
    best, flagged = largest_subtree_ratio(sys, family, masses)
    return float("inf") if flagged else best


def cross_children(
    sys: DyadicSystem, family: StoppingFamily, other: StoppingFamily, member: int
) -> list[int]:
    """Stopping children of ``member`` whose projection under the other
    family stays inside ``member``."""
    proj, level = other.projection, sys.cube_level[member]
    kids = np.asarray(family.members[1:], dtype=np.intp)[stopping_parents(sys, family) == member]
    out = []
    for c in kids.tolist():
        if proj[c] < 0:
            raise ValueError(f"cube {sys.path[c]!r} lies outside the family top")
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
    if member not in avg_family.members:
        raise ValueError("member does not belong to the average family")
    sys = inst.sys
    out = f * (avg_family.projection[sys.cell_cube] == member)
    num = all_box_integrals(inst, f)
    profiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for c in cross_children(sys, avg_family, ratio_family, member):
        # c lies inside its ratio projection, whose test input is therefore
        # the projection level's profile on the box of c.
        level = int(sys.cube_level[ratio_family.projection[c]])
        if level not in profiles:
            phi = level_test_input(inst, level)
            profiles[level] = (phi, all_box_integrals(inst, phi))
        phi, den = profiles[level]
        coeff = num[c] / den[c] if den[c] > 0 else 0.0
        out = out + coeff * (phi * sys.box_mask(c))
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
    if member not in ratio_family.members:
        raise ValueError("member does not belong to the ratio family")
    sys = inst.sys
    out = g * (ratio_family.projection[sys.cell_cube[-1]] == member)
    avg = all_cube_averages(inst, g)
    for c in cross_children(sys, ratio_family, avg_family, member):
        out = out + avg[c] * sys.atom_mask(c)
    return out


def child_mass_bound(sys: DyadicSystem, family: StoppingFamily) -> float:
    """Largest ratio (sum of children test-input masses) / (member mass)."""
    if family.kind != "ratio":
        raise ValueError("test-input masses exist only for ratio families")
    members = list(family.members)
    child_sums = group_ksum(stopping_parents(sys, family), family.phi_mass[members[1:]], members)
    return largest_ratio(child_sums, family.phi_mass[members])[0]


def subfamily_mass_bound(sys: DyadicSystem, family: StoppingFamily) -> float:
    """Largest ratio (sum of test-input masses over the stopping subtree) /
    (member mass)."""
    if family.kind != "ratio":
        raise ValueError("test-input masses exist only for ratio families")
    return largest_subtree_ratio(sys, family, family.phi_mass)[0]
