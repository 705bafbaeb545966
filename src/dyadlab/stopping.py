"""Stopping-cube families and the two-family decomposition machinery.

Two constructions, both iterated maximal-cube selections below a top cube:

* the *average* family stops at maximal cubes whose weighted average of an
  atom function more than doubles the average over the current member;
* the *ratio* family stops at maximal cubes where the box mass of a scale
  function, calibrated by the member's optimal test input, jumps by more than
  a factor ``A``.

Members form a tree (the stopping tree) that is in general much sparser than
the lattice tree.  On top of the families live the projection to the smallest
member, the calibrated bracket average, the exclusive sets (member minus its
stopping children), the cross children (stopping children whose projection
under the *other* family stays inside the member), and the two collapse
operations that replace a function below cross children by calibrated
profiles without changing the integrals the form sees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .forms import Instance, all_box_integrals, all_cube_integrals, level_test_input
from .lattice import Cube, DyadicSystem
from .measures import average, ksum


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

    def member_cubes(self, sys: DyadicSystem) -> list[Cube]:
        return [sys.cube_at(m) for m in self.members]


def default_ratio_constants(p: float) -> tuple[float, float]:
    """The (A, B) pair that makes the child test-input mass geometrically
    summable: B = 4**(1/q), A = 4*B**(2-q) with q the conjugate exponent."""
    q = p / (p - 1.0)
    b = 4.0 ** (1.0 / q)
    return 4.0 * b ** (2.0 - q), b


def _scan_maximal(sys: DyadicSystem, member: int, trigger) -> list[int]:
    """Maximal strict subcubes of ``member`` satisfying ``trigger``, BFS."""
    found: list[int] = []
    queue = deque(
        sys.linear(c) for c in lattice.children(sys, sys.cube_at(member))
    )
    while queue:
        lin = queue.popleft()
        if trigger(lin):
            found.append(lin)
        else:
            queue.extend(
                sys.linear(c) for c in lattice.children(sys, sys.cube_at(lin))
            )
    return found


def build_average_family(inst: Instance, top: Cube, g: np.ndarray) -> StoppingFamily:
    """Average-stopping family for an atom function, threshold factor 2."""
    sys = inst.sys
    masses = lattice.cube_sums(sys, inst.omega)
    integrals = all_cube_integrals(inst, g)
    avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)

    top_lin = sys.linear(top)
    members = [top_lin]
    children: dict[int, tuple[int, ...]] = {}
    parents: dict[int, int] = {}
    queue = deque([top_lin])
    while queue:
        member = queue.popleft()
        threshold = 2.0 * avg[member]
        ch = _scan_maximal(sys, member, lambda lin: avg[lin] > threshold)
        children[member] = tuple(ch)
        for c in ch:
            parents[c] = member
            members.append(c)
        queue.extend(ch)
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
    # there the profile's box integrals are the member's own.
    dens: dict[int, np.ndarray] = {}

    top_lin = sys.linear(top)
    members = [top_lin]
    children: dict[int, tuple[int, ...]] = {}
    parents: dict[int, int] = {}
    stats: dict[int, float] = {}
    phi_mass: dict[int, float] = {}
    queue = deque([top_lin])
    while queue:
        member = queue.popleft()
        level = int(sys.cube_level[member])
        if level not in dens:
            dens[level] = all_box_integrals(inst, level_test_input(inst, level))
        den = dens[level]
        member_ratio = float(num[member] / den[member]) if den[member] > 0 else 0.0
        threshold = A * member_ratio
        stats[member] = member_ratio
        phi_mass[member] = float(den[member])

        def trigger(lin: int) -> bool:
            return den[lin] > 0 and num[lin] / den[lin] > threshold

        ch = _scan_maximal(sys, member, trigger)
        children[member] = tuple(ch)
        for c in ch:
            parents[c] = member
            members.append(c)
        queue.extend(ch)
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


def project(sys: DyadicSystem, family: StoppingFamily, cube: Cube) -> Cube:
    """Smallest family member containing ``cube``."""
    lin = sys.linear(cube)
    member_set = set(family.members)
    top_level = int(sys.cube_level[family.top])
    while True:
        if lin in member_set:
            return sys.cube_at(lin)
        if int(sys.cube_level[lin]) <= top_level:
            raise ValueError(f"cube {cube} lies outside the family top")
        lin = int(sys.parent_linear[lin])


def bracket_average(inst: Instance, f: np.ndarray, cube: Cube) -> float:
    """Box mass of f calibrated by the cube's own test input; 0/0 -> 0."""
    lin = inst.sys.linear(cube)
    num = all_box_integrals(inst, f)[lin]
    level = int(inst.sys.cube_level[lin])
    den = all_box_integrals(inst, level_test_input(inst, level))[lin]
    return num / den if den > 0 else 0.0


def carleson_constant(sys: DyadicSystem, family: StoppingFamily, w: np.ndarray) -> float:
    """Largest subfamily-to-member mass ratio; inf if a massless member
    carries positive subfamily mass."""
    masses = lattice.cube_sums(sys, np.asarray(w, dtype=np.float64))
    sub: dict[int, float] = {}
    best = 0.0
    flagged = False
    for member in reversed(family.members):  # children precede parents
        total = masses[member] + sum(sub[c] for c in family.children[member])
        sub[member] = total
        if masses[member] > 0:
            best = max(best, float(total / masses[member]))
        elif total > 0:
            flagged = True
    return float("inf") if flagged else best


def cross_children(
    sys: DyadicSystem, family: StoppingFamily, other: StoppingFamily, member: int
) -> list[int]:
    """Stopping children of ``member`` whose projection under the other
    family stays inside ``member``."""
    member_cube = sys.cube_at(member)
    out = []
    for c in family.children[member]:
        proj = project(sys, other, sys.cube_at(c))
        proj_lin = sys.linear(proj)
        # proj inside member <=> member is the level-cut ancestor of proj
        lin = proj_lin
        while int(sys.cube_level[lin]) > member_cube.level:
            lin = int(sys.parent_linear[lin])
        if lin == member:
            out.append(c)
    return out


def _exclusive_box_mask(sys: DyadicSystem, family: StoppingFamily, member: int) -> np.ndarray:
    mask = sys.box_mask(sys.cube_at(member))
    for c in family.children[member]:
        mask &= ~sys.box_mask(sys.cube_at(c))
    return mask


def _exclusive_atom_mask(sys: DyadicSystem, family: StoppingFamily, member: int) -> np.ndarray:
    mask = sys.atom_mask(sys.cube_at(member))
    for c in family.children[member]:
        mask &= ~sys.atom_mask(sys.cube_at(c))
    return mask


def exclusive_box(sys: DyadicSystem, family: StoppingFamily, member: int) -> set[tuple[int, int]]:
    """Box of the member minus the boxes of its stopping children."""
    mask = _exclusive_box_mask(sys, family, member)
    levels, atoms = np.nonzero(mask)
    return {(int(a), int(j)) for j, a in zip(levels, atoms)}


def exclusive_atoms(sys: DyadicSystem, family: StoppingFamily, member: int) -> set[int]:
    """Member's atoms minus those of its stopping children."""
    return {int(a) for a in np.flatnonzero(_exclusive_atom_mask(sys, family, member))}


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
    out = f * _exclusive_box_mask(sys, avg_family, member)
    num = all_box_integrals(inst, f)
    profiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for c in cross_children(sys, avg_family, ratio_family, member):
        # c lies inside its ratio projection, whose test input is therefore
        # the projection level's profile on the box of c.
        level = project(sys, ratio_family, sys.cube_at(c)).level
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
    out = g * _exclusive_atom_mask(sys, ratio_family, member)
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
    sub: dict[int, float] = {}
    worst = 0.0
    for member in reversed(family.members):
        total = family.phi_mass[member] + sum(sub[c] for c in family.children[member])
        sub[member] = total
        if family.phi_mass[member] > 0:
            worst = max(worst, total / family.phi_mass[member])
    return worst
