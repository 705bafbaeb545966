"""Definition-level reference implementations used as independent oracles.

Everything here is written with plain Python loops straight from the
defining formulas, deliberately ignoring the package's vectorized paths.
Only meant for tiny systems.  The per-cube testing-constant loops (with
``dual_kernel``, the per-cube dual kernel the package no longer builds, and
the norming functions it used to have), the per-member stopping-family BFS,
the per-member exclusive masks (with the lifted measure it used to build),
the per-cube identity chain, the three-pass and the per-instance embedding
searches (with the lockstep ascent that returned only its first best start)
and the per-seed alternating maximization at the end are the exception: they
reuse the package's helpers, so their results compare bit for bit with the
package's whole-lattice passes (the three-pass embedding search to 1e-8,
since the package's ascent now stops by its gain test).  The helpers in between are small definitions that
only tests call, among them the parent-walking ``project`` that the
projection table stored on each family replaced (``stopping_family`` builds
hand-made families and the BFS builders' tables with it), and the
multi-index derivations of parents, children, paths, subcube masks and the
dense form kernel that the
``lattice.DyadicSystem`` tables replaced, and the walks over the stopping
tree (``subtree_totals``, ``largest_subtree_ratio`` and the per-member
``child_mass_bound``) that one ``lattice.subtree_sums`` pass and one grouped
exact sum over the per-cube family arrays replaced; the BFS builders and the
path-based family writer use those, not the tables they check.  A family
keeps no children: the walks read them off ``stopping_children``, which
builds them from ``members`` and ``projection``, and the BFS builders return
their own children dicts beside the family.  The level-local cube index and
the level sizes the lattice no longer stores are ``ancestor_local`` and
``level_sizes`` here.  They name a cube by the
``Cube(level, index)`` tuple the package used before the linear id became a
cube's only name, converted with copies of the package's old ``linear`` and
``cube_at``.  The tree aggregations that ``lattice.level_sums`` and
``lattice.level_cumsum`` replaced are kept verbatim as oracles too, with
``chain_total``, which the three-pass embedding search still calls, and so
are the dense form kernel the package no longer builds and the two oracles
that read it: the p = 2 oracle that the tree-built Gram matrix replaced and
the grid oracle that now reads the box operator and its adjoint.  So are the
adversarial families the package no longer builds, but for the deep chain,
and the ascent and the grid oracle from before ``normest`` kept one body for
each of their jobs.  ``sweep_rows``, the generated sweep's row loop from
before ``eval`` ran one loop over its instance list, is kept verbatim as the
oracle of that loop.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from dyadlab import embedding, forms, generators, lattice, measures, normest, runner
from dyadlab.embedding import RatioSearchResult, StoppingEmbeddingReport
from dyadlab.errors import GuardError
from dyadlab.forms import (
    Instance,
    all_box_integrals,
    all_cube_averages,
    all_cube_integrals,
    lambda_array,
    level_test_input,
    test_function,
)
from dyadlab.stopping import StoppingFamily, cross_children, default_ratio_constants
from dyadlab.generators import _MU, GenSpec, _log_uniform, generate, philox
from dyadlab.io import ReportRow
from dyadlab.lattice import DyadicSystem, build_system
from dyadlab.normest import NormEstimate, best_f_given_g, best_g_given_f
from dyadlab.testing_constants import TestingReport, TestingSide, testing_report


# -- the multi-index cube identifier ---------------------------------------
#
# The package names a cube by its linear id only.  These are the identifier
# and the conversions it had before, kept as they were (``cube_at`` computes
# the local index from ``level_offset``, the table it used is gone).


class Cube(NamedTuple):
    """Identifier of one dyadic cube: scale level and multi-index."""

    level: int
    index: tuple[int, ...]


def validate(sys, cube: Cube) -> Cube:
    level, index = cube
    if not (0 <= level <= sys.depth):
        raise IndexError(f"cube level {level} outside [0, {sys.depth}]")
    if len(index) != sys.dimension:
        raise IndexError(f"cube index {index} has wrong arity")
    if any(not (0 <= m < (1 << level)) for m in index):
        raise IndexError(f"cube index {index} outside [0, 2^{level})")
    return Cube(int(level), tuple(int(m) for m in index))


def linear(sys, cube: Cube) -> int:
    """Linear id of a cube in level-major enumeration order."""
    level, index = validate(sys, cube)
    local = int(
        np.ravel_multi_index(index, (1 << level,) * sys.dimension)
    )
    return int(sys.level_offset[level]) + local


def cube_at(sys, lin: int) -> Cube:
    if not (0 <= lin < sys.num_cubes):
        raise IndexError(f"cube id {lin} outside [0, {sys.num_cubes})")
    level = int(sys.cube_level[lin])
    local = lin - int(sys.level_offset[level])
    index = np.unravel_index(local, (1 << level,) * sys.dimension)
    return Cube(level, tuple(int(m) for m in index))


def atom_digits(n, depth, atom):
    """Multi-index of an atom under row-major (lexicographic) enumeration:
    the last coordinate varies fastest."""
    out = [0] * n
    rest = atom
    for i in reversed(range(n)):
        out[i] = rest % (1 << depth)
        rest //= 1 << depth
    return out


def atom_in_cube(n, depth, atom, level, index):
    d = atom_digits(n, depth, atom)
    return all((d[i] >> (depth - level)) == index[i] for i in range(n))


def box_members(n, depth, level, index):
    out = set()
    for a in range(1 << (n * depth)):
        if atom_in_cube(n, depth, a, level, index):
            for j in range(level, depth + 1):
                out.add((a, j))
    return out


def all_cubes(n, depth):
    for level in range(depth + 1):
        for flat in range(1 << (n * level)):
            idx = [0] * n
            rest = flat
            for i in reversed(range(n)):
                idx[i] = rest % (1 << level)
                rest //= 1 << level
            yield level, tuple(idx)


def ell2_slice(f, atom):
    return math.sqrt(math.fsum(row[atom] * row[atom] for row in f))


def mixed_norm(f, sigma, p):
    total = math.fsum(
        sigma[a] * ell2_slice(f, a) ** p for a in range(len(sigma))
    )
    return total ** (1.0 / p)


def lp_norm(g, w, p):
    return math.fsum(w[a] * g[a] ** p for a in range(len(w))) ** (1.0 / p)


def box_integral(n, depth, f, mu, sigma, level, index):
    return math.fsum(
        sigma[a] * f[j][a] * mu[j][a]
        for (a, j) in box_members(n, depth, level, index)
    )


def cube_integral(n, depth, g, w, level, index):
    return math.fsum(
        w[a] * g[a]
        for a in range(1 << (n * depth))
        if atom_in_cube(n, depth, a, level, index)
    )


def lambda_form(n, depth, lam, f, g, mu, sigma, omega):
    """lam is a dict keyed by (level, index tuple)."""
    total = 0.0
    for level, idx in all_cubes(n, depth):
        c = lam.get((level, idx), 0.0)
        if c == 0.0:
            continue
        total += (
            c
            * box_integral(n, depth, f, mu, sigma, level, idx)
            * cube_integral(n, depth, g, omega, level, idx)
        )
    return total


def box_operator(n, depth, lam, f, mu, sigma):
    """Atom-indexed output of the form's operator side."""
    num_atoms = 1 << (n * depth)
    out = [0.0] * num_atoms
    for level, idx in all_cubes(n, depth):
        c = lam.get((level, idx), 0.0)
        if c == 0.0:
            continue
        bi = box_integral(n, depth, f, mu, sigma, level, idx)
        for a in range(num_atoms):
            if atom_in_cube(n, depth, a, level, idx):
                out[a] += c * bi
    return out


def make_test_input(n, depth, mu, q, level, index):
    """Hoelder-optimal input on one box, by the defining formula."""
    num_atoms = 1 << (n * depth)
    box = box_members(n, depth, level, index)
    phi = [[0.0] * num_atoms for _ in range(depth + 1)]
    for a in range(num_atoms):
        s2 = math.fsum(mu[j][a] ** 2 for (aa, j) in box if aa == a)
        s = math.sqrt(s2)
        if s == 0.0:
            continue
        for (aa, j) in box:
            if aa == a:
                phi[j][a] = s ** (q - 2.0) * mu[j][a]
    return phi


def carleson_condition_constant(n, depth, a_map, nu):
    """Max over cubes of subtree cube-mass over measure mass; inf when the
    measure vanishes under positive cube mass."""
    best = 0.0
    for level, idx in all_cubes(n, depth):
        sub = 0.0
        for l2, i2 in all_cubes(n, depth):
            if l2 >= level and all(
                (i2[k] >> (l2 - level)) == idx[k] for k in range(n)
            ):
                sub += a_map.get((l2, i2), 0.0)
        m = cube_integral(n, depth, [1.0] * (1 << (n * depth)), nu, level, idx)
        if m > 0:
            best = max(best, sub / m)
        elif sub > 0:
            return math.inf
    return best


# -- the index layout, derived again ----------------------------------------
#
# The package reads parents, children, path codes and subcube masks off the
# tables ``lattice.DyadicSystem`` builds.  These are the multi-index
# derivations those tables replaced, kept as they were.


def parent_table(sys):
    """parent_linear[c]: linear id of the parent cube, -1 for the root."""
    parent = np.full(sys.num_cubes, -1, dtype=np.intp)
    for j in range(1, sys.num_levels):
        locs = np.arange(1 << (sys.dimension * j))
        digits = np.unravel_index(locs, (1 << j,) * sys.dimension)
        up = tuple(d >> 1 for d in digits)
        parent[sys.level_offset[j] + locs] = sys.level_offset[j - 1] + (
            np.ravel_multi_index(up, (1 << (j - 1),) * sys.dimension)
        )
    return parent


def descendant_mask(sys, cube):
    """Boolean mask over linear cube ids: all subcubes of ``cube`` (incl. itself)."""
    level, index = validate(sys, cube)
    local = np.ravel_multi_index(index, (1 << level,) * sys.dimension)
    mask = np.zeros(sys.num_cubes, dtype=bool)
    for j in range(level, sys.num_levels):
        locs = np.arange(1 << (sys.dimension * j))
        digits = np.unravel_index(locs, (1 << j,) * sys.dimension)
        up = tuple(d >> (j - level) for d in digits)
        here = np.ravel_multi_index(up, (1 << level,) * sys.dimension) == local
        mask[sys.level_offset[j] + locs] = here
    return mask


def children(sys, cube):
    """The 2**dimension children, in lexicographic multi-index order."""
    level, index = validate(sys, cube)
    if level == sys.depth:
        return []
    out = []
    for local in range(1 << sys.dimension):
        # Offsets enumerated so the resulting multi-indices are lexicographic.
        offs = tuple((local >> (sys.dimension - 1 - i)) & 1 for i in range(sys.dimension))
        out.append(Cube(level + 1, tuple(2 * m + o for m, o in zip(index, offs))))
    return out


def path_of(sys, cube):
    level, index = validate(sys, cube)
    codes = []
    for step in range(1, level + 1):
        code = 0
        for i in range(sys.dimension):
            bit = (index[i] >> (level - step)) & 1
            code |= bit << i
        codes.append(str(code))
    return "/".join(codes)


def shared_chain_levels(sys) -> np.ndarray:
    """For every atom pair, the deepest level whose cells contain both."""
    side = 1 << sys.depth
    digits = np.indices((side,) * sys.dimension).reshape(sys.dimension, sys.num_atoms)
    out = np.full((sys.num_atoms, sys.num_atoms), sys.depth, dtype=np.int64)
    for i in range(sys.dimension):
        diff = digits[i][:, None] ^ digits[i][None, :]
        bits = np.zeros_like(diff)
        v = diff.copy()
        while np.any(v):
            positive = v > 0
            bits += positive
            v >>= 1
        np.minimum(out, sys.depth - bits, out=out)
    return out


def form_kernel_shared_levels(inst) -> np.ndarray:
    """Dense kernel S[j, a, b] with form(f, g) = sum sigma_a f[j,a] S om_b g_b,
    read off the running lam-sums at the deepest level shared by a and b."""
    sys = inst.sys
    prefix = lattice.chain_running(sys, inst.lam)
    shared = shared_chain_levels(sys)
    cut = np.minimum(np.arange(sys.num_levels)[:, None, None], shared[None, :, :])
    chain = prefix[cut, np.arange(sys.num_atoms)[None, :, None]]
    return inst.mu[:, :, None] * chain


# -- the tree aggregations before ``level_sums`` and ``level_cumsum`` --------
#
# The package sums up the tree with ``lattice.level_sums`` and runs down it
# with ``lattice.level_cumsum``.  These are the bodies those two replaced,
# kept as they were: the four aggregations (``chain_total`` is gone from the
# package, whose callers read the last row of ``chain_running``; this
# ``chain_running`` keeps the ``start_level`` the package's lost, for the
# per-cube loops below), the one
# ``bincount`` over every cell that the testing constants' ``_select`` scan
# made, the dual's per-level skip count, and the dense form kernel's running
# sum (``form_kernel`` below).


def ancestor_local(sys: DyadicSystem, j: int) -> np.ndarray:
    """Per atom: the index within level ``j`` of its level-``j`` cube."""
    return sys.cell_cube[j] - sys.level_offset[j]


def level_sizes(sys: DyadicSystem) -> np.ndarray:
    """The number of cubes on each level."""
    return np.diff(sys.level_offset)


def cube_sums(sys: DyadicSystem, atom_values: np.ndarray) -> np.ndarray:
    """Per-cube sums of an atom array: out[Q] = sum of values over atoms in Q."""
    v = np.asarray(atom_values, dtype=np.float64)
    out = np.empty(sys.num_cubes, dtype=np.float64)
    for j in range(sys.num_levels):
        out[sys.level_offset[j] : sys.level_offset[j + 1]] = np.bincount(
            ancestor_local(sys, j), weights=v, minlength=int(level_sizes(sys)[j])
        )
    return out


def box_sums(sys: DyadicSystem, cell_values: np.ndarray) -> np.ndarray:
    """Per-cube Carleson-box sums of a (levels, atoms) array.

    out[Q] = sum of values over the pairs (atom in Q, level >= level of Q).
    """
    w = np.asarray(cell_values, dtype=np.float64)
    suffix = np.cumsum(w[::-1], axis=0)[::-1]
    out = np.empty(sys.num_cubes, dtype=np.float64)
    for j in range(sys.num_levels):
        out[sys.level_offset[j] : sys.level_offset[j + 1]] = np.bincount(
            ancestor_local(sys, j), weights=suffix[j], minlength=int(level_sizes(sys)[j])
        )
    return out


def chain_running(
    sys: DyadicSystem, cube_values: np.ndarray, start_level: int = 0
) -> np.ndarray:
    """Running ancestor sums: out[j, a] = sum of values over the ancestors of
    atom a at levels ``start_level .. j`` (zero for j < start_level)."""
    v = np.asarray(cube_values, dtype=np.float64)
    out = np.zeros((sys.num_levels, sys.num_atoms), dtype=np.float64)
    acc = np.zeros(sys.num_atoms, dtype=np.float64)
    for j in range(start_level, sys.num_levels):
        level_vals = v[sys.level_offset[j] : sys.level_offset[j + 1]]
        acc = acc + level_vals[ancestor_local(sys, j)]
        out[j] = acc
    return out


def chain_total(sys: DyadicSystem, cube_values: np.ndarray) -> np.ndarray:
    """out[a] = sum of values over every cube containing atom a."""
    v = np.asarray(cube_values, dtype=np.float64)
    acc = np.zeros(sys.num_atoms, dtype=np.float64)
    for j in range(sys.num_levels):
        level_vals = v[sys.level_offset[j] : sys.level_offset[j + 1]]
        acc += level_vals[ancestor_local(sys, j)]
    return acc


def select_scan_sums(sys, terms) -> np.ndarray:
    """The per-cube sums of ``_select``'s scan: one ``bincount`` over every cell."""
    cells = sys.cell_cube.ravel()
    return np.bincount(cells, weights=np.ravel(terms), minlength=sys.num_cubes)


def dual_skip(sys, kernels) -> np.ndarray:
    """The dual's skip flags from its per-level kernels, one ``bincount`` per
    level: a cube has no ratio when its level's kernel holds a non-finite
    column off the cube."""
    skip = np.zeros(sys.num_cubes, dtype=bool)
    for level, kernel in enumerate(kernels):
        cut = slice(sys.level_offset[level], sys.level_offset[level + 1])
        bad = ~np.isfinite(kernel).all(axis=0)
        inside = np.bincount(ancestor_local(sys, level), weights=bad, minlength=cut.stop - cut.start)
        skip[cut] = inside < bad.sum()
    return skip


def form_kernel_cumsum(inst) -> np.ndarray:
    """:func:`form_kernel` with its running sum as ``np.cumsum``."""
    sys = inst.sys
    cells = sys.cell_cube
    shared = cells[:, :, None] == cells[:, None, :]
    return inst.mu[:, :, None] * np.cumsum(shared * inst.lam[cells][:, None, :], axis=0)


# -- the oracles from the dense kernel ---------------------------------------
#
# ``normest.spectral_oracle_p2`` builds the Gram matrix from the lattice tree,
# and ``normest.grid_oracle`` takes its two small kernels from the box
# operator and its adjoint.  These are the bodies they replaced, with the
# dense (L, A, A) kernel they read (``normest.form_kernel``, less its size
# guard): the p = 2 oracle's Gram product, L A^3 multiply-adds, and the grid
# oracle's weighted kernel products.


def form_kernel(inst) -> np.ndarray:
    """Dense kernel S[j, a, b] with form(f, g) = sum sigma_a f[j,a] S om_b g_b.

    S collects mu times the lam-mass of the cubes containing atom b whose box
    contains the cell (a, j): the cubes ``cell_cube[l, b]`` with l <= j that
    also hold atom a.
    """
    sys = inst.sys
    cells = sys.cell_cube
    shared = cells[:, :, None] == cells[:, None, :]
    return inst.mu[:, :, None] * lattice.level_cumsum(shared * inst.lam[cells][:, None, :])


def spectral_oracle_p2_dense(inst) -> float:
    """Exact form norm at p = 2: the largest singular value of the weighted
    kernel, from one symmetric eigensolve of its Gram matrix ``m.T @ m``."""
    if inst.p != 2.0:
        raise GuardError(f"spectral oracle requires p = 2, got {inst.p}")
    sys = inst.sys
    kernel = form_kernel(inst)
    m = (
        np.sqrt(inst.sigma)[None, :, None]
        * kernel
        * np.sqrt(inst.omega)[None, None, :]
    ).reshape(sys.num_levels * sys.num_atoms, sys.num_atoms)
    gram = m.T @ m
    if not np.isfinite(gram).all():
        return math.inf
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def grid_oracle_dense(inst, resolution: int) -> float:
    """``normest.grid_oracle`` on the weighted dense kernel."""
    sys = inst.sys
    cells = sys.num_levels * sys.num_atoms
    dof = cells + sys.num_atoms
    if dof > 6:
        raise GuardError(f"grid oracle limited to 6 degrees of freedom, got {dof}")
    kernel = form_kernel(inst).reshape(cells, sys.num_atoms)

    best = 0.0
    # f side on the grid, g side exact
    fgrid = normest._axis_grid(cells, resolution)
    slices = np.sqrt(
        (fgrid.reshape(-1, sys.num_levels, sys.num_atoms) ** 2).sum(axis=1)
    )
    den = (slices**inst.p @ inst.sigma) ** (1.0 / inst.p)
    h = (fgrid * np.tile(inst.sigma, sys.num_levels)[None, :]) @ kernel
    num = (h**inst.p @ inst.omega) ** (1.0 / inst.p)
    ok = den > 0
    if np.any(ok):
        best = max(best, float(np.max(num[ok] / den[ok])))

    # g side on the grid, f side exact
    ggrid = normest._axis_grid(sys.num_atoms, resolution)
    kg = (ggrid * inst.omega[None, :]) @ kernel.T
    kg = kg.reshape(-1, sys.num_levels, sys.num_atoms)
    s = np.sqrt((kg**2).sum(axis=1))
    num2 = (s**inst.q @ inst.sigma) ** (1.0 / inst.q)
    den2 = (ggrid**inst.q @ inst.omega) ** (1.0 / inst.q)
    ok2 = den2 > 0
    if np.any(ok2):
        best = max(best, float(np.max(num2[ok2] / den2[ok2])))
    return best


# -- helpers only tests call ------------------------------------------------


def parent(sys: DyadicSystem, cube: Cube) -> Optional[Cube]:
    """Parent cube, or None for the root."""
    lin = linear(sys, cube)
    up = int(sys.parent_linear[lin])
    return None if up < 0 else cube_at(sys, up)


def _walk_up(sys: DyadicSystem, top: int, members, cube: int) -> int:
    """Smallest of ``members`` containing ``cube``, by walking up the
    parents; -1 when the walk reaches the level of ``top`` first."""
    lin = cube
    top_level = int(sys.cube_level[top])
    while lin not in members:
        if int(sys.cube_level[lin]) <= top_level:
            return -1
        lin = int(sys.parent_linear[lin])
    return lin


def project(sys: DyadicSystem, family: StoppingFamily, cube: int) -> int:
    """Smallest family member containing ``cube``, by walking up the parents
    (the package reads it off the family's ``projection`` table)."""
    member = _walk_up(sys, family.top, set(family.members), cube)
    if member < 0:
        raise ValueError(f"cube {cube_at(sys, cube)} lies outside the family top")
    return member


def _per_cube(sys, values):
    """A read-only array over cube ids holding a member-keyed dict, 0.0 elsewhere."""
    out = np.zeros(sys.num_cubes)
    for m, v in values.items():
        out[m] = v
    out.flags.writeable = False
    return out


def stopping_family(sys, kind, top, members, children, stats, phi_mass=None, params=None):
    """A ``StoppingFamily`` with its projection table from the per-cube walk
    over the members ``children`` is keyed by, and its member-keyed ``stats``
    and ``phi_mass`` dicts as per-cube arrays: for the BFS builders and
    hand-made families.  The family keeps no children; the walks below read
    them off :func:`stopping_children`."""
    table = np.array([_walk_up(sys, top, children, c) for c in range(sys.num_cubes)], dtype=np.intp)
    table.flags.writeable = False
    masses = None if phi_mass is None else _per_cube(sys, phi_mass)
    return StoppingFamily(kind, top, tuple(members), table, _per_cube(sys, stats), masses, params or {})


def stopping_children(sys, family: StoppingFamily) -> dict[int, list[int]]:
    """Per member, its stopping children in ``members`` order: the members
    after the top whose lattice parent projects to it."""
    children: dict[int, list[int]] = {m: [] for m in family.members}
    for c in family.members[1:]:
        children[int(family.projection[sys.parent_linear[c]])].append(c)
    return children


def children_of(sys, family: StoppingFamily, member: int) -> list[int]:
    """The stopping children of one member, as in :func:`stopping_children`."""
    kids = np.asarray(family.members[1:], dtype=np.intp)
    return kids[family.projection[sys.parent_linear[kids]] == member].tolist()


def subtree_totals(sys, family: StoppingFamily, own) -> dict[int, float]:
    """Per member: ``own[member]`` plus the totals of its stopping children,
    summed children before parents, in member order (the package takes one
    ``lattice.subtree_sums`` pass over the members)."""
    children, total = stopping_children(sys, family), {}
    for member in reversed(family.members):
        total[member] = own[member] + sum(total[c] for c in children[member])
    return total


def largest_subtree_ratio(sys, family: StoppingFamily, own) -> tuple[float, bool]:
    """Largest ratio of a member's subtree total to its own value, over members
    with a positive own value, and whether a member with no own value carries
    a positive total, by the walk of :func:`subtree_totals`."""
    total = subtree_totals(sys, family, own)
    best, flagged = 0.0, False
    for member in reversed(family.members):
        if own[member] > 0:
            best = max(best, float(total[member] / own[member]))
        elif total[member] > 0:
            flagged = True
    return best, flagged


def child_mass_bound(sys, family: StoppingFamily) -> float:
    """Largest ratio (sum of children test-input masses) / (member mass), one
    exact sum of the children's masses a member."""
    worst, children = 0.0, stopping_children(sys, family)
    for member in family.members:
        parent_mass = family.phi_mass[member]
        if parent_mass == 0.0:
            continue
        child_sum = measures.ksum([family.phi_mass[c] for c in children[member]])
        worst = max(worst, child_sum / parent_mass)
    return worst


def subcubes(sys, cube):
    """All subcubes of ``cube`` including itself, level-major lexicographic."""
    level, index = validate(sys, cube)
    out = []
    for j in range(level, sys.num_levels):
        shift = j - level
        ranges = [range(m << shift, (m + 1) << shift) for m in index]
        grids = np.meshgrid(*[np.array(list(r)) for r in ranges], indexing="ij")
        stacked = np.stack([g.ravel() for g in grids], axis=1)
        # meshgrid ij order == lexicographic over the multi-index
        for row in stacked:
            out.append(Cube(j, tuple(int(v) for v in row)))
    return out


def apply_box_operator_local(inst, top, f):
    """Box operator with the cube sum restricted to subcubes of ``top``."""
    level = inst.sys.level_of(top)
    contrib = inst.lam * all_box_integrals(inst, f)
    running = chain_running(inst.sys, contrib, start_level=level)
    return running[inst.sys.depth] * inst.sys.atom_mask(top)


def bracket_average(inst, f, cube):
    """Box mass of f calibrated by the cube's own test input; 0/0 -> 0."""
    num = all_box_integrals(inst, f)[cube]
    level = inst.sys.level_of(cube)
    den = all_box_integrals(inst, level_test_input(inst, level))[cube]
    return num / den if den > 0 else 0.0


def member_cubes(sys, family):
    return [cube_at(sys, m) for m in family.members]


# -- the adversarial families ------------------------------------------------
#
# The package builds only the deep-chain instance, which ``verify`` and the
# benchmark use.  This is ``generators.adversarial_family`` as it was with all
# four kinds, kept as it was: the three that only tests build, and the deep
# chain, against which the package's is checked.


ADVERSARIAL_KINDS = ("point-mass-sigma", "single-scale-mu", "lacunary-lambda", "deep-chain")


def adversarial_family(
    kind: str,
    seed: int = 0,
    dimension: int = 1,
    depth: int = 3,
    p: float = 2.0,
    count: int = 4,
) -> list[Instance]:
    """Structured stress families exercising degenerate support patterns."""
    if kind not in ADVERSARIAL_KINDS:
        raise ValueError(f"unknown adversarial kind {kind!r}")
    sys = build_system(dimension, depth)
    out = []
    if kind == "point-mass-sigma":
        for k in range(count):
            base = generate(GenSpec(seed=seed + k, dimension=dimension, depth=depth, p=p))
            sigma = np.zeros(sys.num_atoms)
            sigma[k % sys.num_atoms] = 1.0
            out.append(Instance(sys, p, sigma, base.omega, base.mu, base.lam))
    elif kind == "single-scale-mu":
        for k in range(count):
            base = generate(GenSpec(seed=seed + k, dimension=dimension, depth=depth, p=p))
            level = k % sys.num_levels
            mu = np.zeros((sys.num_levels, sys.num_atoms))
            mu[level] = _log_uniform(philox(seed + k, _MU), 0.25, 4.0, sys.num_atoms)
            out.append(Instance(sys, p, base.sigma, base.omega, mu, base.lam))
    elif kind == "lacunary-lambda":
        for k in range(count):
            base = generate(GenSpec(seed=seed + k, dimension=dimension, depth=depth, p=p))
            lam = np.zeros(sys.num_cubes)
            cube = sys.root
            while True:
                lam[cube] = 2.0 ** (-sys.level_of(cube) * (1.0 + 0.5 * k))
                ch = lattice.children(sys, cube)
                if not ch:
                    break
                cube = ch[0]
            out.append(Instance(sys, p, base.sigma, base.omega, base.mu, lam))
    else:  # deep-chain
        levels = np.arange(sys.num_levels, dtype=np.float64)
        mu = np.repeat(((1.0 / 16.0) ** levels)[:, None], sys.num_atoms, axis=1)
        lam = lambda_array(sys, {"": 1.0})
        out.append(
            Instance(sys, p, np.ones(sys.num_atoms), np.ones(sys.num_atoms), mu, lam)
        )
    return out


# -- the identity chain of one cube ------------------------------------------
#
# ``forms.phi_identity_check`` reads every cube's identity chain off one pass
# per level.  This is its per-cube body from before, one whole-lattice pass a
# cube on the cube's own test input; its fields agree with the package's
# arrays bit for bit.


def phi_identity_check_cube(inst: Instance, cube: int) -> forms.PhiIdentityReport:
    phi = test_function(inst, cube)
    boxed = inst.mu * inst.sys.box_mask(cube)
    s = measures.ell2_slice(boxed)
    am = inst.sys.atom_mask(cube)

    pairing = all_box_integrals(inst, phi)[cube]
    slice_integral = measures.ksum(inst.sigma[am] * s[am] ** inst.q)
    mu_norm_power = measures.mixed_norm(boxed, inst.sigma, inst.q) ** inst.q
    phi_norm_power = measures.mixed_norm(phi, inst.sigma, inst.p) ** inst.p

    vals = (pairing, slice_integral, mu_norm_power, phi_norm_power)
    top = max(abs(v) for v in vals)
    spread = 0.0 if top == 0.0 else (max(vals) - min(vals)) / top
    return forms.PhiIdentityReport(*vals, spread)


# -- per-cube testing-constant loops ---------------------------------------
#
# The package computes both testing constants level by level; these loops
# evaluate the defining per-cube ratio on every cube, in enumeration order,
# keeping the first strict maximum.  They use the package's own helpers so
# that results can be compared bit for bit, and take their witnesses from
# the package's norming maps, ``measures.lp_norming`` and
# ``measures.mixed_norming``, of the loop's own h or kernel.


def norming_atom_function(h: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Unit-Lq(w) maximizer of the pairing against h; zero if h vanishes."""
    g, _ = measures.lp_norming(h, w, p)
    return np.zeros_like(h) if g is None else g


def norming_scale_function(k: np.ndarray, sigma: np.ndarray, p: float) -> np.ndarray:
    """Unit mixed-p-norm maximizer of the sigma-pairing against k."""
    f, _ = measures.mixed_norming(k, sigma, p)
    return np.zeros_like(k) if f is None else f


def forward_testing_constant_loop(inst):
    sys = inst.sys
    best, best_cube, best_witness = 0.0, None, np.zeros(sys.num_atoms)
    for cube in range(sys.num_cubes):
        phi = test_function(inst, cube)
        phinorm = measures.mixed_norm(phi, inst.sigma, inst.p)
        if phinorm == 0.0:
            continue
        contrib = inst.lam * all_box_integrals(inst, phi)
        running = chain_running(sys, contrib, start_level=sys.level_of(cube))
        h = running[sys.depth] * sys.atom_mask(cube)
        ratio = measures.lp_norm(h, inst.omega, inst.p) / phinorm
        if ratio > best:
            best, best_cube = ratio, cube
            best_witness = norming_atom_function(h, inst.omega, inst.p)
    return TestingSide(best, best_cube, best_witness)


def dual_kernel(inst, cube):
    """Scale-function kernel representing f -> localized form of (f, 1_cube)."""
    sys = inst.sys
    contrib = inst.lam * lattice.cube_sums(sys, inst.omega)
    running = chain_running(sys, contrib, start_level=sys.level_of(cube))
    return inst.mu * running * sys.atom_mask(cube)[None, :]


def dual_testing_constant_loop(inst):
    sys = inst.sys
    best, best_cube = 0.0, None
    best_witness = np.zeros((sys.num_levels, sys.num_atoms))
    for cube in range(sys.num_cubes):
        denom = measures.ksum(inst.omega[sys.atom_mask(cube)]) ** (1.0 / inst.q)
        if denom == 0.0:
            continue
        kernel = dual_kernel(inst, cube)
        ratio = measures.mixed_norm(kernel, inst.sigma, inst.q) / denom
        if ratio > best:
            best, best_cube = ratio, cube
            best_witness = norming_scale_function(kernel, inst.sigma, inst.p)
    return TestingSide(best, best_cube, best_witness)


# -- stopping families by per-member BFS -----------------------------------
#
# The package builds both families with one top-down level sweep and writes
# family and instance JSON with one path per cube.  These are the per-member
# BFS builders and the ``path_of``-per-reference writers they replaced; tests
# compare the two bit for bit.


def _scan_maximal(sys, member, trigger):
    """Maximal strict subcubes of ``member`` satisfying ``trigger``, BFS."""
    found = []
    queue = deque(
        linear(sys, c) for c in children(sys, cube_at(sys, member))
    )
    while queue:
        lin = queue.popleft()
        if trigger(lin):
            found.append(lin)
        else:
            queue.extend(
                linear(sys, c) for c in children(sys, cube_at(sys, lin))
            )
    return found


def build_average_family_bfs(inst, top, g):
    sys = inst.sys
    masses = lattice.cube_sums(sys, inst.omega)
    integrals = all_cube_integrals(inst, g)
    avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)

    members = [top]
    children = {}
    queue = deque([top])
    while queue:
        member = queue.popleft()
        threshold = 2.0 * avg[member]
        ch = _scan_maximal(sys, member, lambda lin: avg[lin] > threshold)
        children[member] = tuple(ch)
        members.extend(ch)
        queue.extend(ch)
    stats = {m: float(avg[m]) for m in members}
    return stopping_family(sys, "average", top, members, children, stats), children


def build_ratio_family_bfs(inst, top, f, A=None):
    a_default, b = default_ratio_constants(inst.p)
    if A is None:
        A = a_default
    sys = inst.sys
    num = all_box_integrals(inst, f)
    dens = {}

    members = [top]
    children = {}
    stats = {}
    phi_mass = {}
    queue = deque([top])
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

        def trigger(lin):
            return den[lin] > 0 and num[lin] / den[lin] > threshold

        ch = _scan_maximal(sys, member, trigger)
        children[member] = tuple(ch)
        members.extend(ch)
        queue.extend(ch)
    params = {"A": float(A), "B": float(b)}
    return stopping_family(sys, "ratio", top, members, children, stats, phi_mass, params), children


def instance_lambda_map_path_of(inst):
    """The ``lambda`` map of ``io.instance_to_dict``, one ``path_of`` per
    nonzero coefficient."""
    sys = inst.sys
    lam_map = {}
    for lin in range(sys.num_cubes):
        if inst.lam[lin] != 0.0:
            lam_map[path_of(sys, cube_at(sys, lin))] = inst.lam[lin].hex()
    return lam_map


def family_to_dict_path_of(sys, family):
    children = stopping_children(sys, family)
    parent = {c: m for m in family.members for c in children[m]}
    members = []
    for m in family.members:
        cube = cube_at(sys, m)
        entry = {
            "path": path_of(sys, cube),
            "stat": float(family.stats[m]),
        }
        if m in parent:
            entry["parent"] = path_of(sys, cube_at(sys, parent[m]))
        if family.phi_mass is not None:
            entry["test_input_mass"] = float(family.phi_mass[m])
        members.append(entry)
    edges = [
        [path_of(sys, cube_at(sys, m)), path_of(sys, cube_at(sys, c))]
        for m in family.members
        for c in children[m]
    ]
    return {
        "kind": family.kind,
        "top": path_of(sys, cube_at(sys, family.top)),
        "params": dict(family.params),
        "members": members,
        "edges": edges,
    }


# -- exclusive sets by per-member masks --------------------------------------
#
# The package reads a member's exclusive box and atoms off one projection
# table per family.  These build them from the definition, the member's box
# or atoms minus those of its stopping children, together with the
# per-member-mask collapse operations and embedding report they replaced.


def exclusive_box_mask(sys, family, member):
    mask = sys.box_mask(member)
    for c in children_of(sys, family, member):
        mask &= ~sys.box_mask(c)
    return mask


def exclusive_atom_mask(sys, family, member):
    mask = sys.atom_mask(member)
    for c in children_of(sys, family, member):
        mask &= ~sys.atom_mask(c)
    return mask


def exclusive_box(sys, family, member):
    """Box of the member minus the boxes of its stopping children."""
    levels, atoms = np.nonzero(exclusive_box_mask(sys, family, member))
    return {(int(a), int(j)) for j, a in zip(levels, atoms)}


def exclusive_atoms(sys, family, member):
    """Member's atoms minus those of its stopping children."""
    return {int(a) for a in np.flatnonzero(exclusive_atom_mask(sys, family, member))}


def collapse_scale_function_masks(inst, f, avg_family, ratio_family, member):
    sys = inst.sys
    out = f * exclusive_box_mask(sys, avg_family, member)
    num = all_box_integrals(inst, f)
    profiles = {}
    for c in cross_children(sys, avg_family, ratio_family, member):
        level = sys.level_of(project(sys, ratio_family, c))
        if level not in profiles:
            phi = level_test_input(inst, level)
            profiles[level] = (phi, all_box_integrals(inst, phi))
        phi, den = profiles[level]
        coeff = num[c] / den[c] if den[c] > 0 else 0.0
        out = out + coeff * (phi * sys.box_mask(c))
    return out


def collapse_atom_function_masks(inst, g, avg_family, ratio_family, member):
    sys = inst.sys
    out = g * exclusive_atom_mask(sys, ratio_family, member)
    avg = all_cube_averages(inst, g)
    for c in cross_children(sys, ratio_family, avg_family, member):
        out = out + avg[c] * sys.atom_mask(c)
    return out


@dataclass(frozen=True)
class LiftedMeasure:
    """Test-input masses of a ratio family, read as a measure whose box
    masses nest along the stopping tree."""

    point_mass: dict[int, float]  # member -> own test-input mass
    box_mass: dict[int, float]    # member -> subtree total

    @property
    def total(self) -> float:
        return measures.ksum(list(self.point_mass.values()))


def lifted_measure(sys, family: StoppingFamily) -> LiftedMeasure:
    if family.kind != "ratio":
        raise ValueError("lifted measure requires a ratio family")
    point_mass = {m: float(family.phi_mass[m]) for m in family.members}
    return LiftedMeasure(point_mass, subtree_totals(sys, family, point_mass))


def stopping_embedding_report_masks(inst, f, family):
    sys = inst.sys
    num = all_box_integrals(inst, f)
    brackets = {
        m: (num[m] / family.phi_mass[m] if family.phi_mass[m] > 0 else 0.0)
        for m in family.members
    }
    lhs = measures.ksum([brackets[m] ** inst.p * family.phi_mass[m] for m in family.members])
    rhs = measures.mixed_norm(f, inst.sigma, inst.p) ** inst.p
    ratio = lhs / rhs if rhs > 0 else 0.0

    factor = largest_subtree_ratio(sys, family, lifted_measure(sys, family).box_mass)[0]

    weights = inst.sigma[None, :] * f * inst.mu
    exclusive = {
        m: measures.ksum(weights[exclusive_box_mask(sys, family, m)]) for m in family.members
    }
    acc = subtree_totals(sys, family, exclusive)
    err = 0.0
    for member in reversed(family.members):
        target = num[member]
        scale = max(abs(target), abs(acc[member]), 1e-300)
        err = max(err, abs(acc[member] - target) / scale)

    return StoppingEmbeddingReport(lhs, rhs, ratio, factor, err)


# -- the embedding search with three averages passes per step ----------------
#
# The package's search runs ``normest.power_ascent`` on the cube-average map
# and stops a seed by its gain test.  This is the fixed-point search of the
# lab before it: 40 steps a seed, max-normalized iterates and a 1e-13 iterate
# test, and three averages passes a step.  The package's value stays within
# 1e-8 of it, dominates its indicators, and takes no more evaluations.


def embedding_sum(sys, data, h, p):
    """Left side of the embedding: sum over cubes of a * (average of h)**p."""
    masses = lattice.cube_sums(sys, data.nu)
    integrals = lattice.cube_sums(sys, data.nu * np.asarray(h, dtype=np.float64))
    avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)
    return measures.ksum(data.a * avg**p)


def _embedding_ratio(sys, data, h, p):
    den = measures.lp_norm(h, data.nu, p) ** p
    if den == 0.0:
        return 0.0
    return embedding_sum(sys, data, h, p) / den


def embedding_ratio_search_three_pass(sys, data, p, restarts=4, iterations=40, seed=0):
    masses = lattice.cube_sums(sys, data.nu)
    best = 0.0
    best_h = np.zeros(sys.num_atoms)
    evals = 0

    def consider(h):
        nonlocal best, best_h, evals
        evals += 1
        r = _embedding_ratio(sys, data, h, p)
        if r > best:
            best = r
            n = measures.lp_norm(h, data.nu, p)
            best_h = h / n if n > 0 else h
        return r

    def ascend(h):
        for _ in range(iterations):
            integrals = lattice.cube_sums(sys, data.nu * h)
            avg = np.divide(
                integrals, masses, out=np.zeros_like(integrals), where=masses > 0
            )
            t = np.divide(
                data.a * avg ** (p - 1.0),
                masses,
                out=np.zeros_like(avg),
                where=masses > 0,
            )
            grad = chain_total(sys, t)
            h_new = grad ** (1.0 / (p - 1.0))
            top = h_new.max()
            if top == 0.0:
                return
            h_new /= top
            consider(h_new)
            if np.allclose(h_new, h, rtol=1e-13, atol=0.0):
                return
            h = h_new

    seeds = [np.ones(sys.num_atoms)]
    indicator_best = None
    for lin in range(sys.num_cubes):
        if masses[lin] == 0:
            continue
        h = sys.atom_mask(lin).astype(np.float64)
        r = consider(h)
        if indicator_best is None or r > indicator_best[0]:
            indicator_best = (r, h)
    if indicator_best is not None:
        seeds.append(indicator_best[1])
    for k in range(restarts):
        rng = np.random.Generator(np.random.Philox(key=[seed, k]))
        seeds.append(rng.random(sys.num_atoms))
    for h in seeds:
        consider(h)
        ascend(h)
    return RatioSearchResult(best, best_h, evals)


# -- the per-instance embedding search --------------------------------------
#
# ``embedding.embedding_ratio_searches`` steps the seeds of many instances of
# one lattice in one ``normest.power_ascent``, which returns every start's
# value, pair, flag and step count.  This is the search of one instance it
# replaced, with the ascent that returned only the first best start, kept
# verbatim but for the names, the weights read off ``data`` and the exact
# sums of its winning iterate's ratio (``measures.lp_norm`` and ``ksum``):
# the same half-steps in the same order, so value, witness and ``evaluations``
# compare with ``==``.


def power_ascent_first_best(sys, starts, forward, backward, tol, max_iter):
    best, best_pair, best_converged, steps = 0.0, None, False, 0
    rows = lattice.chunk_rows(sys)
    for lo in range(0, len(starts), rows):
        x = starts[lo : lo + rows]
        live = list(range(len(x)))  # the chunk row of each iterate
        value, last_gain = [0.0] * len(x), [math.inf] * len(x)
        pairs, converged = [None] * len(x), [False] * len(x)
        for _ in range(max_iter):
            steps += len(live)
            y, vy = forward(x)
            if not vy.all():
                x, y, live = x[vy != 0.0], y[vy != 0.0], [i for i, v in zip(live, vy) if v != 0.0]
                if not live:
                    break
            x_next, vx = backward(y)
            going = []
            for r, (i, v) in enumerate(zip(live, vx.tolist())):
                gain = v - value[i]
                if v == 0.0:  # backward vanished: the pair is (x, y), the value stays
                    pairs[i] = (x[r], y[r])
                elif not gain > tol * v:  # a NaN value stops too, and cannot win
                    pairs[i], value[i] = (x_next[r], y[r]), v
                    rho = gain / last_gain[i]
                    converged[i] = rho < 1.0 and gain * rho <= tol * v * (1.0 - rho)
                else:
                    pairs[i], value[i], last_gain[i] = (x_next[r], y[r]), v, gain
                    going.append(r)
            if not going:
                break
            if len(going) < len(live):
                x_next, live = x_next[going], [live[r] for r in going]
            x = x_next
        for v, pair, c in zip(value, pairs, converged):
            if pair is not None and v > best:
                best, best_pair, best_converged = v, pair, c
    return best, best_pair, best_converged, steps


def _averages_one(sys, data, masses, h):
    integrals = lattice.cube_sums(sys, data.nu * h)
    return np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)


def embedding_ratio_search_one(sys, data, p, restarts=4, seed=0):
    masses = lattice.cube_sums(sys, data.nu)
    cubes = np.flatnonzero(masses > 0)
    best, best_h, evals = 0.0, np.zeros(sys.num_atoms), len(cubes)
    seeds = [np.ones(sys.num_atoms)]
    if len(cubes):
        ratios = embedding._indicator_ratios(sys)(data, masses, cubes, p)
        first = int(np.argmax(ratios))  # the first best indicator
        seeds.append(sys.atom_mask(int(cubes[first])).astype(np.float64))
        if ratios[first] > best:
            best, best_h = ratios[first], seeds[1]
    seeds += [generators.philox(seed, k).random(sys.num_atoms) for k in range(restarts)]

    def forward(h):
        return measures.lp_norming(_averages_one(sys, data, masses, h), data.a, p)

    def backward(g):
        t = np.divide(data.a * g, masses, out=np.zeros_like(g), where=masses > 0)
        return measures.lp_norming(
            lattice.chain_running(sys, t)[..., -1, :], data.nu, measures.conjugate(p)
        )

    _, pair, _, steps = power_ascent_first_best(
        sys, np.array(seeds), forward, backward, embedding._TOL, embedding._MAX_ITER
    )
    evals += steps
    if pair is not None:
        h = pair[0]
        n = measures.lp_norm(h, data.nu, p)
        total = measures.ksum(data.a * _averages_one(sys, data, masses, h) ** p)
        r = 0.0 if n**p == 0.0 else total / n**p
        evals += 1
        if r > best:
            best, best_h = r, pair[0]
    return RatioSearchResult(best, best_h, evals)


# -- the per-seed alternating maximization ----------------------------------
#
# ``normest.alternating_maximization`` steps its seeds together through
# ``normest.power_ascent``.  This is the loop it replaced, one seed after the
# other, kept verbatim but for the ``measures.`` and ``forms.`` prefixes that
# keep it off this module's own ``mixed_norm`` and ``lambda_form`` (its
# ``vf`` in the vanishing branch is dead), and for the value, which is the
# winning pair's exact witnessed ratio as the package reports it: the same
# half-steps in the same order, so value, witnesses, ``iterations`` and
# ``restarts`` compare with ``==``.  Its ``converged`` is the old flag, set on
# any stop by the gain test.


def alternating_maximization_per_seed(
    inst: Instance,
    restarts: int = 32,
    tol: float = 1e-10,
    max_iter: int = 1000,
    seed: int = 0,
    report: TestingReport | None = None,
) -> NormEstimate:
    """Best ratio over seeded alternating ascents.

    Seeds: the two testing witnesses paired with their test inputs, the
    constant pair and ``restarts`` counter-keyed random pairs.  Each random
    stream is keyed (seed, k) so results do not depend on evaluation order.
    """
    if restarts < 1:
        raise GuardError(f"restarts must be >= 1, got {restarts}")
    if not tol > 0:
        raise GuardError(f"tol must be positive, got {tol}")
    sys = inst.sys
    if report is None:
        report = testing_report(inst)

    seeds: list[tuple[np.ndarray, np.ndarray]] = []
    if report.forward > 0 and report.forward_cube is not None:
        seeds.append((test_function(inst, report.forward_cube), report.witness_g))
    if report.dual > 0 and report.dual_cube is not None:
        indicator = sys.atom_mask(report.dual_cube).astype(np.float64)
        seeds.append((report.witness_f, indicator))
    seeds.append(
        (np.ones((sys.num_levels, sys.num_atoms)), np.ones(sys.num_atoms))
    )
    for k in range(restarts):
        rng = generators.philox(seed, k)
        seeds.append((rng.random((sys.num_levels, sys.num_atoms)), rng.random(sys.num_atoms)))

    best_value = 0.0
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    total_iters = 0
    converged_best = False
    for f0, g0 in seeds:
        fnorm = measures.mixed_norm(f0, inst.sigma, inst.p)
        if fnorm > 0:
            f = f0 / fnorm
        else:
            f, _ = best_f_given_g(inst, g0)
            if f is None:
                continue
        prev = 0.0
        pair = None
        converged = False
        for _ in range(max_iter):
            total_iters += 1
            g, vg = best_g_given_f(inst, f)
            if g is None:
                break
            f_next, vf = best_f_given_g(inst, g)
            if f_next is None:
                vf, pair = vg, (f, g)
                break
            pair = (f_next, g)
            if vf - prev <= tol * vf:
                prev = vf
                converged = True
                break
            prev = vf
            f = f_next
        if pair is not None and prev > best_value:
            best_value = prev
            best_pair = pair
            converged_best = converged

    if best_pair is None:
        zero_f = np.zeros((sys.num_levels, sys.num_atoms))
        zero_g = np.zeros(sys.num_atoms)
        return NormEstimate(0.0, zero_f, zero_g, total_iters, len(seeds), True, True)

    wf, wg = best_pair
    norms = measures.mixed_norm(wf, inst.sigma, inst.p) * measures.lp_norm(wg, inst.omega, inst.q)
    value = forms.lambda_form(inst, wf, wg) / norms  # the exact witnessed ratio
    return NormEstimate(value, wf, wg, total_iters, len(seeds), converged_best, False)


# -- the ascent and the grid oracle before one body each ---------------------
#
# ``normest.power_ascent`` records every stop in one block: a vanished forward
# map hands the backward map a zero row, whose value 0.0 fails the gain test.
# ``normest.grid_oracle`` runs its two gridded sides through one norm and one
# largest ratio.  These are the bodies before, the ascent with its own block
# and compaction for a vanished forward and the oracle with a copy of its
# body for each side, kept verbatim but for the names and the module prefixes
# of the helpers they call, so every result compares with ``==``.


def power_ascent_two_blocks(sys: lattice.DyadicSystem, starts, forward, backward, tol: float, max_iter: int, *weights):
    """Nonlinear power method (Boyd, 1974) from every row of ``starts``, in
    chunks of ``lattice.chunk_rows`` rows stepped together; the rows may come
    from several instances of one lattice.

    A step takes x to ``y, _ = forward(x, *w)``, then to ``x', v =
    backward(y, *w)``, each an operator and its norming map on a batch
    (value 0.0: vanishing), ``w`` the stepping rows' rows of ``weights``
    (arrays of a row per start).  A row stops when ``forward`` vanishes
    (keeping its pair), ``backward`` does (pair (x, y)), a step gains d <=
    ``tol * v`` (pair (x', y); converged if the Aitken gap d r / (1 - r),
    r = d / the gain before, is <= ``tol * v`` too), ``backward``'s value is
    NaN (that value and pair, so the row never wins), or at ``max_iter``.
    Returns the lists of each start's value, pair (None if it never paired;
    rows copied off the batch), convergence and step count."""
    n = len(starts)
    values, pairs, converged, steps = [0.0] * n, [None] * n, [False] * n, [max_iter] * n
    rows = lattice.chunk_rows(sys)
    for lo in range(0, n, rows):
        x, live, *w = (a[lo : lo + rows] for a in (starts, np.arange(n), *weights))
        value, gain, y = np.zeros(len(x)), np.full(len(x), math.inf), None
        for step in range(1, max_iter + 1):
            y_before, (y, vy) = y, forward(x, *w)
            if not vy.all():  # forward vanished: the row keeps its pair
                for r, i in zip(np.flatnonzero(vy == 0.0).tolist(), live[vy == 0.0].tolist()):
                    steps[i], values[i] = step, float(value[r])
                    pairs[i] = None if y_before is None else (x[r].copy(), y_before[r].copy())
                on = vy != 0.0
                x, y, live, value, gain, *w = (a[on] for a in (x, y, live, value, gain, *w))
                if not len(live):
                    break
            x_next, vx = backward(y, *w)
            d = vx - value
            on = d > tol * vx
            if not on.all():  # backward vanished, the gain test failed or the value is NaN
                for r in np.flatnonzero(~on).tolist():  # where v = 0.0, (x, y) and the value stay
                    i, v, dr, before = int(live[r]), float(vx[r]), float(d[r]), float(gain[r])
                    pairs[i] = ((x_next if v else x)[r].copy(), y[r].copy())  # frees the step's batch
                    steps[i], values[i], rho = step, v or float(value[r]), dr / before
                    converged[i] = v != 0.0 and rho < 1.0 and dr * rho <= tol * v * (1.0 - rho)
                x_next, y, live, vx, d, *w = (a[on] for a in (x_next, y, live, vx, d, *w))
                if not len(live):
                    break
            x, value, gain = x_next, vx, d
        for r, i in enumerate(live.tolist() if y is not None else []):  # gaining at max_iter
            pairs[i], values[i] = (x[r].copy(), y[r].copy()), float(value[r])
    return values, pairs, converged, steps


def grid_oracle_two_sides(inst: Instance, resolution: int) -> float:
    """Dense nonnegative direction search for tiny systems (<= 6 DOF).

    Directions on one sphere are enumerated on an axis grid; the other side
    is closed out exactly by its norming function, so the only error is the
    angular resolution on the gridded side.  Both sides are gridded in turn,
    each through the operator's images of the unit inputs.
    """
    sys = inst.sys
    cells = sys.num_levels * sys.num_atoms
    dof = cells + sys.num_atoms
    if dof > 6:
        raise GuardError(f"grid oracle limited to 6 degrees of freedom, got {dof}")

    best = 0.0
    # f side on the grid, g side exact
    fgrid = normest._axis_grid(cells, resolution)
    slices = np.sqrt(
        (fgrid.reshape(-1, sys.num_levels, sys.num_atoms) ** 2).sum(axis=1)
    )
    den = (slices**inst.p @ inst.sigma) ** (1.0 / inst.p)
    unit_cells = np.eye(cells).reshape(cells, sys.num_levels, sys.num_atoms)
    h = fgrid @ forms.apply_box_operator(inst, unit_cells)
    num = (h**inst.p @ inst.omega) ** (1.0 / inst.p)
    ok = den > 0
    if np.any(ok):
        best = max(best, float(np.max(num[ok] / den[ok])))

    # g side on the grid, f side exact
    ggrid = normest._axis_grid(sys.num_atoms, resolution)
    kg = ggrid @ forms.apply_adjoint_operator(inst, np.eye(sys.num_atoms)).reshape(sys.num_atoms, cells)
    kg = kg.reshape(-1, sys.num_levels, sys.num_atoms)
    s = np.sqrt((kg**2).sum(axis=1))
    num2 = (s**inst.q @ inst.sigma) ** (1.0 / inst.q)
    den2 = (ggrid**inst.q @ inst.omega) ** (1.0 / inst.q)
    ok2 = den2 > 0
    if np.any(ok2):
        best = max(best, float(np.max(num2[ok2] / den2[ok2])))
    return best


def sweep_rows(
    base_seed: int,
    count: int,
    p: float,
    dimension: int,
    depth: int,
    restarts: int = 4,
    tol: float = 1e-10,
) -> list[ReportRow]:
    rows = []
    for k in range(count):
        seed = base_seed + k
        inst = generators.generate(
            generators.GenSpec(seed=seed, dimension=dimension, depth=depth, p=p)
        )
        rows.append(
            runner.evaluate_instance(
                inst,
                instance_id=runner.row_id(base_seed, p, depth, k),
                seed=seed,
                restarts=restarts,
                tol=tol,
            )
        )
    return rows
