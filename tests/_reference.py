"""Definition-level reference implementations used as independent oracles.

Everything here is written with plain Python loops straight from the
defining formulas, deliberately ignoring the package's vectorized paths.
Only meant for tiny systems.  The per-cube testing-constant loops, the
per-member stopping-family BFS and the per-member exclusive masks at the end
are the exception: they reuse the package's helpers, so their results compare
bit for bit with the package's whole-lattice passes.  The helpers in between
are small definitions that only tests call.
"""

import math
from collections import deque

import numpy as np

from dyadlab import lattice, measures
from dyadlab.embedding import StoppingEmbeddingReport, lifted_measure
from dyadlab.forms import (
    all_box_integrals,
    all_cube_integrals,
    level_test_input,
    test_function,
)
from dyadlab.stopping import (
    StoppingFamily,
    _largest_subtree_ratio,
    _subtree_totals,
    cross_children,
    default_ratio_constants,
    project,
)
from dyadlab.testing_constants import (
    TestingSide,
    dual_kernel,
    norming_atom_function,
    norming_scale_function,
)


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


# -- helpers only tests call ------------------------------------------------


def subcubes(sys, cube):
    """All subcubes of ``cube`` including itself, level-major lexicographic."""
    level, index = sys.validate(cube)
    out = []
    for j in range(level, sys.num_levels):
        shift = j - level
        ranges = [range(m << shift, (m + 1) << shift) for m in index]
        grids = np.meshgrid(*[np.array(list(r)) for r in ranges], indexing="ij")
        stacked = np.stack([g.ravel() for g in grids], axis=1)
        # meshgrid ij order == lexicographic over the multi-index
        for row in stacked:
            out.append(lattice.Cube(j, tuple(int(v) for v in row)))
    return out


def apply_box_operator_local(inst, top, f):
    """Box operator with the cube sum restricted to subcubes of ``top``."""
    level, _ = inst.sys.validate(top)
    contrib = inst.lam * all_box_integrals(inst, f)
    running = lattice.chain_running(inst.sys, contrib, start_level=level)
    return running[inst.sys.depth] * inst.sys.atom_mask(top)


def bracket_average(inst, f, cube):
    """Box mass of f calibrated by the cube's own test input; 0/0 -> 0."""
    lin = inst.sys.linear(cube)
    num = all_box_integrals(inst, f)[lin]
    level = int(inst.sys.cube_level[lin])
    den = all_box_integrals(inst, level_test_input(inst, level))[lin]
    return num / den if den > 0 else 0.0


def member_cubes(sys, family):
    return [sys.cube_at(m) for m in family.members]


# -- per-cube testing-constant loops ---------------------------------------
#
# The package computes both testing constants level by level; these loops
# evaluate the defining per-cube ratio on every cube, in enumeration order,
# keeping the first strict maximum.  They use the package's own helpers so
# that results can be compared bit for bit.


def forward_testing_constant_loop(inst):
    sys = inst.sys
    best, best_cube, best_witness = 0.0, None, np.zeros(sys.num_atoms)
    for lin in range(sys.num_cubes):
        cube = sys.cube_at(lin)
        phi = test_function(inst, cube)
        phinorm = measures.mixed_norm(phi, inst.sigma, inst.p)
        if phinorm == 0.0:
            continue
        contrib = inst.lam * all_box_integrals(inst, phi)
        running = lattice.chain_running(sys, contrib, start_level=cube.level)
        h = running[sys.depth] * sys.atom_mask(cube)
        ratio = measures.lp_norm(h, inst.omega, inst.p) / phinorm
        if ratio > best:
            best, best_cube = ratio, cube
            best_witness = norming_atom_function(h, inst.omega, inst.p)
    return TestingSide(best, best_cube, best_witness)


def dual_testing_constant_loop(inst):
    sys = inst.sys
    best, best_cube = 0.0, None
    best_witness = np.zeros((sys.num_levels, sys.num_atoms))
    for lin in range(sys.num_cubes):
        cube = sys.cube_at(lin)
        denom = measures.mass(sys, inst.omega, cube) ** (1.0 / inst.q)
        if denom == 0.0:
            continue
        kernel = dual_kernel(inst, cube)
        ratio = measures.mixed_norm(kernel, inst.sigma, inst.q) / denom
        if ratio > best:
            best, best_cube = ratio, cube
            best_witness = norming_scale_function(kernel, inst.sigma, inst.p, inst.q)
    return TestingSide(best, best_cube, best_witness)


# -- stopping families by per-member BFS -----------------------------------
#
# The package builds both families with one top-down level sweep and writes
# family JSON with one path per member.  These are the per-member BFS
# builders and the ``path_of``-per-reference writer they replaced; tests
# compare the two bit for bit.


def _scan_maximal(sys, member, trigger):
    """Maximal strict subcubes of ``member`` satisfying ``trigger``, BFS."""
    found = []
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


def build_average_family_bfs(inst, top, g):
    sys = inst.sys
    masses = lattice.cube_sums(sys, inst.omega)
    integrals = all_cube_integrals(inst, g)
    avg = np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)

    top_lin = sys.linear(top)
    members = [top_lin]
    children = {}
    parents = {}
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


def build_ratio_family_bfs(inst, top, f, A=None):
    a_default, b = default_ratio_constants(inst.p)
    if A is None:
        A = a_default
    sys = inst.sys
    num = all_box_integrals(inst, f)
    dens = {}

    top_lin = sys.linear(top)
    members = [top_lin]
    children = {}
    parents = {}
    stats = {}
    phi_mass = {}
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

        def trigger(lin):
            return den[lin] > 0 and num[lin] / den[lin] > threshold

        ch = _scan_maximal(sys, member, trigger)
        children[member] = tuple(ch)
        for c in ch:
            parents[c] = member
            members.append(c)
        queue.extend(ch)
    return StoppingFamily(
        "ratio", top_lin, tuple(members), children, parents, stats, phi_mass,
        {"A": float(A), "B": float(b)},
    )


def family_to_dict_path_of(sys, family):
    members = []
    for m in family.members:
        cube = sys.cube_at(m)
        entry = {
            "path": lattice.path_of(sys, cube),
            "stat": family.stats[m],
        }
        if m in family.parent:
            entry["parent"] = lattice.path_of(sys, sys.cube_at(family.parent[m]))
        if family.phi_mass:
            entry["test_input_mass"] = family.phi_mass[m]
        members.append(entry)
    edges = [
        [lattice.path_of(sys, sys.cube_at(m)), lattice.path_of(sys, sys.cube_at(c))]
        for m in family.members
        for c in family.children[m]
    ]
    return {
        "kind": family.kind,
        "top": lattice.path_of(sys, sys.cube_at(family.top)),
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
    mask = sys.box_mask(sys.cube_at(member))
    for c in family.children[member]:
        mask &= ~sys.box_mask(sys.cube_at(c))
    return mask


def exclusive_atom_mask(sys, family, member):
    mask = sys.atom_mask(sys.cube_at(member))
    for c in family.children[member]:
        mask &= ~sys.atom_mask(sys.cube_at(c))
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
        level = project(sys, ratio_family, sys.cube_at(c)).level
        if level not in profiles:
            phi = level_test_input(inst, level)
            profiles[level] = (phi, all_box_integrals(inst, phi))
        phi, den = profiles[level]
        coeff = num[c] / den[c] if den[c] > 0 else 0.0
        out = out + coeff * (phi * sys.box_mask(sys.cube_at(c)))
    return out


def collapse_atom_function_masks(inst, g, avg_family, ratio_family, member):
    sys = inst.sys
    out = g * exclusive_atom_mask(sys, ratio_family, member)
    for c in cross_children(sys, ratio_family, avg_family, member):
        cube = sys.cube_at(c)
        out = out + measures.average(sys, g, inst.omega, cube) * sys.atom_mask(cube)
    return out


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

    factor = _largest_subtree_ratio(family, lifted_measure(family).box_mass)[0]

    weights = inst.sigma[None, :] * f * inst.mu
    exclusive = {
        m: measures.ksum(weights[exclusive_box_mask(sys, family, m)]) for m in family.members
    }
    acc = _subtree_totals(family, exclusive)
    err = 0.0
    for member in reversed(family.members):
        target = num[member]
        scale = max(abs(target), abs(acc[member]), 1e-300)
        err = max(err, abs(acc[member] - target) / scale)

    return StoppingEmbeddingReport(lhs, rhs, ratio, factor, err)
