"""Definition-level reference implementations used as independent oracles.

Everything here is written with plain Python loops straight from the
defining formulas, deliberately ignoring the package's vectorized paths.
Only meant for tiny systems.  The per-cube testing-constant loops and the
per-member stopping-family BFS at the end are the exception: they reuse the
package's helpers, so their results compare bit for bit with the package's
whole-lattice passes.
"""

import math
from collections import deque

import numpy as np

from dyadlab import lattice, measures
from dyadlab.forms import (
    all_box_integrals,
    all_cube_integrals,
    level_test_input,
    test_function,
)
from dyadlab.stopping import StoppingFamily, default_ratio_constants
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
