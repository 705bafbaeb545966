import json
import math
import re

import numpy as np
import pytest

import _reference as ref
from _reference import project
from dyadlab import Cube, Instance, build_system, io, lattice, worked_instances
from dyadlab.forms import all_box_integrals
from dyadlab.forms import test_function as make_test_input
from dyadlab.generators import (
    GenSpec,
    adversarial_family,
    deep_chain_profiles,
    generate,
    random_atom_function,
    random_scale_function,
)
from dyadlab.measures import box_integral, cube_integral
from dyadlab.stopping import (
    StoppingFamily,
    build_average_family,
    build_ratio_family,
    carleson_constant,
    cell_projection,
    child_mass_bound,
    collapse_atom_function,
    collapse_scale_function,
    cross_children,
    default_ratio_constants,
    projection,
    subfamily_mass_bound,
)

W = worked_instances()


def test_average_family_examples():
    w1 = W["w1"]
    fam = build_average_family(w1, w1.sys.root, np.ones(2))
    assert fam.members == (0,)

    # averages 1 at the root and 3 on the left child force one stopping cube
    skew = Instance(w1.sys, 2.0, w1.sigma, [1.0, 3.0], w1.mu, w1.lam)
    fam = build_average_family(skew, skew.sys.root, np.array([3.0, 1.0 / 3.0]))
    cubes = ref.member_cubes(skew.sys, fam)
    assert cubes == [Cube(0, (0,)), Cube(1, (0,))]

    zero = Instance(w1.sys, 2.0, w1.sigma, np.zeros(2), w1.mu, w1.lam)
    fam = build_average_family(zero, zero.sys.root, np.ones(2))
    assert fam.members == (0,)


def test_ratio_family_examples():
    w1 = W["w1"]
    fam = build_ratio_family(w1, w1.sys.root, np.ones((2, 2)))
    assert fam.members == (0,)
    assert fam.params == {"A": 4.0, "B": 2.0}

    fam = build_ratio_family(w1, w1.sys.root, np.zeros((2, 2)))
    assert fam.members == (0,)

    # mass concentrated on the left child's box: ratio M/1 vs 4*(M/4), a tie,
    # and ties never stop
    f = np.zeros((2, 2))
    f[1, 0] = 7.0
    fam = build_ratio_family(w1, w1.sys.root, f)
    assert fam.members == (0,)

    with pytest.raises(ValueError):
        build_ratio_family(w1, w1.sys.root, np.ones((2, 2)), A=-1.0)


def test_default_constants():
    for p in (2.0, 3.0, 4.0):
        q = p / (p - 1.0)
        a, b = default_ratio_constants(p)
        assert b == pytest.approx(4.0 ** (1.0 / q), rel=1e-15)
        assert a == pytest.approx(4.0 * b ** (2.0 - q), rel=1e-15)
    assert default_ratio_constants(2.0) == (4.0, 2.0)


def test_projection_and_bracket():
    w1 = W["w1"]
    fam = build_average_family(w1, w1.sys.root, np.ones(2))
    assert project(w1.sys, fam, Cube(1, (0,))) == w1.sys.root
    assert ref.bracket_average(w1, np.ones((2, 2)), w1.sys.root) == pytest.approx(1.0)
    nomu = Instance(w1.sys, 2.0, w1.sigma, w1.omega, np.zeros((2, 2)), w1.lam)
    assert ref.bracket_average(nomu, np.ones((2, 2)), w1.sys.root) == 0.0


def test_projection_outside_top_rejected():
    s = build_system(1, 2)
    inst = Instance(s, 2.0, np.ones(4), np.ones(4), np.ones((3, 4)), np.zeros(7))
    fam = build_average_family(inst, Cube(1, (0,)), np.ones(4))
    with pytest.raises(ValueError):
        project(s, fam, Cube(1, (1,)))


def test_cross_child_outside_other_top_rejected():
    """A stopping child outside the other family's top has no projection
    there (its table entry is -1): the cross-child test and both collapses
    reject it instead of reading the entry as a member."""
    inst = generate(GenSpec(seed=2, dimension=1, depth=4, p=2.0))
    s = inst.sys
    outside = re.escape("cube Cube(level=1, index=(1,)) lies outside the family top")
    spike = np.ones(s.num_atoms)
    spike[-1] += 4.0**4
    # average family at the root, ratio family on the left half
    avg = build_average_family(inst, s.root, spike)
    flat_f = np.ones((s.num_levels, s.num_atoms))
    ratio = build_ratio_family(inst, Cube(1, (0,)), flat_f, A=1.25)
    assert s.linear(Cube(1, (1,))) in avg.children[avg.top]
    with pytest.raises(ValueError, match=outside):
        cross_children(s, avg, ratio, avg.top)
    with pytest.raises(ValueError, match=outside):
        collapse_scale_function(inst, flat_f, avg, ratio, avg.top)
    # the mirror: ratio family at the root, average family on the left half
    ratio = build_ratio_family(inst, s.root, flat_f + spike, A=1.25)
    avg = build_average_family(inst, Cube(1, (0,)), np.ones(s.num_atoms))
    assert s.linear(Cube(1, (1,))) in ratio.children[ratio.top]
    with pytest.raises(ValueError, match=outside):
        cross_children(s, ratio, avg, ratio.top)
    with pytest.raises(ValueError, match=outside):
        collapse_atom_function(inst, spike, avg, ratio, ratio.top)


def test_carleson_constant_examples():
    w1 = W["w1"]
    fam = build_average_family(w1, w1.sys.root, np.ones(2))
    assert carleson_constant(w1.sys, fam, w1.omega) == 1.0

    # hand-built two-member family on unit weights
    handmade = StoppingFamily(
        kind="average",
        top=0,
        members=(0, 1),
        children={0: (1,), 1: ()},
        parent={1: 0},
        stats={0: 0.0, 1: 0.0},
    )
    assert carleson_constant(w1.sys, handmade, np.array([1.0, 1.0])) == pytest.approx(1.5)
    # atom-additive weights cannot put mass below a massless member, so the
    # infinite flag stays off and massless members are skipped
    assert carleson_constant(w1.sys, handmade, np.array([0.0, 0.0])) == 0.0
    assert not math.isinf(carleson_constant(w1.sys, handmade, np.array([0.0, 1.0])))


def test_exclusive_sets_examples():
    w1 = W["w1"]
    fam = build_ratio_family(w1, w1.sys.root, np.ones((2, 2)))
    assert ref.exclusive_box(w1.sys, fam, 0) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert ref.exclusive_atoms(w1.sys, fam, 0) == {0, 1}

    two = StoppingFamily(
        kind="ratio",
        top=0,
        members=(0, 1),
        children={0: (1,), 1: ()},
        parent={1: 0},
        stats={0: 0.0, 1: 0.0},
        phi_mass={0: 1.0, 1: 1.0},
    )
    assert ref.exclusive_box(w1.sys, two, 0) == {(0, 0), (1, 0), (1, 1)}
    assert ref.exclusive_atoms(w1.sys, two, 0) == {1}

    gfam = build_average_family(w1, w1.sys.root, np.ones(2))
    assert cross_children(w1.sys, gfam, fam, 0) == []


def _stress_instances(p, count, depth=5):
    for k in range(count):
        yield generate(GenSpec(seed=1000 + k, depth=depth, p=p))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_average_family_is_2_carleson(p):
    for inst in _stress_instances(p, 25):
        g = random_atom_function(inst.sys, int(inst.p * 100))
        fam = build_average_family(inst, inst.sys.root, g)
        assert carleson_constant(inst.sys, fam, inst.omega) <= 2.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_ratio_family_mass_bounds(p):
    for inst in _stress_instances(p, 25):
        f = random_scale_function(inst.sys, int(inst.p * 100), base=inst.mu)
        fam = build_ratio_family(inst, inst.sys.root, f)
        assert child_mass_bound(fam) <= 0.5
        assert subfamily_mass_bound(fam) <= 2.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_stopping_bound_after_construction(p):
    a_const, _ = default_ratio_constants(p)
    for inst in _stress_instances(p, 10, depth=4):
        sys = inst.sys
        f = random_scale_function(sys, 17, base=inst.mu)
        fam = build_ratio_family(inst, sys.root, f)
        for lin in range(sys.num_cubes):
            cube = sys.cube_at(lin)
            member = project(sys, fam, cube)
            phi = make_test_input(inst, member)
            num_q = box_integral(sys, f, inst.mu, inst.sigma, cube)
            den_q = box_integral(sys, phi, inst.mu, inst.sigma, cube)
            num_m = box_integral(sys, f, inst.mu, inst.sigma, member)
            den_m = box_integral(sys, phi, inst.mu, inst.sigma, member)
            lhs = num_q / den_q if den_q > 0 else 0.0
            rhs = a_const * (num_m / den_m if den_m > 0 else 0.0)
            assert lhs <= rhs * (1 + 1e-12)


def test_deep_chain_forces_generations():
    inst = adversarial_family("deep-chain", depth=5, p=2.0)[0]
    f, g = deep_chain_profiles(inst.sys)
    ffam = build_ratio_family(inst, inst.sys.root, f)
    gfam = build_average_family(inst, inst.sys.root, g)

    def generations(fam):
        depth_of = {}
        for m in fam.members:
            depth_of[m] = 0 if m not in fam.parent else depth_of[fam.parent[m]] + 1
        return max(depth_of.values())

    assert generations(ffam) >= 2
    assert generations(gfam) >= 2


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_collapse_substitution_identities(p):
    inst = adversarial_family("deep-chain", depth=5, p=p)[0]
    sys = inst.sys
    f, g = deep_chain_profiles(sys)
    gfam = build_average_family(inst, sys.root, g)
    ffam = build_ratio_family(inst, sys.root, f)

    collapsed_f = {}
    collapsed_g = {}
    for lin in range(sys.num_cubes):
        cube = sys.cube_at(lin)
        fm = project(sys, ffam, cube)
        gm = project(sys, gfam, cube)
        # the two projections always nest
        fa, ga = set(sys.atoms_of(fm)), set(sys.atoms_of(gm))
        assert fa <= ga or ga <= fa
        if fm.level > gm.level:  # ratio member strictly inside average member
            key = sys.linear(gm)
            if key not in collapsed_f:
                collapsed_f[key] = collapse_scale_function(inst, f, gfam, ffam, key)
            a = box_integral(sys, f, inst.mu, inst.sigma, cube)
            b = box_integral(sys, collapsed_f[key], inst.mu, inst.sigma, cube)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-300)
        if gm.level >= fm.level:  # average member inside ratio member
            key = sys.linear(fm)
            if key not in collapsed_g:
                collapsed_g[key] = collapse_atom_function(inst, g, gfam, ffam, key)
            a = cube_integral(sys, g, inst.omega, cube)
            b = cube_integral(sys, collapsed_g[key], inst.omega, cube)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-300)


def test_collapse_trivial_family_is_identity():
    w1 = W["w1"]
    f = np.array([[0.5, 1.5], [2.0, 0.25]])
    g = np.array([0.75, 1.25])
    gfam = build_average_family(w1, w1.sys.root, g)
    ffam = build_ratio_family(w1, w1.sys.root, f)
    assert np.array_equal(collapse_scale_function(w1, f, gfam, ffam, 0), f)
    assert np.array_equal(collapse_atom_function(w1, g, gfam, ffam, 0), g)
    with pytest.raises(ValueError):
        collapse_scale_function(w1, f, gfam, ffam, 1)


def test_projection_uniqueness():
    inst = adversarial_family("deep-chain", depth=4, p=2.0)[0]
    f, _ = deep_chain_profiles(inst.sys)
    fam = build_ratio_family(inst, inst.sys.root, f)
    for lin in range(inst.sys.num_cubes):
        cube = inst.sys.cube_at(lin)
        member = project(inst.sys, fam, cube)
        # the projection is the unique minimal member containing the cube
        containing = [
            m for m in fam.members
            if set(inst.sys.atoms_of(cube)) <= set(inst.sys.atoms_of(inst.sys.cube_at(m)))
        ]
        levels = [inst.sys.cube_at(m).level for m in containing]
        assert levels.count(max(levels)) == 1
        best = containing[levels.index(max(levels))]
        assert inst.sys.cube_at(best) == member


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ratio_family_member_masses_are_their_own(p):
    # stats and phi_mass come from one profile per level; they equal the
    # values computed from each member's own test input, bit for bit
    for seed in range(3):
        inst = generate(GenSpec(seed=seed, dimension=2, depth=3, p=p))
        f = random_scale_function(inst.sys, seed, base=inst.mu)
        fam = build_ratio_family(inst, inst.sys.root, f, A=1.5)
        assert len(fam.members) > 1
        num = all_box_integrals(inst, f)
        for m in fam.members:
            den = all_box_integrals(inst, make_test_input(inst, inst.sys.cube_at(m)))[m]
            assert fam.phi_mass[m] == float(den)
            assert fam.stats[m] == (float(num[m] / den) if den > 0 else 0.0)


def test_ratio_family_passes_scale_with_levels(monkeypatch):
    inst = adversarial_family("deep-chain", dimension=3, depth=4, p=2.0)[0]
    f, _ = deep_chain_profiles(inst.sys)
    original = lattice.box_sums
    calls = []
    monkeypatch.setattr(lattice, "box_sums", lambda *a, **k: calls.append(1) or original(*a, **k))
    fam = build_ratio_family(inst, inst.sys.root, f)
    assert len(fam.members) > inst.sys.num_cubes // 2
    assert len(calls) <= inst.sys.num_levels + 1


# -- level sweep against the per-member BFS ---------------------------------


def _assert_same_family(sys, got, want):
    for name in ("kind", "top", "members", "children", "parent", "stats", "phi_mass", "params"):
        assert getattr(got, name) == getattr(want, name), name
    # line lists, so that a failure reports the first differing line
    lines = json.dumps(io.family_to_dict(sys, got), indent=1).splitlines()
    assert lines == json.dumps(ref.family_to_dict_path_of(sys, want), indent=1).splitlines()


def _assert_both_families(inst, top, f, g, A=None):
    _assert_same_family(
        inst.sys,
        build_average_family(inst, top, g),
        ref.build_average_family_bfs(inst, top, g),
    )
    _assert_same_family(
        inst.sys,
        build_ratio_family(inst, top, f, A=A),
        ref.build_ratio_family_bfs(inst, top, f, A=A),
    )


SWEEP_SHAPES = [(1, D) for D in range(1, 9)] + [(2, D) for D in range(1, 5)] + [
    (3, D) for D in range(1, 4)
]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dimension,depth", SWEEP_SHAPES)
def test_level_sweep_matches_bfs(dimension, depth, p):
    for seed in range(2):
        inst = generate(GenSpec(seed=seed, dimension=dimension, depth=depth, p=p))
        f = random_scale_function(inst.sys, seed, base=inst.mu)
        g = random_atom_function(inst.sys, seed)
        _assert_both_families(inst, inst.sys.root, f, g)
        _assert_both_families(inst, inst.sys.root, f, g, A=1.5)
        _assert_both_families(inst, Cube(1, (0,) * dimension), f, g, A=1.25)


def test_level_sweep_matches_bfs_on_deep_chain():
    inst = adversarial_family("deep-chain", dimension=3, depth=4, p=2.0)[0]
    f, g = deep_chain_profiles(inst.sys)
    _assert_both_families(inst, inst.sys.root, f, g)
    assert len(build_ratio_family(inst, inst.sys.root, f).members) > inst.sys.num_cubes // 2


def test_level_sweep_matches_bfs_on_fixtures():
    for inst in W.values():
        sys = inst.sys
        f = np.arange(1.0, 1.0 + sys.num_levels * sys.num_atoms).reshape(sys.num_levels, -1)
        g = np.arange(1.0, 1.0 + sys.num_atoms)
        _assert_both_families(inst, sys.root, f, g)

    inst = generate(GenSpec(seed=4, dimension=2, depth=4, p=3.0))
    sys = inst.sys
    f = random_scale_function(sys, 4, base=inst.mu)
    g = random_atom_function(sys, 4)
    no_lam = Instance(sys, inst.p, inst.sigma, inst.omega, inst.mu, np.zeros(sys.num_cubes))
    _assert_both_families(no_lam, sys.root, f, g, A=1.5)
    # weights and densities zero on whole columns: the cubes over them carry
    # 0/0 averages and brackets, which never trigger
    dead = sys.atom_mask(Cube(1, (0, 1))) | sys.atom_mask(Cube(2, (3, 3)))
    omega = np.where(dead, 0.0, inst.omega)
    mu = np.where(dead[None, :], 0.0, inst.mu)
    holes = Instance(sys, inst.p, inst.sigma, omega, mu, inst.lam)
    _assert_both_families(holes, sys.root, f * (~dead), g * (~dead), A=1.5)
    _assert_both_families(holes, sys.root, f, g, A=1.5)


def test_builders_never_walk_cubes_one_at_a_time(monkeypatch):
    calls = {"children": 0, "cube_at": 0}
    children, cube_at = lattice.children, lattice.DyadicSystem.cube_at

    def counted_children(*a, **k):
        calls["children"] += 1
        return children(*a, **k)

    def counted_cube_at(*a, **k):
        calls["cube_at"] += 1
        return cube_at(*a, **k)

    deep = adversarial_family("deep-chain", dimension=3, depth=4, p=2.0)[0]
    deep_f, deep_g = deep_chain_profiles(deep.sys)
    inst = generate(GenSpec(seed=3, dimension=2, depth=4, p=2.0))
    cases = [
        (inst, random_scale_function(inst.sys, 3, base=inst.mu), random_atom_function(inst.sys, 3)),
        (deep, deep_f, deep_g),
    ]
    monkeypatch.setattr(lattice, "children", counted_children)
    monkeypatch.setattr(lattice.DyadicSystem, "cube_at", counted_cube_at)
    for case, f, g in cases:
        build_average_family(case, case.sys.root, g)
        build_ratio_family(case, case.sys.root, f, A=1.5)
    assert calls == {"children": 0, "cube_at": 0}


def test_project_on_handmade_family():
    s = build_system(1, 2)
    handmade = StoppingFamily(
        kind="average",
        top=0,
        members=(0, 4),
        children={0: (4,), 4: ()},
        parent={4: 0},
        stats={0: 0.0, 4: 0.0},
    )
    assert project(s, handmade, Cube(2, (1,))) == Cube(2, (1,))
    assert project(s, handmade, Cube(2, (2,))) == Cube(0, (0,))
    assert project(s, handmade, Cube(1, (0,))) == Cube(0, (0,))


# -- projection table against the per-cube walk and the definitions -----------


def _projection_families():
    """Families of every sweep shape (root and non-root top), the d3 D4 deep
    chain and the handmade ones, with their systems."""
    for dimension, depth in SWEEP_SHAPES:
        inst = generate(GenSpec(seed=0, dimension=dimension, depth=depth, p=2.0))
        f = random_scale_function(inst.sys, 0, base=inst.mu)
        g = random_atom_function(inst.sys, 0)
        for top, A in ((inst.sys.root, 1.5), (Cube(1, (0,) * dimension), 1.25)):
            yield inst.sys, build_average_family(inst, top, g)
            yield inst.sys, build_ratio_family(inst, top, f, A=A)
    deep = adversarial_family("deep-chain", dimension=3, depth=4, p=2.0)[0]
    f, g = deep_chain_profiles(deep.sys)
    yield deep.sys, build_average_family(deep, deep.sys.root, g)
    yield deep.sys, build_ratio_family(deep, deep.sys.root, f)
    w1 = W["w1"].sys
    yield w1, StoppingFamily("ratio", 0, (0, 1), {0: (1,), 1: ()}, {1: 0}, {0: 0.0, 1: 0.0})
    s = build_system(1, 2)
    yield s, StoppingFamily("average", 0, (0, 4), {0: (4,), 4: ()}, {4: 0}, {0: 0.0, 4: 0.0})


def test_projection_table_matches_project():
    for sys, fam in _projection_families():
        table = projection(sys, fam)
        top = sys.cube_at(fam.top)
        inside = sys.descendant_mask(top)
        for lin in range(sys.num_cubes):
            if inside[lin]:
                assert table[lin] == sys.linear(project(sys, fam, sys.cube_at(lin)))
            else:
                assert table[lin] == -1
                with pytest.raises(ValueError):
                    project(sys, fam, sys.cube_at(lin))
        assert (table == -1).sum() == sys.num_cubes - inside.sum()


def test_projection_table_gives_exclusive_sets():
    for sys, fam in _projection_families():
        owner = cell_projection(sys, fam)
        box = {m: set() for m in fam.members}
        for (j, a), m in np.ndenumerate(owner):
            if m >= 0:
                box[m].add((a, j))
        for m in fam.members:
            assert box[m] == ref.exclusive_box(sys, fam, m)
            assert {a for a, j in box[m] if j == sys.depth} == ref.exclusive_atoms(sys, fam, m)


@pytest.mark.parametrize("depth", [4, 5])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_collapse_matches_member_masks(depth, p):
    inst = adversarial_family("deep-chain", depth=depth, p=p)[0]
    f, g = deep_chain_profiles(inst.sys)
    gfam = build_average_family(inst, inst.sys.root, g)
    ffam = build_ratio_family(inst, inst.sys.root, f)
    assert len(gfam.members) > 1 and len(ffam.members) > 1
    for m in gfam.members:
        assert np.array_equal(
            collapse_scale_function(inst, f, gfam, ffam, m),
            ref.collapse_scale_function_masks(inst, f, gfam, ffam, m),
        )
    for m in ffam.members:
        assert np.array_equal(
            collapse_atom_function(inst, g, gfam, ffam, m),
            ref.collapse_atom_function_masks(inst, g, gfam, ffam, m),
        )
