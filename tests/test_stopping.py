import math

import numpy as np
import pytest

from dyadlab import Cube, Instance, build_system, lattice, worked_instances
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
    bracket_average,
    build_average_family,
    build_ratio_family,
    carleson_constant,
    child_mass_bound,
    collapse_atom_function,
    collapse_scale_function,
    cross_children,
    default_ratio_constants,
    exclusive_atoms,
    exclusive_box,
    project,
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
    cubes = fam.member_cubes(skew.sys)
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
    assert bracket_average(w1, np.ones((2, 2)), w1.sys.root) == pytest.approx(1.0)
    nomu = Instance(w1.sys, 2.0, w1.sigma, w1.omega, np.zeros((2, 2)), w1.lam)
    assert bracket_average(nomu, np.ones((2, 2)), w1.sys.root) == 0.0


def test_projection_outside_top_rejected():
    s = build_system(1, 2)
    inst = Instance(s, 2.0, np.ones(4), np.ones(4), np.ones((3, 4)), np.zeros(7))
    fam = build_average_family(inst, Cube(1, (0,)), np.ones(4))
    with pytest.raises(ValueError):
        project(s, fam, Cube(1, (1,)))


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
    assert exclusive_box(w1.sys, fam, 0) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert exclusive_atoms(w1.sys, fam, 0) == {0, 1}

    two = StoppingFamily(
        kind="ratio",
        top=0,
        members=(0, 1),
        children={0: (1,), 1: ()},
        parent={1: 0},
        stats={0: 0.0, 1: 0.0},
        phi_mass={0: 1.0, 1: 1.0},
    )
    assert exclusive_box(w1.sys, two, 0) == {(0, 0), (1, 0), (1, 1)}
    assert exclusive_atoms(w1.sys, two, 0) == {1}

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
