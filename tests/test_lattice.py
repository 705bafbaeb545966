import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import SizeLimitError, build_system, worked_instances
from dyadlab import lattice
from dyadlab.errors import PathError
from dyadlab.forms import lambda_form_local, phi_identity_check
from dyadlab.forms import test_function as make_test_input
from dyadlab.measures import average, box_integral, cube_integral, mass
from dyadlab.stopping import build_average_family, build_ratio_family

import _reference as ref
from _reference import Cube


def test_counts_match_closed_forms():
    s = build_system(1, 1)
    assert s.num_cubes == 3 and s.num_atoms == 2 and s.num_levels == 2
    s = build_system(1, 0)
    assert s.num_cubes == 1 and s.num_atoms == 1
    s = build_system(2, 1)
    assert s.num_cubes == 5 and s.num_atoms == 4
    for n, d in [(1, 5), (2, 3), (3, 2)]:
        s = build_system(n, d)
        assert s.num_cubes == sum(2 ** (n * j) for j in range(d + 1))
        assert s.num_atoms == 2 ** (n * d)


def test_size_guard():
    with pytest.raises(SizeLimitError):
        build_system(4, 1)
    with pytest.raises(SizeLimitError):
        build_system(1, 13)
    with pytest.raises(SizeLimitError):
        build_system(2, 7)
    with pytest.raises(SizeLimitError):
        build_system(3, -1)


def test_box_members_examples():
    s = build_system(1, 1)
    root = s.root
    assert lattice.box_members(s, root) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    left = lattice.cube_from_path(s, "0")
    assert lattice.box_members(s, left) == {(0, 1)}
    s0 = build_system(1, 0)
    assert lattice.box_members(s0, s0.root) == {(0, 0)}


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 1)])
def test_box_members_against_reference(n, d):
    s = build_system(n, d)
    for lin in range(s.num_cubes):
        cube = ref.cube_at(s, lin)
        expected = ref.box_members(n, d, cube.level, cube.index)
        assert lattice.box_members(s, lin) == expected
        size = 2 ** (n * (d - cube.level)) * (d - cube.level + 1)
        assert len(expected) == size


def test_tree_navigation_examples():
    s = build_system(1, 1)
    root = Cube(0, (0,))
    assert s.root == ref.linear(s, root) == 0
    assert ref.subcubes(s, root) == [Cube(0, (0,)), Cube(1, (0,)), Cube(1, (1,))]
    assert ref.parent(s, Cube(1, (0,))) == root
    assert ref.parent(s, root) is None
    assert lattice.cube_from_path(s, "") == s.root
    assert lattice.children(s, s.root) == [1, 2]
    assert lattice.children(s, 1) == lattice.children(s, 2) == []


@pytest.mark.parametrize("n,d", [(1, 4), (2, 2), (3, 1)])
def test_path_round_trip(n, d):
    s = build_system(n, d)
    named = lattice.paths(s, range(s.num_cubes))
    assert list(named) == list(range(s.num_cubes))
    assert lattice.paths(s, iter(range(s.num_cubes))) == named  # one pass over the ids
    for lin in range(s.num_cubes):
        assert lattice.cube_from_path(s, named[lin]) == lin
        assert lattice.paths(s, [lin]) == {lin: named[lin]}


def test_malformed_paths():
    s = build_system(1, 2)
    with pytest.raises(PathError):
        lattice.cube_from_path(s, "0/7")
    with pytest.raises(PathError):
        lattice.cube_from_path(s, "x")
    with pytest.raises(PathError):
        lattice.cube_from_path(s, "0/0/0/0")
    s2 = build_system(2, 2)
    assert lattice.cube_from_path(s2, "3") == ref.linear(s2, Cube(1, (1, 1)))
    # bit i of a child code is the offset in coordinate i
    assert lattice.cube_from_path(s2, "1") == ref.linear(s2, Cube(1, (1, 0)))
    assert lattice.cube_from_path(s2, "2") == ref.linear(s2, Cube(1, (0, 1)))


def test_invalid_cube_rejected():
    # numpy would read -1 as the last cube: every function taking a cube id
    # rejects the ids just outside [0, num_cubes) with the one range check
    inst = worked_instances()["w1"]
    s = inst.sys
    f, g = np.ones((s.num_levels, s.num_atoms)), np.ones(s.num_atoms)
    takers = [
        s.level_of,
        s.atom_mask,
        s.atoms_of,
        s.box_mask,
        s.descendant_mask,
        lambda c: s.contains(c, 0),
        lambda c: lattice.children(s, c),
        lambda c: lattice.box_members(s, c),
        lambda c: lattice.paths(s, [0, c]),
        lambda c: make_test_input(inst, c),
        lambda c: lambda_form_local(inst, c, f, g),
        lambda c: phi_identity_check(inst, c),
        lambda c: box_integral(s, f, inst.mu, inst.sigma, c),
        lambda c: cube_integral(s, g, inst.omega, c),
        lambda c: mass(s, inst.omega, c),
        lambda c: average(s, g, inst.omega, c),
        lambda c: build_average_family(inst, c, g),
        lambda c: build_ratio_family(inst, c, f),
    ]
    for take in takers:
        for bad in (-1, s.num_cubes):
            with pytest.raises(IndexError, match=re.escape(f"cube id {bad} outside [0, 3)")):
                take(bad)


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2)])
def test_box_partition_property(n, d):
    # box(Q) splits into Q's own-level cells plus the children boxes
    s = build_system(n, d)
    for cube in range(s.num_cubes):
        box = lattice.box_members(s, cube)
        own = {(int(a), s.level_of(cube)) for a in s.atoms_of(cube)}
        pieces = [own] + [lattice.box_members(s, c) for c in lattice.children(s, cube)]
        union = set()
        total = 0
        for piece in pieces:
            union |= piece
            total += len(piece)
        assert union == box and total == len(box)


@given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
@settings(max_examples=40, deadline=None)
def test_chain_property(a, b):
    # two cubes containing a common atom are nested
    s = build_system(1, 6)
    for lin1 in (0, 5, 20):
        for lin2 in (1, 6, 33):
            if s.contains(lin1, a) and s.contains(lin2, a):
                at1, at2 = set(s.atoms_of(lin1)), set(s.atoms_of(lin2))
                assert at1 <= at2 or at2 <= at1
    # every atom sits in exactly one cube per level, forming a chain
    chain = [l for l in range(s.num_cubes) if s.contains(l, b)]
    assert len(chain) == s.num_levels
    sets = [set(s.atoms_of(c)) for c in chain]
    for i in range(len(sets) - 1):
        assert sets[i + 1] <= sets[i]


def test_enumeration_order_is_level_major_lexicographic():
    s = build_system(2, 1)
    cubes = [
        Cube(0, (0, 0)),
        Cube(1, (0, 0)),
        Cube(1, (0, 1)),
        Cube(1, (1, 0)),
        Cube(1, (1, 1)),
    ]
    assert [ref.cube_at(s, l) for l in range(s.num_cubes)] == cubes
    # bit i of a child code is the offset in coordinate i
    named = ["", "0", "2", "1", "3"]
    assert [ref.path_of(s, c) for c in cubes] == named
    assert list(lattice.paths(s, range(s.num_cubes)).values()) == named


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2)])
def test_aggregation_helpers(n, d):
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    v = rng.random(s.num_atoms)
    sums = lattice.cube_sums(s, v)
    for lin in range(s.num_cubes):
        assert sums[lin] == pytest.approx(v[s.atoms_of(lin)].sum(), rel=1e-13)

    cells = rng.random((s.num_levels, s.num_atoms))
    boxes = lattice.box_sums(s, cells)
    for lin in range(s.num_cubes):
        expect = sum(cells[j, a] for (a, j) in lattice.box_members(s, lin))
        assert boxes[lin] == pytest.approx(expect, rel=1e-12)

    cv = rng.random(s.num_cubes)
    total = lattice.chain_total(s, cv)
    for a in range(s.num_atoms):
        expect = sum(cv[l] for l in range(s.num_cubes) if s.contains(l, a))
        assert total[a] == pytest.approx(expect, rel=1e-13)

    sub = lattice.subtree_sums(s, cv)
    for lin in range(s.num_cubes):
        mask = s.descendant_mask(lin)
        assert sub[lin] == pytest.approx(cv[mask].sum(), rel=1e-13)


@pytest.mark.parametrize("n,d", [(1, 0), (1, 4), (2, 3), (3, 2)])
def test_index_tables_match_multi_index_definitions(n, d):
    s = build_system(n, d)
    assert np.array_equal(s.parent_linear, ref.parent_table(s))
    assert s.parent_linear[0] == -1
    inner = 0
    for lin in range(s.num_cubes):
        cube = ref.cube_at(s, lin)
        level, index = cube
        assert ref.linear(s, cube) == lin and s.level_of(lin) == level
        if level > 0:
            up = s.parent_linear[lin]
            assert ref.cube_at(s, up) == Cube(level - 1, tuple(m >> 1 for m in index))
            path = ref.path_of(s, ref.cube_at(s, up))
            code = str(s.child_code[lin])
            assert lattice.cube_from_path(s, f"{path}/{code}" if path else code) == lin
        assert lattice.paths(s, [lin]) == {lin: ref.path_of(s, cube)}
        assert [ref.cube_at(s, c) for c in lattice.children(s, lin)] == ref.children(s, cube)
        if level < d:
            assert [ref.cube_at(s, c) for c in s.child_linear[lin]] == ref.children(s, cube)
            inner += 1
        want = [a for a in range(s.num_atoms) if ref.atom_in_cube(n, d, a, level, index)]
        assert np.flatnonzero(s.cell_cube[level] == lin).tolist() == want
        assert s.atoms_of(lin).tolist() == want
        mask = s.descendant_mask(lin)
        assert np.array_equal(mask, ref.descendant_mask(s, cube))
        assert np.flatnonzero(mask).tolist() == [ref.linear(s, c) for c in ref.subcubes(s, cube)]
    assert s.child_linear.shape == (inner, 2**n)
    for table in (s.cell_cube, s.parent_linear, s.child_linear, s.child_code):
        assert not table.flags.writeable
