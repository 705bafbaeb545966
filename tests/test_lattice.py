import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import Cube, SizeLimitError, build_system
from dyadlab import lattice
from dyadlab.errors import PathError

import _reference as ref


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
    left = Cube(1, (0,))
    assert lattice.box_members(s, left) == {(0, 1)}
    s0 = build_system(1, 0)
    assert lattice.box_members(s0, s0.root) == {(0, 0)}


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 1)])
def test_box_members_against_reference(n, d):
    s = build_system(n, d)
    for lin in range(s.num_cubes):
        cube = s.cube_at(lin)
        expected = ref.box_members(n, d, cube.level, cube.index)
        assert lattice.box_members(s, cube) == expected
        size = 2 ** (n * (d - cube.level)) * (d - cube.level + 1)
        assert len(expected) == size


def test_tree_navigation_examples():
    s = build_system(1, 1)
    assert ref.subcubes(s, s.root) == [Cube(0, (0,)), Cube(1, (0,)), Cube(1, (1,))]
    assert ref.parent(s, Cube(1, (0,))) == s.root
    assert ref.parent(s, s.root) is None
    assert lattice.cube_from_path(s, "") == s.root
    assert lattice.children(s, s.root) == [Cube(1, (0,)), Cube(1, (1,))]


@pytest.mark.parametrize("n,d", [(1, 4), (2, 2), (3, 1)])
def test_path_round_trip(n, d):
    s = build_system(n, d)
    for lin in range(s.num_cubes):
        cube = s.cube_at(lin)
        assert lattice.cube_from_path(s, lattice.path_of(s, cube)) == cube


def test_malformed_paths():
    s = build_system(1, 2)
    with pytest.raises(PathError):
        lattice.cube_from_path(s, "0/7")
    with pytest.raises(PathError):
        lattice.cube_from_path(s, "x")
    with pytest.raises(PathError):
        lattice.cube_from_path(s, "0/0/0/0")
    s2 = build_system(2, 2)
    assert lattice.cube_from_path(s2, "3") == Cube(1, (1, 1))
    # bit i of a child code is the offset in coordinate i
    assert lattice.cube_from_path(s2, "1") == Cube(1, (1, 0))
    assert lattice.cube_from_path(s2, "2") == Cube(1, (0, 1))


def test_invalid_cube_rejected():
    s = build_system(1, 1)
    with pytest.raises(IndexError):
        s.linear(Cube(2, (0,)))
    with pytest.raises(IndexError):
        s.linear(Cube(1, (2,)))
    with pytest.raises(IndexError):
        s.linear(Cube(1, (0, 0)))
    with pytest.raises(IndexError):
        s.cube_at(3)


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2)])
def test_box_partition_property(n, d):
    # box(Q) splits into Q's own-level cells plus the children boxes
    s = build_system(n, d)
    for lin in range(s.num_cubes):
        cube = s.cube_at(lin)
        box = lattice.box_members(s, cube)
        own = {(int(a), cube.level) for a in s.atoms_of(cube)}
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
            q1, q2 = s.cube_at(lin1), s.cube_at(lin2)
            if s.contains(q1, a) and s.contains(q2, a):
                at1, at2 = set(s.atoms_of(q1)), set(s.atoms_of(q2))
                assert at1 <= at2 or at2 <= at1
    # every atom sits in exactly one cube per level, forming a chain
    chain = [s.cube_at(l) for l in range(s.num_cubes) if s.contains(s.cube_at(l), b)]
    assert len(chain) == s.num_levels
    sets = [set(s.atoms_of(c)) for c in chain]
    for i in range(len(sets) - 1):
        assert sets[i + 1] <= sets[i]


def test_enumeration_order_is_level_major_lexicographic():
    s = build_system(2, 1)
    got = [s.cube_at(l) for l in range(s.num_cubes)]
    assert got == [
        Cube(0, (0, 0)),
        Cube(1, (0, 0)),
        Cube(1, (0, 1)),
        Cube(1, (1, 0)),
        Cube(1, (1, 1)),
    ]


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2)])
def test_aggregation_helpers(n, d):
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    v = rng.random(s.num_atoms)
    sums = lattice.cube_sums(s, v)
    for lin in range(s.num_cubes):
        assert sums[lin] == pytest.approx(v[s.atoms_of(s.cube_at(lin))].sum(), rel=1e-13)

    cells = rng.random((s.num_levels, s.num_atoms))
    boxes = lattice.box_sums(s, cells)
    for lin in range(s.num_cubes):
        cube = s.cube_at(lin)
        expect = sum(cells[j, a] for (a, j) in lattice.box_members(s, cube))
        assert boxes[lin] == pytest.approx(expect, rel=1e-12)

    cv = rng.random(s.num_cubes)
    total = lattice.chain_total(s, cv)
    for a in range(s.num_atoms):
        expect = sum(cv[l] for l in range(s.num_cubes) if s.contains(s.cube_at(l), a))
        assert total[a] == pytest.approx(expect, rel=1e-13)

    sub = lattice.subtree_sums(s, cv)
    for lin in range(s.num_cubes):
        mask = s.descendant_mask(s.cube_at(lin))
        assert sub[lin] == pytest.approx(cv[mask].sum(), rel=1e-13)


@pytest.mark.parametrize("n,d", [(1, 0), (1, 4), (2, 3), (3, 2)])
def test_index_tables_match_multi_index_definitions(n, d):
    s = build_system(n, d)
    assert np.array_equal(s.parent_linear, ref.parent_table(s))
    assert s.parent_linear[0] == -1
    inner = 0
    for lin in range(s.num_cubes):
        cube = s.cube_at(lin)
        level, index = cube
        if level > 0:
            up = s.parent_linear[lin]
            assert s.cube_at(up) == Cube(level - 1, tuple(m >> 1 for m in index))
            path = ref.path_of(s, s.cube_at(up))
            code = str(s.child_code[lin])
            assert lattice.cube_from_path(s, f"{path}/{code}" if path else code) == cube
        assert lattice.path_of(s, cube) == ref.path_of(s, cube)
        assert lattice.children(s, cube) == ref.children(s, cube)
        if level < d:
            assert [s.cube_at(c) for c in s.child_linear[lin]] == ref.children(s, cube)
            inner += 1
        want = [a for a in range(s.num_atoms) if ref.atom_in_cube(n, d, a, level, index)]
        assert np.flatnonzero(s.cell_cube[level] == lin).tolist() == want
        assert s.atoms_of(cube).tolist() == want
        mask = s.descendant_mask(cube)
        assert np.array_equal(mask, ref.descendant_mask(s, cube))
        assert np.flatnonzero(mask).tolist() == [s.linear(c) for c in ref.subcubes(s, cube)]
    assert s.child_linear.shape == (inner, 2**n)
    for table in (s.cell_cube, s.parent_linear, s.child_linear, s.child_code):
        assert not table.flags.writeable
