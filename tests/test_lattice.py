import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import SizeLimitError, build_system, worked_instances
from dyadlab import lattice
from dyadlab.errors import PathError
from dyadlab.forms import lambda_form_local
from dyadlab.forms import test_function as make_test_input
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


def _box_cells(s, cube):
    """The Carleson box of ``cube`` read off ``box_mask`` as (atom, level) pairs."""
    return {(int(a), int(j)) for j, a in np.argwhere(s.box_mask(cube))}


def test_box_members_examples():
    s = build_system(1, 1)
    root = s.root
    assert np.array_equal(s.box_mask(root), [[True, True], [True, True]])
    left = lattice.cube_from_path(s, "0")
    assert np.array_equal(s.box_mask(left), [[False, False], [True, False]])
    s0 = build_system(1, 0)
    assert np.array_equal(s0.box_mask(s0.root), [[True]])


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 1)])
def test_box_members_against_reference(n, d):
    s = build_system(n, d)
    for lin in range(s.num_cubes):
        cube = ref.cube_at(s, lin)
        expected = ref.box_members(n, d, cube.level, cube.index)
        assert _box_cells(s, lin) == expected
        size = 2 ** (n * (d - cube.level)) * (d - cube.level + 1)
        assert s.box_mask(lin).sum() == len(expected) == size


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
    named = s.path
    assert isinstance(named, tuple) and len(set(named)) == len(named) == s.num_cubes
    assert s.path is named  # built once, on first use
    for lin in range(s.num_cubes):
        assert lattice.cube_from_path(s, named[lin]) == lin


def test_one_lattice_per_shape():
    # each accepted shape is built once per process, with one name table
    for n, deepest in lattice.MAX_DEPTH.items():
        for d in range(deepest + 1):
            s = build_system(n, d)
            assert build_system(n, d) is s
            assert isinstance(s.path, tuple) and len(set(s.path)) == len(s.path) == s.num_cubes
            assert all(lattice.cube_from_path(s, name) == c for c, name in enumerate(s.path))
    # a rejected shape is rejected on every call: no exception is cached
    for n, d in [(0, 1), (4, 1), (1, -1), (1, 13), (2, 7), (3, 5)]:
        for _ in range(2):
            with pytest.raises(SizeLimitError):
                build_system(n, d)


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


RESPELLINGS = {
    "leading-zero": lambda code: "0" + code,
    "plus-sign": lambda code: "+" + code,
    "leading-space": lambda code: " " + code,
    "trailing-space": lambda code: code + " ",
    "trailing-newline": lambda code: code + "\n",
    "arabic-indic": lambda code: "".join(chr(0x0660 + int(d)) for d in code),
    "fullwidth": lambda code: "".join(chr(0xFF10 + int(d)) for d in code),
    "5000-digits": lambda code: code * 5000,  # beyond int()'s digit limit
}


@pytest.mark.parametrize("respell", RESPELLINGS.values(), ids=RESPELLINGS.keys())
def test_paths_accept_only_the_spelling_paths_writes(respell):
    # int() reads most of these spellings; each cube keeps one name
    s = build_system(2, 2)
    for lin, path in enumerate(s.path[1:], start=1):
        assert lattice.cube_from_path(s, path) == lin
        codes = path.split("/")
        for k in range(len(codes)):
            bad = "/".join(codes[:k] + [respell(codes[k])] + codes[k + 1 :])
            with pytest.raises(PathError, match="canonical child code"):
                lattice.cube_from_path(s, bad)


def test_invalid_cube_rejected():
    # numpy would read -1 as the last cube: every function taking a cube id
    # rejects the ids just outside [0, num_cubes) with the one range check
    inst = worked_instances()["w1"]
    s = inst.sys
    f, g = np.ones((s.num_levels, s.num_atoms)), np.ones(s.num_atoms)
    takers = [
        s.level_of,
        s.atom_mask,
        s.box_mask,
        s.descendant_mask,
        lambda c: lattice.children(s, c),
        lambda c: make_test_input(inst, c),
        lambda c: lambda_form_local(inst, c, f, g),
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
        own = np.zeros((s.num_levels, s.num_atoms), dtype=bool)
        own[s.level_of(cube)] = s.atom_mask(cube)
        pieces = [own] + [s.box_mask(c) for c in lattice.children(s, cube)]
        # every cell of the box lies in exactly one piece, no other cell in any
        assert np.array_equal(np.sum(pieces, axis=0), s.box_mask(cube))


@given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
@settings(max_examples=40, deadline=None)
def test_chain_property(a, b):
    # two cubes containing a common atom are nested
    s = build_system(1, 6)
    for lin1 in (0, 5, 20):
        for lin2 in (1, 6, 33):
            at1, at2 = s.atom_mask(lin1), s.atom_mask(lin2)
            if at1[a] and at2[a]:
                assert np.all(at1 <= at2) or np.all(at2 <= at1)
    # every atom sits in exactly one cube per level, forming a chain
    chain = [m for m in map(s.atom_mask, range(s.num_cubes)) if m[b]]
    assert len(chain) == s.num_levels
    for outer, inner in zip(chain, chain[1:]):
        assert np.all(inner <= outer)


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
    assert list(s.path) == named


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2)])
def test_aggregation_helpers(n, d):
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    v = rng.random(s.num_atoms)
    sums = lattice.cube_sums(s, v)
    for lin in range(s.num_cubes):
        assert sums[lin] == pytest.approx(v[s.atom_mask(lin)].sum(), rel=1e-13)

    cells = rng.random((s.num_levels, s.num_atoms))
    boxes = lattice.box_sums(s, cells)
    for lin in range(s.num_cubes):
        expect = sum(cells[j, a] for (a, j) in _box_cells(s, lin))
        assert boxes[lin] == pytest.approx(expect, rel=1e-12)

    cv = rng.random(s.num_cubes)
    total = lattice.chain_running(s, cv)[-1]
    for a in range(s.num_atoms):
        expect = sum(cv[l] for l in range(s.num_cubes) if s.atom_mask(l)[a])
        assert total[a] == pytest.approx(expect, rel=1e-13)

    sub = lattice.subtree_sums(s, cv)
    for lin in range(s.num_cubes):
        mask = s.descendant_mask(lin)
        assert sub[lin] == pytest.approx(cv[mask].sum(), rel=1e-13)


def _edge_values(rng, shape, kind):
    """Values at the edges of binary64: exact zeros of both signs,
    subnormals, values near 1e308 whose sums overflow, and infinities."""
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-310], size=shape)
    if kind == "overflow":
        return rng.choice([1.0, -1.0], size=shape) * rng.uniform(1e307, 1.7e308, size=shape)
    v = rng.standard_normal(shape)
    edge = rng.random(shape) < 0.1
    pool = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, np.inf, -np.inf])
    v[edge] = rng.choice(pool, size=int(edge.sum()))
    return v


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


ALL_SHAPES = (
    [(1, d) for d in range(13)] + [(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 5)]
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,d", ALL_SHAPES)
def test_tree_aggregations_match_the_replaced_bodies(n, d):
    # level_sums and level_cumsum replaced these loops; the sums are the same
    # additions in the same order, so the results agree bit for bit
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[n, d]))
    for kind in ("mixed", "signed zeros", "overflow"):
        atoms = _edge_values(rng, s.num_atoms, kind)
        _assert_same_bits(lattice.cube_sums(s, atoms), ref.cube_sums(s, atoms))
        cells = _edge_values(rng, (s.num_levels, s.num_atoms), kind)
        _assert_same_bits(lattice.box_sums(s, cells), ref.box_sums(s, cells))
        _assert_same_bits(lattice.level_sums(s, cells), ref.select_scan_sums(s, cells))
        rows = list(cells)
        _assert_same_bits(lattice.level_sums(s, rows), ref.select_scan_sums(s, rows))
        cv = _edge_values(rng, s.num_cubes, kind)
        for start in range(s.num_levels):
            # the testing constants start a run at a level by zeroing the
            # coarser cubes' values, which gives the bits of a run begun there
            _assert_same_bits(
                lattice.chain_running(s, np.where(s.cube_level >= start, cv, 0.0)),
                ref.chain_running(s, cv, start_level=start),
            )
        _assert_same_bits(lattice.chain_running(s, cv)[-1], ref.chain_total(s, cv))
        _assert_same_bits(lattice.chain_total(s, cv), ref.chain_total(s, cv))
    # the dual's skip count, with ``level`` non-finite columns in each level's kernel
    kernels = rng.random((s.num_levels, s.num_levels, s.num_atoms))
    for level, kernel in enumerate(kernels):
        kernel[rng.integers(s.num_levels), rng.integers(s.num_atoms, size=level)] = np.inf
    bad = ~np.isfinite(kernels).all(axis=1)
    skip = lattice.level_sums(s, bad) < bad.sum(axis=1)[s.cube_level]
    assert np.array_equal(skip, ref.dual_skip(s, kernels))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,d", ALL_SHAPES)
def test_batched_aggregations_match_per_row_calls(n, d):
    # a leading batch axis gives each row the bits of its own call
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[n, 16 + d]))
    for k, kind in ((1, "mixed"), (2, "signed zeros"), (7, "overflow"), (7, "mixed")):
        cells = _edge_values(rng, (k, s.num_levels, s.num_atoms), kind)
        got = lattice.level_sums(s, cells)
        _assert_same_bits(got, np.array([lattice.level_sums(s, row) for row in cells]))
        got = lattice.box_sums(s, cells)
        _assert_same_bits(got, np.array([lattice.box_sums(s, row) for row in cells]))
        atoms = _edge_values(rng, (k, s.num_atoms), kind)
        got = lattice.cube_sums(s, atoms)
        _assert_same_bits(got, np.array([lattice.cube_sums(s, row) for row in atoms]))
        cv = _edge_values(rng, (k, s.num_cubes), kind)
        for start in {0, s.depth // 2, s.depth}:
            got = lattice.chain_running(s, np.where(s.cube_level >= start, cv, 0.0))
            want = [ref.chain_running(s, row, start_level=start) for row in cv]
            _assert_same_bits(got, np.array(want))


CHAIN_SHAPES = [(1, d) for d in range(7)] + [(2, d) for d in range(4)] + [(3, d) for d in range(3)]
CHAIN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(1e299, 1e300),
    st.floats(-1e300, -1e299),
)


@given(st.data(), st.sampled_from(CHAIN_SHAPES), st.integers(0, 9), st.booleans())
@settings(max_examples=200, deadline=None)
def test_chain_total_is_the_finest_row_of_chain_running(data, shape, k, negative_zero_root):
    # k == 0 draws one row without a batch axis
    s = build_system(*shape)
    rows, size = ((k,) if k else ()), s.num_cubes * max(k, 1)
    v = np.array(data.draw(st.lists(CHAIN_VALUES, min_size=size, max_size=size)))
    v = v.reshape(rows + (s.num_cubes,))
    if negative_zero_root:
        v[..., 0] = -0.0
    got = lattice.chain_total(s, v)
    assert got.shape == rows + (s.num_atoms,) and got.flags.c_contiguous
    assert got.tobytes() == lattice.chain_running(s, v)[..., -1, :].tobytes()


# Edge values for the finer-level property: signed zeros, subnormals, values
# whose sums overflow, and infinities.
FINER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf]),
    st.floats(-1e3, 1e3),
    st.floats(-1e-307, 1e-307),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(st.data(), st.sampled_from(CHAIN_SHAPES), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_finer_level_aggregations_are_the_finer_cubes_of_full_calls(data, shape, k):
    # rows or cube values of the levels start..depth alone (k == 0 draws one
    # row without a batch axis) give, byte for byte, the finer cubes or rows
    # of a full call whose coarser rows or cube values are zero
    s = build_system(*shape)
    start = data.draw(st.integers(0, s.depth))
    pool = np.array(data.draw(st.lists(FINER_VALUES, min_size=1, max_size=6)))
    rng = np.random.Generator(np.random.Philox(key=[data.draw(st.integers(0, 2**32)), 61]))
    batch, lo = ((k,) if k else ()), s.level_offset[start]

    rows = rng.choice(pool, size=batch + (s.num_levels - start, s.num_atoms))
    full = np.zeros(batch + (s.num_levels, s.num_atoms))
    full[..., start:, :] = rows
    for aggregation in (lattice.level_sums, lattice.box_sums):
        got, want = aggregation(s, rows), aggregation(s, full)[..., lo:]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    values = rng.choice(pool, size=batch + (s.num_cubes - lo,))
    full = np.zeros(batch + (s.num_cubes,))
    full[..., lo:] = values
    got, want = lattice.chain_running(s, values), lattice.chain_running(s, full)[..., start:, :]
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,d", ALL_SHAPES)
def test_batched_level_sums_match_per_row_calls_on_and_off_the_bin_table(n, d):
    # batches up to ``chunk_rows`` read the lattice's bin table, larger ones
    # build their bins: every row has the bytes of its own call either way
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[n, 32 + d]))
    rows = s.chunk_rows
    for k in sorted(set(range(1, 10)) | {rows, rows + 1}):
        cells = _edge_values(rng, (k, s.num_levels, s.num_atoms), "mixed")
        want = b"".join(lattice.level_sums(s, row).tobytes() for row in cells)
        assert lattice.level_sums(s, cells).tobytes() == want


@pytest.mark.parametrize("n,d", [(1, 0), (1, 3), (2, 3), (3, 2), (1, 12), (3, 4)])
def test_batch_bin_table_is_read_only(n, d):
    # a table of the lattice, a chunk's rows of bins; where a chunk is one
    # row (at 4096 atoms) it is a view of cell_cube, no copy
    s = build_system(n, d)
    bins = s.batch_bins
    assert s.chunk_rows == ref.chunk_rows(s, lattice._CHUNK_CELLS)
    assert s.batch_bins is bins and bins.shape == (s.chunk_rows, s.num_levels, s.num_atoms)
    assert np.array_equal(bins[-1], s.cell_cube + (len(bins) - 1) * s.num_cubes)
    assert (bins.base is s.cell_cube) == (s.chunk_rows == 1) == (s.num_atoms == 4096)
    assert not bins.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        bins[0, 0, 0] = 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,d", [(1, 3), (2, 3), (3, 2)])
def test_a_lattice_keeps_the_chunk_it_was_built_with(monkeypatch, n, d):
    # a lattice built, and batched, while the chunk size is lowered keeps its
    # two-row table; batches of more rows at the default chunk size build
    # their bins, and every batch row has the bytes of its own call
    with monkeypatch.context() as patched:
        patched.setattr(lattice, "_CHUNK_CELLS", 2 * (d + 1) * 2 ** (n * d))
        s = lattice.DyadicSystem(n, d)
        lattice.level_sums(s, np.ones((2, s.num_levels, s.num_atoms)))
    rng = np.random.Generator(np.random.Philox(key=[n, 48 + d]))
    for k in (3, 5):
        cells = _edge_values(rng, (k, s.num_levels, s.num_atoms), "mixed")
        cubes = _edge_values(rng, (k, s.num_cubes), "mixed")
        for aggregation, rows in ((lattice.level_sums, cells), (lattice.box_sums, cells), (lattice.chain_total, cubes)):
            want = b"".join(aggregation(s, row).tobytes() for row in rows)
            assert aggregation(s, rows).tobytes() == want
    assert (s.chunk_rows, len(s.batch_bins)) == (2, 2) and build_system(n, d).chunk_rows > 5


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
        assert s.path[lin] == ref.path_of(s, cube)
        assert [ref.cube_at(s, c) for c in lattice.children(s, lin)] == ref.children(s, cube)
        if level < d:
            assert [ref.cube_at(s, c) for c in s.child_linear[lin]] == ref.children(s, cube)
            inner += 1
        want = [a for a in range(s.num_atoms) if ref.atom_in_cube(n, d, a, level, index)]
        assert np.flatnonzero(s.cell_cube[level] == lin).tolist() == want
        assert np.flatnonzero(s.atom_mask(lin)).tolist() == want
        mask = s.descendant_mask(lin)
        assert np.array_equal(mask, ref.descendant_mask(s, cube))
        assert np.flatnonzero(mask).tolist() == [ref.linear(s, c) for c in ref.subcubes(s, cube)]
    assert s.child_linear.shape == (inner, 2**n)
    for table in (s.cell_cube, s.parent_linear, s.child_linear, s.child_code):
        assert not table.flags.writeable
