"""Finite truncated dyadic lattice with Carleson-box combinatorics.

The unit cube is split dyadically down to a fixed depth ``D``.  Scale levels
``j = 0..D`` stand for side length ``2**-j``; the cells of the finest level are
called atoms.  The (discretized) Carleson box of a cube ``Q`` is the set of
pairs ``(atom, level)`` with the atom inside ``Q`` and the level at least
``Q.level`` -- i.e. scales no coarser than the side length of ``Q``.

Atoms are enumerated in lexicographic multi-index order, cubes level-major and
lexicographically within each level.  Every other module relies on these
orders being stable.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PathError, SizeLimitError

# Memory guard: keeps the largest system around a few thousand atoms.
MAX_DEPTH = {1: 12, 2: 6, 3: 4}


class Cube(NamedTuple):
    """Identifier of one dyadic cube: scale level and multi-index."""

    level: int
    index: tuple[int, ...]


class DyadicSystem:
    """Immutable indexing tables for one (dimension, depth) lattice.

    The heavy lifting elsewhere in the package happens on flat numpy arrays:
    weights are indexed by atom id, cube data by the linear cube id (level
    major).  This class owns the conversion tables and is safe to share
    between threads; nothing mutates it after construction.
    """

    def __init__(self, dimension: int, depth: int):
        if dimension not in MAX_DEPTH:
            raise SizeLimitError(f"dimension must be 1, 2 or 3, got {dimension}")
        if not (0 <= depth <= MAX_DEPTH[dimension]):
            raise SizeLimitError(
                f"depth {depth} outside [0, {MAX_DEPTH[dimension]}] for dimension {dimension}"
            )
        self.dimension = int(dimension)
        self.depth = int(depth)
        self.num_levels = self.depth + 1
        self.num_atoms = 1 << (self.dimension * self.depth)
        counts = np.array([1 << (self.dimension * j) for j in range(self.num_levels)])
        self.level_sizes = counts
        self.level_offset = np.concatenate(([0], np.cumsum(counts)))
        self.num_cubes = int(self.level_offset[-1])

        self.cube_level = np.repeat(np.arange(self.num_levels), counts)
        self.cube_local = np.concatenate([np.arange(c) for c in counts])

        # Atom digits: multi-index per coordinate, shape (dimension, num_atoms).
        side = 1 << self.depth
        self._atom_digits = np.indices((side,) * self.dimension).reshape(
            self.dimension, self.num_atoms
        )

        # ancestor_local[j, a]: local index (within level j) of the level-j
        # cube containing atom a.  This single table powers containment tests
        # and all tree aggregations.
        anc = np.empty((self.num_levels, self.num_atoms), dtype=np.intp)
        for j in range(self.num_levels):
            shifted = self._atom_digits >> (self.depth - j)
            anc[j] = np.ravel_multi_index(
                tuple(shifted), (1 << j,) * self.dimension
            )
        anc.flags.writeable = False
        self.ancestor_local = anc

        # parent_linear[c]: linear id of the parent cube, -1 for the root.
        parent = np.full(self.num_cubes, -1, dtype=np.intp)
        for j in range(1, self.num_levels):
            locs = np.arange(1 << (self.dimension * j))
            digits = np.unravel_index(locs, (1 << j,) * self.dimension)
            up = tuple(d >> 1 for d in digits)
            parent[self.level_offset[j] + locs] = self.level_offset[j - 1] + (
                np.ravel_multi_index(up, (1 << (j - 1),) * self.dimension)
            )
        parent.flags.writeable = False
        self.parent_linear = parent

    # -- identifier conversions -------------------------------------------

    @property
    def root(self) -> Cube:
        return Cube(0, (0,) * self.dimension)

    def validate(self, cube: Cube) -> Cube:
        level, index = cube
        if not (0 <= level <= self.depth):
            raise IndexError(f"cube level {level} outside [0, {self.depth}]")
        if len(index) != self.dimension:
            raise IndexError(f"cube index {index} has wrong arity")
        if any(not (0 <= m < (1 << level)) for m in index):
            raise IndexError(f"cube index {index} outside [0, 2^{level})")
        return Cube(int(level), tuple(int(m) for m in index))

    def linear(self, cube: Cube) -> int:
        """Linear id of a cube in level-major enumeration order."""
        level, index = self.validate(cube)
        local = int(
            np.ravel_multi_index(index, (1 << level,) * self.dimension)
        )
        return int(self.level_offset[level]) + local

    def cube_at(self, lin: int) -> Cube:
        if not (0 <= lin < self.num_cubes):
            raise IndexError(f"cube id {lin} outside [0, {self.num_cubes})")
        level = int(self.cube_level[lin])
        local = int(self.cube_local[lin])
        index = np.unravel_index(local, (1 << level,) * self.dimension)
        return Cube(level, tuple(int(m) for m in index))

    # -- containment ------------------------------------------------------

    def atom_mask(self, cube: Cube) -> np.ndarray:
        """Boolean mask over atoms: which atoms lie inside ``cube``."""
        level, index = self.validate(cube)
        local = np.ravel_multi_index(index, (1 << level,) * self.dimension)
        return self.ancestor_local[level] == local

    def atoms_of(self, cube: Cube) -> np.ndarray:
        return np.flatnonzero(self.atom_mask(cube))

    def contains(self, cube: Cube, atom: int) -> bool:
        if not (0 <= atom < self.num_atoms):
            raise IndexError(f"atom id {atom} outside [0, {self.num_atoms})")
        return bool(self.atom_mask(cube)[atom])

    def box_mask(self, cube: Cube) -> np.ndarray:
        """Boolean mask of shape (levels, atoms) for the Carleson box."""
        level, _ = self.validate(cube)
        mask = np.zeros((self.num_levels, self.num_atoms), dtype=bool)
        mask[level:, :] = self.atom_mask(cube)
        return mask

    def descendant_mask(self, cube: Cube) -> np.ndarray:
        """Boolean mask over linear cube ids: all subcubes of ``cube`` (incl. itself)."""
        level, index = self.validate(cube)
        local = np.ravel_multi_index(index, (1 << level,) * self.dimension)
        mask = np.zeros(self.num_cubes, dtype=bool)
        for j in range(level, self.num_levels):
            locs = np.arange(1 << (self.dimension * j))
            digits = np.unravel_index(locs, (1 << j,) * self.dimension)
            up = tuple(d >> (j - level) for d in digits)
            here = np.ravel_multi_index(up, (1 << level,) * self.dimension) == local
            mask[self.level_offset[j] + locs] = here
        return mask


def build_system(dimension: int, depth: int) -> DyadicSystem:
    """Build the truncated lattice; rejects sizes beyond the memory guard."""
    return DyadicSystem(dimension, depth)


def children(sys: DyadicSystem, cube: Cube) -> list[Cube]:
    """The 2**dimension children, in lexicographic multi-index order."""
    level, index = sys.validate(cube)
    if level == sys.depth:
        return []
    out = []
    for local in range(1 << sys.dimension):
        # Offsets enumerated so the resulting multi-indices are lexicographic.
        offs = tuple((local >> (sys.dimension - 1 - i)) & 1 for i in range(sys.dimension))
        out.append(Cube(level + 1, tuple(2 * m + o for m, o in zip(index, offs))))
    return out


def box_members(sys: DyadicSystem, cube: Cube) -> set[tuple[int, int]]:
    """The Carleson box of ``cube`` as a set of (atom, level) pairs."""
    level, _ = sys.validate(cube)
    atoms = sys.atoms_of(cube)
    return {(int(a), j) for j in range(level, sys.num_levels) for a in atoms}


# -- path grammar ----------------------------------------------------------
#
# A path is the child-code string from the root, codes separated by "/";
# the empty string is the root.  Bit i of a code is the offset of the child
# in coordinate i.


def cube_from_path(sys: DyadicSystem, path: str) -> Cube:
    if path == "":
        return sys.root
    index = [0] * sys.dimension
    parts = path.split("/")
    if len(parts) > sys.depth:
        raise PathError(f"path {path!r} deeper than lattice depth {sys.depth}")
    for part in parts:
        try:
            code = int(part, 10)
        except ValueError as exc:
            raise PathError(f"path component {part!r} is not an integer") from exc
        if not (0 <= code < (1 << sys.dimension)):
            raise PathError(
                f"child code {code} outside [0, {1 << sys.dimension}) in path {path!r}"
            )
        for i in range(sys.dimension):
            index[i] = (index[i] << 1) | ((code >> i) & 1)
    return Cube(len(parts), tuple(index))


def path_of(sys: DyadicSystem, cube: Cube) -> str:
    level, index = sys.validate(cube)
    codes = []
    for step in range(1, level + 1):
        code = 0
        for i in range(sys.dimension):
            bit = (index[i] >> (level - step)) & 1
            code |= bit << i
        codes.append(str(code))
    return "/".join(codes)


# -- tree aggregations -----------------------------------------------------
#
# These are the numeric workhorses shared by the other modules.  All of them
# are plain sums arranged along the lattice tree; bincount keeps them O(atoms)
# per level.


def cube_sums(sys: DyadicSystem, atom_values: np.ndarray) -> np.ndarray:
    """Per-cube sums of an atom array: out[Q] = sum of values over atoms in Q."""
    v = np.asarray(atom_values, dtype=np.float64)
    out = np.empty(sys.num_cubes, dtype=np.float64)
    for j in range(sys.num_levels):
        out[sys.level_offset[j] : sys.level_offset[j + 1]] = np.bincount(
            sys.ancestor_local[j], weights=v, minlength=int(sys.level_sizes[j])
        )
    return out


def box_sums(sys: DyadicSystem, cell_values: np.ndarray) -> np.ndarray:
    """Per-cube Carleson-box sums of a (levels, atoms) array.

    out[Q] = sum of values over the pairs (atom in Q, level >= Q.level).
    """
    w = np.asarray(cell_values, dtype=np.float64)
    suffix = np.cumsum(w[::-1], axis=0)[::-1]
    out = np.empty(sys.num_cubes, dtype=np.float64)
    for j in range(sys.num_levels):
        out[sys.level_offset[j] : sys.level_offset[j + 1]] = np.bincount(
            sys.ancestor_local[j], weights=suffix[j], minlength=int(sys.level_sizes[j])
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
        acc = acc + level_vals[sys.ancestor_local[j]]
        out[j] = acc
    return out


def chain_total(sys: DyadicSystem, cube_values: np.ndarray) -> np.ndarray:
    """out[a] = sum of values over every cube containing atom a."""
    v = np.asarray(cube_values, dtype=np.float64)
    acc = np.zeros(sys.num_atoms, dtype=np.float64)
    for j in range(sys.num_levels):
        level_vals = v[sys.level_offset[j] : sys.level_offset[j + 1]]
        acc += level_vals[sys.ancestor_local[j]]
    return acc


def subtree_sums(sys: DyadicSystem, cube_values: np.ndarray) -> np.ndarray:
    """out[Q] = sum of values over all subcubes of Q, including Q."""
    out = np.asarray(cube_values, dtype=np.float64).copy()
    for j in range(sys.depth, 0, -1):
        lo, hi = sys.level_offset[j], sys.level_offset[j + 1]
        parents = sys.parent_linear[lo:hi] - sys.level_offset[j - 1]
        out[sys.level_offset[j - 1] : lo] += np.bincount(
            parents, weights=out[lo:hi], minlength=int(sys.level_sizes[j - 1])
        )
    return out
