"""Finite truncated dyadic lattice with Carleson-box combinatorics.

The unit cube is split dyadically down to a fixed depth ``D``.  Scale levels
``j = 0..D`` stand for side length ``2**-j``; the cells of the finest level are
called atoms.  The (discretized) Carleson box of a cube ``Q`` is the set of
pairs ``(atom, level)`` with the atom inside ``Q`` and the level at least
that of ``Q`` -- i.e. scales no coarser than the side length of ``Q``.

Atoms are enumerated in lexicographic multi-index order, cubes level-major and
lexicographically within each level; a cube's position in that order, its
linear id, is its only name inside the package (the root is id 0).  The
tables of :class:`DyadicSystem` are the one definition of this layout: other
modules read cells, parents, children, path codes and names off them and
derive no index themselves.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np

from .errors import PathError, SizeLimitError

# Memory guard: keeps the largest system around a few thousand atoms.
MAX_DEPTH = {1: 12, 2: 6, 3: 4}

# A chunk of functions for one batched lattice pass holds about this many
# (level, atom) cells, and at least one function: ``normest.power_ascent``
# steps its seeds in such chunks, which may end inside one instance's seeds
# or hold those of several instances of one lattice.  In the alternating
# maximization (35 seeds, 1 BLAS thread) one batch of all the seeds took 1.35x
# the rule's time at d1 D12 p 3, 1.21x at d2 D6 p 2 and 1.12x at d3 D4 p 3,
# where a chunk is one function, and 0.91x at d1 D8 p 3 (7 rows a chunk).
_CHUNK_CELLS = 1 << 14


class DyadicSystem:
    """Immutable indexing tables for one (dimension, depth) lattice.

    The heavy lifting elsewhere in the package happens on flat numpy arrays:
    weights are indexed by atom id, cube data by the linear cube id (level
    major).  This class owns the index tables and is safe to share
    between threads; nothing mutates it after construction but the name
    tables, each built once on first use.
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
        self.level_offset = np.concatenate(([0], np.cumsum(counts)))
        self.num_cubes = int(self.level_offset[-1])

        self.cube_level = np.repeat(np.arange(self.num_levels), counts)

        # Atom digits: multi-index per coordinate, shape (dimension, num_atoms).
        side = 1 << self.depth
        digits = np.indices((side,) * self.dimension).reshape(self.dimension, self.num_atoms)

        # cell_cube[j, a]: linear id of the level-j cube containing atom a,
        # whose multi-index is digits >> (depth - j), placed lexicographically
        # after the level's offset.  This and the tables below are the one
        # definition of the index layout.
        level = np.arange(self.num_levels)[:, None]
        self.cell_cube = self.level_offset[:-1, None] + sum(
            (digits[i] >> (self.depth - level)) << (level * (self.dimension - 1 - i))
            for i in range(self.dimension)
        )

        # parent_linear[c]: linear id of the parent cube, -1 for the root.
        self.parent_linear = np.full(self.num_cubes, -1, dtype=np.intp)
        self.parent_linear[self.cell_cube[1:]] = self.cell_cube[:-1]

        # child_linear[c]: the children of a non-atom cube c in ``children``
        # order, lexicographic in the multi-index; a stable sort by parent
        # keeps each row's ids ascending.
        order = np.argsort(self.parent_linear[1:], kind="stable")
        self.child_linear = (1 + order).reshape(-1, 1 << self.dimension)

        # child_code[c]: the path code of c below its parent (0 for the root).
        # Bit i of a code is the child's offset in coordinate i; in a
        # ``child_linear`` row, coordinate 0 is the high bit of the position.
        k = np.arange(1 << self.dimension)
        self.child_code = np.zeros(self.num_cubes, dtype=np.intp)
        self.child_code[self.child_linear] = sum(
            ((k >> (self.dimension - 1 - i)) & 1) << i for i in range(self.dimension)
        )

        # chunk_rows: the functions one batched pass takes.  batch_bins[i]: the
        # bins of batch row i of cube data, cell_cube + i * num_cubes (a view
        # of cell_cube where a chunk is one row).
        self.chunk_rows = max(1, _CHUNK_CELLS // (self.num_levels * self.num_atoms))
        rows = np.arange(self.chunk_rows)[:, None, None]
        self.batch_bins = self.cell_cube + self.num_cubes * rows if self.chunk_rows > 1 else self.cell_cube[None]
        for table in (self.cell_cube, self.parent_linear, self.child_linear, self.child_code, self.batch_bins):
            table.flags.writeable = False

    # -- cube ids ---------------------------------------------------------

    root = 0

    @functools.cached_property
    def path(self) -> tuple[str, ...]:
        """The name of each cube, by linear id: its parent's name, ``/`` and
        its child code (see the path grammar below)."""
        names = [""]
        for up, code in zip(self.parent_linear[1:].tolist(), self.child_code[1:].tolist()):
            names.append(f"{names[up]}/{code}" if up else str(code))
        return tuple(names)

    @functools.cached_property
    def cube_of_path(self) -> MappingProxyType:
        """The inverse of ``path``: name -> linear id."""
        return MappingProxyType({name: cube for cube, name in enumerate(self.path)})

    def level_of(self, cube: int) -> int:
        """Level of a cube id; the one range check on cube ids."""
        if not 0 <= cube < self.num_cubes:
            raise IndexError(f"cube id {cube} outside [0, {self.num_cubes})")
        return int(self.cube_level[cube])

    # -- containment ------------------------------------------------------

    def atom_mask(self, cube: int) -> np.ndarray:
        """Boolean mask over atoms: which atoms lie inside ``cube``."""
        return self.cell_cube[self.level_of(cube)] == cube

    def box_mask(self, cube: int) -> np.ndarray:
        """Boolean mask of shape (levels, atoms) for the Carleson box."""
        mask = np.zeros((self.num_levels, self.num_atoms), dtype=bool)
        mask[self.level_of(cube):, :] = self.atom_mask(cube)
        return mask

    def descendant_mask(self, cube: int) -> np.ndarray:
        """Boolean mask over cube ids: all subcubes of ``cube`` (incl. itself)."""
        mask = np.zeros(self.num_cubes, dtype=bool)
        mask[self.cell_cube[self.level_of(cube):, self.atom_mask(cube)]] = True
        return mask


@functools.lru_cache(maxsize=None)
def build_system(dimension: int, depth: int) -> DyadicSystem:
    """The truncated lattice, built once per shape and shared (it is
    immutable); rejects sizes beyond the memory guard."""
    return DyadicSystem(dimension, depth)


def children(sys: DyadicSystem, cube: int) -> list[int]:
    """The 2**dimension children, in lexicographic multi-index order."""
    if sys.level_of(cube) == sys.depth:
        return []
    return sys.child_linear[cube].tolist()


# -- path grammar ----------------------------------------------------------
#
# A path is the child-code string from the root, codes separated by "/";
# the empty string is the root.  Bit i of a code is the offset of the child
# in coordinate i.  Paths name cubes outside the package, ids inside it:
# ``DyadicSystem.path`` is the one name table, ``cube_from_path`` its inverse.


def cube_from_path(sys: DyadicSystem, path: str) -> int:
    cube = sys.cube_of_path.get(path)
    if cube is not None:
        return cube
    parts = path.split("/")
    if len(parts) > sys.depth:
        raise PathError(f"path {path!r} deeper than lattice depth {sys.depth}")
    # a miss: only the spelling ``path`` holds (ASCII digits, no sign, space
    # or leading zero) names a child, so that each cube has one name
    codes = {str(code) for code in range(1 << sys.dimension)}
    part = next(part for part in parts if part not in codes)
    raise PathError(
        f"path component {part!r} is not a canonical child code in"
        f" [0, {1 << sys.dimension}) in path {path!r}"
    )


# -- tree aggregations -----------------------------------------------------
#
# The numeric workhorses shared by the other modules: plain sums along the
# lattice tree.  All but ``subtree_sums`` (a bincount per level, the one sum
# over lattice and stopping subtrees) and ``chain_total`` (one gather and one
# reduction) are built on two primitives: ``level_sums`` sums up the tree,
# ``level_cumsum`` runs down it.  A batch reads its bins off ``batch_bins``
# where the table has its rows, and builds them where it has not.


def _bins(sys: DyadicSystem, k: int) -> np.ndarray:
    if k > len(sys.batch_bins):
        return sys.cell_cube + sys.num_cubes * np.arange(k)[:, None, None]
    return sys.batch_bins[:k] if k > 1 else sys.cell_cube


def level_sums(sys: DyadicSystem, rows) -> np.ndarray:
    """Per-cube sums of per-level atom rows: out[Q] = sum of ``rows[j]`` over
    the atoms in Q, with j the level of Q.

    Rows of shape (levels, atoms) give shape (num_cubes,); a leading batch
    axis, rows of shape (k, levels, atoms), gives k sums at once, shape (k,
    num_cubes).  One bincount over the flat cell table does it all, batch row
    i in the bins ``cell_cube + i * num_cubes``: a bin belongs to one level
    and one batch row and adds its terms in atom order, so every batch row is
    bit-identical to its own call and to a bincount per level.  The rows of
    levels ``start..depth`` alone give the bits of those levels' cubes alone.
    """
    rows = np.asarray(rows)
    batch, start = rows.shape[:-2], sys.num_levels - rows.shape[-2]
    k = batch[0] if batch else 1
    bins = _bins(sys, k)[..., start:, :] if start else _bins(sys, k)
    out = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=k * sys.num_cubes).reshape(batch + (-1,))
    return out[..., sys.level_offset[start] :] if start else out


def level_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums along the leading (level) axis, in place: x[j] += x[j-1].
    Trailing axes pass through."""
    # One add per level, not np.cumsum(x, axis=0, out=x): that took 300
    # chain_running calls of one run at d1 D10 from 7.6 ms to 20.6 ms, and of
    # 7-row batches from 0.19 s to 0.37 s (2-core Xeon VM, one BLAS thread).
    for j in range(1, len(x)):
        x[j] += x[j - 1]
    return x


def cube_sums(sys: DyadicSystem, atom_values: np.ndarray) -> np.ndarray:
    """out[Q] = sum of values over the atoms in Q: ``level_sums`` of the atom
    row repeated on every level.  Values (k, atoms) give (k, num_cubes)."""
    v = np.asarray(atom_values, dtype=np.float64)
    return level_sums(sys, v[..., None, :].repeat(sys.num_levels, axis=-2))


def box_sums(sys: DyadicSystem, cell_values: np.ndarray) -> np.ndarray:
    """Per-cube Carleson-box sums, out[Q] = sum of values over the pairs (atom
    in Q, level >= level of Q): ``level_sums`` of the suffix sums over the
    levels, taken in place on one copy.  Values of shape (levels, atoms) give
    (num_cubes,), and values of shape (k, levels, atoms) give (k, num_cubes).
    """
    w = np.array(cell_values, dtype=np.float64)
    level_cumsum(w.swapaxes(0, -2)[::-1])  # the level axis leads in the view
    return level_sums(sys, w)


def chain_running(sys: DyadicSystem, cube_values: np.ndarray) -> np.ndarray:
    """Running ancestor sums: out[j, a] = sum of values over the ancestors of
    atom a at levels 0 .. j.  Values of shape (k, num_cubes) give the k runs,
    shape (k, levels, atoms); ``chain_total`` gives the finest row alone.  The
    values of levels ``start..depth`` alone give those rows of a run begun there."""
    v = np.asarray(cube_values, dtype=np.float64)
    cells, coarser = sys.cell_cube, sys.num_cubes - v.shape[-1]
    if coarser:  # the gather reads no coarser cube: zeros keep the linear ids
        cells = cells[sys.cube_level[coarser] :]
        v = np.concatenate((np.zeros(v.shape[:-1] + (coarser,)), v), axis=-1)
    # Two bodies on purpose: the batch body's ``np.take`` is slower on one run
    # (also on the eval-deep rows), and the gather ``v[..., cell_cube]`` on a
    # batch leaves a layout that is not C-ordered, whose later numpy row sums
    # round otherwise than the rows' single calls.
    if v.ndim == 1 or len(v) == 1:
        levels = v.reshape(-1)[cells]
        out = levels.reshape(v.shape[:-1] + levels.shape)
    else:  # the batch axis goes last, so that each level is one block
        levels = np.take(v.T, cells, axis=0)
        out = levels.transpose(2, 0, 1)
    # a running sum starts from 0.0, which turns a -0.0 start value into +0.0
    levels[:1] += 0.0
    level_cumsum(levels)
    return np.ascontiguousarray(out)  # a batch's rows back to back


def chain_total(sys: DyadicSystem, cube_values: np.ndarray) -> np.ndarray:
    """out[a] = sum of values over the cubes containing atom a, bit for bit
    the finest row of ``chain_running``.  Values (k, num_cubes) give (k, atoms)."""
    v = np.asarray(cube_values, dtype=np.float64)
    levels = v.reshape(-1)[_bins(sys, v.shape[0] if v.ndim > 1 else 1)]
    # the atom axis innermost, the levels add in order from 0.0, as chain_running's do
    return np.add.reduce(levels, axis=-2, initial=0.0).reshape(v.shape[:-1] + (sys.num_atoms,))


def subtree_sums(sys: DyadicSystem, cube_values: np.ndarray) -> np.ndarray:
    """out[Q] = sum of values over all subcubes of Q, including Q."""
    out = np.asarray(cube_values, dtype=np.float64).copy()
    for j in range(sys.depth, 0, -1):
        above, lo, hi = sys.level_offset[j - 1 : j + 2]
        parents = sys.parent_linear[lo:hi] - above
        out[above:lo] += np.bincount(parents, weights=out[lo:hi], minlength=int(lo - above))
    return out
