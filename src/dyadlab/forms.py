"""The positive bilinear form, its box operator, and the optimal test inputs.

An :class:`Instance` fixes everything the form needs: the lattice, the
exponent, the two weights, the scale density ``mu`` and the per-cube
coefficients ``lam``.  The form pairs a scale function ``f`` against an atom
function ``g``::

    form(f, g) = sum_Q lam[Q] * (box pairing of f*mu over Q) * (omega-integral of g over Q)

Two adjoint operators realize the same pairing: ``apply_box_operator`` maps
``f`` to an atom function, ``apply_adjoint_operator`` maps ``g`` to a scale
function.  ``test_function`` is the Hoelder-optimal input shaped from ``mu``
on a single box, the restriction of the per-level profile
``level_test_input``; :func:`phi_identity_check` checks the defining identity
chain of every cube's test input at once.

The per-cube quantities the form and the paper's conditions read -- box
pairings, omega-integrals and omega-averages -- each have one primitive that
returns them for every cube at once, indexed by linear cube id:
:func:`all_box_integrals`, :func:`all_cube_integrals` and
:func:`all_cube_averages`, which reads the one cube-average body,
:func:`cube_averages`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import DyadicSystem
from .measures import (
    as_scale_function,
    as_weights,
    conjugate,
    ell2_slice,
    finite_nonnegative,
    group_ksum,
    ksum,
    zero_preserving_power,
)


@dataclass(frozen=True)
class Instance:
    """One full problem datum.  Arrays are checked and frozen on creation."""

    sys: DyadicSystem
    p: float
    sigma: np.ndarray
    omega: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        conjugate(self.p)  # checks p
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "sigma", _frozen(as_weights(self.sys, self.sigma)))
        object.__setattr__(self, "omega", _frozen(as_weights(self.sys, self.omega)))
        object.__setattr__(self, "mu", _frozen(as_scale_function(self.sys, self.mu)))
        lam = finite_nonnegative(self.lam, (self.sys.num_cubes,), "lambda")
        object.__setattr__(self, "lam", _frozen(lam))

    @property
    def q(self) -> float:
        """Hoelder conjugate of p."""
        return conjugate(self.p)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def lambda_array(sys: DyadicSystem, mapping: dict[str, float]) -> np.ndarray:
    """Coefficient array from a {path: value} mapping; absent paths mean 0."""
    lam = np.zeros(sys.num_cubes, dtype=np.float64)
    for path, value in mapping.items():
        lam[lattice.cube_from_path(sys, path)] = value
    return lam


def all_box_integrals(inst: Instance, f: np.ndarray) -> np.ndarray:
    """Box pairing of f against mu in sigma, for every cube at once."""
    return lattice.box_sums(inst.sys, inst.sigma[None, :] * f * inst.mu)


def all_cube_integrals(inst: Instance, g: np.ndarray) -> np.ndarray:
    """omega-integral of g over every cube at once."""
    return lattice.cube_sums(inst.sys, inst.omega * g)


def cube_averages(sys: DyadicSystem, w: np.ndarray, masses: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The cube-average map: the w-average of h over every cube, given the
    cube masses of w, 0 on a cube without mass.  Takes a batch by rows."""
    integrals = lattice.cube_sums(sys, w * h)
    return np.divide(integrals, masses, out=np.zeros_like(integrals), where=masses > 0)


def all_cube_averages(inst: Instance, g: np.ndarray) -> np.ndarray:
    """omega-average of g over every cube at once; 0 on a cube without mass."""
    return cube_averages(inst.sys, inst.omega, lattice.cube_sums(inst.sys, inst.omega), g)


def lambda_form(inst: Instance, f: np.ndarray, g: np.ndarray) -> float:
    return ksum(inst.lam * all_box_integrals(inst, f) * all_cube_integrals(inst, g))


def lambda_form_local(inst: Instance, top: int, f: np.ndarray, g: np.ndarray) -> float:
    """Same sum restricted to the subcubes of ``top``."""
    terms = inst.lam * all_box_integrals(inst, f) * all_cube_integrals(inst, g)
    return ksum(terms[inst.sys.descendant_mask(top)])


def apply_box_operator(inst: Instance, f: np.ndarray) -> np.ndarray:
    """The operator side of the form: out[a] = sum over cubes containing a of
    lam[Q] times the box pairing of f over Q.  Both operators take a batch."""
    contrib = inst.lam * all_box_integrals(inst, f)
    return lattice.chain_running(inst.sys, contrib)[..., -1, :]


def apply_adjoint_operator(inst: Instance, g: np.ndarray) -> np.ndarray:
    """Adjoint of the box operator: a scale function supported where mu is."""
    contrib = inst.lam * all_cube_integrals(inst, g)
    return inst.mu * lattice.chain_running(inst.sys, contrib)


def level_test_input(inst: Instance, level: int) -> np.ndarray:
    """Hoelder-optimal test input of every level-``level`` cube at once.

    Equals ``s**(q-2) * mu`` on the rows ``>= level`` and zero above, where
    ``s`` is the l2 slice of mu over those rows and q the conjugate exponent.
    The test input of a cube is this profile restricted to the cube's atoms,
    since the slice of an atom only sees its own column.  Where the slice
    vanishes mu vanishes on the whole column, so the zero convention for the
    (possibly negative) power is harmless.  q == 2 is short-circuited: the
    power is identically one on the support.
    """
    if not (0 <= level <= inst.sys.depth):
        raise IndexError(f"level {level} outside [0, {inst.sys.depth}]")
    boxed = np.zeros_like(inst.mu)
    boxed[level:] = inst.mu[level:]
    if inst.q == 2.0:
        return boxed
    s = ell2_slice(boxed)
    return zero_preserving_power(s, inst.q - 2.0)[None, :] * boxed


def test_function(inst: Instance, cube: int) -> np.ndarray:
    """Hoelder-optimal test input on the box of ``cube``: the level profile
    :func:`level_test_input` on the cube's atoms, zero elsewhere."""
    profile = level_test_input(inst, inst.sys.level_of(cube))
    return np.where(inst.sys.atom_mask(cube)[None, :], profile, 0.0)


@dataclass(frozen=True)
class PhiIdentityReport:
    """Four expressions that agree exactly for the optimal test input, each an
    array over every cube, indexed by linear cube id."""

    box_pairing: np.ndarray       # box pairing of phi against mu
    slice_integral: np.ndarray    # integral over the cube of the mu-slice to the q
    mu_norm_power: np.ndarray     # mixed q-norm of boxed mu, to the q
    phi_norm_power: np.ndarray    # mixed p-norm of phi, to the p
    max_rel_spread: np.ndarray


def phi_identity_check(inst: Instance) -> PhiIdentityReport:
    """The identity chain of every cube's test input, one pass per level.

    A cube's test input is its level's profile on its atoms and an atom's l2
    slice sees only its column, so the profile's box sums and exact sums by
    the level's cubes give each cube the bits of its own test input.
    """
    sys, p, q = inst.sys, inst.p, inst.q
    pairing, slices, phis = [], [], []
    for level in range(sys.num_levels):
        profile = level_test_input(inst, level)
        boxed = np.where(np.arange(sys.num_levels)[:, None] >= level, inst.mu, 0.0)
        lo, hi = sys.level_offset[level : level + 2]
        cells, cubes = sys.cell_cube[level], range(lo, hi)
        pairing += all_box_integrals(inst, profile)[lo:hi].tolist()
        slices += group_ksum(cells, inst.sigma * ell2_slice(boxed) ** q, cubes)
        phis += group_ksum(cells, inst.sigma * ell2_slice(profile) ** p, cubes)
    mu_norm_power = [(total ** (1.0 / q)) ** q for total in slices]
    phi_norm_power = [(total ** (1.0 / p)) ** p for total in phis]
    vals = np.array([pairing, slices, mu_norm_power, phi_norm_power])
    top, gap = np.abs(vals).max(axis=0), vals.max(axis=0) - vals.min(axis=0)
    spread = np.divide(gap, top, out=np.zeros_like(top), where=top != 0.0)
    return PhiIdentityReport(*vals, spread)
