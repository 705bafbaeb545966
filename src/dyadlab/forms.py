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
``level_test_input``; its defining identity chain is checked by
:func:`phi_identity_check`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import DyadicSystem
from .measures import (
    as_scale_function,
    as_weights,
    box_integral,
    conjugate,
    ell2_slice,
    ksum,
    mixed_norm,
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
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.shape != (self.sys.num_cubes,):
            raise ValueError(
                f"lambda must have shape ({self.sys.num_cubes},), got {lam.shape}"
            )
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ValueError("lambda coefficients must be finite and nonnegative")
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
    """Four expressions that agree exactly for the optimal test input."""

    box_pairing: float       # box pairing of phi against mu
    slice_integral: float    # integral over the cube of the mu-slice to the q
    mu_norm_power: float     # mixed q-norm of boxed mu, to the q
    phi_norm_power: float    # mixed p-norm of phi, to the p
    max_rel_spread: float


def phi_identity_check(inst: Instance, cube: int) -> PhiIdentityReport:
    phi = test_function(inst, cube)
    boxed = inst.mu * inst.sys.box_mask(cube)
    s = ell2_slice(boxed)
    am = inst.sys.atom_mask(cube)

    pairing = box_integral(inst.sys, phi, inst.mu, inst.sigma, cube)
    slice_integral = ksum(inst.sigma[am] * s[am] ** inst.q)
    mu_norm_power = mixed_norm(boxed, inst.sigma, inst.q) ** inst.q
    phi_norm_power = mixed_norm(phi, inst.sigma, inst.p) ** inst.p

    vals = (pairing, slice_integral, mu_norm_power, phi_norm_power)
    top = max(abs(v) for v in vals)
    spread = 0.0 if top == 0.0 else (max(vals) - min(vals)) / top
    return PhiIdentityReport(*vals, spread)
