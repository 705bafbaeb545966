"""Operator-norm estimation for the bilinear form.

The form norm is approached from below by alternating maximization: with one
argument frozen, the optimal other argument has a closed form (a norming
function), so every half-step is an exact conditional maximizer and the ratio
sequence is nondecreasing.  Mandatory seeds come from the testing constants,
which makes the final value dominate both of them by construction.

Two oracles certify the estimate on small problems: the exact largest
singular value at p = 2 (the form is then a weighted matrix pairing and the
nonnegative kernel makes the cone supremum equal the full norm), and a dense
direction grid for systems with at most six degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import generators
from .errors import GuardError
from .forms import Instance, apply_adjoint_operator, apply_box_operator, lambda_form, test_function
from .measures import lp_norming, mixed_norm, mixed_norming
from .testing_constants import TestingReport, testing_report


def best_f_given_g(inst: Instance, g: np.ndarray):
    """Unit mixed-norm maximizer of the form against a fixed atom function.

    Returns (f, value) with value = form(f, g); (None, 0.0) when the adjoint
    kernel vanishes (degenerate direction).
    """
    return mixed_norming(apply_adjoint_operator(inst, g), inst.sigma, inst.p)


def best_g_given_f(inst: Instance, f: np.ndarray):
    """Unit dual-norm maximizer of the form against a fixed unit scale
    function.  Returns (g, value) with value = form(f, g), or (None, 0.0)."""
    return lp_norming(apply_box_operator(inst, f), inst.omega, inst.p)


@dataclass(frozen=True)
class NormEstimate:
    value: float
    witness_f: np.ndarray
    witness_g: np.ndarray
    iterations: int
    restarts: int
    converged: bool
    degenerate: bool
    oracle_value: Optional[float] = None
    oracle_kind: Optional[str] = None


def alternating_maximization(
    inst: Instance,
    restarts: int = 32,
    tol: float = 1e-10,
    max_iter: int = 1000,
    seed: int = 0,
    report: TestingReport | None = None,
) -> NormEstimate:
    """Best ratio over seeded alternating ascents.

    Seeds: the two testing witnesses paired with their test inputs, the
    constant pair and ``restarts`` counter-keyed random pairs.  Each random
    stream is keyed (seed, k) so results do not depend on evaluation order.
    """
    if restarts < 1:
        raise GuardError(f"restarts must be >= 1, got {restarts}")
    if not tol > 0:
        raise GuardError(f"tol must be positive, got {tol}")
    sys = inst.sys
    if report is None:
        report = testing_report(inst)

    seeds: list[tuple[np.ndarray, np.ndarray]] = []
    if report.forward > 0 and report.forward_cube is not None:
        seeds.append((test_function(inst, report.forward_cube), report.witness_g))
    if report.dual > 0 and report.dual_cube is not None:
        indicator = sys.atom_mask(report.dual_cube).astype(np.float64)
        seeds.append((report.witness_f, indicator))
    seeds.append(
        (np.ones((sys.num_levels, sys.num_atoms)), np.ones(sys.num_atoms))
    )
    for k in range(restarts):
        rng = generators.philox(seed, k)
        seeds.append((rng.random((sys.num_levels, sys.num_atoms)), rng.random(sys.num_atoms)))

    best_value = 0.0
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    total_iters = 0
    converged_best = False
    for f0, g0 in seeds:
        fnorm = mixed_norm(f0, inst.sigma, inst.p)
        if fnorm > 0:
            f = f0 / fnorm
        else:
            f, _ = best_f_given_g(inst, g0)
            if f is None:
                continue
        prev = 0.0
        pair = None
        converged = False
        for _ in range(max_iter):
            total_iters += 1
            g, vg = best_g_given_f(inst, f)
            if g is None:
                break
            f_next, vf = best_f_given_g(inst, g)
            if f_next is None:
                vf, pair = vg, (f, g)
                break
            pair = (f_next, g)
            if vf - prev <= tol * vf:
                prev = vf
                converged = True
                break
            prev = vf
            f = f_next
        if pair is not None and prev > best_value:
            best_value = prev
            best_pair = pair
            converged_best = converged

    if best_pair is None:
        zero_f = np.zeros((sys.num_levels, sys.num_atoms))
        zero_g = np.zeros(sys.num_atoms)
        return NormEstimate(0.0, zero_f, zero_g, total_iters, len(seeds), True, True)

    wf, wg = best_pair
    value = lambda_form(inst, wf, wg)  # witnesses are unit norm by construction
    return NormEstimate(value, wf, wg, total_iters, len(seeds), converged_best, False)


def attach_oracle(inst: Instance, estimate: NormEstimate) -> NormEstimate:
    """Attach the applicable oracle value, if any, to an estimate.

    Silently returns the estimate unchanged when no oracle applies (p != 2
    with more than six degrees of freedom, or a kernel too large to hold).
    """
    try:
        if inst.p == 2.0:
            return replace(
                estimate, oracle_value=spectral_oracle_p2(inst), oracle_kind="spectral"
            )
        dof = inst.sys.num_levels * inst.sys.num_atoms + inst.sys.num_atoms
        if dof <= 6:
            return replace(
                estimate, oracle_value=grid_oracle(inst, 24), oracle_kind="grid"
            )
    except GuardError:
        pass
    return estimate


# -- oracles ----------------------------------------------------------------

_KERNEL_CELL_LIMIT = 4_000_000


def form_kernel(inst: Instance) -> np.ndarray:
    """Dense kernel S[j, a, b] with form(f, g) = sum sigma_a f[j,a] S om_b g_b.

    S collects mu times the lam-mass of the cubes containing atom b whose box
    contains the cell (a, j): the cubes ``cell_cube[l, b]`` with l <= j that
    also hold atom a.
    """
    sys = inst.sys
    if sys.num_levels * sys.num_atoms * sys.num_atoms > _KERNEL_CELL_LIMIT:
        raise GuardError("system too large for a dense kernel")
    cells = sys.cell_cube
    shared = cells[:, :, None] == cells[:, None, :]
    return inst.mu[:, :, None] * np.cumsum(shared * inst.lam[cells][:, None, :], axis=0)


def spectral_oracle_p2(inst: Instance) -> float:
    """Exact form norm at p = 2: largest singular value by power iteration."""
    if inst.p != 2.0:
        raise GuardError(f"spectral oracle requires p = 2, got {inst.p}")
    sys = inst.sys
    kernel = form_kernel(inst)
    m = (
        np.sqrt(inst.sigma)[None, :, None]
        * kernel
        * np.sqrt(inst.omega)[None, None, :]
    ).reshape(sys.num_levels * sys.num_atoms, sys.num_atoms)
    v = np.ones(sys.num_atoms) / np.sqrt(sys.num_atoms)
    sigma_old = 0.0
    for _ in range(200_000):
        u = m @ v
        sigma_new = float(np.linalg.norm(u))
        if sigma_new == 0.0:
            return 0.0
        v = m.T @ (u / sigma_new)
        vn = float(np.linalg.norm(v))
        if vn == 0.0:
            return sigma_new
        v /= vn
        if abs(sigma_new - sigma_old) <= 1e-12 * max(sigma_new, 1e-300):
            return sigma_new
        sigma_old = sigma_new
    return sigma_old


def _axis_grid(dof: int, resolution: int) -> np.ndarray:
    grids = np.meshgrid(*([np.arange(resolution + 1)] * dof), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    return pts[1:]  # drop the origin


def grid_oracle(inst: Instance, resolution: int) -> float:
    """Dense nonnegative direction search for tiny systems (<= 6 DOF).

    Directions on one sphere are enumerated on an axis grid; the other side
    is closed out exactly by its norming function, so the only error is the
    angular resolution on the gridded side.  Both sides are gridded in turn.
    """
    sys = inst.sys
    cells = sys.num_levels * sys.num_atoms
    dof = cells + sys.num_atoms
    if dof > 6:
        raise GuardError(f"grid oracle limited to 6 degrees of freedom, got {dof}")
    kernel = form_kernel(inst).reshape(cells, sys.num_atoms)

    best = 0.0
    # f side on the grid, g side exact
    fgrid = _axis_grid(cells, resolution)
    slices = np.sqrt(
        (fgrid.reshape(-1, sys.num_levels, sys.num_atoms) ** 2).sum(axis=1)
    )
    den = (slices**inst.p @ inst.sigma) ** (1.0 / inst.p)
    h = (fgrid * np.tile(inst.sigma, sys.num_levels)[None, :]) @ kernel
    num = (h**inst.p @ inst.omega) ** (1.0 / inst.p)
    ok = den > 0
    if np.any(ok):
        best = max(best, float(np.max(num[ok] / den[ok])))

    # g side on the grid, f side exact
    ggrid = _axis_grid(sys.num_atoms, resolution)
    kg = (ggrid * inst.omega[None, :]) @ kernel.T
    kg = kg.reshape(-1, sys.num_levels, sys.num_atoms)
    s = np.sqrt((kg**2).sum(axis=1))
    num2 = (s**inst.q @ inst.sigma) ** (1.0 / inst.q)
    den2 = (ggrid**inst.q @ inst.omega) ** (1.0 / inst.q)
    ok2 = den2 > 0
    if np.any(ok2):
        best = max(best, float(np.max(num2[ok2] / den2[ok2])))
    return best


@dataclass(frozen=True)
class TestingNormRatios:
    lower: float  # max(testing constants) / norm estimate, at most 1
    upper: float  # norm estimate / sum of testing constants, at least 1/2


def testing_norm_ratios(
    inst: Instance,
    estimate: NormEstimate | None = None,
    report: TestingReport | None = None,
) -> TestingNormRatios:
    """Comparison ratios between the testing constants and the norm estimate."""
    if inst.p < 2.0:
        raise GuardError(f"testing comparison requires p >= 2, got {inst.p}")
    if report is None:
        report = testing_report(inst)
    total = report.forward + report.dual
    if total == 0.0:
        raise ValueError("degenerate instance: both testing constants vanish")
    if estimate is None:
        estimate = alternating_maximization(inst, report=report)
    return TestingNormRatios(
        lower=max(report.forward, report.dual) / estimate.value,
        upper=estimate.value / total,
    )
