"""Operator-norm estimation for the bilinear form.

The form norm is approached from below by alternating maximization: with one
argument frozen, the optimal other argument has a closed form (a norming
function), so every half-step is an exact conditional maximizer and the ratio
sequence is nondecreasing.  Mandatory seeds come from the testing constants,
which makes the final value dominate both of them by construction.
:func:`power_ascent` is that nonlinear power method, seeds in lockstep, for
the box operator here and for the cube-average map of :mod:`dyadlab.embedding`.

Two oracles certify the estimate on small problems: the exact largest
singular value at p = 2 (the form is then a weighted matrix pairing and the
nonnegative kernel makes the cone supremum equal the full norm), and a dense
direction grid for systems with at most six degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import generators, lattice
from .errors import GuardError
from .forms import Instance, apply_adjoint_operator, apply_box_operator, lambda_form, test_function
from .measures import lp_norming, mixed_norm, mixed_norming
from .testing_constants import TestingReport, testing_report


def best_f_given_g(inst: Instance, g: np.ndarray):
    """Unit mixed-norm maximizer of the form against a fixed atom function:
    (f, form(f, g)), or (None, 0.0) when the adjoint kernel vanishes
    (degenerate direction).  Both maximizers take a batch."""
    return mixed_norming(apply_adjoint_operator(inst, g), inst.sigma, inst.p)


def best_g_given_f(inst: Instance, f: np.ndarray):
    """Unit dual-norm maximizer of the form against a fixed unit scale
    function.  Returns (g, value) with value = form(f, g), or (None, 0.0)."""
    return lp_norming(apply_box_operator(inst, f), inst.omega, inst.p)


def power_ascent(sys: lattice.DyadicSystem, starts, forward, backward, tol: float, max_iter: int):
    """Nonlinear power method (Boyd, 1974) from every row of ``starts``, in
    chunks of ``lattice.chunk_rows`` rows stepped together.

    A step takes x to ``y, _ = forward(x)``, then to ``x', v = backward(y)``,
    each an operator and its norming map on a batch (value 0.0: vanishing).
    A row stops when ``forward`` vanishes (keeping its pair), ``backward``
    does (pair (x, y)), a step gains d <= ``tol * v`` (pair (x', y); converged
    if the Aitken gap d r / (1 - r), r = d / the gain before, is <= ``tol * v``
    too), ``backward``'s value is NaN (that value and pair, so the row never
    wins), or at ``max_iter``.  Returns the first largest positive v, its pair
    and convergence (0.0, None, False if none), and the step count."""
    best, best_pair, best_converged, steps = 0.0, None, False, 0
    rows = lattice.chunk_rows(sys)
    for lo in range(0, len(starts), rows):
        x = starts[lo : lo + rows]
        live = list(range(len(x)))  # the chunk row of each iterate
        value, last_gain = [0.0] * len(x), [math.inf] * len(x)
        pairs, converged = [None] * len(x), [False] * len(x)
        for _ in range(max_iter):
            steps += len(live)
            y, vy = forward(x)
            if not vy.all():
                x, y, live = x[vy != 0.0], y[vy != 0.0], [i for i, v in zip(live, vy) if v != 0.0]
                if not live:
                    break
            x_next, vx = backward(y)
            going = []
            for r, (i, v) in enumerate(zip(live, vx.tolist())):
                gain = v - value[i]
                if v == 0.0:  # backward vanished: the pair is (x, y), the value stays
                    pairs[i] = (x[r], y[r])
                elif not gain > tol * v:  # a NaN value stops too, and cannot win
                    pairs[i], value[i] = (x_next[r], y[r]), v
                    rho = gain / last_gain[i]
                    converged[i] = rho < 1.0 and gain * rho <= tol * v * (1.0 - rho)
                else:
                    pairs[i], value[i], last_gain[i] = (x_next[r], y[r]), v, gain
                    going.append(r)
            if not going:
                break
            if len(going) < len(live):
                x_next, live = x_next[going], [live[r] for r in going]
            x = x_next
        for v, pair, c in zip(value, pairs, converged):
            if pair is not None and v > best:
                best, best_pair, best_converged = v, pair, c
    return best, best_pair, best_converged, steps


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
    """Best ratio over seeded alternating ascents, by :func:`power_ascent`.

    Seeds: the two testing witnesses paired with their test inputs, the
    constant pair and ``restarts`` counter-keyed random pairs.  Each random
    stream is keyed (seed, k) so results do not depend on evaluation order.
    No pair while a testing constant is positive is a GuardError.
    """
    if restarts < 1:
        raise GuardError(f"restarts must be >= 1, got {restarts}")
    if not tol > 0:
        raise GuardError(f"tol must be positive, got {tol}")
    sys, shape = inst.sys, (inst.sys.num_levels, inst.sys.num_atoms)
    if report is None:
        report = testing_report(inst)

    seeds: list[tuple[np.ndarray, np.ndarray]] = []
    if report.forward > 0 and report.forward_cube is not None:
        seeds.append((test_function(inst, report.forward_cube), report.witness_g))
    if report.dual > 0 and report.dual_cube is not None:
        seeds.append((report.witness_f, sys.atom_mask(report.dual_cube).astype(np.float64)))
    seeds.append((np.ones(shape), np.ones(sys.num_atoms)))
    for k in range(restarts):
        rng = generators.philox(seed, k)
        seeds.append((rng.random(shape), rng.random(sys.num_atoms)))

    # each f at unit norm, or the maximizer against its g where f vanishes
    norms = [mixed_norm(f, inst.sigma, inst.p) for f, _ in seeds]
    starts = [f / n if n > 0 else best_f_given_g(inst, g)[0] for (f, g), n in zip(seeds, norms)]
    starts = np.array([f for f in starts if f is not None]).reshape(-1, *shape)
    forward, backward = partial(best_g_given_f, inst), partial(best_f_given_g, inst)
    _, pair, converged, steps = power_ascent(sys, starts, forward, backward, tol, max_iter)

    if pair is None:
        if report.forward > 0 or report.dual > 0:
            raise GuardError(
                f"no ascent seed yields a pair although T = {report.forward:g}, T* = {report.dual:g}"
            )
        return NormEstimate(0.0, np.zeros(shape), np.zeros(sys.num_atoms), steps, len(seeds), True, True)

    wf, wg = pair
    value = lambda_form(inst, wf, wg)  # witnesses are unit norm by construction
    return NormEstimate(value, wf, wg, steps, len(seeds), converged, False)


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


def _check_kernel_size(sys: lattice.DyadicSystem) -> None:
    if sys.num_levels * sys.num_atoms * sys.num_atoms > _KERNEL_CELL_LIMIT:
        raise GuardError("system too large for a dense kernel")


def form_kernel(inst: Instance) -> np.ndarray:
    """Dense kernel S[j, a, b] with form(f, g) = sum sigma_a f[j,a] S om_b g_b.

    S collects mu times the lam-mass of the cubes containing atom b whose box
    contains the cell (a, j): the cubes ``cell_cube[l, b]`` with l <= j that
    also hold atom a.
    """
    sys = inst.sys
    _check_kernel_size(sys)
    cells = sys.cell_cube
    shared = cells[:, :, None] == cells[:, None, :]
    return inst.mu[:, :, None] * lattice.level_cumsum(shared * inst.lam[cells][:, None, :])


def spectral_oracle_p2(inst: Instance) -> float:
    """Exact form norm at p = 2: the largest singular value of the weighted
    kernel M = sqrt(sigma) S sqrt(omega), from one symmetric eigensolve of
    its Gram matrix G = M^T M, built from the lattice tree in O(L A^2) work
    and A^2 memory, never from the (L, A, A) kernel.

    Column b of M is the sum over the cubes Q holding atom b of lam[Q] times
    the box indicator of Q, weighted; two boxes meet only when their cubes
    are nested, in the box of the smaller one.  With beta the box mass of
    sigma mu^2, Lam the running sum of lam down each atom's chain, B[l, b]
    the sum of lam beta over b's chain below level l, and m the level of the
    smallest cube holding atoms b and b', that gives

        G[b, b'] = sqrt(om_b) sqrt(om_b') (Z[m, b] + Lam[m, b] (B[m, b] + B[m, b']))

    with Z the running sum of lam beta (lam + 2 Lam at the parent) down the
    chain.  It is evaluated as W[m, b] + W[m, b'], W = Z / 2 + Lam B, since
    Z and Lam at level m are the same for both atoms.

    Error: every entry is built from products and sums of nonnegative
    numbers, at most r = L A terms to a sum and no subtraction, so it
    carries relative error of about r u at most (u the unit roundoff);
    ``eigvalsh`` is backward stable, so sigma_max is accurate to a small
    multiple of r u, relative (Golub and Van Loan, Matrix Computations,
    8.1).  When G overflows binary64 the value is inf, as the power
    iteration this replaced returned.  The dense kernel's size guard still
    applies, so the same instances carry a value.
    """
    if inst.p != 2.0:
        raise GuardError(f"spectral oracle requires p = 2, got {inst.p}")
    sys = inst.sys
    _check_kernel_size(sys)
    cells = sys.cell_cube
    lam = inst.lam[cells]
    lam_beta = lam * lattice.box_sums(sys, inst.sigma * inst.mu**2)[cells]
    run = lattice.level_cumsum(lam.copy())
    above = np.zeros_like(run)  # Lam at the parent, 0 at the root
    above[1:] = run[:-1]
    below = np.zeros_like(run)  # B, a suffix sum: no chain total minus a prefix
    below[:-1] = lam_beta[1:]
    lattice.level_cumsum(below[::-1])
    half = 0.5 * lattice.level_cumsum(lam_beta * (lam + 2.0 * above)) + run * below
    # gram[b, b'] = half[m, b'], written level by level where b's level-j
    # cube holds b', so that no (A, A) index array is held
    gram = np.broadcast_to(half[0], (sys.num_atoms, sys.num_atoms)).copy()
    for j in range(1, sys.num_levels):
        np.copyto(gram, half[j], where=cells[j][:, None] == cells[j][None, :])
    gram += gram.T
    root = np.sqrt(inst.omega)
    gram *= np.outer(root, root)
    if not np.isfinite(gram).all():
        return math.inf
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


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
