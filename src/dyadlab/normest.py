"""Operator-norm estimation for the bilinear form.

The form norm is approached from below by alternating maximization: with one
argument frozen, the optimal other argument has a closed form (a norming
function), so every half-step is an exact conditional maximizer and the ratio
sequence is nondecreasing.  Mandatory seeds come from the testing constants,
so the final value dominates both of them up to rounding: the witnessed
ratio of rounded iterates can read a few ulps below max(T, T*) (6.75 u at
worst on a p = 1.02 sweep of 240 instances); only a directed rounding of
the reported bound would make it a true lower bound.
:func:`power_ascent` is that nonlinear power method, seeds in lockstep, for
the box operator here (:func:`box_maps`) and the cube-average map of
:mod:`dyadlab.embedding`, each row with its own instance's weight rows.

Two oracles certify the estimate on small problems: the exact largest
singular value at p = 2 (the form is then a weighted matrix pairing and the
nonnegative kernel makes the cone supremum equal the full norm), and a dense
direction grid for systems with at most six degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import generators, lattice
from .errors import GuardError
from .forms import Instance, apply_adjoint_operator, apply_box_operator, lambda_form, test_function
from .measures import ell2_slice, largest_ratio, lp_norm, lp_norming, mixed_norm, mixed_norming
from .testing_constants import TestingReport, testing_report


def box_maps(sys: lattice.DyadicSystem, p: float):
    """The box ascent's half-steps, each row with its instance's ``sigma``,
    ``omega``, ``mu`` and ``lam`` rows (or one instance's arrays): f to the
    unit-Lq(omega) g maximizing the form against it, and g to the unit
    mixed-norm f, each with the value form(f, g), by the norming maps."""

    def forward(f, sigma, omega, mu, lam):
        return lp_norming(apply_box_operator(sys, sigma, mu, lam, f), omega, p)

    def backward(g, sigma, omega, mu, lam):
        return mixed_norming(apply_adjoint_operator(sys, omega, mu, lam, g), sigma, p)

    return forward, backward


def power_ascent(sys: lattice.DyadicSystem, starts, forward, backward, tol: float, max_iter: int, owner, *weights):
    """Nonlinear power method (Boyd, 1974) from every row of ``starts``, in
    chunks of ``sys.chunk_rows`` rows stepped together; the rows may come from
    several instances of one lattice.

    A step takes x to ``y, _ = forward(x, *w)``, then to ``x', v =
    backward(y, *w)``, each an operator and its norming map on a batch
    (value 0.0: vanishing, with a zero row), ``w`` the stepping rows' rows
    of the ``weights`` tables, row ``owner[i]`` for start i (gathered a chunk
    at a time, so no table is copied for every start).  A row stops when a step
    gains d <= ``tol * v`` (pair (x', y); converged if the Aitken gap
    d r / (1 - r), r = d / the gain before, is <= ``tol * v`` too), when
    ``backward``'s value is NaN (that value and pair, so the row never
    wins), or at ``max_iter``.  A vanished ``backward`` fails the gain test
    and keeps the value before, with the pair (x, y); a vanished ``forward``
    hands ``backward`` a zero row, so it stops the same way but keeps the
    pair before (None at step 1).
    Returns the lists of each start's value, pair (None if it never paired;
    rows copied off the batch), convergence and step count."""
    n = len(starts)
    values, pairs, converged, steps = [0.0] * n, [None] * n, [False] * n, [max_iter] * n
    rows = sys.chunk_rows
    for lo in range(0, n, rows):
        x, live, at = (a[lo : lo + rows] for a in (starts, np.arange(n), owner))
        w = [t[at] for t in weights]
        value, gain, y = np.zeros(len(x)), np.full(len(x), math.inf), None
        for step in range(1, max_iter + 1):
            y_before, (y, vy) = y, forward(x, *w)
            x_next, vx = backward(y, *w)
            d = vx - value
            on = d > tol * vx
            if not on.all():  # a map vanished, the gain test failed or the value is NaN
                for r in np.flatnonzero(~on).tolist():  # where v = 0.0, x and the value stay
                    i, v, dr, before = int(live[r]), float(vx[r]), float(d[r]), float(gain[r])
                    yr = y if vy[r] else y_before  # a vanished forward keeps the pair before
                    pairs[i] = None if yr is None else ((x_next if v else x)[r].copy(), yr[r].copy())
                    steps[i], values[i], rho = step, v or float(value[r]), dr / before
                    converged[i] = v != 0.0 and rho < 1.0 and dr * rho <= tol * v * (1.0 - rho)
                x_next, y, live, vx, d, *w = (a[on] for a in (x_next, y, live, vx, d, *w))
                if not len(live):
                    break
            x, value, gain = x_next, vx, d
        for r, i in enumerate(live.tolist() if y is not None else []):  # gaining at max_iter
            pairs[i], values[i] = (x[r].copy(), y[r].copy()), float(value[r])
    return values, pairs, converged, steps


def best_start(values, pairs, lo: int, hi: int):
    """The first start in [lo, hi) of largest positive value with a pair, or None."""
    won = [i for i in range(lo, hi) if pairs[i] is not None and values[i] > 0.0]
    return max(won, key=values.__getitem__, default=None)


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


def alternating_maximizations(insts, reports, restarts: int, tol: float, max_iter: int, seeds) -> list[NormEstimate]:
    """Best ratio over seeded alternating ascents of each of ``insts``, of one
    lattice and one p, with its testing report and seed: all in one
    :func:`power_ascent`, each row with its instance's weight rows.

    Seeds: the two testing witnesses paired with their test inputs, the
    constant pair and ``restarts`` random pairs, each stream keyed (seed, k).
    The value is the winning pair's exact witnessed ratio.  No pair while a
    testing constant is positive, or a zero denominator, is a GuardError for
    the first such instance; so is a tol outside (0, 1), under which every
    seed stops at step 1, its first gain being its whole value.
    """
    if restarts < 1:
        raise GuardError(f"restarts must be >= 1, got {restarts}")
    if not 0.0 < tol < 1.0:
        raise GuardError(f"tol must lie in (0, 1), got {tol}")
    if not insts:
        return []
    sys, p = insts[0].sys, insts[0].p
    if any((inst.sys.dimension, inst.sys.depth, inst.p) != (sys.dimension, sys.depth, p) for inst in insts):
        raise ValueError("a batch of ascents takes instances of one lattice and one p")
    shape, forward, backward = (sys.num_levels, sys.num_atoms), *box_maps(sys, p)
    starts, spans = [], []
    for inst, report, seed in zip(insts, reports, seeds, strict=True):
        candidates = []
        if report.forward > 0 and report.forward_cube is not None:
            candidates.append((test_function(inst, report.forward_cube), report.witness_g))
        if report.dual > 0 and report.dual_cube is not None:
            candidates.append((report.witness_f, sys.atom_mask(report.dual_cube).astype(np.float64)))
        candidates.append((np.ones(shape), np.ones(sys.num_atoms)))
        for k in range(restarts):
            rng = generators.philox(seed, k)
            candidates.append((rng.random(shape), rng.random(sys.num_atoms)))
        # each f at unit norm, or the maximizer against its g where f vanishes
        lo = len(starts)
        for f, g in candidates:
            n = mixed_norm(f, inst.sigma, p)
            f, n = (f / n, n) if n > 0 else backward(g, inst.sigma, inst.omega, inst.mu, inst.lam)
            if n:
                starts.append(f)
        spans.append((lo, len(starts), len(candidates)))
    owner = np.repeat(np.arange(len(insts)), [hi - lo for lo, hi, _ in spans])
    weights = [np.array(w) for w in zip(*[(i.sigma, i.omega, i.mu, i.lam) for i in insts])]
    starts = np.array(starts).reshape(-1, *shape)
    values, pairs, converged, steps = power_ascent(sys, starts, forward, backward, tol, max_iter, owner, *weights)

    estimates = []
    for inst, rep, (lo, hi, seeded) in zip(insts, reports, spans):
        win, taken = best_start(values, pairs, lo, hi), sum(steps[lo:hi])
        if win is None:
            if rep.forward > 0 or rep.dual > 0:
                raise GuardError(f"no ascent seed yields a pair although T = {rep.forward:g}, T* = {rep.dual:g}")
            estimates.append(NormEstimate(0.0, np.zeros(shape), np.zeros(sys.num_atoms), taken, seeded, True, True))
            continue
        wf, wg = pairs[win]
        norms = mixed_norm(wf, inst.sigma, p) * lp_norm(wg, inst.omega, inst.q)
        if norms == 0.0:
            raise GuardError(f"a winning witness vanished although its ascent reached {values[win]:g}")
        value = lambda_form(inst, wf, wg) / norms
        estimates.append(NormEstimate(value, wf, wg, taken, seeded, converged[win], False))
    return estimates


def alternating_maximization(
    inst: Instance,
    restarts: int = 32,
    tol: float = 1e-10,
    max_iter: int = 1000,
    seed: int = 0,
    report: TestingReport | None = None,
) -> NormEstimate:
    """:func:`alternating_maximizations` of one instance, with its testing
    report (computed when not given)."""
    report = testing_report(inst) if report is None else report
    return alternating_maximizations([inst], [report], restarts, tol, max_iter, [seed])[0]


def attach_oracle(inst: Instance, estimate: NormEstimate) -> NormEstimate:
    """Attach the applicable oracle value, if any, to an estimate: the
    spectral oracle at p = 2, the grid oracle otherwise.

    Silently returns the estimate unchanged when the oracle's own guard
    refuses the instance (a kernel too large to hold, or more than six
    degrees of freedom).
    """
    try:
        if inst.p == 2.0:
            return replace(estimate, oracle_value=spectral_oracle_p2(inst), oracle_kind="spectral")
        return replace(estimate, oracle_value=grid_oracle(inst, 24), oracle_kind="grid")
    except GuardError:
        return estimate


# -- oracles ----------------------------------------------------------------

_KERNEL_CELL_LIMIT = 4_000_000


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
    8.1).  When G overflows binary64 the value is inf.  A lattice with
    L A^2 above ``_KERNEL_CELL_LIMIT`` is refused with a ``GuardError``.
    """
    if inst.p != 2.0:
        raise GuardError(f"spectral oracle requires p = 2, got {inst.p}")
    sys = inst.sys
    if sys.num_levels * sys.num_atoms * sys.num_atoms > _KERNEL_CELL_LIMIT:
        raise GuardError("system too large for a dense kernel")
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
    angular resolution on the gridded side.  Both sides are gridded in turn,
    each through the operator's images of the unit inputs.
    """
    sys = inst.sys
    cells = sys.num_levels * sys.num_atoms
    dof = cells + sys.num_atoms
    if dof > 6:
        raise GuardError(f"grid oracle limited to 6 degrees of freedom, got {dof}")

    def norm(x, w, p):  # the Lp(w) norm of each row
        return (x**p @ w) ** (1.0 / p)

    shape = (-1, sys.num_levels, sys.num_atoms)
    # f side on the grid, g side exact
    fgrid = _axis_grid(cells, resolution)
    h = fgrid @ apply_box_operator(sys, inst.sigma, inst.mu, inst.lam, np.eye(cells).reshape(shape))
    f_side = largest_ratio(norm(h, inst.omega, inst.p), norm(ell2_slice(fgrid.reshape(shape)), inst.sigma, inst.p))[0]
    # g side on the grid, f side exact
    ggrid = _axis_grid(sys.num_atoms, resolution)
    kg = ggrid @ apply_adjoint_operator(sys, inst.omega, inst.mu, inst.lam, np.eye(sys.num_atoms)).reshape(-1, cells)
    g_side = largest_ratio(norm(ell2_slice(kg.reshape(shape)), inst.sigma, inst.q), norm(ggrid, inst.omega, inst.q))[0]
    return max(0.0, f_side, g_side)  # a NaN side drops out


@dataclass(frozen=True)
class TestingNormRatios:
    lower: float  # max(testing constants) / norm estimate, at most 1
    upper: float  # norm estimate / sum of testing constants, at least 1/2


def testing_norm_ratios(
    inst: Instance, estimate: NormEstimate, report: TestingReport
) -> TestingNormRatios:
    """Comparison ratios between the testing constants and the norm estimate."""
    if inst.p < 2.0:
        raise GuardError(f"testing comparison requires p >= 2, got {inst.p}")
    total = report.forward + report.dual
    if total == 0.0:
        raise ValueError("degenerate instance: both testing constants vanish")
    if not 0.0 < estimate.value < math.inf:
        raise GuardError(f"norm estimate {estimate.value} cannot bound positive testing constants")
    return TestingNormRatios(
        lower=max(report.forward, report.dual) / estimate.value,
        upper=estimate.value / total,
    )
