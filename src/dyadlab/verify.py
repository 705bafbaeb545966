"""The executable property suite behind the ``verify`` subcommand.

Every check quantifies one contract over the worked fixtures plus a batch of
seeded instances; failures carry the canonical JSON of the offending instance
so a run can be replayed.  Output is fully deterministic for a fixed argument
set: no timings, no environment data.
"""

from __future__ import annotations

import functools
import io as _io
from dataclasses import dataclass

import numpy as np

from . import generators, io, lattice
from .embedding import (
    CarlesonData,
    carleson_condition_constant,
    disjointness_inequality,
    embedding_ratio_searches,
    stopping_embedding_report,
)
from .forms import (
    Instance,
    all_box_integrals,
    all_cube_averages,
    all_cube_integrals,
    apply_adjoint_operator,
    apply_box_operator,
    box_slice_sums,
    lambda_form,
    lambda_form_local,
    local_form,
    phi_identity_check,
    test_function,
)
from .measures import conjugate, ksum, lp_norm, mixed_norm
from .normest import (
    alternating_maximization,
    alternating_maximizations,
    attach_oracle,
    box_maps,
    testing_norm_ratios,
)
from .stopping import (
    build_average_family,
    build_ratio_family,
    calibration,
    carleson_constant,
    child_mass_bound,
    collapse_atom_function,
    collapse_scale_function,
    subfamily_mass_bound,
)
from .testing_constants import testing_report


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str | None = None


class _Suite:
    def __init__(self, seed: int, instances: int, p: float, dimension: int, depth: int,
                 restarts: int, tol: float):
        self.seed = seed
        self.p = p
        self.dimension = dimension
        self.depth = depth
        self.restarts = restarts
        self.tol = tol
        self.sys = lattice.build_system(dimension, depth)  # rejects a bad shape up front
        self.instances = list(generators.sweep(seed, instances, dimension, depth, p))
        # every instance paired with a reproducible (f, g) draw, shared by
        # the checks and therefore read-only, as are the testing report of
        # each instance and fixture (from creation) and the ratio family of each draw
        self.draws = []
        for k, inst in enumerate(self.instances):
            f = generators.random_scale_function(inst.sys, seed + k)
            g = generators.random_atom_function(inst.sys, seed + k)
            f.flags.writeable = g.flags.writeable = False
            self.draws.append((inst, f, g))
        worked = generators.worked_instances()
        self.fixtures = [worked["w1"], worked["w2"]]
        self.reports = [testing_report(inst) for inst in self.instances]
        self.fixture_reports = [testing_report(inst) for inst in self.fixtures]
        self.families = [build_ratio_family(inst, inst.sys.root, f) for inst, f, _ in self.draws]
        self.results: list[CheckResult] = []

    def record(self, name: str, failures: list[tuple[Instance | None, str]], checked: int):
        if failures:
            inst, detail = failures[0]
            ce = io.canonical_bytes(inst).decode() if inst is not None else None
            self.results.append(CheckResult(name, False, f"{len(failures)}/{checked} failed: {detail}", ce))
        else:
            self.results.append(CheckResult(name, True, f"checked={checked}"))


def _at(sys, cube: int) -> str:
    """A cube named for a failure detail: by its path."""
    return f"cube {sys.path[cube]!r}"


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def run_suite(
    seed: int = 1,
    instances: int = 50,
    p: float = 2.0,
    dimension: int = 1,
    depth: int = 3,
    restarts: int = 4,
    tol: float = 1e-10,
) -> tuple[list[CheckResult], bool]:
    s = _Suite(seed, instances, p, dimension, depth, restarts, tol)
    _check_lattice(s)
    _check_measures(s)
    _check_forms(s)
    _check_testing(s)
    _check_stopping(s)
    _check_embedding(s)
    _check_normest(s)
    _check_io(s)
    ok = all(r.passed for r in s.results)
    return s.results, ok


def _check_lattice(s: _Suite):
    fails, checked = [], 0
    sys = s.sys
    for cube in range(sys.num_cubes):
        own = np.zeros((sys.num_levels, sys.num_atoms), dtype=bool)
        own[sys.level_of(cube)] = sys.atom_mask(cube)
        pieces = [own] + [sys.box_mask(child) for child in lattice.children(sys, cube)]
        box = sys.box_mask(cube)
        checked += 1
        # a partition covers each cell of the box once and no other cell: the
        # pieces' union is the box, and their sizes add up to its size
        covered = functools.reduce(np.logical_or, pieces)
        sizes = sum(map(np.count_nonzero, pieces))
        if not np.array_equal(covered, box) or sizes != np.count_nonzero(box):
            fails.append((None, f"box partition broken at {_at(sys, cube)}"))
    s.record("lattice-box-partition", fails, checked)

    fails, checked = [], 0
    rng = generators.philox(s.seed, generators.STREAM_ATOMS)
    atoms = [int(rng.integers(sys.num_atoms)) for _ in range(50)]
    # which cubes hold each sampled atom, from one mask per cube
    holds = np.array([sys.atom_mask(cube)[atoms] for cube in range(sys.num_cubes)])
    for a, column in zip(atoms, holds.T):
        chain = [sys.atom_mask(cube) for cube in np.flatnonzero(column)]
        checked += 1
        ordered = all(np.all(inner <= outer) for outer, inner in zip(chain, chain[1:]))
        if len(chain) != sys.num_levels or not ordered:
            fails.append((None, f"containment chain broken at atom {a}"))
    s.record("lattice-chain-property", fails, checked)


def _check_measures(s: _Suite):
    fails, checked = [], 0
    for k, (inst, f, g) in enumerate(s.draws):
        f2 = generators.random_scale_function(inst.sys, s.seed + 7 + k, stream=generators.STREAM_F2)
        n1 = mixed_norm(f, inst.sigma, inst.p)
        n2 = mixed_norm(f2, inst.sigma, inst.p)
        nsum = mixed_norm(f + f2, inst.sigma, inst.p)
        hom = mixed_norm(3.0 * f, inst.sigma, inst.p)
        checked += 1
        if nsum > (n1 + n2) * (1 + 1e-12) or _rel(hom, 3.0 * n1) > 1e-12:
            fails.append((inst, "triangle/homogeneity violated"))
    s.record("mixed-norm-triangle-homogeneity", fails, checked)

    fails, checked = [], 0
    for inst, f, g in s.draws:
        sys = inst.sys
        boxes = all_box_integrals(inst, f)
        f_sums, mu_sums = box_slice_sums(inst, f, inst.p), box_slice_sums(inst, inst.mu, inst.q)
        for cube in range(0, sys.num_cubes, max(1, sys.num_cubes // 8)):
            rhs = f_sums[cube] ** (1.0 / inst.p) * mu_sums[cube] ** (1.0 / inst.q)
            checked += 1
            if boxes[cube] > rhs * (1 + 1e-12):
                fails.append((inst, f"Hoelder violated at {_at(sys, cube)}"))
    s.record("box-integral-hoelder", fails, checked)

    fails, checked = [], 0
    for inst, f, g in s.draws:
        sys = inst.sys
        cube = sys.root
        checked += 1
        if all_cube_averages(inst, g)[cube] > g.max() * (1 + 1e-12):
            fails.append((inst, "average exceeds max"))
        if lattice.cube_sums(sys, inst.omega)[cube] > 0:
            const_avg = all_cube_averages(inst, np.full(sys.num_atoms, 2.5))[cube]
            if _rel(const_avg, 2.5) > 1e-12:
                fails.append((inst, "constant average broken"))
    s.record("average-bounds", fails, checked)


def _check_forms(s: _Suite):
    fails, checked = [], 0
    for inst, f, g in s.draws:
        form = lambda_form(inst, f, g)
        via_g = ksum(inst.omega * g * apply_box_operator(inst.sys, inst.sigma, inst.mu, inst.lam, f))
        via_f = ksum(inst.sigma[None, :] * f * apply_adjoint_operator(inst.sys, inst.omega, inst.mu, inst.lam, g))
        checked += 1
        if _rel(form, via_g) > 1e-12 or _rel(form, via_f) > 1e-12:
            fails.append((inst, f"adjointness broken: {form} vs {via_g} vs {via_f}"))
    s.record("adjointness-triple-identity", fails, checked)

    fails, checked = [], 0
    for inst in s.instances + s.fixtures:
        spreads = phi_identity_check(inst).max_rel_spread
        checked += len(spreads)
        fails += [(inst, f"identity chain spread {x:.2e}") for x in spreads[spreads > 1e-10]]
    s.record("test-input-identity-chain", fails, checked)

    fails, checked = [], 0
    for inst, f, g in s.draws:
        lam2 = inst.lam.copy()
        lam2[inst.sys.num_cubes // 2] += 1.0
        bumped = Instance(inst.sys, inst.p, inst.sigma, inst.omega, inst.mu, lam2)
        checked += 1
        if lambda_form(bumped, f, g) < lambda_form(inst, f, g) * (1 - 1e-12):
            fails.append((inst, "form not monotone in lambda"))
    s.record("lambda-monotonicity", fails, checked)


def _check_testing(s: _Suite):
    fails, checked = [], 0
    for (inst, f, g), rep in zip(s.draws, s.reports):
        checked += 1
        for name, side in (("forward", rep.forward), ("dual", rep.dual)):
            if side.value > 0:
                attained = lambda_form_local(inst, side.cube, side.f, side.g)
                target = side.value * mixed_norm(side.f, inst.sigma, inst.p)
                target *= lp_norm(side.g, inst.omega, conjugate(inst.p))
                if _rel(attained, target) > 1e-10:
                    fails.append((inst, f"{name} witness off: {attained} vs {target}"))
        # random testing-type ratios never beat the constants
        best = max(rep.forward.value, rep.dual.value)
        norm_g, norm_f = lp_norm(g, inst.omega, conjugate(inst.p)), mixed_norm(f, inst.sigma, inst.p)
        g_integrals, f_boxes = all_cube_integrals(inst, g), all_box_integrals(inst, f)
        cubes = range(0, inst.sys.num_cubes, max(1, inst.sys.num_cubes // 4))
        phis = np.stack([test_function(inst, cube) for cube in cubes])
        inds = np.array([inst.sys.atom_mask(cube) for cube in cubes], dtype=float)
        # the cubes' box and cube integrals as batch rows, each the bits of its own call
        batch = zip(cubes, phis, inds, all_box_integrals(inst, phis), all_cube_integrals(inst, inds))
        for cube, phi, ind, phi_boxes, ind_integrals in batch:
            d1 = mixed_norm(phi, inst.sigma, inst.p) * norm_g
            if d1 > 0 and local_form(inst, cube, phi_boxes, g_integrals) > best * d1 * (1 + 1e-12):
                fails.append((inst, f"forward ratio beats constant at {_at(inst.sys, cube)}"))
            d2 = norm_f * lp_norm(ind, inst.omega, conjugate(inst.p))
            if d2 > 0 and local_form(inst, cube, f_boxes, ind_integrals) > best * d2 * (1 + 1e-12):
                fails.append((inst, f"dual ratio beats constant at {_at(inst.sys, cube)}"))
    s.record("testing-witness-attainment", fails, checked)

    fails, checked = [], 0
    sample = max(1, len(s.instances) // 5)
    for inst, rep in zip(s.instances[:sample], s.reports):
        scaled = Instance(inst.sys, inst.p, inst.sigma, inst.omega, inst.mu, 4.0 * inst.lam)
        rep2 = testing_report(scaled)
        checked += 1
        pairs = zip((rep2.forward, rep2.dual), (rep.forward, rep.dual))
        if any(_rel(new.value, 4.0 * old.value) > 1e-12 for new, old in pairs):
            fails.append((inst, "testing constants not 1-homogeneous in lambda"))
    s.record("testing-lambda-scaling", fails, checked)


def _check_stopping(s: _Suite):
    fails_c, fails_p, fails_s, fails_g, checked = [], [], [], [], 0
    for (inst, f, g), ffam in zip(s.draws, s.families):
        sys = inst.sys
        gfam = build_average_family(inst, sys.root, g)
        if carleson_constant(sys, gfam, inst.omega) > 2.0:
            fails_c.append((inst, "average family exceeds the 2-Carleson bound"))
        calibrated = calibration(inst, f)
        for cube in range(0, sys.num_cubes, max(1, sys.num_cubes // 6)):
            member = int(ffam.projection[cube])
            level = sys.level_of(member)
            lhs = calibrated(level)[1][cube - sys.level_offset[level]]
            if lhs > ffam.params["A"] * ffam.stats[member] * (1 + 1e-12):
                fails_p.append((inst, f"stopping bound broken at {_at(sys, cube)}"))
        if inst.p >= 2.0:
            # the geometric mass decay is a consequence of the default
            # constants only in the p >= 2 regime
            if child_mass_bound(sys, ffam) > 0.5:
                fails_s.append((inst, "child test-input mass above half the parent"))
            if subfamily_mass_bound(sys, ffam) > 2.0:
                fails_g.append((inst, "subfamily test-input mass above twice the parent"))
        checked += 1
    s.record("average-family-2-carleson", fails_c, checked)
    s.record("ratio-family-stopping-bound", fails_p, checked)
    s.record("ratio-family-child-mass-half", fails_s, checked)
    s.record("ratio-family-subtree-mass-double", fails_g, checked)

    fails, checked = [], 0
    for inst in generators.adversarial_family(
        "deep-chain", depth=min(5, lattice.MAX_DEPTH[s.dimension]), dimension=s.dimension, p=max(s.p, 2.0)
    ):
        sys = inst.sys
        f, g = generators.deep_chain_profiles(sys)
        gfam = build_average_family(inst, sys.root, g)
        ffam = build_ratio_family(inst, sys.root, f)
        boxes, integrals = all_box_integrals(inst, f), all_cube_integrals(inst, g)
        collapsed_f, collapsed_g = {}, {}  # the integrals of one collapse per member
        for cube in range(sys.num_cubes):
            fkey, gkey = int(ffam.projection[cube]), int(gfam.projection[cube])
            fa, ga = sys.atom_mask(fkey), sys.atom_mask(gkey)
            checked += 1
            if not (np.all(fa <= ga) or np.all(ga <= fa)):
                fails.append((inst, f"projections not nested at {_at(sys, cube)}"))
                continue
            f_level, g_level = sys.level_of(fkey), sys.level_of(gkey)
            if f_level >= g_level and fkey != gkey:  # f-member strictly inside g-member
                if gkey not in collapsed_f:
                    collapsed = collapse_scale_function(inst, f, gfam, ffam, gkey)
                    collapsed_f[gkey] = all_box_integrals(inst, collapsed)
                if _rel(boxes[cube], collapsed_f[gkey][cube]) > 1e-12:
                    fails.append((inst, f"scale collapse changes box mass at {_at(sys, cube)}"))
            if g_level >= f_level:  # g-member inside f-member (or equal)
                if fkey not in collapsed_g:
                    collapsed = collapse_atom_function(inst, g, gfam, ffam, fkey)
                    collapsed_g[fkey] = all_cube_integrals(inst, collapsed)
                if _rel(integrals[cube], collapsed_g[fkey][cube]) > 1e-12:
                    fails.append((inst, f"atom collapse changes cube mass at {_at(sys, cube)}"))
    s.record("collapse-substitution-identities", fails, checked)


def _check_embedding(s: _Suite):
    fails, checked = [], 0
    rng = generators.philox(s.seed, generators.STREAM_DATA)
    datas = [CarlesonData(*generators.embedding_check_data(s.sys, rng)) for _ in s.draws]
    # the draws share the suite's lattice and p, so their searches step together
    searches = embedding_ratio_searches(s.sys, datas, s.p, 2, [s.seed] * len(datas))
    for (inst, f, g), data, search in zip(s.draws, datas, searches):
        cprime, found = carleson_condition_constant(s.sys, data), search.value
        checked += 1
        if found < cprime * (1 - 1e-12):
            fails.append((inst, f"search {found} below condition constant {cprime}"))
    s.record("embedding-indicator-necessity", fails, checked)

    fails, checked = [], 0
    if s.p >= 2:
        for (inst, f, g), fam in zip(s.draws, s.families):
            rep = stopping_embedding_report(inst, f, fam)
            checked += 1
            if rep.alpha_identity_rel_err > 1e-12:
                fails.append((inst, f"exclusive-box reconstruction err {rep.alpha_identity_rel_err:.2e}"))
            if rep.nu_carleson_factor > 4.0:
                fails.append((inst, f"lifted Carleson factor {rep.nu_carleson_factor}"))
            if not np.isfinite(rep.ratio):
                fails.append((inst, "embedding ratio not finite"))
    s.record("stopping-embedding-report", fails, checked)

    fails, checked = [], 0
    rng = generators.philox(s.seed, generators.STREAM_CELLS)
    for inst, f, g in s.draws:
        if inst.p < 2:
            continue
        sys = inst.sys
        labels = rng.integers(0, 4, size=(sys.num_levels, sys.num_atoms))
        rep = disjointness_inequality(f, inst.sigma, inst.p, [labels == i for i in range(3)])
        checked += 1
        if not rep.holds:
            fails.append((inst, f"disjoint power sums {rep.lhs} exceed {rep.rhs}"))
    inst, f, parts = generators.lemma_violation_fixture()
    rep = disjointness_inequality(f, inst.sigma, inst.p, parts)
    checked += 1
    if rep.holds or _rel(rep.lhs, 2.0) > 1e-12 or _rel(rep.rhs, 2.0**0.75) > 1e-12:
        fails.append((inst, "below-2 witness did not violate as expected"))
    s.record("disjoint-power-sums", fails, checked)


def _check_normest(s: _Suite):
    fails, checked = [], 0
    sample = max(1, len(s.instances) // 5)
    insts, reports = s.instances[:sample], s.reports[:sample]
    # the sample shares one lattice and p, so its ascents run as one batch
    estimates = alternating_maximizations(insts, reports, s.restarts, s.tol, 1000, [s.seed] * len(insts))
    for inst, rep in zip(s.fixtures, s.fixture_reports):
        estimates.append(alternating_maximization(inst, restarts=s.restarts, tol=s.tol, seed=s.seed, report=rep))
    for inst, rep, est in zip(insts + s.fixtures, reports + s.fixture_reports, estimates, strict=True):
        checked += 1
        if est.degenerate:  # a null form: the estimate raises when T or T* > 0
            continue
        witnessed = lambda_form(inst, est.witness_f, est.witness_g)
        nf = mixed_norm(est.witness_f, inst.sigma, inst.p)
        ng = lp_norm(est.witness_g, inst.omega, conjugate(inst.p))
        if _rel(witnessed / (nf * ng), est.value) > 1e-12:
            fails.append((inst, "witness ratio disagrees with value"))
        if est.value < max(rep.forward.value, rep.dual.value) - 1e-9:
            fails.append((inst, "estimate below a testing constant"))
        if inst.p >= 2 and rep.forward.value + rep.dual.value > 0:
            ratios = testing_norm_ratios(inst, estimate=est, report=rep)
            if ratios.upper < 0.5 - 1e-9 or ratios.lower > 1.0 + 1e-9:
                fails.append((inst, f"ratios out of range: {ratios}"))
        # attach_oracle leaves the spectral oracle out where its kernel would be
        # too large; the grid oracle it gives at p != 2 is not compared here
        with_oracle = attach_oracle(inst, est) if inst.p == 2.0 else est
        oracle = with_oracle.oracle_value
        if with_oracle.oracle_kind == "spectral" and oracle > 0:
            if abs(est.value - oracle) / oracle > 1e-6:
                fails.append((inst, f"alternating {est.value} vs spectral {oracle}"))
        weights = inst.sigma, inst.omega, inst.mu, inst.lam
        for half_step, x in zip(box_maps(inst.sys, inst.p), (est.witness_f, est.witness_g)):
            if 0.0 < half_step(x, *weights)[1] < est.value * (1 - 1e-12):  # a vanished one (0.0) is no decrease
                fails.append((inst, "half-step decreased the ratio"))
    s.record("norm-estimate-contracts", fails, checked)


def _check_io(s: _Suite):
    fails, checked = [], 0
    for inst in s.instances[:10] + s.fixtures:
        buf = _io.StringIO()
        io.write_instance(inst, buf)
        buf.seek(0)
        back = io.read_instance(buf)
        checked += 1
        same = (
            back.p == inst.p
            and np.array_equal(back.sigma, inst.sigma)
            and np.array_equal(back.omega, inst.omega)
            and np.array_equal(back.mu, inst.mu)
            and np.array_equal(back.lam, inst.lam)
        )
        if not same:
            fails.append((inst, "round-trip not bit-identical"))
    s.record("instance-roundtrip-bit-exact", fails, checked)

    fails, checked = [], 0
    for k in range(3):
        spec = generators.GenSpec(seed=s.seed + k, dimension=s.dimension, depth=s.depth, p=s.p)
        checked += 1
        if io.digest(generators.generate(spec)) != io.digest(generators.generate(spec)):
            fails.append((None, f"generation not deterministic at seed {spec.seed}"))
    s.record("generation-determinism", fails, checked)


def format_report(results: list[CheckResult], header: str) -> str:
    lines = [header]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} {r.name}: {r.detail}")
        if not r.passed and r.counterexample:
            lines.append(f"  instance: {r.counterexample}")
    passed = sum(r.passed for r in results)
    lines.append(f"SUMMARY {passed}/{len(results)} properties passed")
    return "\n".join(lines) + "\n"
