"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in the
captured output on failure).  Shared sweeps are cached at module scope so the
suite stays within a desk-scale runtime budget.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from dyadlab import build_system, worked_instances
from dyadlab import io
from dyadlab.cli import main
from dyadlab.embedding import (
    CarlesonData,
    carleson_condition_constant,
    disjointness_inequality,
    embedding_ratio_search,
    stopping_embedding_report,
)
from dyadlab.forms import all_box_integrals, all_cube_integrals, phi_identity_check
from dyadlab.generators import (
    GenSpec,
    adversarial_family,
    deep_chain_profiles,
    embedding_probe_function,
    generate,
    lemma_violation_fixture,
    random_atom_function,
)
from dyadlab.io import ReportRow
from dyadlab.normest import (
    alternating_maximization,
    alternating_maximizations,
    grid_oracle,
    spectral_oracle_p2,
    testing_norm_ratios,
)
from dyadlab.stopping import (
    build_average_family,
    build_ratio_family,
    carleson_constant,
    child_mass_bound,
    collapse_atom_function,
    collapse_scale_function,
    subfamily_mass_bound,
)
from dyadlab.testing_constants import testing_report

from _reference import project

W = worked_instances()
ROOT2 = math.sqrt(2.0)


def _report(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


# -- criterion 1: test-input identity chain ---------------------------------


def test_criterion_1_identity_chain():
    t0 = time.perf_counter()
    ps = (2.0, 2.5, 3.0, 4.0)
    worst = 0.0
    cubes_checked = 0
    for k in range(500):
        p = ps[k % 4]
        depth = 1 + (k // 4) % 4
        inst = generate(GenSpec(seed=10_000 + k, dimension=1, depth=depth, p=p))
        spreads = phi_identity_check(inst).max_rel_spread
        worst = max(worst, spreads.max())
        cubes_checked += len(spreads)
    fixture_ok = True
    for name, value, tol in (("w1", 4.0, 4e-10), ("w2", 16.0, 16e-10)):
        rep, root = phi_identity_check(W[name]), W[name].sys.root
        chain = (rep.box_pairing, rep.slice_integral, rep.mu_norm_power, rep.phi_norm_power)
        fixture_ok &= all(abs(v[root] - value) <= tol for v in chain)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and fixture_ok and elapsed <= 30.0
    _report(
        "criterion-1 identity-chain",
        ok,
        f"max spread {worst:.2e} over {cubes_checked} cubes, "
        f"fixtures (4, 16) ok={fixture_ok}, {elapsed:.1f}s",
    )


# -- criterion 2: disjoint-set power inequality ------------------------------


def test_criterion_2_disjoint_power_sums():
    rng = np.random.Generator(np.random.Philox(key=[2, 2]))
    sys = build_system(1, 2)
    violations = 0
    for p in (2.0, 3.0, 4.0):
        for _ in range(1000):
            f = rng.random((sys.num_levels, sys.num_atoms))
            sigma = rng.random(sys.num_atoms)
            labels = rng.integers(0, 4, size=f.shape)
            parts = [labels == i for i in range(3)]
            if not disjointness_inequality(f, sigma, p, parts).holds:
                violations += 1

    inst, f, parts = lemma_violation_fixture()
    witness = disjointness_inequality(f, inst.sigma, 1.5, parts)
    witness_ok = (
        not witness.holds
        and abs(witness.lhs - 2.0) <= 2e-12
        and abs(witness.rhs - 2.0**0.75) <= 2e-12
    )
    ok = violations == 0 and witness_ok
    _report(
        "criterion-2 disjoint-power-sums",
        ok,
        f"0 violations expected over 3000 draws (got {violations}); "
        f"p=1.5 witness lhs={witness.lhs} rhs={witness.rhs}",
    )


# -- criteria 3 and 4: stopping families and the embedding sweep -------------


@lru_cache(maxsize=None)
def _family_sweep(p: float):
    """200 instances per depth in 1..5: family bounds and embedding ratios."""
    stats = {
        "carleson_max": 0.0,
        "child_mass_max": 0.0,
        "subtree_mass_max": 0.0,
        "nu_factor_max": 0.0,
        "alpha_err_max": 0.0,
        "nonfinite": 0,
    }
    depth_maxima = {}
    for depth in range(1, 6):
        best = 0.0
        for k in range(200):
            seed = 20_000 + 1000 * depth + k
            inst = generate(GenSpec(seed=seed, dimension=1, depth=depth, p=p))
            g = random_atom_function(inst.sys, seed)
            gfam = build_average_family(inst, inst.sys.root, g)
            stats["carleson_max"] = max(
                stats["carleson_max"], carleson_constant(inst.sys, gfam, inst.omega)
            )
            f = embedding_probe_function(inst, seed)
            ffam = build_ratio_family(inst, inst.sys.root, f)
            stats["child_mass_max"] = max(stats["child_mass_max"], child_mass_bound(inst.sys, ffam))
            stats["subtree_mass_max"] = max(
                stats["subtree_mass_max"], subfamily_mass_bound(inst.sys, ffam)
            )
            rep = stopping_embedding_report(inst, f, ffam)
            if not math.isfinite(rep.ratio):
                stats["nonfinite"] += 1
            stats["nu_factor_max"] = max(stats["nu_factor_max"], rep.nu_carleson_factor)
            stats["alpha_err_max"] = max(stats["alpha_err_max"], rep.alpha_identity_rel_err)
            best = max(best, rep.ratio)
        depth_maxima[depth] = best
    return stats, depth_maxima


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_criterion_3_stopping_structure(p):
    stats, _ = _family_sweep(p)
    ok = (
        stats["carleson_max"] <= 2.0
        and stats["child_mass_max"] <= 0.5
        and stats["subtree_mass_max"] <= 2.0
    )
    _report(
        f"criterion-3 stopping-structure p={p:g}",
        ok,
        f"carleson<= {stats['carleson_max']:.6f} (2), "
        f"child-mass<= {stats['child_mass_max']:.6f} (0.5), "
        f"subtree-mass<= {stats['subtree_mass_max']:.6f} (2)",
    )


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_criterion_4_embedding_sweep(p):
    stats, depth_maxima = _family_sweep(p)
    maxima = [depth_maxima[d] for d in range(1, 6)]
    spread = max(maxima) / min(maxima)
    ok = (
        stats["nonfinite"] == 0
        and spread < 4.0
        and stats["nu_factor_max"] <= 4.0
        and stats["alpha_err_max"] <= 1e-12
    )
    _report(
        f"criterion-4 embedding-sweep p={p:g}",
        ok,
        f"depth maxima {[f'{m:.3f}' for m in maxima]} spread {spread:.2f} (<4), "
        f"lifted-carleson<= {stats['nu_factor_max']:.3f} (4), "
        f"reconstruction err {stats['alpha_err_max']:.1e}",
    )


# -- criteria 5 and 6: testing constants vs the form norm --------------------


@lru_cache(maxsize=None)
def _theorem_cell(p: float, depth: int):
    rows = []
    degenerate = 0
    seeds = [40_000 + 1000 * depth + k for k in range(200)]
    insts = [generate(GenSpec(seed=seed, dimension=1, depth=depth, p=p)) for seed in seeds]
    reports = [testing_report(inst) for inst in insts]
    # the cell's 200 instances share one lattice and p: one batch of ascents
    estimates = alternating_maximizations(insts, reports, 2, 1e-10, 400, seeds)
    for seed, inst, rep, est in zip(seeds, insts, reports, estimates):
        if rep.forward.value + rep.dual.value == 0.0:
            degenerate += 1
            assert est.value == 0.0  # degenerate testing constants mean a null form
            continue
        ratios = testing_norm_ratios(inst, estimate=est, report=rep)
        rows.append(
            {
                "seed": seed,
                "T": rep.forward.value,
                "Tstar": rep.dual.value,
                "value": est.value,
                "upper": ratios.upper,
                "lower": ratios.lower,
                "iterations": est.iterations,
                "restarts": est.restarts,
            }
        )
    return rows, degenerate


_THEOREM_GRID = [(p, d) for p in (2.0, 3.0, 4.0) for d in range(1, 5)]


def test_criterion_5_exact_direction():
    worst_gap = 0.0
    worst_upper = 1.0
    n = 0
    for p, depth in _THEOREM_GRID:
        rows, _ = _theorem_cell(p, depth)
        for r in rows:
            worst_gap = max(worst_gap, max(r["T"], r["Tstar"]) - r["value"])
            worst_upper = min(worst_upper, r["upper"])
            n += 1
    w1rep = testing_report(W["w1"])
    w1est = alternating_maximization(W["w1"], restarts=2, report=w1rep)
    w1ratios = testing_norm_ratios(W["w1"], estimate=w1est, report=w1rep)
    w1_ok = (
        abs(w1rep.forward.value - 2 * ROOT2) <= 1e-9
        and abs(w1rep.dual.value - 2 * ROOT2) <= 1e-9
        and abs(w1est.value - 2 * ROOT2) <= 1e-9
        and abs(w1ratios.upper - 0.5) <= 1e-9
    )
    ok = worst_gap <= 1e-9 and worst_upper >= 0.5 - 1e-9 and w1_ok
    _report(
        "criterion-5 exact-direction",
        ok,
        f"max(T,T*)-value <= {worst_gap:.2e} (1e-9) over {n} instances, "
        f"min upper ratio {worst_upper:.6f} (>=0.5-1e-9), w1 anchors ok={w1_ok}",
    )


def test_criterion_6_empirical_equivalence():
    cell_max = {}
    all_rows = []
    for p, depth in _THEOREM_GRID:
        rows, _ = _theorem_cell(p, depth)
        cell_max[(p, depth)] = max(r["upper"] for r in rows)
        for r in rows:
            all_rows.append(
                ReportRow(
                    instance_id=f"p{p:g}-d{depth}-s{r['seed']}",
                    seed=r["seed"],
                    p=p,
                    dimension=1,
                    depth=depth,
                    T=r["T"],
                    Tstar=r["Tstar"],
                    lambda_norm_lb=r["value"],
                    oracle_value=None,
                    oracle_kind=None,
                    ratio_upper=r["upper"],
                    ratio_lower=r["lower"],
                    prop2_ratio=None,
                    carleson_Cemp_over_Cprime=None,
                    g_family_carleson=1.0,
                    f_family_sparse_max=0.0,
                    iterations=r["iterations"],
                    restarts=r["restarts"],
                    wall_time_ms=0,
                )
            )
    spreads = {}
    for p in (2.0, 3.0, 4.0):
        maxima = [cell_max[(p, d)] for d in range(1, 5)]
        spreads[p] = max(maxima) / min(maxima)
    bounded = all(v <= 100.0 for v in cell_max.values())

    # the per-cell maxima must surface through the report aggregation
    summary = io.summarize_rows(all_rows)
    reported = {(e["p"], e["depth"]): e["ratio_upper_max"] for e in summary}
    report_ok = all(
        abs(reported[cell] - cell_max[cell]) <= 1e-12 for cell in cell_max
    )
    ok = bounded and all(v < 4.0 for v in spreads.values()) and report_ok
    _report(
        "criterion-6 empirical-equivalence",
        ok,
        f"cell maxima {[f'{p:g}/{d}:{cell_max[(p, d)]:.3f}' for p, d in _THEOREM_GRID]}, "
        f"spreads {[f'{p:g}:{s:.2f}' for p, s in spreads.items()]} (<4), "
        f"report carries maxima: {report_ok}",
    )


# -- criterion 7: oracle agreement -------------------------------------------


def test_criterion_7_oracle_agreement():
    worst_spectral = 0.0
    for k in range(100):
        depth = 1 + k % 3
        inst = generate(GenSpec(seed=60_000 + k, dimension=1, depth=depth, p=2.0))
        est = alternating_maximization(
            inst, restarts=2, tol=1e-12, max_iter=2000, seed=k
        )
        oracle = spectral_oracle_p2(inst)
        if oracle == 0.0:
            assert est.value <= 1e-12
            continue
        worst_spectral = max(worst_spectral, abs(est.value - oracle) / oracle)

    worst_grid = 0.0
    grid_cases = 0
    for p in (2.0, 3.0, 4.0):
        for k in range(8):
            for depth in (0, 1):
                inst = generate(
                    GenSpec(seed=61_000 + k, dimension=1, depth=depth, p=p)
                )
                est = alternating_maximization(
                    inst, restarts=4, tol=1e-12, max_iter=2000, seed=k
                )
                grid = grid_oracle(inst, resolution=24)
                if est.value == 0.0:
                    assert grid <= 1e-12
                    continue
                worst_grid = max(worst_grid, abs(est.value - grid) / est.value)
                grid_cases += 1
    ok = worst_spectral <= 1e-6 and worst_grid <= 0.01
    _report(
        "criterion-7 oracle-agreement",
        ok,
        f"spectral gap {worst_spectral:.2e} (1e-6) on 100 instances, "
        f"grid gap {worst_grid:.2e} (1e-2) on {grid_cases} small instances",
    )


# -- criterion 8: dyadic embedding constants ----------------------------------


def test_criterion_8_embedding_constants():
    necessity_ok = True
    spreads = {}
    for p in (2.0, 3.0, 4.0):
        maxima = []
        for depth in range(1, 6):
            best = 1.0
            for k in range(50):
                seed = 70_000 + 1000 * depth + k
                rng = np.random.Generator(np.random.Philox(key=[seed, 33]))
                sys = build_system(1, depth)
                a = rng.random(sys.num_cubes) * (rng.random(sys.num_cubes) > 0.4)
                nu = 0.1 + rng.random(sys.num_atoms)
                data = CarlesonData(a, nu)
                cprime = carleson_condition_constant(sys, data)
                found = embedding_ratio_search(sys, data, p, restarts=2, seed=seed).value
                if found < cprime * (1 - 1e-12):
                    necessity_ok = False
                if cprime > 0:
                    best = max(best, found / cprime)
            maxima.append(best)
        spreads[p] = max(maxima) / min(maxima)
    ok = necessity_ok and all(s < 4.0 for s in spreads.values())
    _report(
        "criterion-8 embedding-constants",
        ok,
        f"condition constant never exceeded the search ({necessity_ok}); "
        f"ratio spreads {[f'{p:g}:{s:.2f}' for p, s in spreads.items()]} (<4)",
    )


# -- criterion 9: two-family decomposition identities -------------------------


def test_criterion_9_decomposition_identities():
    worst = 0.0
    checked = 0
    for p in (2.0, 3.0, 4.0):
        for depth in (4, 5):
            inst = adversarial_family("deep-chain", depth=depth, p=p)[0]
            sys = inst.sys
            f, g = deep_chain_profiles(sys)
            gfam = build_average_family(inst, sys.root, g)
            ffam = build_ratio_family(inst, sys.root, f)
            assert len(ffam.members) > 1 and len(gfam.members) > 1
            boxes, integrals = all_box_integrals(inst, f), all_cube_integrals(inst, g)
            collapsed_f, collapsed_g = {}, {}  # the integrals of each collapse
            for cube in range(sys.num_cubes):
                fm = project(sys, ffam, cube)
                gm = project(sys, gfam, cube)
                fa, ga = sys.atom_mask(fm), sys.atom_mask(gm)
                assert np.all(fa <= ga) or np.all(ga <= fa)  # the unique pair always nests
                if sys.level_of(fm) > sys.level_of(gm):
                    key = gm
                    if key not in collapsed_f:
                        collapsed = collapse_scale_function(inst, f, gfam, ffam, key)
                        collapsed_f[key] = all_box_integrals(inst, collapsed)
                    a, b = boxes[cube], collapsed_f[key][cube]
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
                if sys.level_of(gm) >= sys.level_of(fm):
                    key = fm
                    if key not in collapsed_g:
                        collapsed = collapse_atom_function(inst, g, gfam, ffam, key)
                        collapsed_g[key] = all_cube_integrals(inst, collapsed)
                    a, b = integrals[cube], collapsed_g[key][cube]
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
                checked += 1
    ok = worst <= 1e-12
    _report(
        "criterion-9 decomposition-identities",
        ok,
        f"max substitution error {worst:.2e} (1e-12) over {checked} cubes "
        f"with forced stopping children",
    )


# -- criterion 10: determinism of the verification run ------------------------


def test_criterion_10_verify_determinism(tmp_path):
    argv = ["verify", "--seed", "1", "--instances", "20", "--depth", "2", "--p", "2"]
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = identical and code1 == 0 and code2 == 0
    _report(
        "criterion-10 verify-determinism",
        ok,
        f"exit codes ({code1}, {code2}), byte-identical={identical}",
    )
