"""Per-instance experiment pipeline producing report rows."""

from __future__ import annotations

import time

import numpy as np

from . import generators
from .embedding import (
    CarlesonData,
    carleson_condition_constant,
    embedding_ratio_search,
    stopping_embedding_ratio,
)
from .forms import Instance
from .io import ReportRow
from .normest import alternating_maximization, attach_oracle, testing_norm_ratios
from .stopping import build_average_family, build_ratio_family, carleson_constant, child_mass_bound
from .testing_constants import testing_report


def evaluate_instance(
    inst: Instance,
    instance_id: str,
    seed: int,
    restarts: int = 4,
    tol: float = 1e-10,
) -> ReportRow:
    """Full measurement battery for one instance.

    Auxiliary draws (the f, g and cube-mass fields) come from dedicated
    streams of ``seed`` so rows are reproducible.
    """
    t0 = time.perf_counter()
    sys = inst.sys

    report = testing_report(inst)
    estimate = alternating_maximization(
        inst, restarts=restarts, tol=tol, max_iter=400, seed=seed, report=report
    )
    estimate = attach_oracle(inst, estimate)

    total = report.forward.value + report.dual.value
    if total > 0 and inst.p >= 2.0:
        ratios = testing_norm_ratios(inst, estimate=estimate, report=report)
        ratio_upper, ratio_lower = ratios.upper, ratios.lower
    else:
        ratio_upper = ratio_lower = None

    f = generators.embedding_probe_function(inst, seed)
    g = generators.random_atom_function(sys, seed)

    ratio_family = build_ratio_family(inst, sys.root, f)
    prop2 = stopping_embedding_ratio(inst, f, ratio_family)[2] if inst.p >= 2 else None
    avg_family = build_average_family(inst, sys.root, g)
    g_carleson = carleson_constant(sys, avg_family, inst.omega)
    sparse_max = child_mass_bound(sys, ratio_family)

    rng = generators.philox(seed, generators.STREAM_A)
    a = np.exp(rng.random(sys.num_cubes) * 2.0 - 1.0) * (rng.random(sys.num_cubes) >= 0.5)
    data = CarlesonData(a, inst.omega)
    cprime = carleson_condition_constant(sys, data)
    if 0.0 < cprime < float("inf"):
        c_emp = embedding_ratio_search(sys, data, inst.p, restarts=2, seed=seed).value
        carleson_ratio = c_emp / cprime
    else:
        carleson_ratio = None

    wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
    return ReportRow(
        instance_id=instance_id,
        seed=seed,
        p=inst.p,
        dimension=sys.dimension,
        depth=sys.depth,
        T=report.forward.value,
        Tstar=report.dual.value,
        lambda_norm_lb=estimate.value,
        oracle_value=estimate.oracle_value,
        oracle_kind=estimate.oracle_kind,
        ratio_upper=ratio_upper,
        ratio_lower=ratio_lower,
        prop2_ratio=prop2,
        carleson_Cemp_over_Cprime=carleson_ratio,
        g_family_carleson=g_carleson,
        f_family_sparse_max=sparse_max,
        iterations=estimate.iterations,
        restarts=estimate.restarts,
        wall_time_ms=wall_ms,
    )


def row_id(base_seed: int, p: float, depth: int, k: int) -> str:
    """The id of the ``k``-th row of a sweep from ``base_seed``."""
    return f"s{base_seed}-p{p:g}-d{depth}-i{k:05d}"

