"""The dyadlab benchmark.

Run from the repository root:

    python3 perfbench/run.py                         # every workload, one table
    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload verify --trace 1  # per-layer self time
    python3 perfbench/run.py --smoke                 # toy-size check of the harness

Each workload runs in a fresh worker process (``worker.py``) against the
package under ``src/``.  Set-up time is the median over several fresh
processes.  The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170
BLAS_THREADS = 1

AGGREGATIONS = {
    "lattice": ("cube_sums", "box_sums", "chain_running", "chain_total", "subtree_sums"),
    "measures": ("ksum", "mixed_norm", "lp_norm"),
}
SHARE_FUNCTIONS = (
    "testing_constants.testing_report",
    "embedding.embedding_ratio_search",
    "normest.alternating_maximization",
    "normest.attach_oracle",
    "io.write_rows",
    "io.family_to_dict",
)
LAYERS = ("lattice", "measures", "forms", "generators", "testing_constants",
          "normest", "stopping", "embedding", "io", "runner", "verify", "cli")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def call_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_info(numpy_version: str) -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": BLAS_THREADS,
        "worker_processes": 1,
        "git_commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level}{kind[0].lower()}"] = size
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    return info


def quantile_ms(samples: list[float], q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the timed passes.

    ``wall_s`` is a pass composed of typical units: for each kind of unit
    (workload step and lattice shape) the median of its timed runs, times
    how often a pass holds it.  Medians of many short samples keep the slow
    stretches of a shared machine out; every pass of a workload has the same
    units by kind, so ``items_per_s`` is the items of one pass over it.
    """
    passes = res["passes"]
    by_kind: dict[str, list[float]] = {}
    for p in passes:
        for kind, took in p["unit_s"]:
            by_kind.setdefault(kind, []).append(took)
    wall = sum(statistics.median(v) * len(v) for v in by_kind.values()) / len(passes)
    items = sum(p["items"] for p in passes)
    item_ms = [ms for p in passes for ms in p["item_ms"]]
    p95 = quantile_ms(item_ms, 95)
    metrics = {
        "items_per_s": (passes[0]["items"] / wall, "1/s"),
        "wall_s": (wall, "s"),
        "item_ms_p50": (statistics.median(item_ms), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "timed_passes": len(passes),
        "timed_items": items,
        "latency_samples": len(item_ms),
        "item_ms_p95": p95,
        "samples_beyond_p95": sum(ms > p95 for ms in item_ms),
        "warmup_s": res["warmup_s"],
        "setup_samples_s": setups,
        "pass_s": [p["seconds"] for p in passes],
        "item_ms": item_ms,
        "failed_frac": res["failed"] / res["attempted"],
    }
    return metrics, notes


def per_layer(res: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass.

    Exact counts come from the wrappers and the returned results.  Times are
    the mean of the two traced runs.  A time that some workload never spends
    (a layer it does not enter) is given as a share of the traced pass, so
    only functions every workload calls are reported in ms.
    """
    trace = res["trace"]
    counts = trace["counts"]
    fms = trace["function_ms"]
    pass_ms = 1e3 * statistics.mean(trace["traced_s"])

    def incl(name):
        return fms.get(name, (0.0, 0.0))[0]

    def own(name):
        return fms.get(name, (0.0, 0.0))[1]

    layer_ms = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_ms) in fms.items():
        layer_ms[name.split(".", 1)[0]] += self_ms
    members = counts.get("stopping.average_members", 0) + counts.get("stopping.ratio_members", 0)
    stop_ms = incl("stopping.build_average_family") + incl("stopping.build_ratio_family")
    metrics = {
        "forms.test_function.calls": (counts.get("forms.test_function", 0), "count"),
        "forms.test_function.ms": (incl("forms.test_function"), "ms"),
        "testing_constants.testing_report.calls": (counts.get("testing_constants.testing_report", 0), "count"),
        "normest.ascent_steps": (counts.get("normest.ascent_steps", 0), "count"),
        "normest.seeds": (counts.get("normest.seeds", 0), "count"),
        "embedding.evaluations": (counts.get("embedding.evaluations", 0), "count"),
        "embedding.search_ran_frac": (
            counts.get("embedding.embedding_ratio_search", 0) / trace["items"], "frac"),
        "stopping.build_average_family.ms": (incl("stopping.build_average_family"), "ms"),
        "stopping.build_ratio_family.ms": (incl("stopping.build_ratio_family"), "ms"),
        "stopping.average_members": (counts.get("stopping.average_members", 0), "count"),
        "stopping.ratio_members": (counts.get("stopping.ratio_members", 0), "count"),
        "stopping.ms_per_member": (stop_ms / members if members else 0.0, "ms"),
        "generators.generate.ms": (incl("generators.generate"), "ms"),
        "io.bytes_out": (trace["bytes_out"], "B"),
    }
    for name in SHARE_FUNCTIONS:
        metrics[f"{name}.share"] = (incl(name) / pass_ms, "frac")
    for module, names in AGGREGATIONS.items():
        for name in names:
            metrics[f"{module}.{name}.calls"] = (counts.get(f"{module}.{name}", 0), "count")
            metrics[f"{module}.{name}.self_share"] = (own(f"{module}.{name}") / pass_ms, "frac")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_ms[layer] / pass_ms, "frac")
        metrics[f"{layer}.incl_share"] = (trace["layer_incl_ms"].get(layer, 0.0) / pass_ms, "frac")
    untraced = sum(trace["untraced_s"])
    metrics["trace.overhead_frac"] = ((sum(trace["traced_s"]) - untraced) / untraced, "frac")
    steps = counts.get("normest.ascent_steps", 0)
    notes = {
        "layer_self_ms": layer_ms,
        "layer_incl_ms": trace["layer_incl_ms"],
        "pass_ms_traced": pass_ms,
        "untraced_s": trace["untraced_s"],
        "traced_s": trace["traced_s"],
        "count_mismatch": trace["count_mismatch"],
        "spans_file": res["spans_file"],
        "failed_frac": res["failed"] / res["attempted"],
        "named_ms": {
            **{name: incl(name) for name in SHARE_FUNCTIONS},
            "normest.ms_per_ascent_step": incl("normest.alternating_maximization") / steps if steps else None,
        },
        "function_ms": {
            name: {"incl": v[0], "self": v[1]}
            for name, v in sorted(fms.items(), key=lambda kv: -kv[1][1])
        },
    }
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = []
    if not trace:
        probes = 1 if smoke else SETUP_PROBES
        setups = [call_worker(["setup", *common])["setup_s"] for _ in range(probes)]
    res = call_worker(["run", *common, "--seconds", str(seconds), "--trace", str(trace)])
    metrics, notes = per_layer(res) if trace else end_to_end(res, setups)
    correct = res["failed"] == 0 and not notes.get("count_mismatch")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "reasons": res["reasons"],
        "metrics": metrics,
        "notes": notes,
        "numpy": res["numpy"],
    }


def print_result(out: dict) -> None:
    notes = out["notes"]
    print(f"workload {out['workload']} seed {out['seed']} trace {out['trace']}: "
          f"{out['attempted']} items attempted, {out['failed']} failed, "
          f"failed_frac {notes['failed_frac']:g}")
    for reason in out["reasons"]:
        print(f"  FAILED {reason}")
    if notes.get("count_mismatch"):
        print(f"  FAILED traced runs disagree on counts: {notes['count_mismatch']}")
    if out["trace"]:
        print(f"  spans: {notes['spans_file']}")
        print(f"  overhead: traced pass {notes['traced_s']} s, untraced {notes['untraced_s']} s")
        total = notes["pass_ms_traced"]
        print(f"  {'layer':<20}{'self ms':>12}{'share':>9}{'incl ms':>12}{'share':>9}")
        for layer, ms in sorted(notes["layer_self_ms"].items(), key=lambda kv: -kv[1]):
            incl = notes["layer_incl_ms"].get(layer, 0.0)
            print(f"  {layer:<20}{ms:>12.2f}{ms / total:>9.1%}{incl:>12.2f}{incl / total:>9.1%}")
        bench_ms = total - sum(notes["layer_self_ms"].values())
        print(f"  {'(benchmark loop)':<20}{bench_ms:>12.2f}{bench_ms / total:>9.1%}")
        for name, ms in notes["named_ms"].items():
            print(f"  {name:<42}{'-' if ms is None else f'{ms:.6g}':>16} ms")
    else:
        print(f"  {notes['timed_passes']} timed passes, {notes['timed_items']} items, "
              f"{notes['latency_samples']} latency samples, item_ms_p95 {notes['item_ms_p95']:.6g} ms "
              f"({notes['samples_beyond_p95']} samples beyond it), warm-up {notes['warmup_s']:.3f} s")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:<42}{value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dyadlab benchmark")
    ap.add_argument("--workload", help="one workload; default: all of them")
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default 1; held-out 2)")
    ap.add_argument("--seconds", type=float, default=15.0, help="timed seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size run that checks the harness")
    ap.add_argument("--out", help="also write the full result, with host and samples, as JSON")
    args = ap.parse_args(argv)

    if not (SRC / "dyadlab" / "__init__.py").is_file():
        print(f"error: no dyadlab package under {SRC}; run from a dyadlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]}; choose from {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    results = [run_workload(n, seed, args.seconds, args.trace, args.smoke) for n in names]
    host = host_info(results[0]["numpy"])
    print("host: " + json.dumps(host))
    for out in results:
        print_result(out)
    if args.out:
        with open(args.out, "w") as fp:
            json.dump({"host": host, "results": results}, fp, indent=1)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name if len(results) == 1 else f"{r['workload']}/{name}": {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
