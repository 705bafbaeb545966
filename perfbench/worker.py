"""One fresh benchmark process: times its own set-up, then runs a workload.

``worker.py setup --workload W`` imports dyadlab, builds the workload's
lattices and prints the seconds that took.  ``worker.py run ...`` does the
same set-up, runs an untimed warm-up pass, and then either the timed passes
(``--trace 0``) or the traced comparison (``--trace 1``).  It prints one JSON
object as its last line; ``run.py`` turns that into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def timed_setup(name: str) -> float:
    t0 = time.perf_counter()
    import workloads  # imports dyadlab: part of what set-up measures

    workloads.build_lattices(workloads.WORKLOADS[name])
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []


def run_pass(workload, units, tally: Tally, tracer=None) -> dict:
    """Run one pass; the returned times exclude the output checks."""
    outputs, item_ms, unit_s = [], [], []
    t0 = time.perf_counter()
    for idx, unit in enumerate(units):
        if tracer is not None:
            tracer.item = idx
        start = time.perf_counter()
        try:
            out = workload.run(unit)
        except Exception as exc:  # a failing item is counted, not fatal
            out = exc
        took = time.perf_counter() - start
        item_ms.append(took * 1e3 / unit.weight)
        unit_s.append([f"{unit.kind}:{unit.key}", took])
        outputs.append(out)
    if tracer is not None:
        tracer.item = -1
    nbytes = workload.finish([o for o in outputs if not isinstance(o, Exception)])
    seconds = time.perf_counter() - t0
    for unit, out in zip(units, outputs):
        tally.attempted += unit.weight
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            reason = workload.check(unit, out)
        if reason is not None:
            tally.failed += unit.weight
            tally.reasons.append(f"{unit.label}: {reason}")
    return {
        "seconds": seconds,
        "item_ms": item_ms,
        "unit_s": unit_s,
        "items": sum(u.weight for u in units),
        "bytes": nbytes,
    }


def _count_hooks(tracer) -> None:
    def ascent(est, counts):
        counts["normest.ascent_steps"] += est.iterations
        counts["normest.seeds"] += est.restarts

    def search(result, counts):
        counts["embedding.evaluations"] += result.evaluations

    def members(kind):
        def hook(family, counts):
            counts[f"stopping.{kind}_members"] += len(family.members)
        return hook

    tracer.on_return("normest.alternating_maximization", ascent)
    tracer.on_return("embedding.embedding_ratio_search", search)
    tracer.on_return("stopping.build_average_family", members("average"))
    tracer.on_return("stopping.build_ratio_family", members("ratio"))


def traced_comparison(workload, units, tally: Tally, spans_path: Path) -> dict:
    """Untraced and traced runs of one pass, alternated twice.  The two traced
    runs must agree on every count; the first one's spans are written out."""
    from tracer import Tracer  # trace mode only: keeps untraced workers lean

    tracer = Tracer()
    _count_hooks(tracer)
    untraced, traced, counts, times, layers = [], [], [], [], []
    for rep in range(2):
        untraced.append(run_pass(workload, units, tally)["seconds"])
        tracer.reset()
        tracer.install()
        try:
            res = run_pass(workload, units, tally, tracer)
        finally:
            tracer.uninstall()
        traced.append(res["seconds"])
        counts.append({**tracer.call_counts(), **tracer.counts})
        times.append(tracer.function_times())
        layers.append(tracer.layer_inclusive_ms())
        if rep == 0:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(spans_path, [u.label for u in units])
    mismatched = sorted(
        k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k)
    )
    mean = {
        n: tuple((times[0].get(n, (0, 0))[i] + times[1].get(n, (0, 0))[i]) / 2 for i in (0, 1))
        for n in set(times[0]) | set(times[1])
    }
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "counts": counts[0],
        "count_mismatch": mismatched,
        "bytes_out": res["bytes"],
        "function_ms": mean,
        "layer_incl_ms": {
            k: (layers[0].get(k, 0.0) + layers[1].get(k, 0.0)) / 2
            for k in set(layers[0]) | set(layers[1])
        },
        "items": sum(u.weight for u in units),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    setup_s = timed_setup(args.workload)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    passes = workload.passes(args.seed, smoke=args.smoke)
    tally = Tally()
    warmup = run_pass(workload, next(passes), tally)
    result = {"setup_s": setup_s, "warmup_s": warmup["seconds"], "numpy": numpy.__version__}
    if args.trace:
        spans_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.jsonl.gz"
        result["trace"] = traced_comparison(workload, next(passes), tally, spans_path)
        result["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent.parent))
    else:
        runs, elapsed = [], 0.0
        while not runs or (not args.smoke and (elapsed < args.seconds or len(runs) % workload.cycle)):
            runs.append(run_pass(workload, next(passes), tally))
            elapsed += runs[-1]["seconds"]
        result["passes"] = runs
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
