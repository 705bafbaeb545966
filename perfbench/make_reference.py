"""Recompute the stored reference outputs of the benchmark workloads.

Run from the repository root, one workload at a time:

    PYTHONPATH=src python3 perfbench/make_reference.py --workload eval-small

The benchmark checks every output against these files, so regenerate them
only when a change is meant to alter the package's results, and say so in
the change.  Each unit must also pass the workload's contract checks.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tree: dict = {}
    done = [(unit, workload.run(unit)) for unit in workload.pool()]
    for unit, output in done:
        node = tree
        *parents, leaf = workload.ref_path(unit)
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = workload.reference(unit, output)
    workload._ref = tree
    bad = [u.label for u, output in done if workload.check(u, output) is not None]
    if bad:
        print(f"contract checks fail on {len(bad)} units, e.g. {bad[:3]}", file=sys.stderr)
        return 1
    path = workloads.REFERENCE_DIR / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fp:
        json.dump(tree, fp, indent=0, sort_keys=True)
        fp.write("\n")
    print(f"wrote {len(done)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
