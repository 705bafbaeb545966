"""The four benchmark workloads: what one pass runs, how one unit of work
executes, and the output checks against the stored references.

A workload is a sequence of passes.  Each pass is a list of units; a unit is
one call the benchmark times on its own (one measurement row, one instance's
family pair, or one ``dyadlab verify`` run) and counts ``weight`` items.
The benchmark seed fixes the order in which a workload walks its instance
pool, so the same seed gives the same passes.  Every pool instance has a
reference output stored under ``reference/``, so any seed can be checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from dyadlab import cli, generators, io, lattice, runner, stopping

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
HELDOUT_SEED = 2           # for confirming a claimed gain on an unused seed

REL_TOL = 1e-12            # stored-reference agreement, relative
ORACLE_TOL = 1e-6          # spectral-oracle agreement at p = 2, relative

EVAL_SMALL_POOL = 512      # instance seeds 1..512 at d1 D3, p = 2 and p = 3
EVAL_SMALL_HALF = 10       # rows per p in one pass
EVAL_DEEP_POOL = 4        # small on purpose; see Workload.cycle
EVAL_DEEP_SHAPES = ((1, 10, 3.0), (2, 5, 3.0), (1, 8, 2.0))
STOPPING_POOL = 32
STOPPING_P = 2.0
STOPPING_SHAPES = ((2, 6), (3, 4), (1, 12))
DEEP_CHAIN_SHAPE = (3, 4)
VERIFY_POOL = tuple(1 + 1000 * k for k in range(12))
VERIFY_INSTANCES = 50
SMOKE_VERIFY_INSTANCES = 4


@dataclass(frozen=True)
class Unit:
    kind: str          # "row", "families", "deep-chain" or "verify"
    dimension: int
    depth: int
    p: float
    seed: int
    weight: int = 1

    @property
    def key(self) -> str:
        return f"d{self.dimension}-D{self.depth}-p{self.p:g}"

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.key}:s{self.seed}"


def _order(seed: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return order


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _members_digest(family) -> list:
    blob = json.dumps(list(family.members)).encode()
    return [len(family.members), hashlib.sha256(blob).hexdigest()]


class Workload:
    name = ""
    why = ""
    # A timed run ends on a multiple of this many passes.  eval-deep walks a
    # small pool, one instance per pass, so whole cycles give every run the
    # same work; its instances differ in cost by up to a quarter.
    cycle = 1
    _ref = None

    def shapes(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def passes(self, seed: int, smoke: bool = False):
        """Infinite iterator of passes (lists of units); pass 0 is the warm-up."""
        raise NotImplementedError

    def run(self, unit: Unit):
        """Execute one unit; returns its output."""
        raise NotImplementedError

    def finish(self, outputs: list) -> int:
        """Serialize a pass's outputs as the CLI would; returns bytes written."""
        return 0

    def check(self, unit: Unit, output) -> str | None:
        """None when the output is correct, else a one-line reason."""
        raise NotImplementedError

    def reference(self, unit: Unit, output):
        """The value ``check`` compares against, computed from ``output``."""
        raise NotImplementedError

    def ref_path(self, unit: Unit) -> tuple[str, ...]:
        """Where ``unit``'s reference lives in the workload's reference file."""
        raise NotImplementedError

    def expected(self, unit: Unit):
        """The stored reference for ``unit``, or None when there is none."""
        if self._ref is None:
            with open(REFERENCE_DIR / f"{self.name}.json") as fp:
                self._ref = json.load(fp)
        node = self._ref
        for part in self.ref_path(unit):
            node = node.get(part)
            if node is None:
                return None
        return node

    def pool(self) -> list[Unit]:
        """Every unit any pass can contain (the reference set)."""
        raise NotImplementedError


def build_lattices(workload: "Workload") -> list:
    return [lattice.build_system(d, depth) for d, depth in workload.shapes()]


# -- eval-small and eval-deep: runner measurement rows ----------------------


class _EvalWorkload(Workload):
    def shapes(self):
        return sorted({(u.dimension, u.depth) for u in self.pool()})

    def run(self, unit: Unit):
        inst = generators.generate(
            generators.GenSpec(seed=unit.seed, dimension=unit.dimension, depth=unit.depth, p=unit.p)
        )
        return runner.evaluate_instance(
            inst, instance_id=f"s{unit.seed}-p{unit.p:g}-d{unit.depth}-i00000", seed=unit.seed
        )

    def finish(self, outputs):
        buf = _stdio.StringIO()
        io.write_rows(outputs, buf, "csv")
        return len(buf.getvalue().encode())

    def reference(self, unit, row):
        return [row.T, row.Tstar, row.lambda_norm_lb]

    def ref_path(self, unit):
        return (unit.key, str(unit.seed))

    def check(self, unit, row):
        values = (
            row.T, row.Tstar, row.lambda_norm_lb, row.oracle_value, row.ratio_upper,
            row.ratio_lower, row.prop2_ratio, row.carleson_Cemp_over_Cprime,
            row.g_family_carleson, row.f_family_sparse_max,
        )
        if any(v is not None and not math.isfinite(v) for v in values):
            return "non-finite value in row"
        if row.lambda_norm_lb < max(row.T, row.Tstar) * (1.0 - 1e-12):
            return "estimate below max(T, T*)"
        if unit.p == 2.0:
            if row.oracle_kind != "spectral" or row.oracle_value is None:
                return "spectral oracle missing at p=2"
            if _rel(row.lambda_norm_lb, row.oracle_value) > ORACLE_TOL:
                return "estimate disagrees with spectral oracle"
        if row.ratio_upper is not None and row.ratio_upper < 0.5:
            return "ratio_upper below 1/2"
        want = self.expected(unit)
        if want is None:
            return "no stored reference"
        got = self.reference(unit, row)
        if any(_rel(a, b) > REL_TOL for a, b in zip(got, want)):
            return f"T, T*, lambda_norm_lb differ from reference: {got} vs {want}"
        return None


class EvalSmall(_EvalWorkload):
    name = "eval-small"
    why = ("runner rows at d1 D3, p=2 then p=3: tiny lattices, so per-call overhead "
           "and the embedding indicator search dominate")

    def passes(self, seed, smoke=False):
        order = _order(seed, EVAL_SMALL_POOL)
        half = 2 if smoke else EVAL_SMALL_HALF
        k = 0
        while True:
            seeds = [1 + order[(k * half + j) % EVAL_SMALL_POOL] for j in range(half)]
            yield [Unit("row", 1, 3, p, s) for p in (2.0, 3.0) for s in seeds]
            k += 1

    def pool(self):
        return [Unit("row", 1, 3, p, 1 + s) for p in (2.0, 3.0) for s in range(EVAL_SMALL_POOL)]


class EvalDeep(_EvalWorkload):
    name = "eval-deep"
    cycle = EVAL_DEEP_POOL
    why = ("one row each at d1 D10 p3, d2 D5 p3 and d1 D8 p2: testing constants "
           "dominate and the embedding search never runs")

    def passes(self, seed, smoke=False):
        order = _order(seed, EVAL_DEEP_POOL)
        shapes = EVAL_DEEP_SHAPES[-1:] if smoke else EVAL_DEEP_SHAPES
        k = 0
        while True:
            s = 1 + order[k % EVAL_DEEP_POOL]
            yield [Unit("row", d, depth, p, s) for d, depth, p in shapes]
            k += 1

    def pool(self):
        return [
            Unit("row", d, depth, p, 1 + s)
            for d, depth, p in EVAL_DEEP_SHAPES
            for s in range(EVAL_DEEP_POOL)
        ]


# -- stopping-deep: both stopping families as JSON --------------------------


class StoppingDeep(Workload):
    name = "stopping-deep"
    why = ("average and ratio families with family_to_dict JSON at d2 D6, d3 D4, "
           "d1 D12 and the deep-chain instance: stopping dominates")

    def shapes(self):
        return sorted(set(STOPPING_SHAPES) | {DEEP_CHAIN_SHAPE})

    def passes(self, seed, smoke=False):
        order = _order(seed, STOPPING_POOL)
        k = 0
        while True:
            s = 1 + order[k % STOPPING_POOL]
            shapes = STOPPING_SHAPES[1:2] if smoke else STOPPING_SHAPES
            units = [Unit("families", d, depth, STOPPING_P, s) for d, depth in shapes]
            if not smoke:
                units.append(Unit("deep-chain", *DEEP_CHAIN_SHAPE, STOPPING_P, 0))
            yield units
            k += 1

    def pool(self):
        units = [
            Unit("families", d, depth, STOPPING_P, 1 + s)
            for d, depth in STOPPING_SHAPES
            for s in range(STOPPING_POOL)
        ]
        return units + [Unit("deep-chain", *DEEP_CHAIN_SHAPE, STOPPING_P, 0)]

    def run(self, unit):
        if unit.kind == "deep-chain":
            inst = generators.adversarial_family(
                "deep-chain", dimension=unit.dimension, depth=unit.depth, p=unit.p
            )[0]
            f, g = generators.deep_chain_profiles(inst.sys)
        else:
            inst = generators.generate(
                generators.GenSpec(seed=unit.seed, dimension=unit.dimension, depth=unit.depth, p=unit.p)
            )
            f = generators.random_scale_function(inst.sys, unit.seed, base=inst.mu)
            g = generators.random_atom_function(inst.sys, unit.seed)
        root = inst.sys.root
        average = stopping.build_average_family(inst, root, g)
        ratio = stopping.build_ratio_family(inst, root, f)
        payload = {
            "average_family": io.family_to_dict(inst.sys, average),
            "ratio_family": io.family_to_dict(inst.sys, ratio),
        }
        return average, ratio, json.dumps(payload, indent=1) + "\n"

    def finish(self, outputs):
        return sum(len(text.encode()) for _, _, text in outputs)

    def ref_path(self, unit):
        return (unit.kind, unit.key, str(unit.seed))

    def reference(self, unit, output):
        average, ratio, _ = output
        return {"average": _members_digest(average), "ratio": _members_digest(ratio)}

    def check(self, unit, output):
        want = self.expected(unit)
        got = self.reference(unit, output)
        if got != want:
            return f"family members differ from reference: {got} vs {want}"
        return None


# -- verify: the property suite through the CLI -----------------------------


class Verify(Workload):
    name = "verify"
    why = ("dyadlab verify with 50 instances at d1 D3 p2 a pass: the same layers "
           "certify instead of measure, and stdout must stay byte-identical")

    def shapes(self):
        return [(1, 3)]

    def passes(self, seed, smoke=False):
        order = _order(seed, len(VERIFY_POOL))
        n = SMOKE_VERIFY_INSTANCES if smoke else VERIFY_INSTANCES
        k = 0
        while True:
            yield [Unit("verify", 1, 3, 2.0, VERIFY_POOL[order[k % len(VERIFY_POOL)]], n)]
            k += 1

    def pool(self):
        return [Unit("verify", 1, 3, 2.0, s, n)
                for s in VERIFY_POOL for n in (VERIFY_INSTANCES, SMOKE_VERIFY_INSTANCES)]

    def run(self, unit):
        argv = [
            "verify", "--seed", str(unit.seed), "--instances", str(unit.weight),
            "--p", f"{unit.p:g}", "--dim", str(unit.dimension), "--depth", str(unit.depth),
        ]
        buf = _stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def finish(self, outputs):
        return sum(len(text.encode()) for _, text in outputs)

    def reference(self, unit, output):
        return output[1]

    def ref_path(self, unit):
        return (f"{unit.seed}/{unit.weight}",)

    def check(self, unit, output):
        code, text = output
        if code != 0:
            return f"verify exited with {code}"
        if "SUMMARY 21/21 properties passed" not in text.splitlines():
            return "SUMMARY line is not 21/21"
        if text != self.expected(unit):
            return "stdout differs from the stored reference"
        return None


WORKLOADS = {w.name: w for w in (EvalSmall(), EvalDeep(), Verify(), StoppingDeep())}

