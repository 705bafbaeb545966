"""Command-line entry points.

Exit codes: 0 success, 2 schema violation (with a field-path diagnostic),
3 numeric/size guard violation (including an exact sum that overflows
binary64 and a non-finite value in a JSON payload), 4 property failure from
``verify``.
"""

from __future__ import annotations

import argparse
import io as _io
import json
import sys as _sys

import numpy as np

from . import generators, io, runner, verify
from .embedding import (
    CarlesonData,
    carleson_condition_constant,
    disjointness_inequality,
    embedding_ratio_search,
    stopping_embedding_report,
)
from .errors import GuardError, SchemaError
from .lattice import paths
from .normest import alternating_maximization, attach_oracle
from .stopping import build_average_family, build_ratio_family
from .testing_constants import testing_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_GUARD = 3
EXIT_PROPERTY = 4


def _exponent(text: str) -> float:  # --p lies in (1, inf), as in the instance schema
    if not 1.0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"exponent must lie in (1, inf), got {text}")
    return float(text)


def _count(text: str) -> int:  # --instances and --restarts count from 0
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


_OPTIONS = {
    "--seed": dict(type=int, default=1),
    "--p": dict(type=_exponent, default=2.0),
    "--dim": dict(type=int, default=1),
    "--depth": dict(type=int, default=3),
    "--instances": dict(type=_count, default=1),
    "--restarts": dict(type=_count, default=4),
    "--tol": dict(type=float, default=1e-10),
    "--in": dict(dest="infile", type=str, default=None),
    "--out": dict(type=str, default=None),
    "--format": dict(choices=("json", "csv"), default="json"),
}
# the options ``_load_or_generate`` reads
_INSTANCE = ("--in", "--seed", "--p", "--dim", "--depth")


def _emit(args, text: str):
    """``text`` to ``--out`` or stdout; an unwritable ``--out`` is a schema error."""
    if not args.out:
        _sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fp:
            fp.write(text)
    except OSError as exc:
        raise SchemaError("$", f"cannot write {args.out}: {exc.strerror or exc}")


def _emit_json(args, payload):
    """``payload`` as indented JSON; a non-finite value is a guard violation,
    since JSON has no ``Infinity`` or ``NaN``."""
    try:
        text = json.dumps(payload, indent=1, allow_nan=False)
    except ValueError as exc:
        raise GuardError(f"non-finite value in the JSON output: {exc}")
    _emit(args, text + "\n")


def _open_input(args):
    """The ``--in`` file opened for reading; an unreadable one is a schema error."""
    try:
        return open(args.infile)
    except OSError as exc:
        raise SchemaError("$", f"cannot read {args.infile}: {exc.strerror or exc}")


def _load_or_generate(args):
    if args.infile:
        with _open_input(args) as fp:
            return io.read_instance(fp)
    return generators.generate(
        generators.GenSpec(seed=args.seed, dimension=args.dim, depth=args.depth, p=args.p)
    )


def _cmd_gen(args) -> int:
    inst = generators.generate(
        generators.GenSpec(seed=args.seed, dimension=args.dim, depth=args.depth, p=args.p)
    )
    buf = _io.StringIO()
    io.write_instance(inst, buf)
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.infile:
        inst = _load_or_generate(args)
        instance_id = runner.row_id(args.seed, inst.p, inst.sys.depth, 0)
        rows = [runner.evaluate_instance(inst, instance_id, args.seed, args.restarts, args.tol)]
    else:
        rows = runner.sweep_rows(
            args.seed, args.instances, args.p, args.dim, args.depth,
            restarts=args.restarts, tol=args.tol,
        )
    buf = _io.StringIO()
    io.write_rows(rows, buf, args.format)
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_testing(args) -> int:
    inst = _load_or_generate(args)
    rep = testing_report(inst)
    argmax = [c for c in (rep.forward_cube, rep.dual_cube) if c is not None]
    named = paths(inst.sys, argmax)
    payload = {
        "T": rep.forward,
        "Tstar": rep.dual,
        "argmax_T": named.get(rep.forward_cube),
        "argmax_Tstar": named.get(rep.dual_cube),
        "witness_g": rep.witness_g.tolist(),
        "witness_f": rep.witness_f.tolist(),
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_normest(args) -> int:
    inst = _load_or_generate(args)
    est = alternating_maximization(
        inst, restarts=args.restarts, tol=args.tol, seed=args.seed
    )
    est = attach_oracle(inst, est)
    payload = {
        "value": est.value,
        "iterations": est.iterations,
        "restarts": est.restarts,
        "converged": est.converged,
        "degenerate": est.degenerate,
        "oracle_value": est.oracle_value,
        "oracle_kind": est.oracle_kind,
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_stopping(args) -> int:
    inst = _load_or_generate(args)
    sys_ = inst.sys
    f = generators.random_scale_function(sys_, args.seed, base=inst.mu)
    g = generators.random_atom_function(sys_, args.seed)
    payload = {
        "average_family": io.family_to_dict(sys_, build_average_family(inst, sys_.root, g)),
        "ratio_family": io.family_to_dict(sys_, build_ratio_family(inst, sys_.root, f)),
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_embed_check(args) -> int:
    inst = _load_or_generate(args)
    sys_ = inst.sys
    rng = generators.philox(args.seed, generators.STREAM_A)
    nu = np.exp(rng.random(sys_.num_atoms) * 2.0 - 1.0)
    a = np.exp(rng.random(sys_.num_cubes)) * (rng.random(sys_.num_cubes) >= 0.4)
    data = CarlesonData(a, nu)
    cprime = carleson_condition_constant(sys_, data)
    search = embedding_ratio_search(sys_, data, inst.p, restarts=args.restarts, seed=args.seed)
    f = generators.random_scale_function(sys_, args.seed, base=inst.mu)
    prop2 = None
    if inst.p >= 2:
        fam = build_ratio_family(inst, sys_.root, f)
        prop2 = stopping_embedding_report(inst, f, fam).ratio
    violations = 0
    for k in range(max(args.instances, 1) * 10):
        h = generators.random_scale_function(sys_, args.seed + k, stream=generators.STREAM_H)
        labels = generators.philox(args.seed + k, 77).integers(0, 3, size=h.shape)
        if not disjointness_inequality(h, inst.sigma, inst.p, [labels == i for i in range(2)]).holds:
            violations += 1
    payload = {
        "Cprime": cprime,
        "C_emp": search.value,
        "ratio": (search.value / cprime) if 0 < cprime < float("inf") else None,
        "prop2_ratio": prop2,
        "lemma1_violations": violations,
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results, ok = verify.run_suite(
        seed=args.seed,
        instances=args.instances,
        p=args.p,
        dimension=args.dim,
        depth=args.depth,
        restarts=args.restarts,
        tol=args.tol,
    )
    header = (
        f"dyadlab verify seed={args.seed} instances={args.instances} "
        f"p={args.p:g} dim={args.dim} depth={args.depth} "
        f"restarts={args.restarts} tol={args.tol:g}"
    )
    _emit(args, verify.format_report(results, header))
    return EXIT_OK if ok else EXIT_PROPERTY


def _cmd_report(args) -> int:
    if not args.infile:
        raise GuardError("report requires --in with a CSV of rows")
    with _open_input(args) as fp:
        rows = io.read_rows(fp)
    summary = io.summarize_rows(rows)
    if args.format == "csv":
        _emit(args, io.summary_to_csv(summary))
    else:
        _emit_json(args, summary)
    return EXIT_OK


# Each command with the options it reads; argparse rejects any other.
_COMMANDS = {
    "gen": (_cmd_gen, _INSTANCE[1:] + ("--out",)),
    "eval": (_cmd_eval, tuple(_OPTIONS)),
    "testing": (_cmd_testing, _INSTANCE + ("--out",)),
    "normest": (_cmd_normest, _INSTANCE + ("--restarts", "--tol", "--out")),
    "stopping": (_cmd_stopping, _INSTANCE + ("--out",)),
    "embed-check": (_cmd_embed_check, _INSTANCE + ("--instances", "--restarts", "--out")),
    "verify": (_cmd_verify, _INSTANCE[1:] + ("--instances", "--restarts", "--tol", "--out")),
    "report": (_cmd_report, ("--in", "--format", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="two-weight testing laboratory for a positive dyadic box operator",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        # no prefix matching: ``verify --in 3`` must not read as ``--instances 3``
        sub = subs.add_parser(name, allow_abbrev=False)
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=_sys.stderr)
        return EXIT_SCHEMA
    except (GuardError, OverflowError) as exc:
        print(f"guard violation: {exc}", file=_sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())
