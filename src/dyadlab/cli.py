"""Command-line entry points.

Exit codes: 0 success, 2 schema violation (with a field-path diagnostic),
3 numeric/size guard violation (including an exact sum that overflows
binary64 and a non-finite value in a JSON payload), 4 property failure from
``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
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
from .normest import alternating_maximization, attach_oracle
from .stopping import build_average_family, build_ratio_family
from .testing_constants import testing_report

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_GUARD = 3
EXIT_PROPERTY = 4


# A value that does not parse fails the range test: argparse would name the
# type function in its own message.
def _exponent(text: str) -> float:  # --p lies in (1, inf), as in the instance schema
    try:
        p = float(text)
    except ValueError:
        p = math.nan
    if not 1.0 < p < math.inf:
        raise argparse.ArgumentTypeError(f"exponent must lie in (1, inf), got {text}")
    return p


def _count(text: str) -> int:  # --instances and --restarts count from 0
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return n


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


def _open(path: str, mode: str):
    """``path`` opened for reading ("r") or writing ("w"); an ``OSError`` is a
    schema error.  The one place the package opens a file."""
    try:
        return open(path, mode)
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise SchemaError("$", f"cannot {verb} {path}: {exc.strerror or exc}")


def _out_is_in(args) -> bool:
    """Whether ``--out`` names the ``--in`` file, which opening ``--out`` would
    empty before the command reads it; a file not made yet is named by its path."""
    if not (args.infile and args.out):
        return False
    if not os.path.exists(args.out):
        return os.path.abspath(args.out) == os.path.abspath(args.infile)
    return os.path.isfile(args.infile) and os.path.samefile(args.infile, args.out)


def _load_or_generate(args):
    if args.infile:
        with _open(args.infile, "r") as fp:
            return io.read_instance(fp)
    return generators.generate(
        generators.GenSpec(seed=args.seed, dimension=args.dim, depth=args.depth, p=args.p)
    )


def _cmd_gen(args, out) -> int:
    io.write_instance(_load_or_generate(args), out)
    return EXIT_OK


def _cmd_eval(args, out) -> int:
    # --in is instance 0 of its sweep: row k has seed ``--seed`` + k
    if args.infile:
        instances = [_load_or_generate(args)]
    else:
        instances = generators.sweep(args.seed, args.instances, args.dim, args.depth, args.p)
    rows = [
        runner.evaluate_instance(
            inst, runner.row_id(args.seed, inst.p, inst.sys.depth, k), args.seed + k,
            args.restarts, args.tol,
        )
        for k, inst in enumerate(instances)
    ]
    io.write_rows(rows, out, args.format)
    return EXIT_OK


def _cmd_testing(args, out) -> int:
    inst = _load_or_generate(args)
    rep = testing_report(inst)
    named = [None if c is None else inst.sys.path[c] for c in (rep.forward_cube, rep.dual_cube)]
    payload = {
        "T": rep.forward,
        "Tstar": rep.dual,
        "argmax_T": named[0],
        "argmax_Tstar": named[1],
        "witness_g": rep.witness_g.tolist(),
        "witness_f": rep.witness_f.tolist(),
    }
    out.write(io.json_text(payload))
    return EXIT_OK


def _cmd_normest(args, out) -> int:
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
    out.write(io.json_text(payload))
    return EXIT_OK


def _cmd_stopping(args, out) -> int:
    inst = _load_or_generate(args)
    sys_ = inst.sys
    f = generators.random_scale_function(sys_, args.seed, base=inst.mu)
    g = generators.random_atom_function(sys_, args.seed)
    payload = {
        "average_family": io.family_to_dict(sys_, build_average_family(inst, sys_.root, g)),
        "ratio_family": io.family_to_dict(sys_, build_ratio_family(inst, sys_.root, f)),
    }
    out.write(io.json_text(payload))
    return EXIT_OK


def _cmd_embed_check(args, out) -> int:
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
    out.write(io.json_text(payload))
    return EXIT_OK


def _cmd_verify(args, out) -> int:
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
    out.write(verify.format_report(results, header))
    return EXIT_OK if ok else EXIT_PROPERTY


def _cmd_report(args, out) -> int:
    with _open(args.infile, "r") as fp:
        summary = io.summarize_rows(io.read_rows(fp))
    io.write_summary(summary, out, args.format)
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
    parser.set_defaults(infile=None)  # ``gen`` has no --in: it always generates
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        # no prefix matching: ``verify --in 3`` must not read as ``--instances 3``
        sub = subs.add_parser(name, allow_abbrev=False)
        for option in options:
            # report summarizes rows, which only --in supplies
            required = (name, option) == ("report", "--in")
            sub.add_argument(option, **_OPTIONS[option], required=required)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if _out_is_in(args):
            raise SchemaError("$", f"cannot write {args.out}: it is the --in file")
        # --out is opened before the command runs, so a failed run leaves it
        # empty; stdout is read now, since a caller may have redirected it
        with _open(args.out, "w") if args.out else contextlib.nullcontext(_sys.stdout) as out:
            return _COMMANDS[args.command][0](args, out)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=_sys.stderr)
        return EXIT_SCHEMA
    except (GuardError, OverflowError) as exc:
        print(f"guard violation: {exc}", file=_sys.stderr)
        return EXIT_GUARD
    except OSError as exc:  # a write or the closing flush of --out failed
        if not args.out:  # ``_open`` names any other file it cannot open
            raise
        print(f"schema error: $: cannot write {args.out}: {exc.strerror or exc}", file=_sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    raise SystemExit(main())
