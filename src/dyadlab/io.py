"""Instance file schema, experiment rows and report aggregation.

Reals are serialized as C99 hex-float strings so write-then-read is
bit-identical; the reader also accepts plain JSON numbers for hand-written
files.  Unknown fields are rejected with a field-path diagnostic.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import lattice
from .errors import GuardError, PathError, SchemaError
from .forms import Instance
from .lattice import build_system
from .stopping import StoppingFamily, stopping_parents

SCHEMA_VERSION = "dyadlab-instance/1"

_FIELDS = ("version", "p", "dimension", "depth", "sigma", "omega", "mu", "lambda")


def _parse_real(value, path: str) -> float:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a real number")
    if isinstance(value, (int, float)):
        x = float(value)
    elif isinstance(value, str):
        try:
            x = float.fromhex(value)
        except ValueError:
            raise SchemaError(path, f"not a hex-float literal: {value!r}")
    else:
        raise SchemaError(path, f"expected a real number, got {type(value).__name__}")
    if math.isnan(x) or math.isinf(x):
        raise SchemaError(path, "value must be finite")
    if x < 0:
        raise SchemaError(path, "value must be nonnegative")
    return x


def _parse_reals(value, n: int, path: str) -> list[float]:
    """A list of exactly ``n`` reals; element i is named ``path[i]``."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected an array of {n} reals")
    return [_parse_real(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, "expected an integer")
    return value


def instance_to_dict(inst: Instance) -> dict:
    sys, lam = inst.sys, inst.lam.tolist()
    # each value as the hex of the Python float ``tolist`` gives, the same double
    return {
        "version": SCHEMA_VERSION,
        "p": float(inst.p).hex(),
        "dimension": sys.dimension,
        "depth": sys.depth,
        "sigma": list(map(float.hex, inst.sigma.tolist())),
        "omega": list(map(float.hex, inst.omega.tolist())),
        "mu": [list(map(float.hex, row)) for row in inst.mu.tolist()],
        "lambda": {sys.path[c]: lam[c].hex() for c in np.flatnonzero(inst.lam).tolist()},
    }


def instance_from_dict(data) -> Instance:
    if not isinstance(data, dict):
        raise SchemaError("$", "instance file must be a JSON object")
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown field")
    for name in _FIELDS:
        if name not in data:
            raise SchemaError(name, "missing field")
    if data["version"] != SCHEMA_VERSION:
        raise SchemaError("version", f"expected {SCHEMA_VERSION!r}, got {data['version']!r}")
    dimension = _parse_int(data["dimension"], "dimension")
    depth = _parse_int(data["depth"], "depth")
    sys = build_system(dimension, depth)

    p = _parse_real(data["p"], "p")
    if not p > 1.0:
        raise SchemaError("p", f"exponent must exceed 1, got {p}")

    sigma = np.array(_parse_reals(data["sigma"], sys.num_atoms, "sigma"))
    omega = np.array(_parse_reals(data["omega"], sys.num_atoms, "omega"))
    mu_rows = data["mu"]
    if not isinstance(mu_rows, list) or len(mu_rows) != sys.num_levels:
        raise SchemaError("mu", f"expected {sys.num_levels} level rows")
    mu = np.array([_parse_reals(row, sys.num_atoms, f"mu[{j}]") for j, row in enumerate(mu_rows)])

    lam_map = data["lambda"]
    if not isinstance(lam_map, dict):
        raise SchemaError("lambda", "expected a path-to-real mapping")
    lam = np.zeros(sys.num_cubes, dtype=np.float64)
    for path, value in lam_map.items():
        where = f"lambda[{path!r}]"
        try:
            cube = lattice.cube_from_path(sys, path)
        except PathError as exc:
            raise SchemaError(where, str(exc))
        lam[cube] = _parse_real(value, where)
    return Instance(sys, p, sigma, omega, mu, lam)


def canonical_bytes(inst: Instance) -> bytes:
    return json.dumps(instance_to_dict(inst), sort_keys=True, separators=(",", ":")).encode()


def digest(inst: Instance) -> str:
    return hashlib.sha256(canonical_bytes(inst)).hexdigest()


def json_text(payload) -> str:
    """``payload`` as indented JSON and a newline; a non-finite value is a
    guard violation, since JSON has no ``Infinity`` or ``NaN``."""
    try:
        return json.dumps(payload, indent=1, allow_nan=False) + "\n"
    except ValueError as exc:
        raise GuardError(f"non-finite value in the JSON output: {exc}")


def write_instance(inst: Instance, fp) -> None:
    fp.write(json_text(instance_to_dict(inst)))


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are all distinct: each field and cube is
    named once."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError("$", f"duplicate key {key!r}")
        out[key] = value
    return out


def read_instance(fp) -> Instance:
    try:
        data = json.load(fp, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}")
    return instance_from_dict(data)


# -- experiment rows ---------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    instance_id: str
    seed: int
    p: float
    dimension: int
    depth: int
    T: float
    Tstar: float
    lambda_norm_lb: float
    oracle_value: Optional[float]
    oracle_kind: Optional[str]
    ratio_upper: Optional[float]
    ratio_lower: Optional[float]
    prop2_ratio: Optional[float]
    carleson_Cemp_over_Cprime: Optional[float]
    g_family_carleson: float
    f_family_sparse_max: float
    iterations: int
    restarts: int
    wall_time_ms: int


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(records: list[dict], columns, fp, fmt: str) -> None:
    """``records`` as a JSON list, or as CSV with one column per name."""
    if fmt == "json":
        fp.write(json_text(records))
        return
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([_cell(record.get(name)) for name in columns])


def write_rows(rows, fp, fmt: str = "csv") -> None:
    rows = sorted(rows, key=lambda r: r.instance_id)
    records = [{name: getattr(r, name) for name in REPORT_COLUMNS} for r in rows]
    _write_table(records, REPORT_COLUMNS, fp, fmt)


def read_rows(fp) -> list[ReportRow]:
    """Rows of a CSV as :func:`write_rows` writes it.  An empty cell is None
    in an optional column; a cell that does not parse, an empty one in a
    required numeric column, a NaN float or a p outside (1, inf) is a schema
    error naming its line and column."""
    reader = csv.DictReader(fp)
    out = []
    for record in reader:
        kwargs = {}
        for f in fields(ReportRow):
            raw = record.get(f.name) or ""  # a short row gives None
            parse = int if f.type == "int" else float if "float" in f.type else str
            try:
                value = kwargs[f.name] = None if raw == "" and "Optional" in f.type else parse(raw)
                # inf stays: an overflowed oracle or Carleson constant writes it
                if value != value or f.name == "p" and not 1.0 < value < math.inf:
                    raise ValueError
            except ValueError:
                where = f"line {reader.line_num} column {f.name}"
                want = "float in (1, inf)" if f.name == "p" else "float, not NaN" if parse is float else parse.__name__
                raise SchemaError(where, f"expected {want}, got {raw!r}") from None
        out.append(ReportRow(**kwargs))
    return out


def summarize_rows(rows) -> list[dict]:
    """Quantiles of ratio_upper and prop2_ratio per (p, depth) group."""
    groups: dict[tuple[float, int], list[ReportRow]] = {}
    for r in rows:
        groups.setdefault((r.p, r.depth), []).append(r)
    out = []
    for (p, depth), members in sorted(groups.items()):
        entry = {"p": p, "depth": depth, "rows": len(members)}
        for field_name in ("ratio_upper", "prop2_ratio"):
            values = [getattr(m, field_name) for m in members]
            values = [v for v in values if v is not None and not math.isnan(v)]
            if not values:
                continue
            arr = np.array(values)
            for label, frac in (("min", 0.0), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("max", 1.0)):
                entry[f"{field_name}_{label}"] = float(np.quantile(arr, frac))
        out.append(entry)
    return out


def write_summary(summary: list[dict], fp, fmt: str) -> None:
    """The summary of :func:`summarize_rows`; in CSV, its keys in the order
    they first appear, a group without one of them leaving the cell empty."""
    _write_table(summary, list(dict.fromkeys(key for entry in summary for key in entry)), fp, fmt)


def family_to_dict(sys, family: StoppingFamily) -> dict:
    ids, name = list(family.members), sys.path
    parents = [None] + [name[up] for up in stopping_parents(sys, family).tolist()]
    masses = [None] * len(ids) if family.phi_mass is None else family.phi_mass[ids].tolist()
    members = []
    for m, stat, parent, mass in zip(ids, family.stats[ids].tolist(), parents, masses):
        entry = {"path": name[m], "stat": stat}
        if parent is not None:
            entry["parent"] = parent
        if mass is not None:
            entry["test_input_mass"] = mass
        members.append(entry)
    # in breadth-first order these are the members' children lists, one after another
    edges = [[parent, name[m]] for parent, m in zip(parents[1:], ids[1:])]
    return {
        "kind": family.kind,
        "top": name[family.top],
        "params": dict(family.params),
        "members": members,
        "edges": edges,
    }
