"""Seeded instance generators, worked fixtures and adversarial families.

All randomness runs through counter-based Philox streams keyed by
(seed, stream id), so generation is bitwise reproducible and independent of
call order.  Log-uniform laws with a sparsity knob produce genuine zeros to
exercise every zero convention downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .forms import Instance, lambda_array
from .lattice import DyadicSystem, build_system

# stream ids: instance components, then auxiliary draws
_SIGMA, _OMEGA, _MU, _LAMBDA = 0, 1, 2, 3
STREAM_F, STREAM_G, STREAM_A, STREAM_H = 10, 11, 12, 13


def philox(seed: int, stream: int) -> np.random.Generator:
    """Philox stream keyed (seed mod 2**64, stream), the one key builder for
    every seeded draw in the package.  The key is built as uint64 so seeds at
    or above 2**63, negative ones included, stay distinct."""
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _log_uniform(rng, lo: float, hi: float, shape) -> np.ndarray:
    u = rng.random(shape)
    return np.exp(u * (math.log(hi) - math.log(lo)) + math.log(lo))


def _sparse_field(rng, lo: float, hi: float, sparsity: float, shape) -> np.ndarray:
    values = _log_uniform(rng, lo, hi, shape)
    keep = rng.random(shape) >= sparsity
    return values * keep


@dataclass(frozen=True)
class GenSpec:
    seed: int
    dimension: int = 1
    depth: int = 3
    p: float = 2.0
    weight_range: tuple[float, float] = (0.25, 4.0)
    weight_sparsity: float = 0.1
    mu_range: tuple[float, float] = (0.25, 4.0)
    mu_sparsity: float = 0.1
    lambda_range: tuple[float, float] = (0.25, 4.0)
    lambda_sparsity: float = 0.3

    def __post_init__(self):
        for name in ("weight_range", "mu_range", "lambda_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must be positive and ordered, got {(lo, hi)}")
        for name in ("weight_sparsity", "mu_sparsity", "lambda_sparsity"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def generate(spec: GenSpec) -> Instance:
    sys = build_system(spec.dimension, spec.depth)
    lo, hi = spec.weight_range
    sigma = _sparse_field(philox(spec.seed, _SIGMA), lo, hi, spec.weight_sparsity, sys.num_atoms)
    omega = _sparse_field(philox(spec.seed, _OMEGA), lo, hi, spec.weight_sparsity, sys.num_atoms)
    mlo, mhi = spec.mu_range
    mu = _sparse_field(
        philox(spec.seed, _MU), mlo, mhi, spec.mu_sparsity, (sys.num_levels, sys.num_atoms)
    )
    llo, lhi = spec.lambda_range
    lam = _sparse_field(
        philox(spec.seed, _LAMBDA), llo, lhi, spec.lambda_sparsity, sys.num_cubes
    )
    return Instance(sys, spec.p, sigma, omega, mu, lam)


def random_scale_function(
    sys: DyadicSystem,
    seed: int,
    stream: int = STREAM_F,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Random nonnegative scale function; optionally modulates ``base``."""
    rng = philox(seed, stream)
    field = _sparse_field(rng, 0.25, 4.0, 0.1, (sys.num_levels, sys.num_atoms))
    return field if base is None else np.asarray(base) * field


def random_atom_function(
    sys: DyadicSystem,
    seed: int,
    stream: int = STREAM_G,
) -> np.ndarray:
    rng = philox(seed, stream)
    return _sparse_field(rng, 0.25, 4.0, 0.1, sys.num_atoms)


def embedding_probe_function(inst, seed: int) -> np.ndarray:
    """Scale-function law for embedding sweeps: alternates between mild
    modulations of the root test input (the near-extremal direction, whose
    embedding ratio stays near one at every depth) and broad modulations of
    the instance density."""
    from .forms import test_function  # deferred: forms imports this module's peers

    sys = inst.sys
    if seed % 2 == 0:
        base = test_function(inst, sys.root)
        rng = philox(seed, STREAM_F)
        return base * np.exp(
            rng.random(base.shape) * (math.log(2.0) - math.log(0.5)) + math.log(0.5)
        )
    return random_scale_function(sys, seed, base=inst.mu)


def worked_instances() -> dict[str, Instance]:
    """The three hand-checked fixtures used across the suite.

    w1: depth-1 line, unit weights and density, root coefficient one, p = 2.
    w2: single cell, density 8, p = 4.
    w3: depth-1 line with the second atom weightless, p = 1.5; companion
        fixture for the disjoint-set inequality (see lemma_violation_fixture).
    """
    s1 = build_system(1, 1)
    w1 = Instance(
        s1, 2.0, [1.0, 1.0], [1.0, 1.0], np.ones((2, 2)), lambda_array(s1, {"": 1.0})
    )
    s2 = build_system(1, 0)
    w2 = Instance(s2, 4.0, [1.0], [1.0], [[8.0]], lambda_array(s2, {"": 1.0}))
    s3 = build_system(1, 1)
    w3 = Instance(
        s3, 1.5, [1.0, 0.0], [1.0, 1.0], np.ones((2, 2)), lambda_array(s3, {"": 1.0})
    )
    return {"w1": w1, "w2": w2, "w3": w3}


def lemma_violation_fixture():
    """(instance, f, parts): a two-cell split of one weighted atom whose
    summed part-norms exceed the whole below exponent 2."""
    inst = worked_instances()["w3"]
    f = np.ones((2, 2))
    parts = [{(0, 0)}, {(0, 1)}]  # (atom, level) cells of the first atom
    return inst, f, parts


ADVERSARIAL_KINDS = ("point-mass-sigma", "single-scale-mu", "lacunary-lambda", "deep-chain")


def adversarial_family(
    kind: str,
    seed: int = 0,
    dimension: int = 1,
    depth: int = 3,
    p: float = 2.0,
    count: int = 4,
    **params,
) -> list[Instance]:
    """Structured stress families exercising degenerate support patterns."""
    if kind not in ADVERSARIAL_KINDS:
        raise ValueError(f"unknown adversarial kind {kind!r}")
    sys = build_system(dimension, depth)
    out = []
    if kind == "point-mass-sigma":
        for k in range(count):
            base = generate(GenSpec(seed=seed + k, dimension=dimension, depth=depth, p=p))
            sigma = np.zeros(sys.num_atoms)
            sigma[k % sys.num_atoms] = 1.0
            out.append(Instance(sys, p, sigma, base.omega, base.mu, base.lam))
    elif kind == "single-scale-mu":
        for k in range(count):
            base = generate(GenSpec(seed=seed + k, dimension=dimension, depth=depth, p=p))
            level = k % sys.num_levels
            mu = np.zeros((sys.num_levels, sys.num_atoms))
            mu[level] = _log_uniform(philox(seed + k, _MU), 0.25, 4.0, sys.num_atoms)
            out.append(Instance(sys, p, base.sigma, base.omega, mu, base.lam))
    elif kind == "lacunary-lambda":
        theta = params.get("theta", 1.0)
        for k in range(count):
            base = generate(GenSpec(seed=seed + k, dimension=dimension, depth=depth, p=p))
            lam = np.zeros(sys.num_cubes)
            cube = sys.root
            while True:
                lam[sys.linear(cube)] = 2.0 ** (-cube.level * (theta + 0.5 * k))
                ch = lattice.children(sys, cube)
                if not ch:
                    break
                cube = ch[0]
            out.append(Instance(sys, p, base.sigma, base.omega, base.mu, lam))
    else:  # deep-chain
        decay = params.get("decay", 1.0 / 16.0)
        levels = np.arange(sys.num_levels, dtype=np.float64)
        mu = np.repeat((decay**levels)[:, None], sys.num_atoms, axis=1)
        lam = lambda_array(sys, {"": 1.0})
        out.append(
            Instance(sys, p, np.ones(sys.num_atoms), np.ones(sys.num_atoms), mu, lam)
        )
    return out


def deep_chain_profiles(sys: DyadicSystem) -> tuple[np.ndarray, np.ndarray]:
    """Companion (f, g) for deep-chain instances: constant scale input and an
    atom spike, both of which force several stopping generations at depth 5."""
    f = np.ones((sys.num_levels, sys.num_atoms))
    g = np.ones(sys.num_atoms)
    g[0] += 4.0**sys.depth
    return f, g
