"""Seeded instance generators, worked fixtures and the deep-chain stress instance.

All randomness runs through counter-based Philox streams keyed by
(seed, stream id), so generation is bitwise reproducible and independent of
call order.  Log-uniform laws with a fixed sparsity produce genuine zeros to
exercise every zero convention downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import Instance, lambda_array, test_function
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


# The laws of generated instances: log-uniform values on a range, each set to
# zero with the sparsity probability.
WEIGHT_RANGE, WEIGHT_SPARSITY = (0.25, 4.0), 0.1
MU_RANGE, MU_SPARSITY = (0.25, 4.0), 0.1
LAMBDA_RANGE, LAMBDA_SPARSITY = (0.25, 4.0), 0.3


@dataclass(frozen=True)
class GenSpec:
    seed: int
    dimension: int = 1
    depth: int = 3
    p: float = 2.0


def generate(spec: GenSpec) -> Instance:
    sys = build_system(spec.dimension, spec.depth)
    sigma = _sparse_field(philox(spec.seed, _SIGMA), *WEIGHT_RANGE, WEIGHT_SPARSITY, sys.num_atoms)
    omega = _sparse_field(philox(spec.seed, _OMEGA), *WEIGHT_RANGE, WEIGHT_SPARSITY, sys.num_atoms)
    mu = _sparse_field(
        philox(spec.seed, _MU), *MU_RANGE, MU_SPARSITY, (sys.num_levels, sys.num_atoms)
    )
    lam = _sparse_field(philox(spec.seed, _LAMBDA), *LAMBDA_RANGE, LAMBDA_SPARSITY, sys.num_cubes)
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
    sys = inst.sys
    if seed % 2 == 0:
        base = test_function(inst, sys.root)
        return base * _log_uniform(philox(seed, STREAM_F), 0.5, 2.0, base.shape)
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
    """(instance, f, parts): a two-cell split of one weighted atom, as cell
    masks, whose summed part-norms exceed the whole below exponent 2."""
    inst = worked_instances()["w3"]
    f = np.ones((2, 2))
    labels = np.array([[0, 2], [1, 2]])  # the first atom's cell on each level
    return inst, f, [labels == 0, labels == 1]


def adversarial_family(kind: str, dimension: int = 1, depth: int = 3, p: float = 2.0) -> list[Instance]:
    """The deep-chain stress instance, alone in a list: unit weights, the root
    coefficient one, and a scale density falling by 16 a level."""
    if kind != "deep-chain":
        raise ValueError(f"unknown adversarial kind {kind!r}")
    sys = build_system(dimension, depth)
    levels = np.arange(sys.num_levels, dtype=np.float64)
    mu = np.repeat(((1.0 / 16.0) ** levels)[:, None], sys.num_atoms, axis=1)
    lam = lambda_array(sys, {"": 1.0})
    return [Instance(sys, p, np.ones(sys.num_atoms), np.ones(sys.num_atoms), mu, lam)]


def deep_chain_profiles(sys: DyadicSystem) -> tuple[np.ndarray, np.ndarray]:
    """Companion (f, g) for deep-chain instances: constant scale input and an
    atom spike, both of which force several stopping generations at depth 5."""
    f = np.ones((sys.num_levels, sys.num_atoms))
    g = np.ones(sys.num_atoms)
    g[0] += 4.0**sys.depth
    return f, g
