import math

import numpy as np
import pytest

from dyadlab import Instance, build_system, worked_instances
from dyadlab.errors import GuardError
from dyadlab.forms import lambda_form
from dyadlab.generators import GenSpec, generate, random_atom_function, random_scale_function
from dyadlab.measures import conjugate, ksum, lp_norm, mixed_norm
from dyadlab.normest import (
    alternating_maximization,
    attach_oracle,
    best_f_given_g,
    best_g_given_f,
    form_kernel,
    grid_oracle,
    spectral_oracle_p2,
    testing_norm_ratios,
)
from dyadlab.testing_constants import testing_report

import _reference as ref

W = worked_instances()
ROOT2 = math.sqrt(2.0)


def test_best_f_given_g_on_w1():
    w1 = W["w1"]
    f, value = best_f_given_g(w1, np.ones(2))
    assert np.allclose(f, 0.5)
    assert value == pytest.approx(4.0, rel=1e-12)
    assert lambda_form(w1, f, np.ones(2)) == pytest.approx(4.0, rel=1e-12)
    none_f, zero = best_f_given_g(w1, np.zeros(2))
    assert none_f is None and zero == 0.0


def test_best_g_given_f_on_w1():
    w1 = W["w1"]
    f = np.full((2, 2), 0.5)  # unit mixed norm
    g, value = best_g_given_f(w1, f)
    assert value == pytest.approx(2 * ROOT2, rel=1e-12)
    assert np.allclose(g, 1 / ROOT2)
    none_g, zero = best_g_given_f(w1, np.zeros((2, 2)))
    assert none_g is None and zero == 0.0


def test_half_steps_are_exact_suprema_p2():
    # at p = 2 the optimizers are proportional to the kernels
    w1 = W["w1"]
    g = np.array([0.3, 1.7])
    f, value = best_f_given_g(w1, g)
    rng = np.random.Generator(np.random.Philox(key=[1, 70]))
    for _ in range(200):
        probe = rng.random((2, 2))
        probe /= mixed_norm(probe, w1.sigma, 2.0)
        assert lambda_form(w1, probe, g) <= value * (1 + 1e-12)


def test_alternating_on_w1():
    est = alternating_maximization(W["w1"], restarts=2)
    assert est.value == pytest.approx(2 * ROOT2, rel=1e-12)
    assert est.converged and not est.degenerate
    nf = mixed_norm(est.witness_f, W["w1"].sigma, 2.0)
    ng = lp_norm(est.witness_g, W["w1"].omega, 2.0)
    ratio = lambda_form(W["w1"], est.witness_f, est.witness_g) / (nf * ng)
    assert ratio == pytest.approx(est.value, rel=1e-12)


def test_alternating_degenerate():
    w1 = W["w1"]
    dead = Instance(w1.sys, 2.0, w1.sigma, w1.omega, w1.mu, np.zeros(3))
    est = alternating_maximization(dead, restarts=1)
    assert est.value == 0.0 and est.degenerate


def test_alternating_guards():
    with pytest.raises(GuardError):
        alternating_maximization(W["w1"], restarts=0)
    with pytest.raises(GuardError):
        alternating_maximization(W["w1"], tol=0.0)


def test_alternating_dominates_testing_constants():
    for seed, p in [(1, 2.0), (2, 2.5), (3, 3.0), (4, 4.0)]:
        inst = generate(GenSpec(seed=seed, depth=3, p=p))
        rep = testing_report(inst)
        est = alternating_maximization(inst, restarts=2, report=rep)
        assert est.value >= max(rep.forward, rep.dual) - 1e-9


def test_spectral_oracle_w1_and_rank_one():
    assert spectral_oracle_p2(W["w1"]) == pytest.approx(2 * ROOT2, rel=1e-10)
    dead = Instance(W["w1"].sys, 2.0, [1, 1], [1, 1], np.ones((2, 2)), np.zeros(3))
    assert spectral_oracle_p2(dead) == 0.0
    with pytest.raises(GuardError):
        spectral_oracle_p2(W["w2"])  # p = 4

    # single-cube coefficient: the norm is the rank-one product of the
    # weighted column and row norms
    s = build_system(1, 2)
    rng = np.random.Generator(np.random.Philox(key=[5, 71]))
    sigma, omega = rng.random(4), rng.random(4)
    mu = rng.random((3, 4))
    lam = np.zeros(7)
    lam[0] = rng.random() + 0.5
    inst = Instance(s, 2.0, sigma, omega, mu, lam)
    expect = (
        lam[0]
        * mixed_norm(mu, sigma, 2.0)
        * lp_norm(np.ones(4), omega, 2.0)
    )
    assert spectral_oracle_p2(inst) == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("n,d", [(1, 3), (1, 6), (2, 2), (3, 1)])
@pytest.mark.parametrize("seed", range(4))
def test_form_kernel_represents_the_form(n, d, seed):
    inst = generate(GenSpec(seed=seed, dimension=n, depth=d, p=2.5))
    f = random_scale_function(inst.sys, seed, base=inst.mu)
    g = random_atom_function(inst.sys, seed)
    kernel = form_kernel(inst)
    assert np.array_equal(kernel, ref.form_kernel(inst))
    terms = inst.sigma[None, :, None] * f[:, :, None] * kernel * (inst.omega * g)[None, None, :]
    assert ksum(terms) == pytest.approx(lambda_form(inst, f, g), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_spectral_matches_numpy_svd(seed):
    inst = generate(GenSpec(seed=seed + 40, depth=3, p=2.0))
    s = inst.sys
    kernel = form_kernel(inst)
    m = (
        np.sqrt(inst.sigma)[None, :, None] * kernel * np.sqrt(inst.omega)[None, None, :]
    ).reshape(s.num_levels * s.num_atoms, s.num_atoms)
    expect = float(np.linalg.svd(m, compute_uv=False)[0])
    assert spectral_oracle_p2(inst) == pytest.approx(expect, rel=1e-9)


def test_grid_oracle_examples():
    # 2-DOF single cell: exact rank-one value
    w2 = W["w2"]
    rep = testing_report(w2)
    value = grid_oracle(w2, resolution=8)
    assert value == pytest.approx(8.0, rel=1e-12)
    assert value == pytest.approx(rep.forward, rel=1e-12)

    assert grid_oracle(W["w1"], resolution=16) == pytest.approx(2 * ROOT2, rel=1e-2)
    dead = Instance(W["w1"].sys, 2.0, [1, 1], [1, 1], np.ones((2, 2)), np.zeros(3))
    assert grid_oracle(dead, resolution=4) == 0.0
    with pytest.raises(GuardError):
        grid_oracle(generate(GenSpec(seed=1, depth=3)), resolution=4)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_alternating_matches_grid_oracle(p):
    for seed in range(4):
        for depth in (0, 1):
            inst = generate(GenSpec(seed=500 + seed, dimension=1, depth=depth, p=p))
            est = alternating_maximization(inst, restarts=4, tol=1e-12)
            grid = grid_oracle(inst, resolution=24)
            if est.value == 0.0:
                assert grid <= 1e-12
                continue
            assert abs(est.value - grid) / est.value <= 0.01
            assert grid <= est.value * (1 + 1e-9)  # grid is also a lower bound


def test_ratio_sequence_monotone():
    inst = generate(GenSpec(seed=77, depth=3, p=3.0))
    rng = np.random.Generator(np.random.Philox(key=[7, 72]))
    f = rng.random((inst.sys.num_levels, inst.sys.num_atoms))
    f /= mixed_norm(f, inst.sigma, inst.p)
    prev = 0.0
    for _ in range(30):
        g, vg = best_g_given_f(inst, f)
        assert vg >= prev * (1 - 1e-12)
        f, vf = best_f_given_g(inst, g)
        assert vf >= vg * (1 - 1e-12)
        prev = vf


def test_scale_invariance():
    inst = generate(GenSpec(seed=11, depth=2, p=2.0))
    est = alternating_maximization(inst, restarts=2)
    doubled = Instance(inst.sys, inst.p, inst.sigma, inst.omega, inst.mu, 2.0 * inst.lam)
    est2 = alternating_maximization(doubled, restarts=2)
    assert est2.value == pytest.approx(2.0 * est.value, rel=1e-10)
    # scaling an argument leaves the witnessed ratio unchanged
    v = lambda_form(inst, 3.0 * est.witness_f, est.witness_g) / (
        mixed_norm(3.0 * est.witness_f, inst.sigma, inst.p)
        * lp_norm(est.witness_g, inst.omega, conjugate(inst.p))
    )
    assert v == pytest.approx(est.value, rel=1e-12)


def test_testing_norm_ratios_w1():
    ratios = testing_norm_ratios(W["w1"])
    assert ratios.upper == pytest.approx(0.5, abs=1e-9)
    assert ratios.lower == pytest.approx(1.0, abs=1e-9)


def test_testing_norm_ratios_guards():
    w1 = W["w1"]
    dead = Instance(w1.sys, 2.0, w1.sigma, w1.omega, w1.mu, np.zeros(3))
    with pytest.raises(ValueError):
        testing_norm_ratios(dead)
    with pytest.raises(GuardError):
        testing_norm_ratios(W["w3"])


def test_attach_oracle_kinds():
    est = alternating_maximization(W["w1"], restarts=1)
    est = attach_oracle(W["w1"], est)
    assert est.oracle_kind == "spectral"
    est2 = alternating_maximization(W["w2"], restarts=1)
    est2 = attach_oracle(W["w2"], est2)
    assert est2.oracle_kind == "grid"
    big = generate(GenSpec(seed=1, depth=3, p=3.0))
    est3 = attach_oracle(big, alternating_maximization(big, restarts=1))
    assert est3.oracle_kind is None
