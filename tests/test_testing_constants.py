import math

import numpy as np
import pytest

import _reference as ref
from dyadlab import Instance, build_system, generators, lambda_array, lattice, worked_instances
from dyadlab.forms import level_test_input, lambda_form_local, test_function as make_test_input
from dyadlab.measures import conjugate, ell2_slice, lp_norm, mixed_norm, zero_preserving_power
from dyadlab.testing_constants import dual_testing_constant, forward_testing_constant, testing_report

W = worked_instances()
ROOT2 = math.sqrt(2.0)


def _w1_variant(lam_map):
    w1 = W["w1"]
    return Instance(w1.sys, 2.0, w1.sigma, w1.omega, w1.mu, lambda_array(w1.sys, lam_map))


def test_forward_constant_on_w1():
    side = forward_testing_constant(W["w1"])
    assert side.value == pytest.approx(2 * ROOT2, rel=1e-12)
    assert side.cube == W["w1"].sys.root
    assert side.witness == pytest.approx(np.full(2, 1 / ROOT2), rel=1e-12)


def test_forward_zero_lambda():
    assert forward_testing_constant(_w1_variant({})).value == 0.0


def test_forward_argmax_at_left_child():
    inst = _w1_variant({"0": 1.0})
    side = forward_testing_constant(inst)
    assert side.value == pytest.approx(1.0, rel=1e-12)
    assert side.cube == lattice.cube_from_path(inst.sys, "0") == 1


def test_dual_constant_on_w1():
    w1 = W["w1"]
    kernel = ref.dual_kernel(w1, w1.sys.root)
    assert np.array_equal(kernel, np.full((2, 2), 2.0))
    side = dual_testing_constant(w1)
    assert side.value == pytest.approx(2 * ROOT2, rel=1e-12)
    assert side.cube == w1.sys.root


def test_dual_zero_cases():
    w1 = W["w1"]
    no_omega = Instance(w1.sys, 2.0, w1.sigma, np.zeros(2), w1.mu, w1.lam)
    assert dual_testing_constant(no_omega).value == 0.0
    assert dual_testing_constant(_w1_variant({})).value == 0.0


def test_w2_constants():
    rep = testing_report(W["w2"])
    assert rep.forward == pytest.approx(8.0, rel=1e-12)
    assert rep.dual == pytest.approx(8.0, rel=1e-12)


def _random_instance(seed, p, d=3):
    s = build_system(1, d)
    rng = np.random.Generator(np.random.Philox(key=[seed, 50]))
    return Instance(
        s,
        p,
        rng.random(s.num_atoms) * (rng.random(s.num_atoms) > 0.15),
        rng.random(s.num_atoms) * (rng.random(s.num_atoms) > 0.15),
        rng.random((s.num_levels, s.num_atoms)) * (rng.random((s.num_levels, s.num_atoms)) > 0.15),
        rng.random(s.num_cubes) * (rng.random(s.num_cubes) > 0.3),
    )


@pytest.mark.parametrize("seed,p", [(0, 2.0), (1, 2.5), (2, 3.0), (3, 4.0), (4, 2.0)])
def test_witnesses_attain_the_constants(seed, p):
    inst = _random_instance(seed, p)
    rep = testing_report(inst)
    q = conjugate(p)
    if rep.forward > 0:
        cube = rep.forward_cube
        phi = make_test_input(inst, cube)
        lhs = lambda_form_local(inst, cube, phi, rep.witness_g)
        rhs = rep.forward * mixed_norm(phi, inst.sigma, p) * lp_norm(rep.witness_g, inst.omega, q)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert lp_norm(rep.witness_g, inst.omega, q) == pytest.approx(1.0, rel=1e-12)
    if rep.dual > 0:
        cube = rep.dual_cube
        ind = inst.sys.atom_mask(cube).astype(float)
        lhs = lambda_form_local(inst, cube, rep.witness_f, ind)
        rhs = rep.dual * mixed_norm(rep.witness_f, inst.sigma, p) * lp_norm(ind, inst.omega, q)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert mixed_norm(rep.witness_f, inst.sigma, p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("seed,p", [(5, 2.0), (6, 3.0), (7, 4.0)])
def test_constants_dominate_probe_ratios(seed, p):
    # the constants are suprema: no probe input may beat them on any cube
    inst = _random_instance(seed, p)
    rep = testing_report(inst)
    q = conjugate(p)
    rng = np.random.Generator(np.random.Philox(key=[seed, 51]))
    for _ in range(20):
        g = rng.random(inst.sys.num_atoms)
        f = rng.random((inst.sys.num_levels, inst.sys.num_atoms))
        cube = int(rng.integers(inst.sys.num_cubes))
        phi = make_test_input(inst, cube)
        den_f = mixed_norm(phi, inst.sigma, p) * lp_norm(g, inst.omega, q)
        if den_f > 0:
            assert lambda_form_local(inst, cube, phi, g) <= rep.forward * den_f * (1 + 1e-12)
        ind = inst.sys.atom_mask(cube).astype(float)
        den_d = mixed_norm(f, inst.sigma, p) * lp_norm(ind, inst.omega, q)
        if den_d > 0:
            assert lambda_form_local(inst, cube, f, ind) <= rep.dual * den_d * (1 + 1e-12)


def test_constants_scale_linearly_in_lambda():
    inst = _random_instance(8, 2.0)
    rep = testing_report(inst)
    scaled = Instance(inst.sys, inst.p, inst.sigma, inst.omega, inst.mu, 4.0 * inst.lam)
    rep4 = testing_report(scaled)
    # powers of two scale exactly through every p = 2 norm computation
    assert rep4.forward == 4.0 * rep.forward
    assert rep4.dual == 4.0 * rep.dual
    inst3 = _random_instance(9, 3.0)
    rep3 = testing_report(inst3)
    rep3s = testing_report(
        Instance(inst3.sys, 3.0, inst3.sigma, inst3.omega, inst3.mu, 2.0 * inst3.lam)
    )
    assert rep3s.forward == pytest.approx(2.0 * rep3.forward, rel=1e-13)
    assert rep3s.dual == pytest.approx(2.0 * rep3.dual, rel=1e-13)


def test_dual_witness_is_true_norming_function():
    # brute check on a 2-atom system: no nonnegative f beats the dual witness
    inst = _random_instance(10, 4.0, d=1)
    rep = testing_report(inst)
    assert rep.dual > 0
    cube = rep.dual_cube
    ind = inst.sys.atom_mask(cube).astype(float)
    q = conjugate(inst.p)
    rng = np.random.Generator(np.random.Philox(key=[10, 52]))
    best = 0.0
    for _ in range(4000):
        f = rng.random((inst.sys.num_levels, inst.sys.num_atoms))
        den = mixed_norm(f, inst.sigma, inst.p) * lp_norm(ind, inst.omega, q)
        if den > 0:
            best = max(best, lambda_form_local(inst, cube, f, ind) / den)
    assert best <= rep.dual * (1 + 1e-10)
    assert best >= rep.dual * 0.95  # random probes come close on 4 cells


# -- level factoring: bit-identical to the per-cube loops --------------------


def _sparse_instance(dim, depth, p, seed):
    s = build_system(dim, depth)
    rng = np.random.Generator(np.random.Philox(key=[seed, 53]))
    return Instance(
        s,
        p,
        rng.random(s.num_atoms) * (rng.random(s.num_atoms) > 0.2),
        rng.random(s.num_atoms) * (rng.random(s.num_atoms) > 0.2),
        rng.random((s.num_levels, s.num_atoms)) * (rng.random((s.num_levels, s.num_atoms)) > 0.2),
        rng.random(s.num_cubes) * (rng.random(s.num_cubes) > 0.4),
    )


def _assert_same_report(inst):
    rep = testing_report(inst)
    fwd = ref.forward_testing_constant_loop(inst)
    dua = ref.dual_testing_constant_loop(inst)
    assert (rep.forward, rep.forward_cube) == (fwd.value, fwd.cube)
    assert (rep.dual, rep.dual_cube) == (dua.value, dua.cube)
    assert {type(c) for c in (rep.forward_cube, rep.dual_cube)} <= {int, type(None)}
    # NaN wherever the loop's witness has NaN, equal everywhere else
    assert np.array_equal(rep.witness_g, fwd.witness, equal_nan=True)
    assert np.array_equal(rep.witness_f, dua.witness, equal_nan=True)
    return rep


SHAPES = [(1, d) for d in range(1, 7)] + [(2, d) for d in range(1, 4)] + [(3, 1), (3, 2)]


@pytest.mark.parametrize("dim,depth", SHAPES)
@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 6.0])
def test_level_scan_matches_per_cube_loop(dim, depth, p):
    for seed in range(3):
        _assert_same_report(_sparse_instance(dim, depth, p, seed))


@pytest.mark.parametrize("name", ["w1", "w2", "w3"])
def test_level_scan_matches_loop_on_worked_instances(name):
    _assert_same_report(W[name])


def _tied_instance(dim, depth, level, p):
    """Constant lambda on one level with symmetric weights: every cube of the
    level has the same ratio."""
    s = build_system(dim, depth)
    lam = np.zeros(s.num_cubes)
    lam[s.level_offset[level] : s.level_offset[level + 1]] = 1.0
    mu = np.repeat(0.5 ** np.arange(s.num_levels, dtype=float)[:, None], s.num_atoms, axis=1)
    return Instance(s, p, np.ones(s.num_atoms), np.ones(s.num_atoms), mu, lam)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_level_scan_keeps_first_of_exact_ties(p):
    # every cube of the level attains the maximum, and the first one in
    # enumeration order wins; ties on the deepest level and the one above it
    # send every cube of that level to the exact sums
    ties = [(1, 4, 2), (2, 3, 1), (1, 3, 3)]
    ties += [(1, 6, 6), (1, 6, 5), (2, 3, 3), (2, 3, 2), (3, 2, 2), (3, 2, 1)]
    for dim, depth, level in ties:
        inst = _tied_instance(dim, depth, level, p)
        rep = _assert_same_report(inst)
        assert rep.forward_cube == inst.sys.level_offset[level]


def _scaled(dim, depth, p, lam=1.0, sigma=1.0):
    base = generators.generate(generators.GenSpec(seed=2, dimension=dim, depth=depth, p=p))
    return Instance(base.sys, p, sigma * base.sigma, base.omega, base.mu, lam * base.lam)


# Inputs at the edges of binary64: terms or sums that overflow or underflow
# on the way, and p = 1.01 (q = 101).  The exact sums agree with the loops
# there too, inf and 0 included.
EXTREME_SCALES = {
    "lambda*1e300 d1 D3 p2": (1, 3, 2.0, 1e300, 1.0),
    "sigma*1e250 d1 D3 p3": (1, 3, 3.0, 1.0, 1e250),
    "lambda*1e-200 d1 D3 p2": (1, 3, 2.0, 1e-200, 1.0),
    "lambda*1e-200 d2 D3 p3": (2, 3, 3.0, 1e-200, 1.0),
    "sigma*1e-200 d2 D3 p3": (2, 3, 3.0, 1.0, 1e-200),
    "p=1.01 d1 D4": (1, 4, 1.01, 1.0, 1.0),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(EXTREME_SCALES))
def test_exact_sums_match_loop_at_extreme_scales(name):
    _assert_same_report(_scaled(*EXTREME_SCALES[name]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_dual_skips_cubes_with_a_non_finite_kernel_column_off_them():
    # mu * running overflows in column 5 on row 2, so the level 0-2 kernels
    # hold an inf there.  A cube's kernel is the level's times its atom mask,
    # so every cube of those levels without atom 5 gets NaN and no ratio;
    # sigma vanishes at atom 5, so the cubes with it get NaN as well.
    s = build_system(1, 3)
    sigma = np.ones(s.num_atoms)
    sigma[5] = 0.0
    mu = np.ones((s.num_levels, s.num_atoms))
    mu[2, 5] = 1e308
    inst = Instance(s, 3.0, sigma, np.ones(s.num_atoms), mu, np.ones(s.num_cubes))
    rep = _assert_same_report(inst)
    assert rep.dual > 0 and s.level_of(rep.dual_cube) == 3


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_level_scan_matches_loop_on_null_data(p):
    base = _sparse_instance(2, 2, p, 7)
    s = base.sys
    no_lam = Instance(s, p, base.sigma, base.omega, base.mu, np.zeros(s.num_cubes))
    rep = _assert_same_report(no_lam)
    assert (rep.forward, rep.dual, rep.forward_cube, rep.dual_cube) == (0.0, 0.0, None, None)
    no_omega = Instance(s, p, base.sigma, np.zeros(s.num_atoms), base.mu, base.lam)
    rep = _assert_same_report(no_omega)
    assert rep.forward == rep.dual == 0.0
    mu = base.mu.copy()
    mu[:, ::3] = 0.0  # mu vanishes on whole columns
    _assert_same_report(Instance(s, p, base.sigma, base.omega, mu, base.lam))


@pytest.mark.parametrize("dim,depth", [(1, 4), (2, 2), (3, 1)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_test_function_is_level_profile_on_the_cube(dim, depth, p):
    inst = _sparse_instance(dim, depth, p, 11)
    s = inst.sys
    for cube in range(s.num_cubes):
        phi = make_test_input(inst, cube)
        am = s.atom_mask(cube)
        assert np.array_equal(phi[:, am], level_test_input(inst, s.level_of(cube))[:, am])
        assert not phi[:, ~am].any()
        # the defining formula on the Carleson box of the cube
        boxed = inst.mu * s.box_mask(cube)
        shaped = zero_preserving_power(ell2_slice(boxed), inst.q - 2.0)[None, :] * boxed
        assert np.array_equal(phi, boxed if inst.q == 2.0 else shaped)


# -- complexity guard: whole-lattice passes per level, not per cube ----------


def _count_calls(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        original = getattr(lattice, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lattice, name, counted)
    return calls


@pytest.mark.parametrize("dim,depth", [(1, 8), (2, 4)])
def test_testing_report_passes_scale_with_levels(monkeypatch, dim, depth):
    inst = generators.generate(generators.GenSpec(seed=3, dimension=dim, depth=depth, p=3.0))
    calls = _count_calls(monkeypatch, "box_sums", "chain_running")
    testing_report(inst)
    assert calls["box_sums"] + calls["chain_running"] <= 3 * inst.sys.num_levels + 8


def test_testing_report_passes_on_a_tied_level(monkeypatch):
    # every cube of the deepest level ties: the exact sums still cost a few
    # passes per level, not a few per tied cube
    inst = _tied_instance(1, 10, 10, 3.0)
    calls = _count_calls(monkeypatch, "box_sums", "chain_running")
    testing_report(inst)
    assert calls["box_sums"] + calls["chain_running"] <= 3 * inst.sys.num_levels + 8
