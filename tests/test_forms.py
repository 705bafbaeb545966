import math

import numpy as np
import pytest

from dyadlab import Instance, build_system, lambda_array, lattice, worked_instances
from dyadlab import forms
from dyadlab.forms import (
    box_slice_sums,
    lambda_form,
    lambda_form_local,
    phi_identity_check,
    test_function as make_test_input,
)
from dyadlab.generators import GenSpec, generate, random_scale_function
from dyadlab.measures import ksum, lp_norming, mixed_norm, mixed_norming

import _reference as ref
from _reference import apply_adjoint_operator, apply_box_operator
from test_lattice import ALL_SHAPES


W = worked_instances()


def _w1_with_lambda(mapping):
    w1 = W["w1"]
    return Instance(w1.sys, 2.0, w1.sigma, w1.omega, w1.mu, lambda_array(w1.sys, mapping))


def test_lambda_form_examples():
    w1 = W["w1"]
    ones_f, ones_g = np.ones((2, 2)), np.ones(2)
    assert lambda_form(w1, ones_f, ones_g) == 8.0
    assert lambda_form(w1, np.zeros((2, 2)), ones_g) == 0.0
    only_left = _w1_with_lambda({"0": 1.0})
    assert lambda_form(only_left, ones_f, ones_g) == 1.0


def test_lambda_form_local_examples():
    w1 = W["w1"]
    ones_f, ones_g = np.ones((2, 2)), np.ones(2)
    assert lambda_form_local(w1, lattice.cube_from_path(w1.sys, "0"), ones_f, ones_g) == 0.0
    assert lambda_form_local(w1, w1.sys.root, ones_f, ones_g) == 8.0
    assert lambda_form_local(w1, w1.sys.root, np.zeros((2, 2)), ones_g) == 0.0


def test_box_operator_examples():
    w1 = W["w1"]
    out = apply_box_operator(w1, np.ones((2, 2)))
    assert np.array_equal(out, [4.0, 4.0])
    assert np.array_equal(apply_box_operator(w1, np.zeros((2, 2))), [0.0, 0.0])
    only_left = _w1_with_lambda({"0": 1.0})
    assert np.array_equal(apply_box_operator(only_left, np.ones((2, 2))), [1.0, 0.0])


def test_adjoint_operator_examples():
    w1 = W["w1"]
    out = apply_adjoint_operator(w1, np.ones(2))
    assert np.array_equal(out, np.full((2, 2), 2.0))
    assert np.array_equal(apply_adjoint_operator(w1, np.zeros(2)), np.zeros((2, 2)))
    nomu = Instance(w1.sys, 2.0, w1.sigma, w1.omega, np.zeros((2, 2)), w1.lam)
    assert np.array_equal(apply_adjoint_operator(nomu, np.ones(2)), np.zeros((2, 2)))


def test_test_function_examples():
    w1 = W["w1"]
    assert np.array_equal(make_test_input(w1, w1.sys.root), np.ones((2, 2)))
    w2 = W["w2"]
    assert np.allclose(make_test_input(w2, w2.sys.root), [[2.0]])
    nomu = Instance(w1.sys, 2.0, w1.sigma, w1.omega, np.zeros((2, 2)), w1.lam)
    assert np.array_equal(make_test_input(nomu, w1.sys.root), np.zeros((2, 2)))


CHAIN_FIELDS = ("box_pairing", "slice_integral", "mu_norm_power", "phi_norm_power")


def _chain(rep, cube):
    return tuple(getattr(rep, name)[cube] for name in CHAIN_FIELDS)


def test_phi_identity_examples():
    w1, w2 = W["w1"], W["w2"]
    rep = phi_identity_check(w1)
    assert _chain(rep, w1.sys.root) == pytest.approx((4.0,) * 4, rel=1e-12)
    rep = phi_identity_check(w2)
    assert _chain(rep, w2.sys.root) == pytest.approx((16.0,) * 4, rel=1e-12)
    nomu = Instance(w1.sys, 2.0, w1.sigma, w1.omega, np.zeros((2, 2)), w1.lam)
    assert _chain(phi_identity_check(nomu), w1.sys.root) == (0.0,) * 4


def _random_instance(seed, n=1, d=3, p=2.5):
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[seed, 40]))
    return (
        Instance(
            s,
            p,
            rng.random(s.num_atoms),
            rng.random(s.num_atoms),
            rng.random((s.num_levels, s.num_atoms)),
            rng.random(s.num_cubes) * (rng.random(s.num_cubes) > 0.3),
        ),
        rng,
    )


@pytest.mark.parametrize("seed,p", [(1, 2.0), (2, 2.5), (3, 4.0)])
def test_form_against_reference(seed, p):
    inst, rng = _random_instance(seed, n=1, d=2, p=p)
    s = inst.sys
    f = rng.random((s.num_levels, s.num_atoms))
    g = rng.random(s.num_atoms)
    lam_map = {ref.cube_at(s, l): inst.lam[l] for l in range(s.num_cubes)}
    expect = ref.lambda_form(
        1, 2, lam_map, f.tolist(), g.tolist(), inst.mu.tolist(),
        inst.sigma.tolist(), inst.omega.tolist(),
    )
    assert lambda_form(inst, f, g) == pytest.approx(expect, rel=1e-12)
    expect_op = ref.box_operator(1, 2, lam_map, f.tolist(), inst.mu.tolist(), inst.sigma.tolist())
    assert apply_box_operator(inst, f) == pytest.approx(expect_op, rel=1e-12)
    for lin in range(s.num_cubes):
        cube = ref.cube_at(s, lin)
        expect_phi = ref.make_test_input(1, 2, inst.mu.tolist(), inst.q, cube.level, cube.index)
        assert make_test_input(inst, lin) == pytest.approx(np.array(expect_phi), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_adjointness_triple_identity(seed):
    inst, rng = _random_instance(seed, p=[2.0, 2.5, 3.0][seed % 3])
    s = inst.sys
    f = rng.random((s.num_levels, s.num_atoms))
    g = rng.random(s.num_atoms)
    form = lambda_form(inst, f, g)
    via_g = ksum(inst.omega * g * apply_box_operator(inst, f))
    via_f = ksum(inst.sigma[None, :] * f * apply_adjoint_operator(inst, g))
    assert via_g == pytest.approx(form, rel=1e-12)
    assert via_f == pytest.approx(form, rel=1e-12)


@pytest.mark.parametrize("seed,p", [(0, 2.0), (1, 2.5), (2, 3.0), (3, 4.0)])
def test_phi_identity_chain_random(seed, p):
    inst, _ = _random_instance(seed, p=p)
    spreads = phi_identity_check(inst).max_rel_spread
    assert spreads.shape == (inst.sys.num_cubes,) and np.all(spreads <= 1e-10)


@pytest.mark.parametrize("dim,depth", [(1, 3), (2, 3), (3, 2), (1, 6)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_box_slice_sums_give_the_masked_mixed_norms(dim, depth, p):
    # verify's Hoelder check reads the per-level grouped sums: every cube gets
    # the bits of mixed_norm(f * box) * mixed_norm(mu * box), the per-cube
    # products of masked copies they replaced
    inst = generate(GenSpec(seed=dim + depth, dimension=dim, depth=depth, p=p))
    s = inst.sys
    f = random_scale_function(s, 3)
    f_sums, mu_sums = box_slice_sums(inst, f, p), box_slice_sums(inst, inst.mu, inst.q)
    for cube in range(s.num_cubes):
        box = s.box_mask(cube)
        want = mixed_norm(f * box, inst.sigma, p) * mixed_norm(inst.mu * box, inst.sigma, inst.q)
        got = f_sums[cube] ** (1.0 / p) * mu_sums[cube] ** (1.0 / inst.q)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), cube


CHAIN_SHAPES = [(1, D) for D in range(7)] + [(2, D) for D in range(1, 4)] + [(3, 1), (3, 2)]


def _assert_chain_is_per_cube_body(inst):
    rep = phi_identity_check(inst)
    for cube in range(inst.sys.num_cubes):
        want = ref.phi_identity_check_cube(inst, cube)
        for name in CHAIN_FIELDS + ("max_rel_spread",):
            assert getattr(rep, name)[cube] == getattr(want, name), (cube, name)


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 4.0])
def test_phi_identity_levels_match_per_cube_body(p):
    # one pass per level gives every cube the bits of its own test input
    for dimension, depth in CHAIN_SHAPES:
        for seed in range(4):
            inst = generate(GenSpec(seed=seed, dimension=dimension, depth=depth, p=p))
            _assert_chain_is_per_cube_body(inst)


def test_phi_identity_levels_match_per_cube_body_on_fixtures():
    cases = list(W.values()) + [
        inst
        for kind in ref.ADVERSARIAL_KINDS
        for inst in ref.adversarial_family(kind, dimension=2, depth=2, p=3.0)
    ]
    for inst in cases:
        _assert_chain_is_per_cube_body(inst)


def test_lambda_monotonicity():
    inst, rng = _random_instance(7)
    f = rng.random((inst.sys.num_levels, inst.sys.num_atoms))
    g = rng.random(inst.sys.num_atoms)
    base = lambda_form(inst, f, g)
    for lin in range(inst.sys.num_cubes):
        lam2 = inst.lam.copy()
        lam2[lin] += 0.5
        bumped = Instance(inst.sys, inst.p, inst.sigma, inst.omega, inst.mu, lam2)
        assert lambda_form(bumped, f, g) >= base * (1 - 1e-12)


def test_local_box_operator_matches_duality():
    inst, rng = _random_instance(8, p=3.0)
    s = inst.sys
    f = rng.random((s.num_levels, s.num_atoms))
    g = rng.random(s.num_atoms)
    for cube in range(s.num_cubes):
        h = ref.apply_box_operator_local(inst, cube, f)
        pairing = ksum(inst.omega * g * h)
        assert pairing == pytest.approx(
            lambda_form_local(inst, cube, f, g * s.atom_mask(cube)), rel=1e-11, abs=1e-13
        )


def test_instance_validation():
    s = build_system(1, 1)
    with pytest.raises(ValueError):
        Instance(s, 1.0, [1, 1], [1, 1], np.ones((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Instance(s, 2.0, [1, -1], [1, 1], np.ones((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Instance(s, 2.0, [1, 1], [1, 1], np.ones((2, 2)), np.zeros(4))
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda contains"):
            Instance(s, 2.0, [1, 1], [1, 1], np.ones((2, 2)), [0.0, bad, 0.0])
    inst = Instance(s, 2.0, [1, 1], [1, 1], np.ones((2, 2)), np.zeros(3))
    assert inst.q == 2.0
    with pytest.raises(ValueError):
        inst.lam[0] = 1.0  # frozen arrays


@pytest.mark.parametrize("n,d", ALL_SHAPES)
def test_batched_operators_and_normings_match_per_row_calls(n, d):
    # a leading batch axis gives each row the bits of its own call; a row
    # that vanishes comes back as a zero row with value 0.0, as its own call
    # does
    rng = np.random.Generator(np.random.Philox(key=[n, 32 + d]))
    for p in (1.5, 2.0):  # q = 2 takes the short cut of mixed_norming
        inst = generate(GenSpec(seed=d, dimension=n, depth=d, p=p))
        s = inst.sys
        for k in (1, 2, 7):
            f = rng.random((k, s.num_levels, s.num_atoms))
            g = rng.random((k, s.num_atoms))
            f[1:2] = g[1:2] = 0.0
            for operator, rows, norming, weight in (
                (apply_box_operator, f, lp_norming, inst.omega),
                (apply_adjoint_operator, g, mixed_norming, inst.sigma),
            ):
                images = operator(inst, rows)
                assert np.array_equal(images, [operator(inst, row) for row in rows])
                normed, values = norming(images, weight, p)
                assert normed.shape == images.shape and values.shape == (k,)
                for row, value, image in zip(normed, values, images):
                    one, one_value = norming(image, weight, p)
                    assert value == one_value and np.array_equal(row, one)
                    if one_value == 0.0:
                        assert not row.any()
                if k > 1:
                    assert values[1] == 0.0


@pytest.mark.parametrize("n,d", ALL_SHAPES)
def test_operators_take_a_weight_row_per_function(n, d):
    # functions of several instances of one lattice, each with its
    # instance's weight rows, get the bytes of their instance's own call
    rng = np.random.Generator(np.random.Philox(key=[n, 48 + d]))
    insts = [generate(GenSpec(seed=seed, dimension=n, depth=d, p=2.5)) for seed in range(4)]
    s = insts[0].sys
    f, g = rng.random((4, s.num_levels, s.num_atoms)), rng.random((4, s.num_atoms))
    f[1] = g[2] = 0.0
    sigma, omega, mu, lam = (np.array(rows) for rows in zip(*[ref.box_weights(inst) for inst in insts]))
    boxes = forms.apply_box_operator(s, sigma, mu, lam, f)
    adjoints = forms.apply_adjoint_operator(s, omega, mu, lam, g)
    for i, inst in enumerate(insts):
        assert boxes[i].tobytes() == apply_box_operator(inst, f[i]).tobytes()
        assert adjoints[i].tobytes() == apply_adjoint_operator(inst, g[i]).tobytes()
