import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import Instance, build_system, conjugate, lattice, worked_instances
from dyadlab.forms import all_box_integrals, all_cube_averages, all_cube_integrals
from dyadlab.generators import GenSpec, generate, random_atom_function
from dyadlab.measures import (
    ell2_slice,
    group_ksum,
    ksum,
    largest_ratio,
    lp_norm,
    lp_norms,
    mixed_norm,
    zero_preserving_power,
)

import _reference as ref


W = worked_instances()


def _instance(s, sigma=None, omega=None, mu=None):
    """An instance carrying the given weights and density, ones elsewhere;
    the per-cube integrals read no coefficient."""
    ones = np.ones(s.num_atoms)
    return Instance(
        s, 2.0,
        ones if sigma is None else sigma,
        ones if omega is None else omega,
        np.ones((s.num_levels, s.num_atoms)) if mu is None else mu,
        np.zeros(s.num_cubes),
    )


def test_exponent_conjugacy():
    for p in (1.5, 2.0, 2.5, 3.0, 4.0, 10.0):
        q = conjugate(p)
        assert 1.0 / p + 1.0 / q == pytest.approx(1.0, abs=1e-15)
    assert conjugate(2.0) == 2.0
    for bad in (1.0, 0.5, -2.0, math.inf):
        with pytest.raises(ValueError):
            conjugate(bad)


def test_ell2_slice_examples():
    w1 = W["w1"]
    assert np.allclose(ell2_slice(np.zeros((2, 2))), 0.0)
    assert np.allclose(ell2_slice(np.ones((2, 2))), math.sqrt(2.0))
    assert ell2_slice(np.array([[8.0]]))[0] == 8.0


def test_mixed_norm_examples():
    assert mixed_norm(np.ones((2, 2)), np.array([1.0, 1.0]), 2.0) == pytest.approx(2.0)
    assert mixed_norm(np.ones((2, 2)), np.zeros(2), 2.0) == 0.0
    assert mixed_norm(np.array([[2.0]]), np.array([1.0]), 4.0) == pytest.approx(2.0)


def test_lp_norm_examples():
    assert lp_norm(np.ones(2), np.array([1.0, 1.0]), 2.0) == pytest.approx(math.sqrt(2))
    assert lp_norm(np.zeros(2), np.ones(2), 2.0) == 0.0
    assert lp_norm(np.array([2.0]), np.array([3.0]), 2.0) == pytest.approx(2 * math.sqrt(3))


def test_box_integral_examples():
    s = build_system(1, 1)
    ones = np.ones((2, 2))
    boxes = all_box_integrals(_instance(s), ones)
    assert boxes[s.root] == 4.0
    assert boxes[lattice.cube_from_path(s, "0")] == 1.0
    assert all_box_integrals(_instance(s, mu=np.zeros((2, 2))), ones)[s.root] == 0.0


def test_cube_integral_and_average_examples():
    s = build_system(1, 1)
    g = np.ones(2)
    inst = _instance(s, omega=np.array([1.0, 1.0]))
    assert all_cube_integrals(inst, g)[s.root] == 2.0
    assert all_cube_averages(inst, g)[s.root] == 1.0
    assert all_cube_averages(_instance(s, omega=np.zeros(2)), g)[s.root] == 0.0
    assert all_cube_integrals(inst, np.zeros(2))[s.root] == 0.0


@pytest.mark.parametrize("n,d,p", [(1, 3, 2.0), (2, 2, 2.5), (1, 2, 4.0)])
def test_against_reference(n, d, p):
    s = build_system(n, d)
    rng = np.random.Generator(np.random.Philox(key=[11, n * 10 + d]))
    f = rng.random((s.num_levels, s.num_atoms))
    mu = rng.random((s.num_levels, s.num_atoms))
    sigma = rng.random(s.num_atoms)
    g = rng.random(s.num_atoms)

    assert mixed_norm(f, sigma, p) == pytest.approx(
        ref.mixed_norm(f.tolist(), sigma.tolist(), p), rel=1e-13
    )
    assert lp_norm(g, sigma, p) == pytest.approx(
        ref.lp_norm(g.tolist(), sigma.tolist(), p), rel=1e-13
    )
    inst = _instance(s, sigma=sigma, omega=sigma, mu=mu)
    boxes, integrals = all_box_integrals(inst, f), all_cube_integrals(inst, g)
    for lin in range(0, s.num_cubes, 3):
        cube = ref.cube_at(s, lin)
        assert boxes[lin] == pytest.approx(
            ref.box_integral(n, d, f.tolist(), mu.tolist(), sigma.tolist(), cube.level, cube.index),
            rel=1e-12,
        )
        assert integrals[lin] == pytest.approx(
            ref.cube_integral(n, d, g.tolist(), sigma.tolist(), cube.level, cube.index),
            rel=1e-12,
        )


@given(st.integers(0, 10**9), st.sampled_from([1.5, 2.0, 3.0, 4.0]))
@settings(max_examples=40, deadline=None)
def test_norm_homogeneity_and_triangle(seed, p):
    s = build_system(1, 3)
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    f = rng.random((s.num_levels, s.num_atoms))
    h = rng.random((s.num_levels, s.num_atoms))
    sigma = rng.random(s.num_atoms)
    c = 1.0 + rng.random() * 5.0
    n_f = mixed_norm(f, sigma, p)
    assert mixed_norm(c * f, sigma, p) == pytest.approx(c * n_f, rel=1e-12)
    assert mixed_norm(f + h, sigma, p) <= (n_f + mixed_norm(h, sigma, p)) * (1 + 1e-12)


@given(st.integers(0, 10**9), st.sampled_from([2.0, 2.5, 3.0, 4.0]))
@settings(max_examples=40, deadline=None)
def test_box_integral_hoelder(seed, p):
    s = build_system(1, 3)
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    f = rng.random((s.num_levels, s.num_atoms))
    mu = rng.random((s.num_levels, s.num_atoms))
    sigma = rng.random(s.num_atoms)
    boxes = all_box_integrals(_instance(s, sigma=sigma, mu=mu), f)
    for cube in (0, 3, 7):
        bm = s.box_mask(cube)
        lhs = boxes[cube]
        rhs = mixed_norm(f * bm, sigma, p) * mixed_norm(mu * bm, sigma, conjugate(p))
        assert lhs <= rhs * (1 + 1e-12)


def test_average_bounds():
    s = build_system(1, 2)
    rng = np.random.Generator(np.random.Philox(key=[3, 3]))
    g = rng.random(s.num_atoms)
    w = rng.random(s.num_atoms)
    inst = _instance(s, omega=w)
    averages = all_cube_averages(inst, g)
    constant = all_cube_averages(inst, np.full(s.num_atoms, 0.7))
    masses = lattice.cube_sums(s, w)
    for cube in range(s.num_cubes):
        assert averages[cube] <= g.max() * (1 + 1e-12)
        if masses[cube] > 0:
            assert constant[cube] == pytest.approx(0.7, rel=1e-13)


def test_mixed_norm_vanishes_only_off_support():
    s = build_system(1, 1)
    sigma = np.array([0.0, 2.0])
    f = np.zeros((2, 2))
    f[:, 0] = 3.0  # lives only on the weightless atom
    assert mixed_norm(f, sigma, 2.0) == 0.0
    f[1, 1] = 1e-12
    assert mixed_norm(f, sigma, 2.0) > 0.0


def test_zero_preserving_power():
    x = np.array([0.0, 1.0, 4.0])
    assert np.array_equal(zero_preserving_power(x, -0.5), [0.0, 1.0, 0.5])
    assert np.array_equal(zero_preserving_power(x, 0.0), [0.0, 1.0, 1.0])
    assert np.array_equal(zero_preserving_power(x, 2.0), [0.0, 1.0, 16.0])


def test_validation_rejects_bad_values():
    from dyadlab.measures import as_scale_function, as_weights

    s = build_system(1, 1)
    with pytest.raises(ValueError):
        as_weights(s, [-1.0, 0.0])
    with pytest.raises(ValueError):
        as_weights(s, [math.nan, 0.0])
    with pytest.raises(ValueError):
        as_weights(s, [1.0])
    with pytest.raises(ValueError):
        as_scale_function(s, np.ones((3, 2)))


def test_largest_ratio_cases():
    # the maxima of the Carleson constants, the child mass bound and the grid
    # oracle: over den > 0 only, flagging a positive num over a zero den
    assert largest_ratio([1.0, 2.0], [0.0, -1.0]) == (0.0, True)
    assert largest_ratio([0.0, 0.0], [0.0, -1.0]) == (0.0, False)
    assert largest_ratio([3.0, 1.0, 6.0], [0.0, 2.0, 4.0]) == (1.5, True)
    assert largest_ratio(np.zeros(3), np.zeros(3)) == (0.0, False)
    assert largest_ratio([], []) == (0.0, False)
    best, flagged = largest_ratio([1.0, math.nan, 0.0], [1.0, 2.0, 0.0])
    assert math.isnan(best) and not flagged
    with np.errstate(invalid="ignore"):  # inf / inf, as from overflowed norms
        best, flagged = largest_ratio([math.inf, 1.0], [math.inf, 1.0])
    assert math.isnan(best) and not flagged


# -- grouped exact sums ------------------------------------------------------

_TERMS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1.0, 1e16, 1e308, math.inf, math.nan]),
    st.floats(min_value=0.0, max_value=1e308),
)


def _per_group(keys, values, groups):
    """``ksum(values[keys == g])`` per group, or the first error it raises."""
    try:
        return [ksum(values[keys == g]) for g in groups]
    except OverflowError as err:
        return err


def _grouped(keys, values, groups):
    try:
        return group_ksum(keys, values, groups)
    except OverflowError as err:
        return err


def _same(a, b):
    if isinstance(a, OverflowError) or isinstance(b, OverflowError):
        return type(a) is type(b)
    return np.array_equal(a, b, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), _TERMS), max_size=40),
    st.lists(st.integers(-1, 7), max_size=8),
    st.randoms(use_true_random=False),
)
def test_group_ksum_is_ksum_of_each_group(pairs, groups, rnd):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    got = _grouped(keys, values, groups)
    assert _same(got, _per_group(keys, values, groups))
    if not isinstance(got, OverflowError):
        assert all(type(x) is float for x in got)
        # absent groups sum to zero
        assert all(x == 0.0 for g, x in zip(groups, got) if g not in keys)
    # correctly rounded: any order of the terms gives the same sums, unless
    # an intermediate overflow depends on where an inf sits
    rnd.shuffle(pairs)
    shuffled = _grouped(
        np.array([k for k, _ in pairs], dtype=np.int64),
        np.array([v for _, v in pairs], dtype=np.float64),
        groups,
    )
    if not isinstance(got, OverflowError) and not isinstance(shuffled, OverflowError):
        assert np.array_equal(shuffled, got, equal_nan=True)


def test_group_ksum_overflows_when_ksum_does():
    keys = np.array([0, 1, 1, 2])
    values = np.array([1e308, 1e308, 1e308, 1.0])
    with pytest.raises(OverflowError):
        ksum(values[keys == 1])
    with pytest.raises(OverflowError):
        group_ksum(keys, values, [1])
    assert group_ksum(keys, values, [2, 0, 3]) == [1.0, 1e308, 0.0]
    # exactly rounded, unlike a plain running sum
    assert group_ksum(np.zeros(3, dtype=np.int64), np.array([1.0, 1e100, -1e100]), [0]) == [1.0]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0])
def test_solver_norms_are_within_the_pairwise_bound_of_the_exact_norm(p):
    # the norming maps' numpy sums err by about log2(n) u (Higham, ch. 4);
    # every row stays within ceil(log2 n) 2u relative of the exact lp_norm
    u = 2.0**-53
    for dim, depth in [(1, 1), (1, 3), (2, 2), (1, 8), (2, 5), (1, 12), (2, 6), (3, 4)]:
        inst = generate(GenSpec(seed=depth, dimension=dim, depth=depth, p=p))
        n = inst.sys.num_atoms
        rows = np.array([inst.omega, inst.sigma, ell2_slice(inst.mu), random_atom_function(inst.sys, depth)])
        for w in (inst.omega, inst.sigma):
            for row, value in zip(rows, lp_norms(rows, w, p)):
                exact = lp_norm(row, w, p)
                assert abs(value - exact) <= math.ceil(math.log2(n)) * 2 * u * exact
