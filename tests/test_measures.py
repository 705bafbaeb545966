import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import Cube, build_system, conjugate, worked_instances
from dyadlab.measures import (
    average,
    box_integral,
    cube_integral,
    ell2_slice,
    group_ksum,
    ksum,
    lp_norm,
    mass,
    mixed_norm,
    zero_preserving_power,
)

import _reference as ref


W = worked_instances()


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
    sig = np.array([1.0, 1.0])
    assert box_integral(s, ones, ones, sig, s.root) == 4.0
    assert box_integral(s, ones, ones, sig, Cube(1, (0,))) == 1.0
    assert box_integral(s, ones, np.zeros((2, 2)), sig, s.root) == 0.0


def test_cube_integral_and_average_examples():
    s = build_system(1, 1)
    g = np.ones(2)
    w = np.array([1.0, 1.0])
    assert cube_integral(s, g, w, s.root) == 2.0
    assert average(s, g, w, s.root) == 1.0
    assert average(s, g, np.zeros(2), s.root) == 0.0
    assert cube_integral(s, np.zeros(2), w, s.root) == 0.0


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
    for lin in range(0, s.num_cubes, 3):
        cube = s.cube_at(lin)
        assert box_integral(s, f, mu, sigma, cube) == pytest.approx(
            ref.box_integral(n, d, f.tolist(), mu.tolist(), sigma.tolist(), cube.level, cube.index),
            rel=1e-12,
        )
        assert cube_integral(s, g, sigma, cube) == pytest.approx(
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
    for lin in (0, 3, 7):
        cube = s.cube_at(lin)
        bm = s.box_mask(cube)
        lhs = box_integral(s, f, mu, sigma, cube)
        rhs = mixed_norm(f * bm, sigma, p) * mixed_norm(mu * bm, sigma, conjugate(p))
        assert lhs <= rhs * (1 + 1e-12)


def test_average_bounds():
    s = build_system(1, 2)
    rng = np.random.Generator(np.random.Philox(key=[3, 3]))
    g = rng.random(s.num_atoms)
    w = rng.random(s.num_atoms)
    for lin in range(s.num_cubes):
        cube = s.cube_at(lin)
        assert average(s, g, w, cube) <= g.max() * (1 + 1e-12)
        if mass(s, w, cube) > 0:
            assert average(s, np.full(s.num_atoms, 0.7), w, cube) == pytest.approx(0.7, rel=1e-13)


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
