import math

import numpy as np
import pytest

from dyadlab import Cube, build_system, lattice, worked_instances
from dyadlab.embedding import (
    CarlesonData,
    carleson_condition_constant,
    disjointness_inequality,
    embedding_ratio_search,
    stopping_embedding_report,
)
from dyadlab.errors import GuardError
from dyadlab.generators import (
    GenSpec,
    adversarial_family,
    deep_chain_profiles,
    generate,
    lemma_violation_fixture,
    random_scale_function,
)
from dyadlab.stopping import _subtree_totals, build_ratio_family

import _reference as ref
from test_stopping import SWEEP_SHAPES

W = worked_instances()


def _w1_data():
    s = W["w1"].sys
    return s, CarlesonData(np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0]))


def test_condition_constant_example():
    s, data = _w1_data()
    assert carleson_condition_constant(s, data) == 2.0
    assert carleson_condition_constant(s, CarlesonData(np.zeros(3), data.nu)) == 0.0
    below_null = CarlesonData(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0]))
    assert math.isinf(carleson_condition_constant(s, below_null))


@pytest.mark.parametrize("seed", range(5))
def test_condition_constant_against_reference(seed):
    s = build_system(1, 3)
    rng = np.random.Generator(np.random.Philox(key=[seed, 60]))
    a = rng.random(s.num_cubes) * (rng.random(s.num_cubes) > 0.3)
    nu = rng.random(s.num_atoms)
    data = CarlesonData(a, nu)
    a_map = {}
    for lin in range(s.num_cubes):
        c = s.cube_at(lin)
        a_map[(c.level, c.index)] = float(a[lin])
    expect = ref.carleson_condition_constant(1, 3, a_map, nu.tolist())
    assert carleson_condition_constant(s, data) == pytest.approx(expect, rel=1e-12)


def test_embedding_sum_example():
    s, data = _w1_data()
    assert ref.embedding_sum(s, data, np.ones(2), 2.0) == 4.0
    assert ref.embedding_sum(s, data, np.zeros(2), 2.0) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_search_dominates_condition_constant(p):
    for seed in range(12):
        s = build_system(1, 1 + seed % 4)
        rng = np.random.Generator(np.random.Philox(key=[seed, 61]))
        a = rng.random(s.num_cubes) * (rng.random(s.num_cubes) > 0.4)
        nu = 0.1 + rng.random(s.num_atoms)
        data = CarlesonData(a, nu)
        cprime = carleson_condition_constant(s, data)
        result = embedding_ratio_search(s, data, p, restarts=2, seed=seed)
        assert result.value >= cprime * (1 - 1e-12)
        # the witness itself realizes the reported ratio
        lhs = ref.embedding_sum(s, data, result.witness, p)
        den = float(np.sum(nu * result.witness**p))
        assert lhs == pytest.approx(result.value * den, rel=1e-9)


def test_disjointness_trivial_and_witness():
    # p = 2 splits are exactly additive when the parts cover the support
    s = build_system(1, 1)
    f = np.ones((2, 2))
    sigma = np.array([1.0, 1.0])
    parts = [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}]
    rep = disjointness_inequality(f, sigma, 2.0, parts)
    assert rep.holds and rep.lhs == pytest.approx(rep.rhs, rel=1e-14)

    inst, f, parts = lemma_violation_fixture()
    rep = disjointness_inequality(f, inst.sigma, 1.5, parts)
    assert not rep.holds
    assert rep.lhs == pytest.approx(2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(2.0**0.75, rel=1e-12)
    for p in (1.1, 1.9):
        rep = disjointness_inequality(f, inst.sigma, p, parts)
        assert not rep.holds

    rep = disjointness_inequality(np.zeros((2, 2)), inst.sigma, 1.5, parts)
    assert rep.lhs == rep.rhs == 0.0

    with pytest.raises(ValueError):
        disjointness_inequality(f, inst.sigma, 2.0, [{(0, 0)}, {(0, 0)}])


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_disjointness_holds_at_and_above_two(p):
    rng = np.random.Generator(np.random.Philox(key=[int(p * 10), 62]))
    s = build_system(1, 2)
    for _ in range(50):
        f = rng.random((s.num_levels, s.num_atoms))
        sigma = rng.random(s.num_atoms)
        labels = rng.integers(0, 4, size=f.shape)
        parts = [
            {(int(a), int(j)) for j, a in np.argwhere(labels == i)} for i in range(3)
        ]
        assert disjointness_inequality(f, sigma, p, parts).holds


def test_stopping_embedding_w1():
    w1 = W["w1"]
    f = np.ones((2, 2))
    fam = build_ratio_family(w1, w1.sys.root, f)
    rep = stopping_embedding_report(w1, f, fam)
    assert rep.lhs == pytest.approx(4.0, rel=1e-12)
    assert rep.rhs == pytest.approx(4.0, rel=1e-12)
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.nu_carleson_factor <= 4.0
    assert rep.alpha_identity_rel_err <= 1e-12

    zero = stopping_embedding_report(
        w1, np.zeros((2, 2)), build_ratio_family(w1, w1.sys.root, np.zeros((2, 2)))
    )
    assert zero.ratio == 0.0


def test_stopping_embedding_requires_p_at_least_two():
    w3 = W["w3"]
    fam = build_ratio_family(w3, w3.sys.root, np.ones((2, 2)))
    with pytest.raises(GuardError):
        stopping_embedding_report(w3, np.ones((2, 2)), fam)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_stopping_embedding_structure_random(p):
    for k in range(15):
        inst = generate(GenSpec(seed=300 + k, depth=4, p=p))
        f = random_scale_function(inst.sys, 300 + k, base=inst.mu)
        fam = build_ratio_family(inst, inst.sys.root, f)
        rep = stopping_embedding_report(inst, f, fam)
        assert math.isfinite(rep.ratio)
        assert rep.nu_carleson_factor <= 4.0
        assert rep.alpha_identity_rel_err <= 1e-12
        assert _subtree_totals(fam, fam.phi_mass)[fam.top] == pytest.approx(
            sum(fam.phi_mass.values()), rel=1e-12, abs=1e-300
        )


# -- one averages pass per evaluation against the three-pass search ---------

SEARCH_SHAPES = [(1, D) for D in range(1, 7)] + [(2, D) for D in range(1, 4)] + [
    (3, D) for D in range(1, 3)
]


def _search_data(s, seed):
    """Random masses and measure; at seed 0 also the same with the measure
    zero on some atoms, no cube mass at all, and mass on a single cube."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 63]))
    a = rng.random(s.num_cubes) * (rng.random(s.num_cubes) > 0.4)
    nu = 0.1 + rng.random(s.num_atoms)
    cases = [CarlesonData(a, nu)]
    if seed == 0:
        single = np.zeros(s.num_cubes)
        single[s.num_cubes // 2] = 2.0
        cases += [
            CarlesonData(a, nu * (rng.random(s.num_atoms) > 0.3)),
            CarlesonData(np.zeros(s.num_cubes), nu),
            CarlesonData(single, nu),
        ]
    return cases


def _assert_same_search(s, data, p, restarts, seed):
    got = embedding_ratio_search(s, data, p, restarts=restarts, seed=seed)
    want = ref.embedding_ratio_search_three_pass(s, data, p, restarts=restarts, seed=seed)
    assert got.value == want.value
    assert np.array_equal(got.witness, want.witness)
    assert got.evaluations == want.evaluations


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_search_matches_three_pass_search(p):
    for dimension, depth in SEARCH_SHAPES:
        s = build_system(dimension, depth)
        for seed in range(3):
            for data in _search_data(s, seed):
                for restarts in (0, 2):
                    _assert_same_search(s, data, p, restarts, seed)


def test_search_takes_one_averages_pass_per_evaluation(monkeypatch):
    s = build_system(2, 3)
    data = _search_data(s, 1)[0]
    cube_sums, allclose = lattice.cube_sums, np.allclose
    calls = {"cube_sums": 0, "allclose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(lattice, "cube_sums", counted("cube_sums", cube_sums))
    monkeypatch.setattr(np, "allclose", counted("allclose", allclose))
    result = embedding_ratio_search(s, data, 3.0, restarts=2, seed=1)
    assert result.evaluations > s.num_cubes
    assert calls == {"cube_sums": result.evaluations + 1, "allclose": 0}


# -- exclusive sums by one grouping against the per-member masks -------------

REPORT_FIELDS = ("lhs", "rhs", "ratio", "nu_carleson_factor", "alpha_identity_rel_err")


def _assert_same_report(inst, f, fam):
    got = stopping_embedding_report(inst, f, fam)
    want = ref.stopping_embedding_report_masks(inst, f, fam)
    for name in REPORT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("dimension,depth", [(1, 10), (3, 4), (1, 12)])
def test_stopping_embedding_matches_member_masks_on_deep_chain(dimension, depth):
    inst = adversarial_family("deep-chain", dimension=dimension, depth=depth, p=2.0)[0]
    f, _ = deep_chain_profiles(inst.sys)
    fam = build_ratio_family(inst, inst.sys.root, f)
    assert len(fam.members) > inst.sys.num_cubes // 2
    _assert_same_report(inst, f, fam)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_stopping_embedding_matches_member_masks_on_sweep(p):
    for dimension, depth in SWEEP_SHAPES:
        inst = generate(GenSpec(seed=0, dimension=dimension, depth=depth, p=p))
        f = random_scale_function(inst.sys, 0, base=inst.mu)
        for top, A in ((inst.sys.root, None), (inst.sys.root, 1.5), (Cube(1, (0,) * dimension), 1.25)):
            _assert_same_report(inst, f, build_ratio_family(inst, top, f, A=A))


def test_stopping_embedding_builds_no_box_masks(monkeypatch):
    inst = adversarial_family("deep-chain", dimension=3, depth=4, p=2.0)[0]
    f, _ = deep_chain_profiles(inst.sys)
    fam = build_ratio_family(inst, inst.sys.root, f)
    box_mask = lattice.DyadicSystem.box_mask
    calls = []
    monkeypatch.setattr(
        lattice.DyadicSystem, "box_mask", lambda *a, **k: calls.append(1) or box_mask(*a, **k)
    )
    stopping_embedding_report(inst, f, fam)
    assert calls == []
