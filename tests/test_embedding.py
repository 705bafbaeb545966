import math

import numpy as np
import pytest

from dyadlab import build_system, embedding, lattice, verify, worked_instances
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
from dyadlab.normest import alternating_maximization
from dyadlab.stopping import build_ratio_family, subtree_totals
from dyadlab.testing_constants import testing_report

import _reference as ref
from test_normest import assert_lockstep
from test_stopping import SWEEP_SHAPES

W = worked_instances()


def _w1_data():
    s = W["w1"].sys
    return s, CarlesonData(np.array([2.0, 1.0, 1.0]), np.array([1.0, 1.0]))


def test_carleson_data_rejects_bad_entries():
    s, data = _w1_data()
    for bad in (-1.0, math.inf, math.nan):
        a, nu = data.a.copy(), data.nu.copy()
        a[1], nu[0] = bad, bad
        with pytest.raises(ValueError, match="^a contains"):
            CarlesonData(a, data.nu)
        with pytest.raises(ValueError, match="^nu contains"):
            CarlesonData(data.a, nu)


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
        a_map[ref.cube_at(s, lin)] = float(a[lin])
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
    labels = np.array([[0, 1], [0, 1]])  # one part per atom
    rep = disjointness_inequality(f, sigma, 2.0, [labels == 0, labels == 1])
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

    with pytest.raises(ValueError, match="overlap"):
        disjointness_inequality(f, inst.sigma, 2.0, [parts[0], parts[0]])
    with pytest.raises(ValueError, match="shape"):  # an atom mask is no cell set
        disjointness_inequality(f, inst.sigma, 2.0, [np.array([True, False])])


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_disjointness_holds_at_and_above_two(p):
    rng = np.random.Generator(np.random.Philox(key=[int(p * 10), 62]))
    s = build_system(1, 2)
    for _ in range(50):
        f = rng.random((s.num_levels, s.num_atoms))
        sigma = rng.random(s.num_atoms)
        labels = rng.integers(0, 4, size=f.shape)
        assert disjointness_inequality(f, sigma, p, [labels == i for i in range(3)]).holds


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
        assert subtree_totals(inst.sys, fam, fam.phi_mass)[fam.top] == pytest.approx(
            fam.phi_mass.sum(), rel=1e-12, abs=1e-300
        )


# -- the search on the power-method driver against the three-pass search ----
#
# The ascent stops by the driver's gain test, not by the three-pass search's
# 40-step cap or iterate test, so its value may differ from the reference's
# by the gain that test leaves (2.1e-9 relative at most on these sweeps).  It
# still dominates the best indicator ratio, its witness attains it, and it
# takes no more evaluations.

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


def _best_indicator_ratio(s, data, p):
    masses = lattice.cube_sums(s, data.nu)
    indicators = [s.atom_mask(c).astype(np.float64) for c in np.flatnonzero(masses > 0)]
    return max((ref._embedding_ratio(s, data, h, p) for h in indicators), default=0.0)


def _assert_near_three_pass_search(s, data, p, restarts, seed):
    got = embedding_ratio_search(s, data, p, restarts=restarts, seed=seed)
    want = ref.embedding_ratio_search_three_pass(s, data, p, restarts=restarts, seed=seed)
    assert abs(got.value - want.value) <= 1e-8 * want.value
    assert got.value >= _best_indicator_ratio(s, data, p)
    assert got.value == ref._embedding_ratio(s, data, got.witness, p)
    assert got.evaluations <= want.evaluations
    return got


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_search_matches_three_pass_search(p):
    for dimension, depth in SEARCH_SHAPES:
        s = build_system(dimension, depth)
        for seed in range(3):
            for data in _search_data(s, seed):
                for restarts in (0, 2):
                    _assert_near_three_pass_search(s, data, p, restarts, seed)


def _batches(monkeypatch):
    """Record the batch size of every averages pass, 0 for an unbatched one."""
    cube_sums, sizes = lattice.cube_sums, []

    def recorded(sys, values):
        sizes.append(len(values) if np.ndim(values) == 2 else 0)
        return cube_sums(sys, values)

    monkeypatch.setattr(lattice, "cube_sums", recorded)
    return sizes


@pytest.mark.parametrize("dimension,depth", [(2, 3), (1, 8)])
def test_search_passes_do_not_grow_with_the_cubes_with_mass(monkeypatch, dimension, depth):
    # every cube has mass, more cubes than a chunk of functions holds and
    # than the step cap; yet the search takes only the masses pass, one pass
    # per lockstep step of the four seeds and one for the best iterate, and
    # still counts every indicator as an evaluation
    s = build_system(dimension, depth)
    data = _search_data(s, 1)[0]
    assert np.all(data.nu > 0) and lattice.chunk_rows(s) < s.num_cubes

    sizes = _batches(monkeypatch)
    result = embedding_ratio_search(s, data, 3.0, restarts=2, seed=1)
    steps = sizes[1:-1]
    assert sizes[0] == 1 and sizes[-1] == 1  # the one instance's masses and best iterate
    assert steps[0] == 4 and steps == sorted(steps, reverse=True)
    assert 1 < len(steps) <= embedding._MAX_ITER < s.num_cubes
    assert sum(sizes[1:]) + s.num_cubes == result.evaluations


def _tied_indicators():
    # masses on the two middle cubes of level 1 and a uniform measure
    s = build_system(2, 2)
    a = np.zeros(s.num_cubes)
    a[[2, 3]] = 1.0
    return s, CarlesonData(a, np.ones(s.num_atoms))


def _assert_indicator_ratios_are_the_averages_pass(s, data, p):
    masses = lattice.cube_sums(s, data.nu)
    cubes = np.flatnonzero(masses > 0)
    want = [ref._embedding_ratio(s, data, s.atom_mask(c).astype(np.float64), p) for c in cubes]
    assert embedding._indicator_ratios(s)(data, masses, cubes, p) == want


@pytest.mark.parametrize("p", [1.25, 2.0, 3.0, 7.5])
def test_indicator_ratios_in_closed_form_match_the_averages_pass(p):
    # the closed form has the bits of each indicator's own averages pass
    for dimension, depth in SEARCH_SHAPES:
        s = build_system(dimension, depth)
        for seed in range(3):
            for data in _search_data(s, seed):
                _assert_indicator_ratios_are_the_averages_pass(s, data, p)
    _assert_indicator_ratios_are_the_averages_pass(*_tied_indicators(), p)


def test_lockstep_rows_leave_at_different_steps():
    # on the average maps: a zero row's forward map vanishes at once, the
    # random and constant rows stop at steps of their own, and every row
    # leaves the batch at the step its own ascent stops
    s = build_system(1, 4)
    data = _search_data(s, 1)[0]
    masses = lattice.cube_sums(s, data.nu)
    weights = [np.tile(w, (3, 1)) for w in (data.nu, data.a, masses)]  # three rows of the one instance
    forward, backward = embedding._average_maps(s, 3.0)
    rng = np.random.Generator(np.random.Philox(key=[2, 66]))
    seeds = np.array([rng.random(s.num_atoms), np.zeros(s.num_atoms), np.ones(s.num_atoms)])
    own = assert_lockstep(s, seeds, forward, backward, embedding._TOL, embedding._MAX_ITER, *weights)
    assert own[1] == 1 and len(set(own)) == 3 and max(own) < embedding._MAX_ITER


def test_search_with_seeds_settling_early_matches_three_pass_search(monkeypatch):
    # dense masses on d1 D2: the four seeds pass the gain test at different
    # steps, long before the step cap
    s = build_system(1, 2)
    rng = np.random.Generator(np.random.Philox(key=[48, 64]))
    data = CarlesonData(rng.random(s.num_cubes), 0.1 + rng.random(s.num_atoms))
    sizes = _batches(monkeypatch)
    embedding_ratio_search(s, data, 3.0, restarts=2, seed=48)
    monkeypatch.undo()
    steps = sizes[1:-1]  # after the masses
    assert steps[0] == 4 and steps[-1] == 1 and len(set(steps)) == 4
    assert len(steps) < embedding._MAX_ITER // 2
    _assert_near_three_pass_search(s, data, 3.0, 2, 48)


def test_tied_indicators_first_in_cube_order_wins():
    # the indicators of the two cubes with masses tie for the best ratio, and
    # of the two the first in cube order wins; an ascent iterate constant on
    # cube 2, or on cubes 2 and 3 (a tie too), may beat the tie by rounding:
    # the witness is constant on its support, which holds cube 2 and no atom
    # outside cubes 2 and 3, and its value is within 2 ulps of the tie
    s, data = _tied_indicators()
    for p in (1.5, 2.0, 3.0):
        ratios = [ref._embedding_ratio(s, data, s.atom_mask(c).astype(float), p) for c in range(s.num_cubes)]
        assert [c for c in range(s.num_cubes) if ratios[c] == max(ratios)] == [2, 3]
        for restarts in (0, 2):
            got = _assert_near_three_pass_search(s, data, p, restarts, 0)
            support = got.witness > 0.0
            assert np.array_equal(support & ~s.atom_mask(3), s.atom_mask(2))
            assert len(set(got.witness[support].tolist())) == 1
            assert abs(got.value - ratios[2]) <= 2 * math.ulp(ratios[2])


@pytest.mark.parametrize("cells", [1, 64, 100])
def test_search_in_small_chunks_matches_three_pass_search(monkeypatch, cells):
    # with few cells a chunk, the seeds span chunks, and every result is the
    # one of the default chunks
    cases = [
        (s, data, p, seed)
        for s in (build_system(1, 3), build_system(2, 2), build_system(1, 4))
        for seed in range(2)
        for data in _search_data(s, seed)
        for p in (1.5, 3.0)
    ]
    wants = [embedding_ratio_search(s, data, p, restarts=2, seed=seed) for s, data, p, seed in cases]
    monkeypatch.setattr(lattice, "_CHUNK_CELLS", cells)
    for (s, data, p, seed), want in zip(cases, wants):
        assert lattice.chunk_rows(s) < 4
        got = _assert_near_three_pass_search(s, data, p, 2, seed)
        assert (got.value, got.evaluations) == (want.value, want.evaluations)
        assert np.array_equal(got.witness, want.witness)


@pytest.mark.parametrize("dimension,depth", [(1, 12), (3, 4)])
def test_search_passes_stay_within_the_chunk_rule(monkeypatch, dimension, depth):
    # at the size guard no batched aggregation of the embedding search or of
    # the alternating maximization holds more rows than a chunk
    s = build_system(dimension, depth)
    rng = np.random.Generator(np.random.Philox(key=[dimension, depth]))
    nu = np.zeros(s.num_atoms)
    nu[rng.integers(s.num_atoms, size=3)] = 1.0  # few cubes with mass
    data = CarlesonData(rng.random(s.num_cubes), nu)
    inst = generate(GenSpec(seed=1, dimension=dimension, depth=depth, p=3.0))
    report = testing_report(inst)
    level_sums, batches = lattice.level_sums, []

    def recorded(sys, rows):
        batches.append(np.shape(rows)[:-2])
        return level_sums(sys, rows)

    monkeypatch.setattr(lattice, "level_sums", recorded)
    rows = lattice.chunk_rows(s)
    embedding_ratio_search(s, data, 3.0, restarts=2, seed=1)
    searched = len(batches)
    est = alternating_maximization(inst, restarts=1, max_iter=3, report=report)
    # the masses and at least one step of each seed
    assert searched >= 1 + 4
    # two passes a step, and two for the value of the winning pair
    assert len(batches) - searched == 2 * est.iterations + 2
    assert {len(batch) for batch in batches} <= {0, 1}
    assert max(math.prod(batch) for batch in batches) <= rows


# -- same-lattice searches in one lockstep ascent ------------------------------


def _batch_data(s):
    """Every ``_search_data`` case of seeds 0-2 (cubes without mass, no cube
    mass, mass on one cube) and, third, an instance whose measure is zero,
    so that its forward map vanishes at the first step; a seed for each."""
    datas = [data for seed in range(3) for data in _search_data(s, seed)]
    datas.insert(2, CarlesonData(datas[0].a, np.zeros(s.num_atoms)))
    return datas, [7 * k + 1 for k in range(len(datas))]


def _assert_same_search(got, want):
    assert (got.value, got.evaluations) == (want.value, want.evaluations)
    assert got.witness.tobytes() == want.witness.tobytes()


def _forward_calls(monkeypatch):
    """Record the arguments after the iterates, the weight rows ``nu``, ``a``
    and ``masses``, of every forward step of the searches' cube-average map."""
    maps, calls = embedding._average_maps, []

    def recorded(*args):
        forward, backward = maps(*args)

        def counted(*step):
            calls.append(step[1:])
            return forward(*step)

        return counted, backward

    monkeypatch.setattr(embedding, "_average_maps", recorded)
    return calls


@pytest.mark.parametrize("p", [1.25, 2.0, 3.0, 7.5])
def test_batched_searches_match_per_instance_searches(p):
    # each instance's result is its own search's, and the replaced search's,
    # whether each instance has a seed of its own or all share one
    for dimension, depth in SEARCH_SHAPES:
        s = build_system(dimension, depth)
        datas, distinct = _batch_data(s)
        for seeds in (distinct, [5] * len(datas)):
            got = embedding.embedding_ratio_searches(s, datas, p, 2, seeds)
            assert len(got) == len(datas)
            assert (got[2].value, got[2].evaluations) == (0.0, 3)  # one step of each seed
            for data, seed, result in zip(datas, seeds, got):
                _assert_same_search(result, embedding_ratio_search(s, data, p, restarts=2, seed=seed))
                _assert_same_search(result, ref.embedding_ratio_search_one(s, data, p, restarts=2, seed=seed))


@pytest.mark.parametrize("cells", [1, 100, 160])
def test_batched_searches_with_chunks_ending_inside_an_instance(monkeypatch, cells):
    # every cube has mass, so each instance has four starts; chunks of 3 or
    # 5 rows end inside an instance's rows and hold rows of two instances,
    # told apart by their measures
    cases = []
    for s in (build_system(1, 3), build_system(2, 2)):
        datas = [_search_data(s, seed)[0] for seed in range(5)]
        assert len(np.unique([data.nu for data in datas], axis=0)) == len(datas)
        for p in (1.5, 3.0):
            wants = [ref.embedding_ratio_search_one(s, data, p, 2, seed) for seed, data in enumerate(datas)]
            cases.append((s, datas, p, wants))
    monkeypatch.setattr(lattice, "_CHUNK_CELLS", cells)
    calls = _forward_calls(monkeypatch)
    for s, datas, p, wants in cases:
        calls.clear()
        got = embedding.embedding_ratio_searches(s, datas, p, 2, list(range(5)))
        rows = lattice.chunk_rows(s)
        spans = any(len(np.unique(nu, axis=0)) > 1 for nu, _, _ in calls)
        assert rows < 4 * len(datas) and spans == (4 % rows != 0)
        for result, want in zip(got, wants):
            _assert_same_search(result, want)


def test_verify_steps_its_embedding_searches_together(monkeypatch):
    # the 300 seeds of 50 instances at d1 D3 fit one chunk, so the check takes
    # at most the step cap of forward steps, where a search per instance took
    # about 1500
    calls = _forward_calls(monkeypatch)
    results, ok = verify.run_suite(seed=1, instances=50, p=2.0, dimension=1, depth=3)
    assert ok and "embedding-indicator-necessity" in [r.name for r in results]
    assert 0 < len(calls) <= embedding._MAX_ITER


# -- exclusive sums by one grouping against the per-member masks -------------


def _assert_same_report(inst, f, fam):
    got = stopping_embedding_report(inst, f, fam)
    want = ref.stopping_embedding_report_masks(inst, f, fam)
    for name in ("lhs", "rhs", "ratio"):
        assert getattr(got, name) == getattr(want, name), name
    # the two fields read off subtree totals, which the package adds in
    # lattice order and the reference in stopping-child order; these inputs
    # move them by at most 1.8 u
    u = 2.0**-53
    assert got.nu_carleson_factor == pytest.approx(want.nu_carleson_factor, rel=4 * u, abs=0.0)
    assert abs(got.alpha_identity_rel_err - want.alpha_identity_rel_err) <= 4 * u


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
        left = lattice.cube_from_path(inst.sys, "0")
        for top, A in ((inst.sys.root, None), (inst.sys.root, 1.5), (left, 1.25)):
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
