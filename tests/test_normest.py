import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from dyadlab import Instance, build_system, embedding, lattice, runner, verify, worked_instances
from dyadlab import io as dio
from dyadlab.cli import main
from dyadlab.errors import GuardError
from dyadlab.forms import lambda_form
from dyadlab.generators import GenSpec, generate, random_atom_function, random_scale_function, sweep
from dyadlab.measures import conjugate, ksum, lp_norm, mixed_norm
from dyadlab.normest import (
    NormEstimate,
    alternating_maximization,
    alternating_maximizations,
    attach_oracle,
    best_start,
    box_maps,
    grid_oracle,
    power_ascent,
    spectral_oracle_p2,
    testing_norm_ratios,
)
from dyadlab.testing_constants import testing_report

import _reference as ref

W = worked_instances()
ROOT2 = math.sqrt(2.0)


def test_best_f_given_g_on_w1():
    w1 = W["w1"]
    backward = box_maps(w1.sys, w1.p)[1]
    f, value = backward(np.ones(2), *ref.box_weights(w1))
    assert np.allclose(f, 0.5)
    assert value == pytest.approx(4.0, rel=1e-12)
    assert lambda_form(w1, f, np.ones(2)) == pytest.approx(4.0, rel=1e-12)
    zero_f, zero = backward(np.zeros(2), *ref.box_weights(w1))  # a vanished map: a zero row and 0.0
    assert zero_f.shape == (2, 2) and not zero_f.any() and zero == 0.0


def test_best_g_given_f_on_w1():
    w1 = W["w1"]
    forward = box_maps(w1.sys, w1.p)[0]
    f = np.full((2, 2), 0.5)  # unit mixed norm
    g, value = forward(f, *ref.box_weights(w1))
    assert value == pytest.approx(2 * ROOT2, rel=1e-12)
    assert np.allclose(g, 1 / ROOT2)
    zero_g, zero = forward(np.zeros((2, 2)), *ref.box_weights(w1))
    assert zero_g.shape == (2,) and not zero_g.any() and zero == 0.0


def test_half_steps_are_exact_suprema_p2():
    # at p = 2 the optimizers are proportional to the kernels
    w1 = W["w1"]
    g = np.array([0.3, 1.7])
    f, value = box_maps(w1.sys, w1.p)[1](g, *ref.box_weights(w1))
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


def _assert_exact_witnessed_ratio(inst):
    est = alternating_maximization(inst, restarts=4)
    norms = mixed_norm(est.witness_f, inst.sigma, inst.p) * lp_norm(est.witness_g, inst.omega, inst.q)
    assert est.value == lambda_form(inst, est.witness_f, est.witness_g) / norms


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_estimate_is_the_exact_witnessed_ratio(p):
    # the value is the winning pair's form over its norms, each an exact
    # sum, bit for bit: it does not rest on the ascent's own numpy sums
    for inst in sweep(1, 20, 1, 3, p):
        _assert_exact_witnessed_ratio(inst)
    for name in ("w1", "w2"):
        _assert_exact_witnessed_ratio(W[name])


def test_estimate_dominates_the_testing_constants_up_to_rounding():
    # exact arithmetic puts the estimate at or above max(T, T*); the rounded
    # witnessed ratio can read below it, on the p = 1.02 sweep (seeds 0-39 of
    # these shapes) in 30 of 240 rows, by 6.75 u at worst (d3 D1 seed 25).
    # d1 D1 rows run the grid oracle, so only its first four seeds are here.
    u = 2.0**-53
    for dimension, depth, count in ((1, 1, 4), (1, 3, 40), (1, 5, 40), (2, 1, 40), (2, 2, 40), (3, 1, 40)):
        for seed, inst in enumerate(sweep(0, count, dimension, depth, 1.02)):
            row = runner.evaluate_instance(inst, "sweep", seed)
            assert row.lambda_norm_lb >= max(row.T, row.Tstar) * (1 - 8 * u)


def test_alternating_degenerate():
    w1 = W["w1"]
    dead = Instance(w1.sys, 2.0, w1.sigma, w1.omega, w1.mu, np.zeros(3))
    est = alternating_maximization(dead, restarts=1)
    assert est.value == 0.0 and est.degenerate


# -- the lockstep driver against the per-seed loop ----------------------------


def _assert_same_estimate(got, want):
    assert got.value == want.value
    assert np.array_equal(got.witness_f, want.witness_f)
    assert np.array_equal(got.witness_g, want.witness_g)
    assert (got.iterations, got.restarts) == (want.iterations, want.restarts)


@pytest.mark.parametrize("cells", [None, 1, 64])
@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_alternating_matches_per_seed_loop(monkeypatch, p, cells):
    # three steps hit the cap; with 1 or 64 cells a chunk the seeds span
    # chunks of one or two rows
    shapes = [(1, 1), (1, 3), (2, 2), (3, 1)]
    if cells is not None:
        for n, d in shapes:
            s = build_system(n, d)
            monkeypatch.setattr(s, "chunk_rows", ref.chunk_rows(s, cells))
    for n, d in shapes:
        for seed in range(2):
            inst = generate(GenSpec(seed=seed, dimension=n, depth=d, p=p))
            rep = testing_report(inst)
            for restarts in range(5):
                for max_iter in (3, 400):
                    kwargs = dict(restarts=restarts, max_iter=max_iter, seed=seed, report=rep)
                    if restarts == 0:
                        for estimate in (alternating_maximization, ref.alternating_maximization_per_seed):
                            with pytest.raises(GuardError):
                                estimate(inst, **kwargs)
                        continue
                    got = alternating_maximization(inst, **kwargs)
                    _assert_same_estimate(got, ref.alternating_maximization_per_seed(inst, **kwargs))


# -- several instances of one lattice in one ascent ---------------------------


def _assert_same_estimate_bits(got, want):
    # every field of the estimate, the witnesses by their bytes
    assert (got.value, got.iterations, got.restarts) == (want.value, want.iterations, want.restarts)
    assert (got.converged, got.degenerate) == (want.converged, want.degenerate)
    assert got.witness_f.tobytes() == want.witness_f.tobytes()
    assert got.witness_g.tobytes() == want.witness_g.tobytes()
    assert (got.oracle_value, got.oracle_kind) == (want.oracle_value, want.oracle_kind)


def _batch_and_loop(insts, restarts, tol, max_iter, seeds):
    """The batched estimates and the per-instance ones, each instance with its testing report."""
    reports = [testing_report(inst) for inst in insts]
    loop = [
        alternating_maximization(inst, restarts, tol, max_iter, seed, report)
        for inst, report, seed in zip(insts, reports, seeds)
    ]
    return alternating_maximizations(insts, reports, restarts, tol, max_iter, seeds), loop


@pytest.mark.parametrize("few_rows", [False, True])
@pytest.mark.parametrize(
    "dim,depth,p,count,max_iter",
    # chunks of 512, 512, 7, 2 and 1 rows, or of at most 3 rows, so that
    # they end inside an instance
    [(1, 3, 2.0, 12, 400), (1, 3, 3.0, 12, 400), (1, 8, 2.0, 4, 400), (2, 5, 3.0, 3, 400), (3, 4, 3.0, 2, 30)],
)
def test_batched_ascents_are_the_per_instance_ascents(monkeypatch, dim, depth, p, count, max_iter, few_rows):
    # each instance's seeds step with its own weight rows, beside the other
    # instances' rows, and give the estimate of its own call: value,
    # witness bytes, iterations, restarts, converged and degenerate
    s = build_system(dim, depth)
    if few_rows:
        monkeypatch.setattr(s, "chunk_rows", min(3, s.chunk_rows))
    insts = [generate(GenSpec(seed=seed, dimension=dim, depth=depth, p=p)) for seed in range(1, count + 1)]
    seeds = [seed % 3 for seed in range(count)]  # instances may share a seed
    got, want = _batch_and_loop(insts, 2, 1e-10, max_iter, seeds)
    assert len(got) == count
    for one, other in zip(got, want):
        _assert_same_estimate_bits(one, other)
    assert not any(est.degenerate for est in got)


def test_a_degenerate_instance_inside_a_batch():
    # a null form among live ones: its seeds vanish at step 1, its estimate
    # is the degenerate zero, and its neighbours keep their own estimates
    insts = [generate(GenSpec(seed=seed, dimension=1, depth=3, p=3.0)) for seed in (1, 2)]
    base = insts[0]
    dead = Instance(base.sys, base.p, base.sigma, base.omega, base.mu, np.zeros(base.sys.num_cubes))
    got, want = _batch_and_loop([insts[0], dead, insts[1]], 3, 1e-10, 400, [0, 1, 2])
    for one, other in zip(got, want):
        _assert_same_estimate_bits(one, other)
    assert [est.degenerate for est in got] == [False, True, False] and got[1].value == 0.0


def test_an_empty_batch_has_no_estimates():
    assert alternating_maximizations([], [], 4, 1e-10, 1000, []) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_batch_raises_the_guard_error_the_loop_raises_first():
    # at p = 1.01, d1 D3 seed 1's winning witness vanishes and seeds 2-4
    # yield no pair, each naming its own testing constants
    insts = {seed: generate(GenSpec(seed=seed, dimension=1, depth=3, p=1.01)) for seed in range(1, 5)}
    for order in ([1, 2, 3], [3, 1, 2], [4, 2, 1]):
        batch = [insts[seed] for seed in order]
        reports = [testing_report(inst) for inst in batch]
        with pytest.raises(GuardError) as first:
            for inst, report, seed in zip(batch, reports, order):
                alternating_maximization(inst, restarts=2, seed=seed, report=report)
        with pytest.raises(GuardError) as batched:
            alternating_maximizations(batch, reports, 2, 1e-10, 1000, order)
        assert str(batched.value) == str(first.value)


def test_a_batch_takes_one_lattice_and_one_p():
    base = generate(GenSpec(seed=1, dimension=1, depth=3, p=2.0))
    for other in (
        generate(GenSpec(seed=2, dimension=1, depth=3, p=3.0)),
        generate(GenSpec(seed=2, dimension=1, depth=4, p=2.0)),
        generate(GenSpec(seed=2, dimension=3, depth=1, p=2.0)),  # 8 atoms, as d1 D3
    ):
        insts = [base, other]
        with pytest.raises(ValueError, match="one lattice and one p"):
            alternating_maximizations(insts, [testing_report(i) for i in insts], 2, 1e-10, 1000, [0, 0])


@pytest.mark.parametrize("argv", [["normest"], ["verify", "--instances", "3"], ["eval", "--instances", "1"]])
@pytest.mark.parametrize("tol", ["1", "inf", "nan"])
def test_a_tolerance_without_a_second_step_exits_3(capsys, argv, tol):
    # at seed 1, d1 D3, p 2, --tol inf used to stop all 7 seeds at step 1
    # and report converged, 4.9e-6 below the spectral oracle
    assert main([*argv, "--seed", "1", "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "tol must lie in (0, 1)" in captured.err


def assert_lockstep(sys, starts, forward, backward, tol, max_iter, *weights):
    """Run ``power_ascent`` on the rows of ``starts`` together and one by one,
    each with its rows of ``weights``.  The batch gives each start the value,
    pair, flag and step count of its single run, so the same winner; each of
    its steps is one forward pass over the rows whose own run is still going,
    with their rows of ``weights``: an extra weight, each start's index, says
    which rows they are.  Returns the steps of each single run."""
    alone = [
        power_ascent(
            sys, starts[i : i + 1], forward, backward, tol, max_iter, np.arange(1), *(w[i : i + 1] for w in weights)
        )
        for i in range(len(starts))
    ]
    own = [one[3][0] for one in alone]
    sizes = []

    def recorded(x, index, *w):
        sizes.append(len(x))
        assert index.tolist() == [i for i, n in enumerate(own) if n > len(sizes) - 1]
        for got, weight in zip(w, weights, strict=True):
            assert np.array_equal(got, weight[index.astype(np.intp)])
        return forward(x, *w)

    index = np.arange(len(starts), dtype=float)
    values, pairs, converged, steps = power_ascent(
        sys, starts, recorded, lambda y, _, *w: backward(y, *w), tol, max_iter, np.arange(len(starts)), index, *weights
    )
    assert sizes == [sum(n > step for n in own) for step in range(max(own))]
    assert steps == own
    assert values == [one[0][0] for one in alone]
    assert converged == [one[2][0] for one in alone]
    for pair, one in zip(pairs, alone):
        assert (pair is None) == (one[1][0] is None)
        if pair is not None:
            assert np.array_equal(pair[0], one[1][0][0]) and np.array_equal(pair[1], one[1][0][1])
    win = best_start(values, pairs, 0, len(values))
    assert win == [i for i, one in enumerate(alone) if one[0][0] == max(values)][0]
    assert values[win] > 0
    return own


def test_lockstep_rows_leave_at_different_steps_on_the_box_pair():
    # a zero scale function's forward map vanishes at once; the random and
    # constant rows stop by the gain test at steps of their own
    inst = generate(GenSpec(seed=3, dimension=1, depth=4, p=3.0))
    s, shape = inst.sys, (inst.sys.num_levels, inst.sys.num_atoms)
    rng = np.random.Generator(np.random.Philox(key=[3, 73]))
    starts = np.array([rng.random(shape), np.zeros(shape), np.ones(shape)])
    starts[0] /= mixed_norm(starts[0], inst.sigma, inst.p)
    starts[2] /= mixed_norm(starts[2], inst.sigma, inst.p)
    own = assert_lockstep(s, starts, *box_maps(s, inst.p), 1e-10, 400, *ref.box_weights(inst, len(starts)))
    assert own[1] == 1 and len(set(own)) == 3 and max(own) < 400


def test_alternating_takes_two_lattice_passes_per_step(monkeypatch):
    # each lockstep step is one batched box pass and one batched cube pass
    # over the live seeds; the winning pair's value takes one more of each
    inst = generate(GenSpec(seed=7, dimension=1, depth=3, p=3.0))
    rep = testing_report(inst)
    level_sums, sizes = lattice.level_sums, []

    def recorded(sys, rows):
        sizes.append(len(rows) if np.ndim(rows) == 3 else 0)
        return level_sums(sys, rows)

    monkeypatch.setattr(lattice, "level_sums", recorded)
    est = alternating_maximization(inst, restarts=3, report=rep)
    steps, last = sizes[:-2], sizes[-2:]
    assert last == [0, 0] and steps[0::2] == steps[1::2]
    assert steps[0] == est.restarts and steps[0::2] == sorted(steps[0::2], reverse=True)
    assert sum(steps[0::2]) == est.iterations and len(set(steps)) > 2


def test_a_nan_value_ends_its_row_at_once():
    # a NaN never passes the gain test; its row stops with that value and
    # pair, and a NaN after a finite step does not keep the earlier pair
    s = build_system(1, 2)
    starts = np.ones((3, s.num_levels, s.num_atoms))
    for finite_steps in (0, 2):
        calls = []

        def backward(y):
            calls.append(len(y))
            v = math.nan if len(calls) > finite_steps else 1.0 + len(calls)
            return np.full((len(y), s.num_levels, s.num_atoms), v), np.full(len(y), v)

        def forward(x):
            return x.sum(axis=1), np.ones(len(x))

        values, pairs, converged, steps = power_ascent(s, starts, forward, backward, 1e-10, 1000, np.arange(3))
        assert all(math.isnan(v) for v in values) and None not in pairs
        assert best_start(values, pairs, 0, 3) is None and converged == [False] * 3
        assert steps == [finite_steps + 1] * 3 and calls == [3] * (finite_steps + 1)


def test_each_row_keeps_its_weights_through_chunks_and_exits(monkeypatch):
    # a toy pair, x -> M x and y -> b M* y normed, M = B + c C (elementwise,
    # so a row's bits do not depend on the batch): the weights c and b give
    # each start a map of its own.  A zero start vanishes forward, b = 0
    # backward and b = NaN gives a NaN value, all at step 1 inside a chunk;
    # row 9 starts near the second singular vector and meets the cap; chunks
    # of three rows end inside the batch
    rng = np.random.Generator(np.random.Philox(key=[5, 20]))
    base, coupling = rng.random((3, 3)), rng.random((3, 3))
    starts, c, b = rng.random((11, 3)), 4.0 * rng.random(11), np.ones(11)
    starts[4], b[[1, 6]] = 0.0, [0.0, math.nan]
    starts[9] = np.linalg.svd(base + c[9] * coupling)[2][1] + 1e-3 * starts[9]

    def normed(z):
        v = np.linalg.norm(z, axis=1)
        return np.divide(z, v[:, None], out=np.zeros_like(z), where=v[:, None] > 0), v

    def forward(x, c, b):
        return normed(((base + c[:, None, None] * coupling) * x[:, None, :]).sum(axis=2))

    def backward(y, c, b):
        return normed(b[:, None] * ((base + c[:, None, None] * coupling) * y[:, :, None]).sum(axis=1))

    s = build_system(1, 1)
    monkeypatch.setattr(s, "chunk_rows", 3)
    values, pairs, converged, steps = power_ascent(s, starts, forward, backward, 1e-12, 8, np.arange(11), c, b)
    # the same rows as tables in reverse, each start's row picked by the owner index
    flipped = power_ascent(s, starts, forward, backward, 1e-12, 8, np.arange(11)[::-1], c[::-1], b[::-1])
    assert np.array_equal(flipped[0], values, equal_nan=True) and flipped[2:] == (converged, steps)
    assert [p and [a.tobytes() for a in p] for p in flipped[1]] == [p and [a.tobytes() for a in p] for p in pairs]
    for i in range(len(starts)):
        one = power_ascent(s, starts[i : i + 1], forward, backward, 1e-12, 8, np.arange(1), c[i : i + 1], b[i : i + 1])
        assert np.array_equal(values[i], one[0][0], equal_nan=True)
        assert (converged[i], steps[i]) == (one[2][0], one[3][0])
        assert (pairs[i] is None) == (one[1][0] is None)
        if pairs[i] is not None:
            assert np.array_equal(pairs[i][0], one[1][0][0]) and np.array_equal(pairs[i][1], one[1][0][1])
    assert [steps[i] for i in (1, 4, 6, 9)] == [1, 1, 1, 8] and not converged[9]
    assert pairs[4] is None and (pairs[1] is not None, values[1]) == (True, 0.0) and math.isnan(values[6])
    assert len(set(steps)) == 4 and sum(converged) == 7


def _assert_same_ascent(got, want):
    # values, converged flags and step counts with ==, pairs by their bytes
    assert got[0] == want[0] and got[2] == want[2] and got[3] == want[3]
    for pair, other in zip(got[1], want[1], strict=True):
        assert (pair is None) == (other is None)
        if pair is not None:
            assert [a.tobytes() for a in pair] == [b.tobytes() for b in other]


def _ascent_inputs(dim, depth, p, seed):
    """A generated instance with lambda zeroed on the coarser half of the
    cubes and mu on every other atom column, and starts of its box and
    embedding maps: zero rows, rows on the top level alone, the constant
    and random rows."""
    base = generate(GenSpec(seed=seed, dimension=dim, depth=depth, p=p))
    s, shape = base.sys, (base.sys.num_levels, base.sys.num_atoms)
    lam, mu = base.lam.copy(), base.mu.copy()
    lam[: s.num_cubes // 2] = 0.0
    mu[:, ::2] = 0.0
    rng = np.random.Generator(np.random.Philox(key=[seed, 74]))
    for inst in (base, Instance(s, p, base.sigma, base.omega, mu, lam)):
        top = np.zeros(shape)
        top[0] = 1.0
        starts = np.array([np.zeros(shape), top, np.ones(shape), *rng.random((3, *shape))])
        yield s, starts, *box_maps(s, p), ref.box_weights(inst, len(starts))
    nu, a = base.sigma.copy(), rng.random(s.num_cubes)
    nu[::2] = 0.0
    a[: s.num_cubes // 2] = 0.0
    for nu_i, a_i in ((base.sigma, rng.random(s.num_cubes)), (nu, a)):
        h = np.array([np.zeros(s.num_atoms), np.ones(s.num_atoms), *rng.random((3, s.num_atoms))])
        weights = (np.tile(nu_i, (len(h), 1)), np.tile(a_i, (len(h), 1)))
        masses = lattice.cube_sums(s, weights[0])
        weights += (masses, masses > 0)
        yield s, h, *embedding._average_maps(s, p), weights


def _late_vanishing_maps():
    """A toy pair x -> M x, y -> M* y, normed, whose forward map vanishes on
    row r at its step ``stop[r]`` (never where it is 0), as the box and
    embedding maps do past step 1 only by underflow.  Returns the step log
    to clear before each ascent and the two maps."""
    m = np.random.Generator(np.random.Philox(key=[6, 20])).random((3, 3))
    calls = []

    def normed(z):
        v = np.linalg.norm(z, axis=1)
        return np.divide(z, v[:, None], out=np.zeros_like(z), where=v[:, None] > 0), v

    def forward(x, stop):
        calls.append(len(x))
        y, v = normed(x @ m.T)
        off = stop == len(calls)
        return y * ~off[:, None], np.where(off, 0.0, v)

    return calls, forward, lambda y, stop: normed(y @ m)


@pytest.mark.parametrize("tol, max_iter", [(1e-10, 400), (1e-15, 7), (0.5, 3)])
def test_power_ascent_is_the_two_block_ascent(tol, max_iter):
    # a vanished forward map now stops its row through the gain test; every
    # start keeps the value, pair, flag and step count of the ascent that
    # gave that case its own block
    for dim, depth in [(1, 3), (2, 2), (3, 1), (1, 5)]:
        for p in (1.5, 3.0):
            for s, starts, forward, backward, weights in _ascent_inputs(dim, depth, p, seed=dim + depth):
                got = power_ascent(s, starts, forward, backward, tol, max_iter, np.arange(len(starts)), *weights)
                want = ref.power_ascent_two_blocks(s, starts, forward, backward, tol, max_iter, *weights)
                _assert_same_ascent(got, want)
    calls, forward, backward = _late_vanishing_maps()
    starts = np.random.Generator(np.random.Philox(key=[6, 21])).random((8, 3))
    stop = np.array([1.0, 2.0, 3.0, 0.0, 2.0, 0.0, 5.0, 0.0])
    runs = []
    for ascent, owner in ((power_ascent, [np.arange(len(starts))]), (ref.power_ascent_two_blocks, [])):
        calls.clear()
        runs.append(ascent(build_system(1, 1), starts, forward, backward, tol, max_iter, *owner, stop))
    _assert_same_ascent(*runs)
    # row 1 vanishes at step 2 and keeps its step-1 pair
    assert runs[0][1][0] is None and runs[0][1][1] is not None and runs[0][3][:2] == [1, 2]


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
def test_grid_oracle_is_the_two_sided_grid_oracle(p):
    # every shape with at most six degrees of freedom, with zero weights too
    for dim, depth in [(1, 0), (1, 1), (2, 0), (3, 0)]:
        for seed in range(3):
            inst = generate(GenSpec(seed=seed, dimension=dim, depth=depth, p=p))
            zero_sigma = Instance(inst.sys, p, np.zeros_like(inst.sigma), inst.omega, inst.mu, inst.lam)
            for case in (inst, zero_sigma):
                for resolution in (4, 9, 14, 19, 24):
                    assert grid_oracle(case, resolution) == ref.grid_oracle_two_sides(case, resolution)


# -- converged means within tol, by the Aitken estimate of the gap left --------


def test_converged_estimate_is_within_twice_tol_of_the_oracle():
    # d1 D6 seed 4: sigma_2 / sigma_1 is near 1, so the ascent gains little a
    # step; at 1000 steps the last gain passes the tol test 4.8e-9 below the
    # oracle, which a flag set by that test alone called converged
    inst = generate(GenSpec(seed=4, dimension=1, depth=6, p=2.0))
    oracle = spectral_oracle_p2(inst)
    est = alternating_maximization(inst, restarts=1, max_iter=1000)
    assert (oracle - est.value) / oracle > 2e-10 and not est.converged
    assert ref.alternating_maximization_per_seed(inst, restarts=1, max_iter=1000).converged
    for d in range(1, 5):
        inst = generate(GenSpec(seed=d, dimension=1, depth=d, p=2.0))
        oracle = spectral_oracle_p2(inst)
        est = alternating_maximization(inst, restarts=2)
        assert est.converged and (oracle - est.value) / oracle <= 2e-10


# -- no degenerate zero for a form that is not null -------------------------


def _scaled(inst, sigma=1.0, lam=1.0):
    return Instance(inst.sys, inst.p, inst.sigma * sigma, inst.omega, inst.mu, inst.lam * lam)


def _pairless_cases():
    """Forms with a positive testing constant on which no ascent seed yields
    a pair: NaN iterates at p = 1.01, an underflowing and two overflowing
    scalings."""
    spec = partial(GenSpec, seed=2)
    return [
        generate(spec(dimension=1, depth=4, p=1.01)),
        _scaled(generate(spec(dimension=2, depth=3, p=3.0)), sigma=1e-200),
        _scaled(generate(spec(dimension=1, depth=3, p=2.0)), lam=1e300),
        _scaled(generate(spec(dimension=1, depth=3, p=3.0)), sigma=1e250),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(4))
def test_no_pair_with_a_positive_testing_constant_is_a_guard_error(tmp_path, capsys, case):
    inst = _pairless_cases()[case]
    rep = testing_report(inst)
    assert rep.forward.value > 0 or rep.dual.value > 0
    with pytest.raises(GuardError, match="no ascent seed yields a pair"):
        alternating_maximization(inst, restarts=4, report=rep)
    with pytest.raises(GuardError, match="no ascent seed yields a pair"):
        runner.evaluate_instance(inst, "pairless", 2)
    path = tmp_path / "inst.json"
    with open(path, "w") as fp:
        dio.write_instance(inst, fp)
    assert main(["normest", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "no ascent seed yields a pair" in captured.err
    if case == 0:  # eval generates its instances: the p = 1.01 one is reachable
        assert main(["eval", "--seed", "2", "--p", "1.01", "--dim", "1", "--depth", "4"]) == 3
        assert capsys.readouterr().out == ""


def _vanishing_cases(tmp_path):
    """Three runs whose winning f comes back all zeros, each as a library call
    and as the CLI run that reaches it: at p = 1.01 ``mixed_norming`` raises
    the l2 slice to q - 2 = 99, and scaling by powers of two leaves the
    range; the power underflows."""
    base = generate(GenSpec(seed=155, dimension=2, depth=1, p=2.0))
    scaled = Instance(
        base.sys, base.p, base.sigma * 2.0**-554, base.omega * 2.0**23, base.mu, base.lam * 2.0**557
    )
    path = tmp_path / "scaled.json"
    with open(path, "w") as fp:
        dio.write_instance(scaled, fp)
    return [
        (
            partial(runner.evaluate_instance, next(sweep(1, 1, 1, 3, 1.01)), "sweep", 1),
            ["eval", "--seed", "1", "--p", "1.01", "--depth", "3"],
        ),
        (partial(verify.run_suite, seed=1, instances=50, p=1.01), ["verify", "--p", "1.01", "--instances", "50"]),
        (partial(runner.evaluate_instance, scaled, "scaled", 155), ["eval", "--in", str(path), "--seed", "155"]),
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(3))
def test_a_winning_witness_that_vanished_is_a_guard_error(tmp_path, capsys, case):
    run, argv = _vanishing_cases(tmp_path)[case]
    with pytest.raises(GuardError, match="winning witness vanished"):
        run()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "winning witness vanished" in captured.err


def test_alternating_guards():
    with pytest.raises(GuardError):
        alternating_maximization(W["w1"], restarts=0)
    with pytest.raises(GuardError):
        alternating_maximization(W["w1"], tol=0.0)
    # every ascent starts at value 0.0, so its first gain is its whole value:
    # at tol >= 1 no seed would take a second step
    for tol in (1.0, math.inf, math.nan):
        with pytest.raises(GuardError, match=r"tol must lie in \(0, 1\)"):
            alternating_maximization(W["w1"], tol=tol)


def test_alternating_dominates_testing_constants():
    for seed, p in [(1, 2.0), (2, 2.5), (3, 3.0), (4, 4.0)]:
        inst = generate(GenSpec(seed=seed, depth=3, p=p))
        rep = testing_report(inst)
        est = alternating_maximization(inst, restarts=2, report=rep)
        assert est.value >= max(rep.forward.value, rep.dual.value) - 1e-9


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
    kernel = ref.form_kernel(inst)
    assert np.array_equal(kernel, ref.form_kernel_shared_levels(inst))
    assert np.array_equal(kernel, ref.form_kernel_cumsum(inst))
    terms = inst.sigma[None, :, None] * f[:, :, None] * kernel * (inst.omega * g)[None, None, :]
    assert ksum(terms) == pytest.approx(lambda_form(inst, f, g), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_spectral_matches_numpy_svd(seed):
    inst = generate(GenSpec(seed=seed + 40, depth=3, p=2.0))
    s = inst.sys
    kernel = ref.form_kernel(inst)
    m = (
        np.sqrt(inst.sigma)[None, :, None] * kernel * np.sqrt(inst.omega)[None, None, :]
    ).reshape(s.num_levels * s.num_atoms, s.num_atoms)
    expect = float(np.linalg.svd(m, compute_uv=False)[0])
    assert spectral_oracle_p2(inst) == pytest.approx(expect, rel=1e-9)


# every shape within the dense kernel's size guard
ORACLE_SHAPES = [(1, d) for d in range(10)] + [(2, d) for d in range(1, 5)] + [(3, d) for d in range(1, 4)]


def _within_rounding(inst, value):
    """``value`` is within 4 r u of both the dense-kernel oracle and the
    ``svd`` of the weighted kernel, r = L A its row count: the Gram matrix of
    a nonnegative matrix carries entrywise relative error of about r u at
    most, so sigma_max does too."""
    s = inst.sys
    m = (
        np.sqrt(inst.sigma)[None, :, None] * ref.form_kernel(inst) * np.sqrt(inst.omega)[None, None, :]
    ).reshape(s.num_levels * s.num_atoms, s.num_atoms)
    tol = 4 * len(m) * np.finfo(np.float64).eps / 2
    for expect in (ref.spectral_oracle_p2_dense(inst), float(np.linalg.svd(m, compute_uv=False)[0])):
        assert abs(value - expect) <= tol * expect


@pytest.mark.parametrize(
    "n,d,seed",
    # d1 D6 seed 4 and d3 D3 seed 3: slow power-iteration instances, sigma2/sigma1 near 1
    [(n, d, seed) for n, d in ORACLE_SHAPES for seed in range(5)],
)
def test_spectral_oracle_within_rounding_of_svd(n, d, seed):
    inst = generate(GenSpec(seed=seed, dimension=n, depth=d, p=2.0))
    _within_rounding(inst, spectral_oracle_p2(inst))


def _with(inst, sigma=None, omega=None, lam=None):
    return Instance(
        inst.sys,
        inst.p,
        inst.sigma if sigma is None else sigma,
        inst.omega if omega is None else omega,
        inst.mu,
        inst.lam if lam is None else lam,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,d", [(1, 1), (1, 5), (2, 2), (3, 2)])
def test_spectral_oracle_edge_cases(n, d):
    base = generate(GenSpec(seed=d, dimension=n, depth=d, p=2.0))
    s = base.sys
    edges = []  # lam on the root only, on one atom cube, on every atom cube
    for cubes in ([s.root], [s.num_cubes - 1], range(int(s.level_offset[d]), s.num_cubes)):
        lam = np.zeros(s.num_cubes)
        lam[list(cubes)] = base.lam[list(cubes)] + 0.5
        edges.append(_with(base, lam=lam))
    for zero in (slice(None, None, 2), slice(1, None, 3)):
        sigma, omega = base.sigma.copy(), base.omega.copy()
        sigma[zero], omega[zero] = 0.0, 0.0
        edges += [_with(base, sigma=sigma), _with(base, omega=omega)]
    for inst in edges:
        _within_rounding(inst, spectral_oracle_p2(inst))
    # 2**k scales lam exactly: the value scales with it to 4 r u
    value, tol = spectral_oracle_p2(base), 4 * s.num_levels * s.num_atoms * np.finfo(np.float64).eps / 2
    for k in (-200, 200):
        scaled = spectral_oracle_p2(_scaled(base, lam=2.0**k))
        assert abs(scaled - value * 2.0**k) <= tol * value * 2.0**k
    assert spectral_oracle_p2(_scaled(base, lam=1e300)) == math.inf


def test_spectral_oracle_keeps_the_dense_kernel_guard():
    # the tree-built Gram matrix never holds the kernel, but the same rows
    # carry an oracle value as before
    with pytest.raises(GuardError, match="too large"):
        spectral_oracle_p2(generate(GenSpec(seed=0, dimension=1, depth=10, p=2.0)))
    with pytest.raises(GuardError, match="too large"):
        spectral_oracle_p2(generate(GenSpec(seed=0, dimension=2, depth=5, p=2.0)))


@pytest.mark.parametrize("n,d", [(1, 9), (3, 3)])
def test_spectral_oracle_holds_no_dense_kernel(n, d):
    # peak allocation below one float64 (L, A, A) array: 20 MiB and 8 MiB
    inst = generate(GenSpec(seed=0, dimension=n, depth=d, p=2.0))
    s = inst.sys
    tracemalloc.start()
    try:
        spectral_oracle_p2(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.num_levels * s.num_atoms * s.num_atoms * 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_spectral_oracle_is_infinite_when_the_gram_matrix_overflows():
    # lambda * 2**600 puts the Gram matrix's entries near 2**1200
    base = generate(GenSpec(seed=2, dimension=1, depth=3, p=2.0))
    for scale in (2.0**600, 1e300):
        big = Instance(base.sys, base.p, base.sigma, base.omega, base.mu, base.lam * scale)
        assert spectral_oracle_p2(big) == math.inf


def test_grid_oracle_examples():
    # 2-DOF single cell: exact rank-one value
    w2 = W["w2"]
    rep = testing_report(w2)
    value = grid_oracle(w2, resolution=8)
    assert value == pytest.approx(8.0, rel=1e-12)
    assert value == pytest.approx(rep.forward.value, rel=1e-12)

    assert grid_oracle(W["w1"], resolution=16) == pytest.approx(2 * ROOT2, rel=1e-2)
    dead = Instance(W["w1"].sys, 2.0, [1, 1], [1, 1], np.ones((2, 2)), np.zeros(3))
    assert grid_oracle(dead, resolution=4) == 0.0
    with pytest.raises(GuardError):
        grid_oracle(generate(GenSpec(seed=1, depth=3)), resolution=4)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_grid_oracle_within_rounding_of_the_dense_kernel(p):
    # the operators' images of the unit inputs are the weighted kernel up to
    # the order of one product per entry, so the values agree to a few u
    for seed in range(20):
        for depth in (0, 1):
            inst = generate(GenSpec(seed=seed, dimension=1, depth=depth, p=p))
            value, expect = grid_oracle(inst, resolution=12), ref.grid_oracle_dense(inst, 12)
            assert abs(value - expect) <= 4 * np.finfo(np.float64).eps / 2 * expect


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
    forward, backward = box_maps(inst.sys, inst.p)
    for _ in range(30):
        g, vg = forward(f, *ref.box_weights(inst))
        assert vg >= prev * (1 - 1e-12)
        f, vf = backward(g, *ref.box_weights(inst))
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


def _ratios(inst):
    rep = testing_report(inst)
    return testing_norm_ratios(inst, alternating_maximization(inst, report=rep), rep)


def test_testing_norm_ratios_w1():
    ratios = _ratios(W["w1"])
    assert ratios.upper == pytest.approx(0.5, abs=1e-9)
    assert ratios.lower == pytest.approx(1.0, abs=1e-9)


def test_testing_norm_ratios_guards():
    w1 = W["w1"]
    dead = Instance(w1.sys, 2.0, w1.sigma, w1.omega, w1.mu, np.zeros(3))
    with pytest.raises(ValueError):
        _ratios(dead)
    with pytest.raises(GuardError):
        _ratios(W["w3"])
    # a vanished or non-finite estimate against positive testing constants is
    # a guard violation naming the value, not a ZeroDivisionError or an inf/NaN ratio
    rep = testing_report(w1)
    f, g = np.ones((w1.sys.num_levels, w1.sys.num_atoms)), np.ones(w1.sys.num_atoms)
    for value in (0.0, math.inf, math.nan):
        est = NormEstimate(value, f, g, iterations=0, restarts=0, converged=True, degenerate=False)
        with pytest.raises(GuardError, match=f"norm estimate {value} "):
            testing_norm_ratios(w1, est, rep)


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
