import numpy as np
import pytest

from dyadlab import GenSpec, adversarial_family, generate, worked_instances
from dyadlab import generators, io
from dyadlab.generators import (
    philox,
    deep_chain_profiles,
    lemma_violation_fixture,
    random_atom_function,
    random_scale_function,
)

import _reference as ref


def test_generation_is_deterministic():
    spec = GenSpec(seed=42, dimension=1, depth=2)
    assert io.digest(generate(spec)) == io.digest(generate(spec))
    other = generate(GenSpec(seed=43, dimension=1, depth=2))
    assert io.digest(other) != io.digest(generate(spec))


def test_fixed_stream_ids_are_distinct():
    # the instance components, the auxiliary draws, and the fixed draws of
    # embed-check and verify: no two of them share a Philox stream of a seed
    names = ["_SIGMA", "_OMEGA", "_MU", "_LAMBDA"] + [n for n in dir(generators) if n.startswith("STREAM_")]
    ids = [getattr(generators, name) for name in names]
    assert len(ids) == 13 and len(set(ids)) == len(ids)
    assert (generators.STREAM_LABELS, generators.STREAM_ATOMS, generators.STREAM_F2,
            generators.STREAM_DATA, generators.STREAM_CELLS) == (77, 100, 21, 200, 201)


def test_seed42_digest_frozen():
    # pins the exact byte stream of the generator for seed 42, n=1, D=2
    inst = generate(GenSpec(seed=42, dimension=1, depth=2))
    assert (
        io.digest(inst)
        == "e86f1f8f25bced3b42bdc49ada75330348404fce28ffaf0df6ba9a5842ece94d"
    )


@pytest.mark.filterwarnings("error")
def test_negative_seeds_draw_their_own_streams():
    digests = {seed: io.digest(generate(GenSpec(seed=seed, depth=2))) for seed in (-1, -2, 0)}
    assert len(set(digests.values())) == 3
    # nonnegative seeds keep the draws of the plain (seed, stream) key
    for seed in (0, 7, 123456789, 2**63 - 1):
        for stream in (0, 12):
            want = np.random.Generator(np.random.Philox(key=[seed, stream])).random(8)
            assert np.array_equal(philox(seed, stream).random(8), want)


# Every stream id the package draws from: the instance components 0-3, the
# auxiliary draws 10-13, verify's 21, 100, 200 and 201, embed-check's 77 and
# the ascents' restarts 0-31.
PACKAGE_STREAMS = sorted({*range(4), *range(10, 14), 21, 77, 100, 200, 201, *range(32)})


def _state(rng):
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()}, "buffer": state["buffer"].tolist()}


def test_philox_streams_are_numpys_keyed_streams():
    # the key handed over without a seed sequence gives numpy's own keyed
    # stream: the same bit-generator state and the same draws.  The key is a
    # uint64 array, as the package builds it: numpy reads a list holding an
    # int at or above 2**63 as floats, which key 2**64 - 1 as 0.
    for seed in (0, 1, -1, -5, 2**63 - 1, 2**63, 2**64 - 1):
        for stream in PACKAGE_STREAMS:
            got = philox(seed, stream)
            key = np.array([seed % 2**64, stream], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key))
            assert _state(got) == _state(want)
            assert got.random(1000).tobytes() == want.random(1000).tobytes()
            assert _state(got) == _state(want)


def test_generated_instances_satisfy_invariants():
    for seed in range(5):
        inst = generate(GenSpec(seed=seed, dimension=1, depth=3, p=2.5))
        assert np.isfinite(inst.sigma).all() and (inst.sigma >= 0).all()
        assert np.isfinite(inst.mu).all() and (inst.mu >= 0).all()
        assert inst.lam.shape == (inst.sys.num_cubes,)


def test_worked_instances_values():
    w = worked_instances()
    assert w["w1"].p == 2.0 and w["w1"].sys.depth == 1
    assert np.array_equal(w["w1"].mu, np.ones((2, 2)))
    assert w["w2"].p == 4.0 and w["w2"].mu[0, 0] == 8.0
    assert w["w3"].p == 1.5 and w["w3"].sigma[1] == 0.0
    inst, f, parts = lemma_violation_fixture()
    assert np.array_equal(f, np.ones((2, 2)))
    # the first atom's cell on each level
    assert np.array_equal(parts, [[[True, False], [False, False]], [[False, False], [True, False]]])


def test_random_functions_are_stream_stable():
    sys = generate(GenSpec(seed=1, depth=2)).sys
    a = random_scale_function(sys, 5)
    b = random_scale_function(sys, 5)
    assert np.array_equal(a, b)
    c = random_scale_function(sys, 5, stream=99)
    assert not np.array_equal(a, c)
    g1 = random_atom_function(sys, 5)
    g2 = random_atom_function(sys, 6)
    assert not np.array_equal(g1, g2)


def test_adversarial_kinds():
    fam = ref.adversarial_family("point-mass-sigma", depth=2, count=3)
    for inst in fam:
        assert (inst.sigma > 0).sum() == 1

    fam = ref.adversarial_family("single-scale-mu", depth=2, count=3)
    for inst in fam:
        assert (inst.mu.sum(axis=1) > 0).sum() == 1

    fam = ref.adversarial_family("lacunary-lambda", depth=3, count=2)
    for inst in fam:
        support = np.flatnonzero(inst.lam)
        # one coefficient per level along a single chain
        assert len(support) == inst.sys.num_levels
        levels = [inst.sys.level_of(int(l)) for l in support]
        assert sorted(levels) == list(range(inst.sys.num_levels))

    fam = adversarial_family("deep-chain", depth=4, p=3.0)
    assert len(fam) == 1
    inst = fam[0]
    ratios = inst.mu[1:] / inst.mu[:-1]
    assert np.allclose(ratios, ratios[0, 0])

    # the package builds the deep chain alone; the other kinds are test fixtures
    for kind in ("unknown-kind",) + ref.ADVERSARIAL_KINDS[:3]:
        with pytest.raises(ValueError, match="unknown adversarial kind"):
            adversarial_family(kind)


@pytest.mark.parametrize("dimension, depth", [(1, 0), (1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_deep_chain_is_the_reference_deep_chain(dimension, depth, p):
    (inst,) = adversarial_family("deep-chain", dimension=dimension, depth=depth, p=p)
    (want,) = ref.adversarial_family("deep-chain", dimension=dimension, depth=depth, p=p)
    assert io.canonical_bytes(inst) == io.canonical_bytes(want)


def test_single_scale_identity_chain_still_exact():
    from dyadlab.forms import phi_identity_check

    for inst in ref.adversarial_family("single-scale-mu", depth=2, count=2, p=3.0):
        assert np.all(phi_identity_check(inst).max_rel_spread <= 1e-10)


def test_point_mass_sigma_reduces_mixed_norm():
    from dyadlab.measures import ell2_slice, mixed_norm

    for inst in ref.adversarial_family("point-mass-sigma", depth=2, count=2, p=3.0):
        atom = int(np.flatnonzero(inst.sigma)[0])
        f = random_scale_function(inst.sys, 9)
        expect = inst.sigma[atom] ** (1 / inst.p) * ell2_slice(f)[atom]
        assert mixed_norm(f, inst.sigma, inst.p) == pytest.approx(expect, rel=1e-12)


def test_deep_chain_profiles_force_stopping():
    from dyadlab.stopping import build_average_family, build_ratio_family

    inst = adversarial_family("deep-chain", depth=5, p=4.0)[0]
    f, g = deep_chain_profiles(inst.sys)
    ffam = build_ratio_family(inst, inst.sys.root, f)
    gfam = build_average_family(inst, inst.sys.root, g)
    assert len(ffam.members) > 1
    assert len(gfam.members) > 1
