"""Stopping-time construction: per-node stopping data against the references
that rebuild every node on each threshold doubling, the one-pass maximal
function against its per-scale definition, and monotonicity in theta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import AtomBasis, DyadicCube, RootBox, build_family
from dyadica.ensembles import mixed_function
from dyadica.funcspace import GridFunction, grad_norm, maximal
from dyadica.sparse import (StoppingConfig, ThetaCapError, build_sparse, build_sparse_batch,
                            gradient_stops, intest_stops)
from dyadica.tlnorm import TestDictionary
from dyadica.wavelet import CoefficientTree


@pytest.fixture(scope="module")
def spaces(dict8):
    basis2 = AtomBasis(build_family(3), RootBox(d=2, L=0, J=-5))
    return {1: dict8, 2: TestDictionary(basis2, size=4)}


def _inputs(dictionary, seed):
    """b, g, two later slots and a mainiter f1, from one seed."""
    basis, root = dictionary.basis, dictionary.root
    rng = np.random.default_rng(seed)
    b = mixed_function(rng, basis, kind=seed)
    g = mixed_function(rng, basis, kind=seed + 1)
    noise = GridFunction(root, rng.standard_normal(root.shape))
    f1 = oracles.plateau_function(rng, root) + oracles.wave_function(rng, root)
    return {"b": b, "g": g, "fs": [mixed_function(rng, basis, kind=seed + 2), noise],
            "f1": f1, "noise": noise}


def _assert_same(coll, ref):
    assert coll.generations == ref.generations
    assert list(coll.packing_by_parent.items()) == list(ref.packing_by_parent.items())
    assert coll.theta == ref.theta
    assert coll.stopped_square_checks == ref.stopped_square_checks


def _assert_same_trial(coll, ref):
    """Equal to the one-trial recursion, the recorded bases included."""
    _assert_same(coll, ref)
    assert list(coll.bases) == list(ref.bases)
    assert all(np.array_equal(coll.bases[node], ref.bases[node]) for node in ref.bases)


def _boundary_cube(root):
    """The half of the unit box at the far end of the first axis: its
    dilates leave the box."""
    return DyadicCube(-1, (1,) + (0,) * (root.d - 1))


# -- configuration -------------------------------------------------------------

def test_config_rejects_cap_below_theta():
    with pytest.raises(ValueError, match="theta_cap"):
        StoppingConfig(theta=64.0, theta_cap=4.0)
    assert StoppingConfig(theta=64.0, theta_cap=64.0).theta_cap == 64.0


# -- maximal function ----------------------------------------------------------

@pytest.mark.parametrize("d, J", [(1, -8), (2, -5), (3, -3)])
# the reference takes one exponent per function; the program's are all 1,
# here for one to six functions
@pytest.mark.parametrize("ps", [[1.0] * count for count in range(1, 7)])
def test_maximal_matches_per_scale_definition(d, J, ps):
    root = RootBox(d=d, L=0, J=J)
    rng = np.random.default_rng([d, len(ps)])
    for trial in range(4):
        fs = [GridFunction(root, rng.standard_normal(root.shape)
                           * (rng.random(root.shape) < 0.3 * (trial + 1)))
              for _ in ps]
        assert np.array_equal(maximal(fs).samples, oracles.maximal(fs, ps).samples)
    assert np.array_equal(maximal(fs[0]).samples, oracles.maximal(fs[0]).samples)


# -- build_sparse against the rebuilding reference -----------------------------

@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nfs", [0, 1, 2])
@pytest.mark.parametrize("where", ["root", "boundary"])
def test_build_sparse_intest_matches_reference(spaces, d, nfs, where):
    dic = spaces[d]
    root = dic.root
    q0 = root.root_cube if where == "root" else _boundary_cube(root)
    cfg = StoppingConfig(theta=4.0, packing_target=0.25, mode="intest")
    for seed in range(3):
        data = _inputs(dic, seed)
        inputs = {"b": data["b"], "g": data["g"], "fs": data["fs"][:nfs]}
        _assert_same(build_sparse(q0, inputs, cfg, dic),
                     oracles.build_sparse(q0, inputs, cfg, dic))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("where", ["root", "boundary"])
@pytest.mark.parametrize("n", [1, 2])
def test_build_sparse_mainiter_matches_reference(spaces, d, where, n):
    dic = spaces[d]
    root = dic.root
    q0 = root.root_cube if where == "root" else _boundary_cube(root)
    cfg = StoppingConfig(theta=2.0, packing_target=0.25, mode="mainiter")
    for seed in range(3):
        data = _inputs(dic, seed)
        for f1 in (data["f1"], data["noise"]):
            inputs = {"f1": f1, "n": n}
            _assert_same(build_sparse(q0, inputs, cfg, dic),
                         oracles.build_sparse(q0, inputs, cfg, dic))


@pytest.mark.parametrize("d", [1, 2])
def test_build_sparse_doublings_match_reference(spaces, d):
    dic = spaces[d]
    q0 = dic.root.root_cube
    data = _inputs(dic, 0)
    intest = {"b": data["noise"], "g": data["g"], "fs": data["fs"][:1]}
    mainiter = {"f1": data["noise"], "n": 1}
    doubled = 0
    for mode, inputs in (("intest", intest), ("mainiter", mainiter)):
        cfg = StoppingConfig(theta=2.0, packing_target=2.0 ** -6, mode=mode)
        coll = build_sparse(q0, inputs, cfg, dic)
        _assert_same(coll, oracles.build_sparse(q0, inputs, cfg, dic))
        doubled += coll.theta >= 4.0 * cfg.theta
    assert doubled, "no case needed two doublings"


def test_build_sparse_theta_cap_matches_reference(spaces):
    dic = spaces[1]
    tree = CoefficientTree(dic.root)
    tree[DyadicCube(-6, (38,))] = 5.0
    spike = GridFunction(dic.root, dic.basis.synthesize(tree))
    inputs = {"b": spike, "g": spike, "fs": []}
    cfg = StoppingConfig(theta=2.0, packing_target=1e-12, theta_cap=8.0, mode="intest")
    for build in (build_sparse, oracles.build_sparse):
        with pytest.raises(ThetaCapError):
            build(dic.root.root_cube, inputs, cfg, dic)


# -- the batched build against the one-trial recursion -------------------------

def _member_inputs(dictionary, mode, seed):
    """Odd seeds swap white noise into b (intest) or f1 (mainiter), so the
    members of a batch need different numbers of doublings."""
    data = _inputs(dictionary, seed)
    if mode == "intest":
        return {"b": data["noise"] if seed % 2 else data["b"], "g": data["g"],
                "fs": data["fs"][:1]}
    return {"f1": data["noise"] if seed % 2 else data["f1"], "n": 1}


def _stacked(members):
    """The members' inputs as one batch; ``n`` is shared."""
    return {key: [GridFunction.stack(col) for col in zip(*(m[key] for m in members))]
            if key == "fs" else members[0][key] if key == "n"
            else GridFunction.stack([m[key] for m in members])
            for key in members[0]}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mode", ["intest", "mainiter"])
@pytest.mark.parametrize("size", [1, 2, 7])
# ``where`` is None for the root cube, or the boundary cube, whose dilates
# leave the box
@pytest.mark.parametrize("target, where", [(2.0 ** -4, None), (0.25, None),
                                           (0.25, "boundary")])
def test_build_sparse_batch_matches_trial_reference(spaces, d, mode, size, target, where):
    dic = spaces[d]
    q0 = dic.root.root_cube if where is None else _boundary_cube(dic.root)
    cfg = StoppingConfig(theta=2.0, packing_target=target, mode=mode)
    members = [_member_inputs(dic, mode, seed) for seed in range(size)]
    colls = build_sparse_batch(q0, _stacked(members), cfg, dic)
    assert len(colls) == size
    refs = [oracles.build_sparse_trial(q0, m, cfg, dic) for m in members]
    for coll, ref in zip(colls, refs):
        _assert_same_trial(coll, ref)
    if size == 7 and target < 0.25 and where is None:
        assert len({ref.theta for ref in refs}) > 1, "every member doubled alike"
        assert any(ref.generations for ref in refs)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mode", ["intest", "mainiter"])
def test_batched_select_matches_row_scans(spaces, d, mode):
    """One scan over a batch, each row at its own theta, selects what the
    one-member scan selects row by row."""
    dic = spaces[d]
    root = dic.root
    members = [_member_inputs(dic, mode, seed) for seed in range(6)]
    batch = _stacked(members)
    thetas = [2.0, 64.0, 4.0, 2.0, 16.0, 8.0]
    for q0 in (root.root_cube, _boundary_cube(root)):
        stops = (intest_stops(q0, batch["b"], batch["g"], batch["fs"], dic) if mode == "intest"
                 else gradient_stops(q0, grad_norm(batch["f1"], 1), dic.family.w))
        picks = stops.select(root, q0, thetas)
        rows = [oracles.select_one(stops[i], root, q0, t) for i, t in enumerate(thetas)]
        assert picks == rows
        assert len({len(p) for p in picks}) > 1


def test_build_sparse_batch_theta_cap_names_first_member(spaces):
    """The trial loop raises at its first member past the cap; so does the
    batch, whatever the members after it do."""
    dic = spaces[1]
    tree = CoefficientTree(dic.root)
    tree[DyadicCube(-6, (38,))] = 5.0
    spike = GridFunction(dic.root, dic.basis.synthesize(tree))
    cfg = StoppingConfig(theta=2.0, packing_target=2.0 ** -6, theta_cap=64.0, mode="intest")
    members = [_member_inputs(dic, "intest", seed) for seed in (1, 2, 5, 6)]
    members.insert(2, {"b": spike, "g": spike, "fs": [spike]})
    members.append({"b": spike, "g": members[0]["g"], "fs": [spike]})

    def first_capped(batch):
        for i, m in enumerate(batch):
            try:
                oracles.build_sparse_trial(dic.root.root_cube, m, cfg, dic)
            except ThetaCapError:
                return i
        return None

    batches = (members, members[:2] + members[3:], members[:2])
    firsts = [first_capped(batch) for batch in batches]
    assert firsts == [2, 4, None]
    for batch, first in zip(batches, firsts):
        if first is None:
            colls = build_sparse_batch(dic.root.root_cube, _stacked(batch), cfg, dic)
            assert len(colls) == len(batch)
            continue
        with pytest.raises(ThetaCapError, match=rf"^member {first}: threshold exceeded cap"):
            build_sparse_batch(dic.root.root_cube, _stacked(batch), cfg, dic)


# -- monotonicity in theta -----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), d=st.sampled_from([1, 2]),
       mode=st.sampled_from(["intest", "mainiter"]), log_theta=st.integers(1, 8),
       drop=st.integers(0, 2), index=st.integers(0, 15))
def test_selection_shrinks_as_theta_doubles(spaces, seed, d, mode, log_theta, drop, index):
    dic = spaces[d]
    root = dic.root
    scale = root.L - drop
    side = root.positions_per_side(scale)
    q0 = DyadicCube(scale, tuple((index >> (2 * ax)) % side for ax in range(d)))
    data = _inputs(dic, seed)
    theta = 2.0 ** log_theta
    cfg = StoppingConfig(theta=theta, packing_target=0.25, mode=mode)

    stops = (intest_stops(q0, data["b"], data["g"], data["fs"], dic) if mode == "intest"
             else gradient_stops(q0, grad_norm(data["f1"], 1), dic.family.w))

    def kids(t):
        return stops.select(root, q0, t)

    low, high = kids(theta), kids(2.0 * theta)
    assert all(any(oracles.contains(z, c) for z in low) for c in high)
    mass = [sum(c.measure for c in cubes) / q0.measure for cubes in (low, high)]
    assert mass[1] <= mass[0]
    inputs = {"f1": data["f1"], "n": 1} if mode == "mainiter" else \
        {"b": data["b"], "g": data["g"], "fs": data["fs"]}
    coll = build_sparse(q0, inputs, cfg, dic)
    assert coll.packing_by_parent
    assert all(r <= cfg.packing_target for r in coll.packing_by_parent.values())
