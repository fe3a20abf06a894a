"""Stopping-time construction: per-node stopping data against the references
that rebuild every node on each threshold doubling, the one-pass maximal
function against its per-scale definition, and monotonicity in theta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import AtomBasis, DyadicCube, RootBox, build_family
from dyadica.ensembles import mixed_function, plateau_function, wave_function
from dyadica.funcspace import GridFunction, maximal
from dyadica.sparse import (StoppingConfig, ThetaCapError, build_sparse,
                            gradient_stopping_children, stopping_children)
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
    f1 = GridFunction(root, plateau_function(rng, root).samples
                      + wave_function(rng, root).samples)
    return {"b": b, "g": g, "fs": [mixed_function(rng, basis, kind=seed + 2), noise],
            "f1": f1, "noise": noise}


def _assert_same(coll, ref):
    assert coll.generations == ref.generations
    assert list(coll.packing_by_parent.items()) == list(ref.packing_by_parent.items())
    assert coll.theta == ref.theta
    assert coll.truncated == ref.truncated
    assert coll.stopped_square_checks == ref.stopped_square_checks


def _boundary_cube(root):
    """The half of the unit box at the far end of the first axis: its
    dilates leave the box."""
    return DyadicCube(-1, (1,) + (0,) * (root.d - 1))


# -- configuration -------------------------------------------------------------

def test_config_rejects_cap_below_theta():
    with pytest.raises(ValueError, match="theta_cap"):
        StoppingConfig(theta=64.0, theta_cap=4.0)
    assert StoppingConfig(theta=64.0, theta_cap=64.0).theta_cap == 64.0


@pytest.mark.parametrize("depth", [0, -1])
def test_config_rejects_nonpositive_depth(depth):
    with pytest.raises(ValueError, match="max_depth"):
        StoppingConfig(max_depth=depth)
    assert StoppingConfig(max_depth=1).max_depth == 1


# -- maximal function ----------------------------------------------------------

@pytest.mark.parametrize("d, J", [(1, -8), (2, -5), (3, -3)])
@pytest.mark.parametrize("ps", [[1.0], [2.0], [np.inf], [1.0, 2.0], [np.inf, 1.0, 3.0],
                                [2.0, 2.0, 2.0]])
def test_maximal_matches_per_scale_definition(d, J, ps):
    root = RootBox(d=d, L=0, J=J)
    rng = np.random.default_rng([d, len(ps)])
    for trial in range(4):
        fs = [GridFunction(root, rng.standard_normal(root.shape)
                           * (rng.random(root.shape) < 0.3 * (trial + 1)))
              for _ in ps]
        assert np.array_equal(maximal(fs, ps).samples, oracles.maximal(fs, ps).samples)
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
def test_build_sparse_doublings_and_truncation_match_reference(spaces, d):
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
        cut = StoppingConfig(theta=2.0, packing_target=0.9, max_depth=1, mode=mode)
        coll = build_sparse(q0, inputs, cut, dic)
        assert coll.truncated and coll.generations
        _assert_same(coll, oracles.build_sparse(q0, inputs, cut, dic))
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

    def kids(t):
        if mode == "intest":
            return stopping_children(q0, data["b"], data["g"], data["fs"], cfg, dic, t)
        return gradient_stopping_children(q0, data["f1"], 1, cfg, dic.family.w, t)

    low, high = kids(theta), kids(2.0 * theta)
    assert all(any(z.contains(c) for z in low) for c in high)
    mass = [sum(c.measure for c in cubes) / q0.measure for cubes in (low, high)]
    assert mass[1] <= mass[0]
    inputs = {"f1": data["f1"], "n": 1} if mode == "mainiter" else \
        {"b": data["b"], "g": data["g"], "fs": data["fs"]}
    coll = build_sparse(q0, inputs, cfg, dic)
    assert coll.packing_by_parent
    assert all(r <= cfg.packing_target for r in coll.packing_by_parent.values())
