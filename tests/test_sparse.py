import numpy as np
import pytest

import oracles
from dyadica import DyadicCube
from dyadica.ensembles import atom_tree, mixed_function
from dyadica.funcspace import GridFunction, local_average, maximal
from dyadica.paraproduct import ParaproductSpec, intrinsic_form
from dyadica.sparse import (SparseCollection, StoppingConfig, ThetaCapError,
                            build_sparse, intest_stops, sparse_form_eval,
                            taylor_telescoping_ratio, verify_domination)
from dyadica.tlnorm import square_function
from dyadica.wavelet import CoefficientTree


@pytest.fixture()
def cfg_intest():
    return StoppingConfig(theta=16.0, packing_target=2.0 ** -6, mode="intest")


@pytest.fixture()
def cfg_main():
    return StoppingConfig(theta=16.0, packing_target=0.25, mode="mainiter")


def _children(q0, b, g, fs, dictionary, theta):
    """One node's selection at one theta."""
    return intest_stops(q0, b, g, fs, dictionary).select(dictionary.root, q0, theta)


def test_config_validation():
    with pytest.raises(ValueError):
        StoppingConfig(theta=0.5)
    with pytest.raises(ValueError):
        StoppingConfig(packing_target=1.5)
    with pytest.raises(ValueError):
        StoppingConfig(mode="other")


def test_stopping_constants_empty(dict8, basis8, cfg_intest):
    ones = GridFunction.from_callable(basis8.root, lambda x: 1.0)
    q0 = basis8.root.root_cube
    assert _children(q0, ones, ones, [ones], dict8, cfg_intest.theta) == []


def test_stopping_theta_infinite_empty(dict8, basis8, cfg_intest, rng):
    b = mixed_function(rng, basis8, kind=0)
    g = mixed_function(rng, basis8, kind=1)
    q0 = basis8.root.root_cube
    kids = _children(q0, b, g, [], dict8, theta=1e30)
    assert kids == []


def test_stopping_children_brute_force_predicate(dict8, basis8, cfg_intest, rng):
    # concentrated g: selected cubes match an exhaustive predicate scan
    root = basis8.root
    tree = CoefficientTree(root)
    z = DyadicCube(-6, (38,))
    tree[z] = 60.0
    g = GridFunction(root, basis8.synthesize(tree)
                     + 0.05 * mixed_function(rng, basis8, kind=1).samples)
    b = mixed_function(rng, basis8, kind=1)
    f2 = mixed_function(rng, basis8, kind=2)
    q0 = DyadicCube(-1, (1,))
    theta = 8.0
    kids = _children(q0, b, g, [f2], dict8, theta)

    sb = square_function(b, q0, 0.0, 2.0, dict8).samples
    sg = square_function(g, q0, 0.0, 2.0, dict8).samples
    thr_b = theta * float(np.mean(sb[root.window_slices(q0)]))
    thr_g = theta * float(np.mean(sg[root.window_slices(q0)]))
    w = dict8.family.w
    masked = GridFunction.zeros(root)
    masked.samples[root.window_slices(q0, w)] = f2.samples[root.window_slices(q0, w)]
    mm = maximal(masked).samples
    thr_2 = theta * local_average(f2, q0, 1.0, w)

    def predicate(cube):
        sl = root.window_slices(cube)
        return (np.min(sb[sl]) > thr_b or np.min(sg[sl]) > thr_g
                or np.min(mm[sl]) > thr_2)

    expected = []
    for cube in oracles.descendants(root, q0):
        if predicate(cube) and not any(oracles.contains(k, cube) for k in expected):
            expected.append(cube)
    assert set(kids) == set(expected)
    assert kids, "the planted spike should trigger selections"
    assert all(oracles.contains(q0, k) for k in kids)


def test_build_sparse_constant_inputs(dict8, basis8, cfg_intest):
    ones = GridFunction.from_callable(basis8.root, lambda x: 1.0)
    coll = build_sparse(basis8.root.root_cube, {"b": ones, "g": ones, "fs": []},
                        cfg_intest, dict8)
    assert coll.generations == []
    assert coll.cubes() == [basis8.root.root_cube]


def test_build_sparse_packing_and_decay(dict8, basis8, cfg_intest, rng):
    q0 = basis8.root.root_cube
    for i in range(20):
        b = mixed_function(rng, basis8, kind=i)
        g = mixed_function(rng, basis8, kind=i + 1)
        f2 = mixed_function(rng, basis8, kind=i + 2)
        coll = build_sparse(q0, {"b": b, "g": g, "fs": [f2]}, cfg_intest, dict8)
        assert all(r <= cfg_intest.packing_target
                   for r in coll.packing_by_parent.values())
        ratios = oracles.generation_ratios(coll)
        assert all(b2 <= a * cfg_intest.packing_target + 1e-15
                   for a, b2 in zip([1.0] + ratios, ratios))
        assert oracles.total_measure(coll) <= q0.measure / (1 - cfg_intest.packing_target)
        assert all(s <= bnd + 1e-9 for s, bnd in coll.stopped_square_checks)


def test_build_sparse_theta_cap(dict8, basis8, rng):
    cfg = StoppingConfig(theta=2.0, packing_target=1e-12, theta_cap=8.0,
                         mode="intest")
    tree = CoefficientTree(basis8.root)
    tree[DyadicCube(-6, (38,))] = 5.0
    g = GridFunction(basis8.root, basis8.synthesize(tree))
    with pytest.raises(ThetaCapError):
        build_sparse(basis8.root.root_cube,
                     {"b": g, "g": g, "fs": []}, cfg, dict8)


def test_gradient_stopping_mainiter(dict8, basis8, cfg_main, rng):
    f1 = oracles.plateau_function(rng, basis8.root) + oracles.wave_function(rng, basis8.root)
    coll = build_sparse(basis8.root.root_cube, {"f1": f1, "n": 1}, cfg_main, dict8)
    assert all(r <= cfg_main.packing_target
               for r in coll.packing_by_parent.values())
    # maximality: no selected cube contains another within a generation
    for gen in coll.generations:
        for a in gen:
            for b in gen:
                assert a == b or not oracles.contains(a, b)


def _recorded(coll, b, g, dictionary):
    """``coll`` with the means of S b and S g an intest build records."""
    coll.bases = {cube: intest_stops(cube, b, g, [], dictionary).bases
                  for cube in coll.cubes()}
    return coll


def test_sparse_form_eval_examples(dict8, basis8, rng):
    root = basis8.root
    ones = GridFunction.from_callable(root, lambda x: 1.0)
    coll = _recorded(SparseCollection(root_cube=root.root_cube), ones, ones, dict8)
    assert sparse_form_eval(coll, []) < 1e-12
    # singleton collection, single-atom b and g: closed one-term value
    z = DyadicCube(-4, (8,))
    tree = CoefficientTree(root)
    tree[z] = 1.0
    f = GridFunction(root, basis8.synthesize(tree))
    singleton = _recorded(SparseCollection(root_cube=z), f, f, dict8)
    val = sparse_form_eval(singleton, [])
    sq = square_function(f, z, 0.0, 2.0, dict8).samples
    mean = float(np.mean(sq[root.window_slices(z)]))
    assert val == pytest.approx(z.measure * mean * mean, rel=1e-10)
    # monotone under enlarging the collection
    bigger = _recorded(SparseCollection(root_cube=z, generations=[[z.child(0), z.child(1)]]),
                       f, f, dict8)
    assert sparse_form_eval(bigger, []) >= val - 1e-15


def test_verify_domination_intest(dict8, basis8, cfg_intest, rng):
    q0 = basis8.root.root_cube
    zero = GridFunction.zeros(basis8.root)
    g = mixed_function(rng, basis8, kind=1)
    f2 = mixed_function(rng, basis8, kind=2)
    rep = verify_domination(q0, cfg_intest, dict8, exponents=(4.0, 2.0, 4.0),
                            b=zero, g=g, fs=[f2])
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0
    b = mixed_function(rng, basis8, kind=0)
    rep = verify_domination(q0, cfg_intest, dict8, exponents=(4.0, 2.0, 4.0),
                            b=b, g=g, fs=[f2])
    assert np.isfinite(rep["ratio"])
    assert rep["lhs"] <= 64.0 * rep["rhs"]
    assert intrinsic_form(q0, b, [g, f2], dict8) == pytest.approx(rep["lhs"])


def test_verify_domination_exponent_validation(dict8, basis8, cfg_intest, rng):
    q0 = basis8.root.root_cube
    f = mixed_function(rng, basis8, kind=1)
    with pytest.raises(ValueError):
        verify_domination(q0, cfg_intest, dict8, exponents=(4.0, 4.0, 4.0),
                          b=f, g=f, fs=[f])


def test_verify_domination_mainiter_polynomial_lhs(dict8, basis8, cfg_main, rng):
    q0 = basis8.root.root_cube
    tree = atom_tree(rng, basis8, count=6)
    spec = ParaproductSpec(basis8, tree, arity=2)
    g = mixed_function(rng, basis8, kind=1)
    f2 = mixed_function(rng, basis8, kind=2)
    fpoly = GridFunction.from_callable(basis8.root, lambda x: 0.7)
    rep = verify_domination(q0, cfg_main, dict8, exponents=(4.0, 2.0, 4.0),
                            spec=spec, g=g, fs=[f2], f1=fpoly, n=1)
    assert rep["lhs"] < 1e-8


def test_taylor_telescoping_bound(dict8, basis8, rng):
    f1 = oracles.plateau_function(rng, basis8.root) + oracles.wave_function(rng, basis8.root)
    ratio = taylor_telescoping_ratio(basis8.root.root_cube, f1, 1,
                                     dict8.family.w)
    assert np.isfinite(ratio)
    assert ratio <= 64.0
