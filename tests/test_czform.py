import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate

import oracles
from dyadica import AtomBasis, DyadicCube, RootBox, build_family, cache
from dyadica.czform import (KernelSpec, SingularConfigurationError, _kernel_matrix,
                            form_quadrature, input_orders, sobolev_bound_bench,
                            wbp_check)
from dyadica.czform import testing_norm as compute_testing_norm
from dyadica.czform import testing_symbols as compute_testing_symbols
from dyadica.ensembles import atom_tree, mixed_function
from dyadica.funcspace import GridFunction
from dyadica.paraproduct import ParaproductSpec, duality_form, form_eval
from dyadica.tlnorm import NormSpec, TestDictionary, tl_norm
from dyadica.wavelet import CoefficientTree


@pytest.fixture(scope="module")
def bench():
    fam = build_family(3)
    root = RootBox(d=1, L=0, J=-7)
    basis = AtomBasis(fam, root)
    dictionary = TestDictionary(basis, size=4)
    rng = np.random.default_rng(21)
    tree = atom_tree(rng, basis, count=6)
    spec = ParaproductSpec(basis, tree, arity=2)
    planted = KernelSpec(root, n=2, kind="planted", planted=spec)
    return basis, dictionary, planted


def smooth_bump(center, radius):
    def fn(x):
        u = (np.asarray(x, dtype=float) - center) / radius
        out = np.zeros_like(u)
        m = np.abs(u) < 1
        out[m] = np.exp(1 - 1 / (1 - u[m] ** 2))
        return out
    return fn


def test_zero_kernel(bench, rng):
    basis, dictionary, _ = bench
    zk = KernelSpec(basis.root, n=2, kind="zero")
    fs = [mixed_function(rng, basis, kind=k) for k in range(3)]
    assert zk.evaluate(fs) == 0.0
    syms = compute_testing_symbols(zk, basis, 2, cubes=basis.interior_cubes(-5, -4))
    assert all(oracles.n_nonzero(t) == 0 for t in syms.trees.values())
    parts = compute_testing_norm(syms, 2, 2.0, 4.0, basis, dictionary)
    assert parts["total"] == 0.0


def test_planted_matches_wavelet_form(bench, rng):
    basis, _, planted = bench
    fs = [mixed_function(rng, basis, kind=k) for k in range(3)]
    direct = planted.evaluate(fs)
    bfunc = GridFunction(basis.root, basis.synthesize(planted.planted.symbol))
    via_form = form_eval(duality_form(planted.planted), bfunc, fs)
    assert direct == pytest.approx(via_form, rel=1e-10)


def test_hilbert_kernel_vs_adaptive_quadrature():
    root = RootBox(d=1, L=0, J=-7)
    spec = KernelSpec(root, n=1, kind="convolution", eps_trunc=0.0)
    fa, fb = smooth_bump(0.25, 0.1), smooth_bump(0.72, 0.12)
    f0 = GridFunction.from_callable(root, fa)
    f1 = GridFunction.from_callable(root, fb)
    val = spec.evaluate([f0, f1])
    oracle, err = integrate.dblquad(
        lambda y, x: fa(np.array([x]))[0] * fb(np.array([y]))[0] / (x - y),
        0.14, 0.36, 0.59, 0.85, epsabs=1e-12)
    assert abs(val - oracle) / abs(oracle) < 1e-4


def test_singular_configuration_refused():
    root = RootBox(d=1, L=0, J=-6)
    spec = KernelSpec(root, n=1, kind="convolution", eps_trunc=0.0)
    f = GridFunction.from_callable(root, smooth_bump(0.5, 0.2))
    with pytest.raises(SingularConfigurationError):
        spec.evaluate([f, f])
    # positive truncation radius makes the overlapping pairing legal
    spec2 = KernelSpec(root, n=1, kind="convolution",
                       eps_trunc=4 * root.cell_width)
    assert np.isfinite(spec2.evaluate([f, f]))


def test_form_quadrature_reports_excluded_mass(rng):
    root = RootBox(d=1, L=0, J=-6)
    f = GridFunction.from_callable(root, smooth_bump(0.5, 0.2))
    rep = form_quadrature(lambda x, y: 1.0 / np.where(x == y, np.inf, x - y),
                          root, [f, f], eps_trunc=4 * root.cell_width)
    assert rep["excluded_mass"] > 0.0
    # against the hand matrix: the value keeps the cells beyond the radius,
    # the excluded mass sums |K g f| over the dropped off-diagonal ones
    eps = 2 * root.cell_width
    spec = KernelSpec(root, n=1, kind="convolution", eps_trunc=eps, strength=2.0)
    x = root.midpoints_1d()
    h = root.cell_width
    diff = x[:, None] - x[None, :]
    with np.errstate(divide="ignore"):
        K = np.where(np.abs(diff) > eps, 2.0 / diff, 0.0)
    f, g = (GridFunction(root, rng.standard_normal(root.shape)) for _ in range(2))
    rep = form_quadrature(spec._kernel, root, [g, f], eps)
    assert rep["value"] == pytest.approx(g.samples @ K @ f.samples * h ** 2, rel=1e-13)
    near = (np.abs(diff) <= eps) & (diff != 0)
    mass = np.sum(np.abs(2.0 / diff[near] * np.outer(g.samples, f.samples)[near])) * h ** 2
    assert rep["excluded_mass"] == pytest.approx(mass, rel=1e-13)


@pytest.mark.parametrize("kind", ["convolution", "tabulated"])
def test_form_quadrature_cached_kernel_matches_fresh(kind):
    root = RootBox(d=1, L=0, J=-6)
    eps = 3 * root.cell_width
    if kind == "convolution":
        spec = KernelSpec(root, n=1, kind=kind, eps_trunc=eps, strength=1.5)
        fresh = spec._convolution_kernel()
    else:
        table = np.random.default_rng(3).standard_normal(root.shape * 2)
        spec = oracles.table_spec(root, table, eps)
        fresh = oracles.table_kernel(root, table)
    f0 = GridFunction.from_callable(root, smooth_bump(0.45, 0.2))
    f1 = GridFunction.from_callable(root, smooth_bump(0.55, 0.25))
    cache.clear()
    expect = form_quadrature(fresh, root, [f0, f1], spec.eps_trunc)
    assert expect["excluded_mass"] > 0.0
    for _ in range(2):
        got = form_quadrature(spec._kernel, root, [f0, f1], spec.eps_trunc)
        assert got == expect
    # the spec's kernel owns one matrix per box and radius, built once: the
    # fresh callable and the spec's each missed once, the second call hit
    assert cache.counts()["czform._kernel_matrix"] == (1, 2)
    matrix = _kernel_matrix(spec._kernel, root, spec.eps_trunc)[0]
    assert spec.evaluate([f0, f1]) == expect["value"]
    assert _kernel_matrix(spec._kernel, root, spec.eps_trunc)[0] is matrix
    assert cache.counts()["czform._kernel_matrix"] == (4, 2)
    # the truncation radius is part of the key
    wider = form_quadrature(spec._kernel, root, [f0, f1], 2 * spec.eps_trunc)
    assert wider == form_quadrature(fresh, root, [f0, f1], 2 * spec.eps_trunc)
    assert wider["excluded_mass"] > expect["excluded_mass"]
    assert cache.counts()["czform._kernel_matrix"] == (4, 4)
    # and its matrices go with it (so do those of the fresh callable)
    kernel, matrices = weakref.ref(spec._kernel), [
        weakref.ref(_kernel_matrix(k, root, radius)[0])
        for k in (spec._kernel, fresh) for radius in (eps, 2 * eps)]
    del spec, fresh, matrix
    gc.collect()
    assert kernel() is None
    assert [ref() for ref in matrices] == [None] * 4


def test_wbp_zero_and_homogeneity(bench):
    basis, dictionary, planted = bench
    cubes = basis.interior_cubes(-5, -4)[::4]
    zero = KernelSpec(basis.root, n=2, kind="zero")
    assert wbp_check(zero, dictionary, cubes)["constant"] == 0.0
    doubled = KernelSpec(basis.root, n=2, kind="planted",
                         planted=ParaproductSpec(
                             basis, planted.planted.symbol.scaled(2.0), arity=2))
    c1 = wbp_check(planted, dictionary, cubes)["constant"]
    c2 = wbp_check(doubled, dictionary, cubes)["constant"]
    assert c2 == pytest.approx(2.0 * c1, rel=1e-12)


def test_plant_and_recover_gamma0(bench):
    basis, dictionary, planted = bench
    support = planted.planted.symbol.support()
    syms = compute_testing_symbols(planted, basis, 2, cubes=support)
    gamma0 = ((0,), (0,))
    for cube, bval in planted.planted.symbol.items():
        rec = syms.trees[gamma0][cube] / cube.side ** 2
        assert rec == pytest.approx(bval, rel=1e-10)
    assert not syms.flagged


def test_symbol_translation_covariance(bench):
    # translating the planted symbol by a dyadic vector permutes the tree
    basis, _, _ = bench
    tree = CoefficientTree(basis.root)
    q = DyadicCube(-4, (5,))
    tree[q] = 1.0
    moved = CoefficientTree(basis.root)
    q2 = DyadicCube(-4, (9,))
    moved[q2] = 1.0
    sp1 = KernelSpec(basis.root, n=1, kind="planted",
                     planted=ParaproductSpec(basis, tree, arity=1))
    sp2 = KernelSpec(basis.root, n=1, kind="planted",
                     planted=ParaproductSpec(basis, moved, arity=1))
    s1 = compute_testing_symbols(sp1, basis, 1, cubes=[q, q2])
    s2 = compute_testing_symbols(sp2, basis, 1, cubes=[q, q2])
    g0 = ((0,),)
    assert s2.trees[g0][q2] == pytest.approx(s1.trees[g0][q], rel=1e-10)
    assert abs(s2.trees[g0][q]) < 1e-10


def test_adjoint_slot_exchange(bench, rng):
    basis, _, planted = bench
    fs = [mixed_function(rng, basis, kind=k) for k in range(3)]
    swapped = [fs[1], fs[0], fs[2]]
    assert planted.evaluate_adjoint(1, fs) == pytest.approx(
        planted.evaluate(swapped), rel=1e-12)


def test_input_orders_enumeration():
    orders = list(input_orders(2, 1, 2))
    assert ((0,), (0,)) in orders
    assert ((2,), (0,)) in orders and ((1,), (1,)) in orders
    assert all(sum(sum(g) for g in gamma) <= 2 for gamma in orders)


def test_testing_norm_monotone_homogeneous(bench):
    basis, dictionary, planted = bench
    cubes = planted.planted.symbol.support()
    syms = compute_testing_symbols(planted, basis, 2, cubes=cubes)
    parts = compute_testing_norm(syms, 2, 2.0, 4.0, basis, dictionary)
    doubled = compute_testing_symbols(
        KernelSpec(basis.root, n=2, kind="planted",
                   planted=ParaproductSpec(basis, planted.planted.symbol.scaled(2.0),
                                           arity=2)),
        basis, 2, cubes=cubes)
    parts2 = compute_testing_norm(doubled, 2, 2.0, 4.0, basis, dictionary)
    assert parts2["total"] == pytest.approx(2.0 * parts["total"], rel=1e-9)
    with pytest.raises(ValueError):
        compute_testing_norm(syms, 2, 4.0, 2.0, basis, dictionary)


def test_single_cube_testing_norm_brute_force(bench):
    basis, dictionary, _ = bench
    tree = CoefficientTree(basis.root)
    q = DyadicCube(-4, (6,))
    tree[q] = 1.0
    spec = KernelSpec(basis.root, n=1, kind="planted",
                      planted=ParaproductSpec(basis, tree, arity=1))
    syms = compute_testing_symbols(spec, basis, 1, cubes=[q])
    parts = compute_testing_norm(syms, 1, 2.0, 4.0, basis, dictionary)
    # the adjoint part reduces to a one-cube norm, brute-forced via tl_norm
    func = GridFunction(basis.root, basis.synthesize(syms.star[1]))
    expect = tl_norm(func, NormSpec(-1.0, 0.0, 1.0, 2.0), dictionary)
    assert parts["star"] == pytest.approx(expect, rel=1e-12)


def test_sobolev_bench_zero_kernel(bench, rng):
    # the bench applies a planted form: the zero form is the zero symbol's
    basis, dictionary, _ = bench
    zero = KernelSpec(basis.root, n=2, kind="planted", planted=ParaproductSpec(
        basis, CoefficientTree(basis.root), arity=2))
    inputs = [GridFunction.stack(col) for col in zip(*[
        [mixed_function(rng, basis, kind=k + 1) for k in range(2)] for _ in range(3)])]
    rep = sobolev_bound_bench(zero, (2.0, 4.0, 4.0), 2, 4.0, basis, dictionary,
                              inputs)
    assert rep["max_ratio"] == 0.0
    with pytest.raises(ValueError, match="need q > p"):
        sobolev_bound_bench(zero, (2.0, 4.0, 4.0), 2, 1.5, basis, dictionary,
                            inputs)
    for kind in ("zero", "convolution"):
        with pytest.raises(ValueError, match=f"planted forms, not '{kind}'"):
            sobolev_bound_bench(KernelSpec(basis.root, n=2, kind=kind, eps_trunc=0.1),
                                (2.0, 4.0, 4.0), 2, 4.0, basis, dictionary, inputs)


# -- the batched bench against the per-cube references ---------------------------


def _spec(kind, basis, planted):
    root = basis.root
    if kind == "convolution":
        return KernelSpec(root, n=1, kind="convolution", eps_trunc=3 * root.cell_width,
                          strength=1.5)
    if kind == "tabulated":
        table = np.random.default_rng(5).standard_normal(root.shape * 2)
        return oracles.table_spec(root, table, 2 * root.cell_width)
    if kind == "convolution_n2":
        return KernelSpec(root, n=2, kind="convolution", eps_trunc=3 * root.cell_width,
                          strength=1.5)
    if kind == "planted":
        return planted
    return KernelSpec(root, n=1, kind="zero")


def _assert_trees_match(got: dict, ref: dict):
    assert got.keys() == ref.keys()
    for key, tree in ref.items():
        assert got[key].data.keys() == tree.data.keys()
        atol = 1e-12 * tree.max_abs()
        for scale, arr in tree.data.items():
            np.testing.assert_allclose(got[key].data[scale], arr, rtol=1e-12, atol=atol)


@pytest.mark.parametrize("kind", ["convolution", "tabulated", "planted", "zero"])
def test_stacked_form_quadrature_matches_scalar_calls(kind, bench):
    # a broadcast batch gets one value per member, that member's own call's
    basis, _, planted = bench
    root = basis.root
    spec = _spec(kind, basis, planted)
    rng = np.random.default_rng(8)
    rows0 = GridFunction(root, rng.standard_normal((3,) + root.shape))
    rows1 = GridFunction(root, rng.standard_normal((5,) + root.shape))
    rest = [GridFunction(root, rng.standard_normal(root.shape))] * (spec.n - 1)
    # all pairs, a[:, None] against b[None]; either slot may have fewer rows
    for a, b in ((rows0, rows1), (rows1, rows0)):
        fs = [GridFunction(root, a.samples[:, None]), GridFunction(root, b.samples[None])]
        got = spec.evaluate(fs + rest)
        assert got.shape == (len(a.samples), len(b.samples))
        one = np.reshape([spec.evaluate([a[i], b[j]] + rest)
                          for i, j in np.ndindex(got.shape)], got.shape)
        assert all(type(spec.evaluate([a[i], b[i]] + rest)) is float for i in range(3))
        if kind in ("planted", "zero"):
            assert np.array_equal(got, one)
            continue
        np.testing.assert_allclose(got, one, rtol=1e-12, atol=0.0)
        rep = form_quadrature(spec._kernel, root, fs, spec.eps_trunc)
        assert rep["value"].shape == rep["excluded_mass"].shape == got.shape
        for i, j in np.ndindex(got.shape):
            single = form_quadrature(spec._kernel, root, [a[i], b[j]], spec.eps_trunc)
            assert rep["value"][i, j] == pytest.approx(single["value"], rel=1e-12)
            assert rep["excluded_mass"][i, j] == pytest.approx(single["excluded_mass"],
                                                               rel=1e-12)


def test_complex_planted_form_keeps_its_imaginary_part(basis_small):
    # a single call is its batch member, with no ComplexWarning on the way
    root = basis_small.root
    tree = CoefficientTree(root, dtype=complex)
    tree[DyadicCube(root.J + 3, (3,))] = 0.5 + 0.7j
    spec = KernelSpec(root, n=1, kind="planted",
                      planted=ParaproductSpec(basis_small, tree, arity=1))
    rng = np.random.default_rng(5)
    fs = [GridFunction(root, rng.standard_normal((3,) + root.shape)) for _ in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = spec.evaluate(fs)
        assert batch.imag.all()
        for i in range(3):
            single = spec.evaluate([f[i] for f in fs])
            assert type(single) is complex
            assert single == batch[i]


@pytest.mark.parametrize("kind", ["convolution", "tabulated"])
def test_trilinear_quadrature_matches_cell_by_cell(kind):
    root = RootBox(d=1, L=0, J=-5)
    table = np.random.default_rng(4).standard_normal(root.shape * 3)
    spec = (KernelSpec(root, n=2, kind=kind, eps_trunc=2 * root.cell_width, strength=1.5)
            if kind == "convolution" else oracles.table_spec(root, table, 2 * root.cell_width))
    rng = np.random.default_rng(9)
    rows = [rng.standard_normal((3,) + root.shape) for _ in range(3)]
    # x0 where one member of slot 0, or none, has weight
    rows[0][0, :12] = rows[0][1, 20:] = rows[0][:, 14] = 0.0
    fs = [GridFunction(root, r) for r in rows]
    # slot 1 is one function, broadcast against the batches of the others
    batched = form_quadrature(spec._kernel, root, [fs[0], fs[1][0], fs[2]], spec.eps_trunc)
    assert batched["value"].shape == batched["excluded_mass"].shape == (3,)
    for i in range(3):
        ref = oracles.trilinear_form(spec._kernel, root, [fs[0][i], fs[1][0], fs[2][i]],
                                     spec.eps_trunc)
        assert ref["excluded_mass"] > 0.0
        for key in ("value", "excluded_mass"):
            assert batched[key][i] == pytest.approx(ref[key], rel=1e-12)
        single = form_quadrature(spec._kernel, root, [fs[0][i], fs[1][i], fs[2][i]],
                                 spec.eps_trunc)
        ref = oracles.trilinear_form(spec._kernel, root, [fs[0][i], fs[1][i], fs[2][i]],
                                     spec.eps_trunc)
        assert type(single["value"]) is float
        for key in ("value", "excluded_mass"):
            assert single[key] == pytest.approx(ref[key], rel=1e-12)


@pytest.mark.parametrize("kind", ["convolution", "tabulated", "planted", "zero",
                                  "convolution_n2"])
def test_testing_symbols_match_per_cube_reference(kind, bench):
    basis, _, planted = bench
    spec = _spec(kind, basis, planted)
    cubes = [c for c in basis.root.all_cubes() if c.scale > basis.root.J]
    if kind == "planted":
        cubes = cubes[::5]
    if kind == "convolution_n2":
        cubes = cubes[::16]
    # boundary cubes, whose wavelet windows the box clips, are included, and
    # the n = 1 kernels take more than one stack of cubes
    got = compute_testing_symbols(spec, basis, 2, cubes=cubes)
    ref = oracles.testing_symbols(spec, basis, 2, cubes=cubes)
    assert got.flagged == ref.flagged
    _assert_trees_match(got.trees, ref.trees)
    _assert_trees_match(got.star, ref.star)
    if kind == "convolution":
        assert ref.flagged and len(cubes) > 64


@pytest.mark.parametrize("kind", ["convolution", "tabulated", "planted", "zero",
                                  "convolution_n2"])
def test_wbp_check_matches_per_cube_reference(kind, bench):
    basis, dictionary, planted = bench
    spec = _spec(kind, basis, planted)
    cubes = [c for c in basis.root.all_cubes() if c.scale > basis.root.J][::3]
    got = wbp_check(spec, dictionary, cubes)
    ref = oracles.wbp_check(spec, dictionary, cubes)
    assert got["cube"] == ref["cube"]
    assert got["constant"] == pytest.approx(ref["constant"], rel=1e-12)


def test_stacked_bench_refuses_singular_configuration(bench):
    basis, dictionary, _ = bench
    spec = KernelSpec(basis.root, n=1, kind="convolution", eps_trunc=0.0)
    cubes = basis.interior_cubes(-5, -4)[:3]
    with pytest.raises(SingularConfigurationError):
        compute_testing_symbols(spec, basis, 1, cubes=cubes)
    with pytest.raises(SingularConfigurationError):
        wbp_check(spec, dictionary, cubes)


@pytest.mark.parametrize("p, q, ok", [(0.5, np.inf, False), (np.nan, np.inf, False),
                                      (2.0, np.inf, True), (2.0, 4.0, True)])
def test_testing_norm_checks_exponents(bench, p, q, ok):
    basis, dictionary, _ = bench
    zero = KernelSpec(basis.root, n=1, kind="zero")
    syms = compute_testing_symbols(zero, basis, 1, cubes=basis.interior_cubes(-4, -4))
    if ok:
        assert compute_testing_norm(syms, 1, p, q, basis, dictionary)["total"] == 0.0
    else:
        with pytest.raises(ValueError):
            compute_testing_norm(syms, 1, p, q, basis, dictionary)
