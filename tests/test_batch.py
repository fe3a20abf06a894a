"""The batch axis: every batched layer against the same layer called once
per member, compared with ``np.array_equal`` (bit for bit), the operator
matrix of a paraproduct from one identity batch, and the batched suites
against their one-trial-at-a-time references in ``oracles``."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import AtomBasis, DyadicCube, RootBox, build_family
from dyadica import czform, suites
from dyadica.config import ExperimentConfig
from dyadica.czform import KernelSpec, sobolev_bound_bench
from dyadica.ensembles import atom_tree, mixed_function
from dyadica.funcspace import (GridFunction, block_reduce, expand_blocks, local_average,
                               maximal, sobolev_norm)
from dyadica.paraproduct import (ParaproductSpec, adjoint_apply, apply_paraproduct,
                                 duality_form, form_eval, intrinsic_form, localized_form)
from dyadica.sparse import NodeStops, StoppingConfig, intest_stops, verify_domination
from dyadica.tlnorm import NormSpec, TestDictionary, square_function, tl_norm, tl_norms
from dyadica.wavelet import CoefficientTree, stack_trees

SPECS = [NormSpec(0.0, 0.0, 2.0, 2.0), NormSpec(1.0, -1.0, 4.0, 2.0),
         NormSpec(0.0, 1.0, np.inf, np.inf), NormSpec(1.0, 0.0, 1.0, 1.0),
         NormSpec(0.0, -2.0, 4.25, 2.0), NormSpec(2.0, -1.0, np.inf, 2.0)]


@pytest.fixture(scope="module")
def spaces(dict8):
    basis2 = AtomBasis(build_family(3), RootBox(d=2, L=0, J=-5))
    return {1: dict8, 2: TestDictionary(basis2, size=4)}


def _batch(dictionary, size, seed=0):
    """A batch of mixed draws, noise last so boundary cubes see mass."""
    rng = np.random.default_rng([seed, size, dictionary.root.d])
    root = dictionary.root
    fs = [mixed_function(rng, dictionary.basis, kind=i) for i in range(size - 1)]
    fs.append(GridFunction(root, rng.standard_normal(root.shape)))
    return GridFunction.stack(fs)


def _rows(f):
    return [f[i] for i in range(len(f.samples))]


def _equal(batched, rows):
    assert np.array_equal(batched, np.stack([np.asarray(r) for r in rows]))


CASES = [(d, size) for d in (1, 2) for size in (1, 5)]
IDS = [f"d{d}-batch{size}" for d, size in CASES]


@pytest.mark.parametrize("d, size", CASES, ids=IDS)
def test_coeff_arrays_and_norms(spaces, d, size):
    dic = spaces[d]
    fs = _batch(dic, size)
    coeffs = dic.coeff_arrays(fs)
    per_row = [dic.coeff_arrays(f) for f in _rows(fs)]
    for scale, arr in coeffs.items():
        _equal(arr, [c[scale] for c in per_row])
    _equal(tl_norms(fs, SPECS, dic, coeffs), [tl_norms(f, SPECS, dic) for f in _rows(fs)])
    _equal(tl_norm(fs, SPECS[1], dic), [tl_norm(f, SPECS[1], dic) for f in _rows(fs)])
    assert isinstance(tl_norm(fs[0], SPECS[1], dic), float)


@pytest.mark.parametrize("d, size", CASES, ids=IDS)
def test_square_function_and_block_helpers(spaces, d, size):
    dic = spaces[d]
    root = dic.root
    fs = _batch(dic, size)
    for region in (root.root_cube, DyadicCube(root.L - 2, (1,) * d)):
        for n, q in ((0.0, 2.0), (1.0, np.inf), (1.0, 1.0)):
            _equal(square_function(fs, region, n, q, dic).samples,
                   [square_function(f, region, n, q, dic).samples for f in _rows(fs)])
    for reduce in (np.mean, np.max, np.min):
        for factor in (1, 2, 8):
            _equal(block_reduce(fs.samples, factor, reduce, d),
                   [block_reduce(f.samples, factor, reduce) for f in _rows(fs)])
    _equal(expand_blocks(fs.samples, 2, d), [expand_blocks(f.samples, 2) for f in _rows(fs)])


@pytest.mark.parametrize("d, size", CASES, ids=IDS)
def test_maximal_and_local_averages(spaces, d, size):
    dic = spaces[d]
    root = dic.root
    fs, gs = _batch(dic, size, 1), _batch(dic, size, 2)
    _equal(maximal(fs).samples, [maximal(f).samples for f in _rows(fs)])
    _equal(maximal([fs, gs]).samples,
           [maximal([f, g]).samples for f, g in zip(_rows(fs), _rows(gs))])
    cube = DyadicCube(root.L - 1, (0,) * d)
    for p in (1.0, 2.0, 4.0, np.inf):
        _equal(local_average(fs, cube, p, 3), [local_average(f, cube, p, 3) for f in _rows(fs)])
    assert isinstance(local_average(fs[0], cube, 4.0, 3), float)


@pytest.mark.parametrize("d, size", CASES, ids=IDS)
@pytest.mark.parametrize("kappa", [-1, 0, 1])
@pytest.mark.parametrize("r", [2.0, 4.0, np.inf])
def test_sobolev_norm(spaces, d, size, kappa, r):
    dic = spaces[d]
    fs = _batch(dic, size, 3)
    # the final 1/r power is taken one scalar at a time (funcspace.scalar_power),
    # so no call here needs a last-bit allowance
    _equal(sobolev_norm(fs, kappa, r, dic.basis),
           [sobolev_norm(f, kappa, r, dic.basis) for f in _rows(fs)])
    assert isinstance(sobolev_norm(fs[0], kappa, r, dic.basis), float)


@pytest.mark.parametrize("d, size", CASES, ids=IDS)
def test_intrinsic_form_and_root_stops(spaces, d, size):
    dic = spaces[d]
    root = dic.root
    b, g, f2 = (_batch(dic, size, seed) for seed in (4, 5, 6))
    q0 = root.root_cube
    _equal(intrinsic_form(q0, b, [g, f2], dic),
           [intrinsic_form(q0, *row[:1], list(row[1:]), dic)
            for row in zip(_rows(b), _rows(g), _rows(f2))])
    stops = intest_stops(q0, b, g, [f2], dic)
    for i, (bi, gi, fi) in enumerate(zip(_rows(b), _rows(g), _rows(f2))):
        ref = intest_stops(q0, bi, gi, [fi], dic)
        assert np.array_equal(stops[i].bases, ref.bases)
        assert len(stops[i].levels) == len(ref.levels)
        for lv, lv_ref in zip(stops[i].levels, ref.levels):
            assert np.array_equal(lv, lv_ref)


def _same_report(rep, ref):
    for key in ("lhs", "rhs", "rhs_holder", "ratio", "theta"):
        assert rep[key] == ref[key], key
    coll, other = rep["collection"], ref["collection"]
    assert coll.generations == other.generations
    assert list(coll.packing_by_parent.items()) == list(other.packing_by_parent.items())
    assert coll.stopped_square_checks == other.stopped_square_checks


@pytest.mark.parametrize("d, size", CASES, ids=IDS)
@pytest.mark.parametrize("nfs", [0, 1])
def test_verify_domination_reports(spaces, d, size, nfs):
    dic = spaces[d]
    cfg = StoppingConfig(theta=4.0, packing_target=0.25, mode="intest")
    b, g, f2 = (_batch(dic, size, seed) for seed in (7, 8, 9))
    fs, exponents = ([f2], (4.0, 2.0, 4.0)) if nfs else ([], (2.0, 2.0))
    q0 = dic.root.root_cube
    reps = verify_domination(q0, cfg, dic, exponents=exponents, b=b, g=g, fs=fs)
    assert isinstance(reps, list) and len(reps) == size
    for i, (rep, bi, gi) in enumerate(zip(reps, _rows(b), _rows(g))):
        fsi = [f[i] for f in fs]
        single = verify_domination(q0, cfg, dic, exponents=exponents, b=bi, g=gi, fs=fsi)
        _same_report(rep, single)
        _same_report(rep, oracles.verify_domination_intest(q0, cfg, dic, exponents, bi, gi,
                                                           fsi))


def test_sparse_form_eval_reads_recorded_means(dict8):
    """Every cube of a collection was a node of its build, so its means are
    the build's."""
    cfg = StoppingConfig(theta=2.0, packing_target=0.5, mode="intest")
    b, g = (_batch(dict8, 1, seed)[0] for seed in (10, 11))
    q0 = dict8.root.root_cube
    rep = verify_domination(q0, cfg, dict8, exponents=(2.0, 2.0), b=b, g=g)
    coll = rep["collection"]
    assert coll.generations
    assert list(coll.bases) == list(coll.packing_by_parent)
    assert set(coll.bases) == set(coll.cubes())
    assert rep["rhs"] == oracles.verify_domination_intest(
        q0, cfg, dict8, (2.0, 2.0), b, g, [])["rhs"]


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2]), size=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       kappa=st.sampled_from([-1, 0, 1]), r=st.sampled_from([2.0, 3.0, np.inf]))
def test_random_stacks_match_rows(spaces, d, size, seed, kappa, r):
    dic = spaces[d]
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0, size=(size,) + (1,) * d)
    fs = GridFunction(dic.root, scale * rng.standard_normal((size,) + dic.root.shape))
    rows = _rows(fs)
    coeffs = dic.coeff_arrays(fs)
    for s, arr in coeffs.items():
        _equal(arr, [dic.coeff_arrays(f)[s] for f in rows])
    _equal(tl_norms(fs, SPECS, dic, coeffs), [tl_norms(f, SPECS, dic) for f in rows])
    _equal(sobolev_norm(fs, kappa, r, dic.basis),
           [sobolev_norm(f, kappa, r, dic.basis) for f in rows])
    _equal(maximal(fs).samples, [maximal(f).samples for f in rows])


def test_grid_function_batch_shape(root8):
    with pytest.raises(ValueError, match="does not match box"):
        GridFunction(root8, np.zeros((3, 255)))
    fs = GridFunction(root8, np.zeros((3, 256)))
    assert fs[1].samples.shape == (256,)
    assert GridFunction.stack(_rows(fs)).samples.shape == (3, 256)


def test_node_stops_rows():
    stops = NodeStops(np.arange(6.0).reshape(2, 3), [np.zeros((2, 3, 4)), np.ones((2, 3, 2))])
    row = stops[1]
    assert row.bases.tolist() == [3.0, 4.0, 5.0]
    assert [lv.shape for lv in row.levels] == [(3, 4), (3, 2)]


# -- the paraproduct layer --------------------------------------------------------


@pytest.fixture(scope="module")
def para_bases(basis_small, spaces):
    return {1: basis_small, 2: spaces[2].basis}  # 64 cells; 32 x 32 cells


def _symbol(basis, kind, seed):
    """A dense symbol on every scale, analysed white noise, with an
    imaginary part for ``kind == "complex"``."""
    rng = np.random.default_rng(seed)
    real = basis.analyze(rng.standard_normal(basis.root.shape))
    if kind == "real":
        return real
    tree = CoefficientTree(basis.root, dtype=complex)
    for scale, arr in real.data.items():
        tree.data[scale] = arr + 1j * rng.standard_normal(arr.shape)
    return tree


PARA_CASES = [(d, size, kind) for d in (1, 2) for size in (1, 5) for kind in ("real", "complex")]
PARA_IDS = [f"d{d}-batch{size}-{kind}" for d, size, kind in PARA_CASES]


@pytest.mark.parametrize("d, size, kind", PARA_CASES, ids=PARA_IDS)
def test_paraproduct_layer(para_bases, d, size, kind):
    basis = para_bases[d]
    root = basis.root
    spec = ParaproductSpec(basis, _symbol(basis, kind, d), arity=2)
    rng = np.random.default_rng([d, size])
    b, g, f1, f2 = (GridFunction(root, rng.standard_normal((size,) + root.shape))
                    for _ in range(4))
    fs = [f1, f2]

    def members(fn, *batches):
        return [fn(*(f[i] for f in batches)) for i in range(size)]

    _equal(apply_paraproduct(spec, fs).samples,
           members(lambda *x: apply_paraproduct(spec, list(x)).samples, *fs))
    for j in (1, 2):
        _equal(adjoint_apply(spec, j, fs).samples,
               members(lambda *x: adjoint_apply(spec, j, list(x)).samples, *fs))
    dual = duality_form(spec)
    _equal(form_eval(dual, b, [g] + fs),
           members(lambda bi, gi, *x: form_eval(dual, bi, [gi, *x]), b, g, *fs))
    for q0 in (root.root_cube, DyadicCube(root.L - 1, (1,) * d)):
        _equal(localized_form(spec.symbol, q0, g, fs, spec),
               members(lambda gi, *x: localized_form(spec.symbol, q0, gi, list(x), spec), g, *fs))
    planted = KernelSpec(root, n=2, kind="planted", planted=spec)
    _equal(planted.evaluate([g] + fs), oracles.planted_evaluate(planted, [g] + fs))
    for j in (1, 2):
        swapped = [g] + fs
        swapped[0], swapped[j] = swapped[j], swapped[0]
        _equal(planted.evaluate_adjoint(j, [g] + fs), oracles.planted_evaluate(planted, swapped))
    if kind == "real":
        assert isinstance(form_eval(dual, b[0], [g[0], f1[0], f2[0]]), float)
        assert isinstance(localized_form(spec.symbol, root.root_cube, g[0], [f1[0], f2[0]], spec),
                          float)
        assert isinstance(planted.evaluate([g[0], f1[0], f2[0]]), float)
    for k in (1, 2):
        rep = sobolev_bound_bench(planted, (2.0, 4.0, 4.0), k, 4.0, basis, None, fs,
                                  symbols=czform.TestingSymbols())
        ref = oracles.sobolev_bench(planted, (2.0, 4.0, 4.0), k, rep["testing_norm"],
                                    [(f1[i], f2[i]) for i in range(size)])
        assert (rep["max_ratio"], rep["count"]) == (ref["max_ratio"], ref["count"])
        assert rep["count"] == size


def _member_symbols(basis, kind, size, seed):
    """One symbol per member, each with its own support (up to 12 cubes per
    scale, so form sums reach numpy's pairwise blocks) and its own order of
    first touching the scales; member 0 also holds an all-zero scale."""
    root = basis.root
    rng = np.random.default_rng(seed)
    orders = list(itertools.permutations(range(root.J + 1, root.J + 4)))
    trees = []
    for i in range(size):
        tree = CoefficientTree(root, dtype=complex if kind == "complex" else float)
        if i == 0:
            tree.data[root.J + 4] = np.zeros((root.positions_per_side(root.J + 4),) * root.d)
        for scale in orders[i % len(orders)][:3 - (i % 4 == 3)]:
            n = root.positions_per_side(scale)
            arr = np.zeros(n ** root.d, dtype=tree.dtype)
            cells = rng.choice(n ** root.d, size=min(int(rng.integers(1, 13)), n ** root.d),
                               replace=False)
            arr[cells] = rng.standard_normal(len(cells))
            if kind == "complex":
                arr[cells] += 1j * rng.standard_normal(len(cells))
            tree.data[scale] = arr.reshape((n,) * root.d)
        trees.append(tree)
    return trees


SYMBOL_CASES = [(d, arity, kind) for d in (1, 2) for arity in (1, 2, 3)
                for kind in ("real", "complex")]


@pytest.mark.parametrize("d, arity, kind", SYMBOL_CASES,
                         ids=[f"d{d}-m{arity}-{kind}" for d, arity, kind in SYMBOL_CASES])
def test_batch_of_symbols(para_bases, d, arity, kind):
    """Member i of a batch of symbols is the call with symbol i alone, bit
    for bit, though the members add their scales in different orders."""
    basis = para_bases[d]
    root = basis.root
    size = 7
    trees = _member_symbols(basis, kind, size, [d, arity])
    assert len(stack_trees(trees)[1]) > 1  # more than one scale order
    rng = np.random.default_rng([d, arity, 1])
    b, g, *fs = (GridFunction(root, rng.standard_normal((size,) + root.shape))
                 for _ in range(arity + 2))
    spec = ParaproductSpec(basis, trees, arity=arity)

    def alone(i):
        return ParaproductSpec(basis, trees[i], arity=arity)

    def rows(f, i):
        return [x[i] for x in f]

    # each value against the member's own call and its scale-by-scale
    # reference, which adds the scales in the order its tree holds them
    members = range(size)
    ref = [oracles.scale_loop_apply(alone(i), rows(fs, i)) for i in members]
    _equal(apply_paraproduct(spec, fs).samples, ref)
    _equal([apply_paraproduct(alone(i), rows(fs, i)).samples for i in members], ref)
    for j in range(1, arity + 1):
        ref = [oracles.scale_loop_adjoint(alone(i), j, rows(fs, i)) for i in members]
        _equal(adjoint_apply(spec, j, fs).samples, ref)
        _equal([adjoint_apply(alone(i), j, rows(fs, i)).samples for i in members], ref)
    ref = [oracles.scale_loop_form(duality_form(alone(i)), b[i], rows([g] + fs, i))
           for i in members]
    _equal(form_eval(duality_form(spec), b, [g] + fs), ref)
    _equal([form_eval(duality_form(alone(i)), b[i], rows([g] + fs, i)) for i in members], ref)
    # inputs without a batch axis broadcast against the symbols
    shared = rows(fs, 0)
    _equal(apply_paraproduct(spec, shared).samples,
           [oracles.scale_loop_apply(alone(i), shared) for i in members])
    _equal(form_eval(duality_form(spec), b[0], rows([g] + fs, 0)),
           [oracles.scale_loop_form(duality_form(alone(i)), b[0], rows([g] + fs, 0))
            for i in members])


@pytest.mark.parametrize("arity", [1, 2])
def test_operator_matrix_from_an_identity_batch(basis_small, arity):
    """Member i of the identity batch is the i-th unit vector, so one call
    gives the operator matrix (row i is the image of e_i), and the adjoint
    at slot 1 gives its transpose; a second slot broadcasts over the batch."""
    root = basis_small.root
    n = root.cells_per_side
    rng = np.random.default_rng(arity)
    spec = ParaproductSpec(basis_small, atom_tree(rng, basis_small, count=12), arity=arity)
    rest = [GridFunction(root, rng.standard_normal(root.shape))] * (arity - 1)
    eye = GridFunction(root, np.eye(n))
    matrix = apply_paraproduct(spec, [eye] + rest).samples
    _equal(matrix, [apply_paraproduct(spec, [GridFunction(root, e)] + rest).samples
                    for e in np.eye(n)])
    assert np.abs(matrix).max() > 0
    adjoint = adjoint_apply(spec, 1, [eye] + rest).samples
    assert np.abs(adjoint - matrix.T).max() <= 1e-12 * np.abs(matrix).max()


# -- batched suites against their one-trial-at-a-time loops ---------------------


def _small(tmp_path, text):
    path = tmp_path / "small.cfg"
    path.write_text(text, encoding="utf-8")
    return ExperimentConfig.from_file(path)


def test_theorem_probe_matches_member_loop(tmp_path):
    cfg = _small(tmp_path, "[probe]\nmembers = 6\nj_sweep = -5, -6\n")
    _, _, rows = suites.run_theorem_probe(cfg)
    assert rows == oracles.run_theorem_probe(cfg)


def test_suites_do_not_depend_on_the_render_batch(tmp_path, monkeypatch):
    # each draw rendered alone gives the same rows as the suites' batches
    cfg = _small(tmp_path, "[ensemble]\ncount = 6\n[sparse]\ntrials = 3\nj_sweep = -6, -7\n")

    def run():
        return (suites.suite_wavelet(cfg) + suites.suite_norms(cfg)
                + suites.suite_paraproduct(cfg) + suites.suite_sparse(cfg))

    shipped = run()
    render = suites.render
    monkeypatch.setattr(suites, "render", lambda root, draws: GridFunction.stack(
        render(root, [draw])[0] for draw in draws))
    assert run() == shipped


def test_paraproduct_suite_matches_trial_loop(tmp_path):
    cfg = _small(tmp_path, "[root]\nJ = -6\n[sparse]\nj_sweep = -5, -6\n")
    rows = {r.name: r for r in suites.suite_paraproduct(cfg, tmp_path)}
    worst, ratios, consts, degenerate = oracles.paraproduct_suite_values(cfg)
    assert degenerate == 0
    assert rows["duality_identity"].value == worst
    assert rows["lebesgue_ratio_growth"].value == suites._growth_factor(ratios)
    assert rows["lebesgue_ratio_growth"].detail == f"max ratios {np.round(ratios, 4).tolist()}"
    assert rows["maximal_domination_growth"].value == suites._growth_factor(consts)
    assert rows["maximal_domination_growth"].detail == \
        f"constants {np.round(consts, 4).tolist()}"
    lines = (tmp_path / "paraproduct_lebesgue.dat").read_text().splitlines()
    assert [float(line.split()[1]) for line in lines] == ratios


@pytest.mark.parametrize("batch, text", [
    (2, ""), (50, ""),
    # most intest packing builds then reach nodes below the root, where a
    # row mix-up between members shows
    (7, "packing_intest = 0.25\n")], ids=["2", "50", "7-intest0.25"])
def test_sparse_suite_matches_trial_loop(tmp_path, monkeypatch, batch, text):
    monkeypatch.setattr(suites, "_BATCH", batch)
    built = {"intest": [], "mainiter": []}
    build = suites.build_sparse_batch

    def recording(q0, inputs, cfg, *args, **kw):
        colls = build(q0, inputs, cfg, *args, **kw)
        built[cfg.mode].extend(colls)
        return colls

    monkeypatch.setattr(suites, "build_sparse_batch", recording)
    cfg = _small(tmp_path, "[sparse]\ntrials = 5\nj_sweep = -5, -6\n" + text)
    rows = {r.name: r for r in suites.suite_sparse(cfg, tmp_path)}
    worst, theta, stopped_ok, per_j, ref_built = oracles.sparse_suite_values(cfg)
    # the packing loop's collections, member by member in each mode
    deep = 0
    for mode in ("intest", "mainiter"):
        assert len(built[mode]) == len(ref_built[mode]) == 100
        for coll, ref in zip(built[mode], ref_built[mode]):
            assert coll.generations == ref.generations
            assert list(coll.packing_by_parent.items()) == list(ref.packing_by_parent.items())
            assert coll.theta == ref.theta
            assert coll.stopped_square_checks == ref.stopped_square_checks
            assert list(coll.bases) == list(ref.bases)
            assert all(np.array_equal(coll.bases[n], ref.bases[n]) for n in ref.bases)
            deep += mode == "intest" and len(ref.packing_by_parent) > 1
    assert deep >= (90 if text else 10)
    assert rows["packing_intest"].value == worst["intest"]
    assert rows["packing_intest"].detail == f"theta up to {theta['intest']}"
    assert rows["packing_mainiter"].value == worst["mainiter"]
    assert rows["packing_mainiter"].detail == f"theta up to {theta['mainiter']}"
    assert rows["stopped_square_bound"].value == (0.0 if stopped_ok else 1.0)
    lines = (tmp_path / "sparse_domination.dat").read_text().splitlines()
    assert [float(line.split()[1]) for line in lines] == per_j
