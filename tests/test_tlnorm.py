import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica import AtomBasis, DyadicCube, RootBox, build_family, cache
from dyadica.funcspace import GridFunction
from dyadica.tlnorm import (NormSpec, TestDictionary, bmo_norm,
                            square_function, tl_norm, tl_norms)
from dyadica.wavelet import CoefficientTree
from oracles import cube_of_cell, intrinsic_coeff, member_window, n_members


def brute_force_tl_norm(f, spec, dictionary):
    """Definition-level reference: explicit loops over cubes and chains."""
    root = f.root
    best = 0.0
    coeffs = {}
    for cube in root.all_cubes():
        coeffs[cube] = intrinsic_coeff(f, cube, dictionary)
    for q in root.all_cubes():
        sl = root.window_slices(q)
        cells = list(itertools.product(*[range(s.start, s.stop) for s in sl]))
        svals = []
        for cell in cells:
            chain = []
            for scale in range(root.J, q.scale + 1):
                z = cube_of_cell(root, cell, scale)
                chain.append(coeffs[z] / z.side ** spec.n)
            if np.isinf(spec.q):
                svals.append(max(chain))
            else:
                svals.append(np.sum(np.array(chain) ** spec.q) ** (1 / spec.q))
        svals = np.asarray(svals)
        if np.isinf(spec.p):
            avg = svals.max()
        else:
            avg = (np.mean(svals ** spec.p)) ** (1 / spec.p)
        best = max(best, q.side ** (-spec.m) * avg)
    return best


@pytest.fixture(scope="module")
def tiny():
    fam = build_family(2)
    root = RootBox(d=1, L=0, J=-4)
    basis = AtomBasis(fam, root)
    return basis, TestDictionary(basis, size=4)


def test_tl_norm_matches_brute_force(tiny, rng):
    basis, dictionary = tiny
    f = GridFunction(basis.root, rng.standard_normal(basis.root.shape))
    for spec in [NormSpec(0, 0, 2, 2), NormSpec(1, -1, 1, 2),
                 NormSpec(0, 0, np.inf, np.inf), NormSpec(0.5, 0, 4, 1)]:
        fast = tl_norm(f, spec, dictionary)
        slow = brute_force_tl_norm(f, spec, dictionary)
        assert fast == pytest.approx(slow, rel=1e-10)


def test_intrinsic_coeff_trivial_cancellations(dict8, basis8):
    root = basis8.root
    const = GridFunction.from_callable(root, lambda x: 5.0)
    poly = GridFunction.from_callable(root, lambda x: 1 + x + x * x)
    for q in [DyadicCube(-3, (3,)), DyadicCube(-8, (7,)), DyadicCube(-1, (1,))]:
        assert intrinsic_coeff(const, q, dict8) < 1e-8
        assert intrinsic_coeff(poly, q, dict8) < 1e-8


def test_intrinsic_coeff_atom_lower_bound(dict8, basis8):
    q = DyadicCube(-4, (8,))
    f = GridFunction(basis8.root, basis8.atom_grid(q))
    self_pair = np.sum(f.samples ** 2) * basis8.root.cell_measure \
        / basis8.family.class_constant
    assert intrinsic_coeff(f, q, dict8) >= self_pair - 1e-12


def test_dictionary_moment_and_support_invariants(dict8, basis8):
    root = basis8.root
    x = root.midpoints_1d()
    w = basis8.family.w
    for q in [DyadicCube(-4, (3,)), DyadicCube(-5, (0,)), DyadicCube(-6, (63,))]:
        window = np.zeros(root.shape, dtype=bool)
        window[root.window_slices(q, w)] = True
        for member in range(n_members(dict8, q.scale)):
            slices, vals = member_window(dict8, q, member)
            if slices is None:
                continue
            grid = np.zeros(root.shape)
            grid[slices] = vals
            assert np.all(grid[~window] == 0.0)
            for a in range(basis8.family.k + 1):
                mom = np.sum(grid * x ** a) * root.cell_measure
                assert abs(mom) < 1e-8


def test_square_function_single_coefficient(basis8):
    # canonical-only dictionary: one nonzero coefficient, no cross terms
    solo = TestDictionary(basis8, size=1)
    tree = CoefficientTree(basis8.root)
    z0 = DyadicCube(-5, (9,))
    tree[z0] = 1.0
    f = GridFunction(basis8.root, basis8.synthesize(tree))
    region = DyadicCube(-3, (2,))
    s = square_function(f, region, 0.0, 2.0, solo)
    inside = basis8.root.window_slices(z0)
    expected = intrinsic_coeff(f, z0, solo) / z0.side ** 0.0
    assert np.allclose(s.samples[inside], expected, rtol=1e-10)
    mask = np.zeros(basis8.root.shape, dtype=bool)
    mask[basis8.root.window_slices(region)] = True
    mask[inside] = False
    assert np.max(np.abs(s.samples[mask])) < 1e-6 * expected


def test_square_function_zero_and_q_monotone(dict8, basis8, rng):
    zero = GridFunction.zeros(basis8.root)
    region = DyadicCube(-2, (1,))
    assert np.all(square_function(zero, region, 0.0, 2.0, dict8).samples == 0.0)
    f = GridFunction(basis8.root, rng.standard_normal(basis8.root.shape))
    s_inf = square_function(f, region, 0.0, np.inf, dict8)
    s_two = square_function(f, region, 0.0, 2.0, dict8)
    assert np.all(s_inf.samples <= s_two.samples + 1e-12)


def test_tl_norm_zero_and_homogeneity(dict8, basis8, rng):
    spec = NormSpec(0, 0, 2, 2)
    assert tl_norm(GridFunction.zeros(basis8.root), spec, dict8) == 0.0
    f = GridFunction(basis8.root, rng.standard_normal(basis8.root.shape))
    v = tl_norm(f, spec, dict8)
    assert tl_norm(3.0 * f, spec, dict8) == pytest.approx(3.0 * v, rel=1e-12)


def test_tl_norm_dilation_covariance(dict8, basis8, family3, rng):
    # halving every cube rescales the norm by exactly 2^{n+m}, when the
    # dilated function is measured on the correspondingly dilated grid
    root_fine = RootBox(d=1, L=0, J=-9)
    basis_fine = AtomBasis(family3, root_fine)
    dict_fine = TestDictionary(basis_fine, size=dict8.size)
    tree = CoefficientTree(basis8.root)
    fine_tree = CoefficientTree(root_fine)
    for q in [DyadicCube(-3, (3,)), DyadicCube(-4, (9,)), DyadicCube(-5, (17,))]:
        c = rng.standard_normal()
        tree[q] = c
        fine_tree[DyadicCube(q.scale - 1, q.pos)] = c
    f = GridFunction(basis8.root, basis8.synthesize(tree))
    g = GridFunction(root_fine, basis_fine.synthesize(fine_tree))
    assert np.array_equal(g.samples[:basis8.root.cells_per_side], f.samples)
    # m >= 0: the sup maps cube-for-cube and rescales by 2^{n+m} exactly.
    # m < 0: the sup pins at the root cube, where the dilate fills half the
    # box, so the exact factor is 2^{n - 1/p} instead.
    for n, m in [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (1.0, -1.0)]:
        a = tl_norm(f, NormSpec(n, m, 2, 2), dict8)
        b = tl_norm(g, NormSpec(n, m, 2, 2), dict_fine)
        expect = 2.0 ** (n + m) if m >= 0 else 2.0 ** (n - 0.5)
        tol = 1e-6 if m >= 0 else 1e-3
        assert b == pytest.approx(a * expect, rel=tol)


def test_embedding_instances_exact(dict8, basis8, rng):
    f = GridFunction(basis8.root, rng.standard_normal(basis8.root.shape)
                     * np.exp(-30 * (basis8.root.midpoints_1d() - 0.5) ** 2))
    coeffs = dict8.coeff_arrays(f)
    for u in (0.0, 1.0):
        for p, r in [(1.0, 2.0), (2.0, 4.0)]:
            for q, s in [(np.inf, 2.0), (2.0, 1.0)]:
                a = tl_norm(f, NormSpec(0, 0, p, q), dict8, coeffs)
                b = tl_norm(f, NormSpec(u, -u, r, s), dict8, coeffs)
                assert a <= b + 1e-9


def test_bmo_examples(dict8, basis8):
    const = GridFunction.from_callable(basis8.root, lambda x: 7.0)
    assert bmo_norm(const, dict8) < 1e-8
    q0 = DyadicCube(-4, (8,))
    f = GridFunction(basis8.root, np.sqrt(q0.measure) * basis8.atom_grid(q0))
    direct = bmo_norm(f, dict8)
    reference = brute_force_tl_norm(f, NormSpec(0, 0, 2, 2), dict8)
    assert direct == pytest.approx(reference, rel=1e-10)
    assert bmo_norm(2.0 * f, dict8) == pytest.approx(2.0 * direct, rel=1e-12)


def test_norm_spec_validation(dict8, basis8):
    with pytest.raises(ValueError):
        NormSpec(0, 0, 0.5, 2)
    f = GridFunction.zeros(basis8.root)
    with pytest.raises(ValueError):
        tl_norm(f, NormSpec(5.0, 0.0, 2, 2), dict8)


def test_d2_dictionary_cancellation(family3):
    root = RootBox(d=2, L=0, J=-4)
    basis = AtomBasis(family3, root)
    d2 = TestDictionary(basis, size=3)
    poly = GridFunction.from_callable(root, lambda x, y: 1 + x - 2 * y + x * y)
    assert bmo_norm(poly, d2) < 1e-8


_FAMILIES = {}


def _family(N):
    if N not in _FAMILIES:
        _FAMILIES[N] = build_family(N)
    return _FAMILIES[N]


@pytest.mark.parametrize("d, J, N, size", [
    (1, -5, 1, 4), (1, -6, 2, 6), (1, -6, 3, 8), (1, -2, 3, 8),
    (2, -4, 2, 4), (2, -4, 3, 3), (3, -3, 2, 3)])
def test_coeff_arrays_match_intrinsic_coeff(d, J, N, size):
    # the strided bank against the per-cube member windows, boundary
    # cubes (clip-corrected members, masked canonical atom) included
    root = RootBox(d=d, L=0, J=J)
    dictionary = TestDictionary(AtomBasis(_family(N), root), size=size)
    f = GridFunction(root, np.random.default_rng([d, -J, N]).standard_normal(root.shape))
    fast = dictionary.coeff_arrays(f)
    assert sorted(fast) == list(range(root.J, root.L + 1))
    for scale, arr in fast.items():
        assert arr.shape == (root.positions_per_side(scale),) * d
        slow = np.zeros_like(arr)
        for cube in root.cubes_at_scale(scale):
            slow[cube.pos] = intrinsic_coeff(f, cube, dictionary)
        np.testing.assert_allclose(arr, slow, rtol=1e-12, atol=1e-300)


def test_coeff_arrays_complex_samples(dict_small, rng):
    root = dict_small.root
    re, im = rng.standard_normal((2,) + root.shape)
    fast = dict_small.coeff_arrays(GridFunction(root, re + 1j * im))
    for cube in [DyadicCube(-6, (0,)), DyadicCube(-4, (7,)), DyadicCube(-2, (3,))]:
        slow = intrinsic_coeff(GridFunction(root, re + 1j * im), cube, dict_small)
        assert fast[cube.scale][cube.pos] == pytest.approx(slow, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(3, 7),
       d=st.sampled_from([1, 2]), N=st.integers(1, 4))
def test_coeff_arrays_annihilate_polynomials(seed, depth, d, N):
    # every member, clipped boundary variants included, kills sampled
    # polynomials of degree <= k at every position of every scale
    fam = _family(N)
    root = RootBox(d=d, L=0, J=-depth)
    dictionary = TestDictionary(AtomBasis(fam, root), size=5)
    rng = np.random.default_rng(seed)
    x = root.midpoints_1d()
    grids = np.meshgrid(*([x] * d), indexing="ij")
    samples = np.zeros(root.shape)
    for alpha in itertools.product(range(fam.k + 1), repeat=d):
        if sum(alpha) <= fam.k:
            term = rng.uniform(-1.0, 1.0)
            for g, a in zip(grids, alpha):
                term = term * g ** a
            samples = samples + term
    f = GridFunction(root, samples)
    size = max(1.0, float(np.max(np.abs(samples))))
    for scale, arr in dictionary.coeff_arrays(f).items():
        assert np.max(arr) < 1e-10 * size, (scale, np.max(arr))


_NORM_DICTS = {}


def _norm_dictionary(d):
    # d = 1 at 16 cells, d = 2 at 8 x 8: small enough for the brute force
    if d not in _NORM_DICTS:
        root = RootBox(d=d, L=0, J=-4 if d == 1 else -3)
        _NORM_DICTS[d] = TestDictionary(AtomBasis(_family(2), root), size=4 if d == 1 else 3)
    return _NORM_DICTS[d]


_SPEC = st.builds(NormSpec, n=st.sampled_from([-1.0, -0.5, 0.0, 1.0]),
                  m=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                  p=st.sampled_from([1.0, 2.0, 4.0, np.inf]),
                  q=st.sampled_from([1.0, 2.0, np.inf]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       specs=st.lists(_SPEC, min_size=1, max_size=6).map(lambda xs: xs + xs[:1]))
def test_tl_norms_match_tl_norm_and_brute_force(seed, d, specs):
    # shared accumulation over a spec list with a duplicate, mixed p, q = inf
    # and negative n, m: the same numbers as one spec at a time
    dictionary = _norm_dictionary(d)
    root = dictionary.root
    f = GridFunction(root, np.random.default_rng(seed).standard_normal(root.shape))
    values = tl_norms(f, specs, dictionary)
    assert values.shape == (len(specs),)
    assert values[0] == values[-1]
    np.testing.assert_array_equal(values, [tl_norm(f, s, dictionary) for s in specs])
    slow = [brute_force_tl_norm(f, s, dictionary) for s in dict.fromkeys(specs)]
    fast = dict(zip(specs, values))
    np.testing.assert_allclose([fast[s] for s in dict.fromkeys(specs)], slow,
                               rtol=1e-14, atol=0.0)


def test_tl_norms_reuses_coeffs_and_checks_budget(dict8, rng):
    f = GridFunction(dict8.root, rng.standard_normal(dict8.root.shape))
    coeffs = dict8.coeff_arrays(f)
    specs = [NormSpec(0, 0, 2, 2), NormSpec(1, -1, 4, 2)]
    np.testing.assert_array_equal(tl_norms(f, specs, dict8, coeffs),
                                  tl_norms(f, specs, dict8))
    with pytest.raises(ValueError):
        tl_norms(f, specs + [NormSpec(0.0, 5.0, 2, 2)], dict8)


def test_bump_template_is_cached(dict8):
    count = len(dict8._bump_recipes)
    for scale in range(dict8.root.J, dict8.root.L + 1):
        for member in range(count):
            first = dict8._bump_template(member, scale)
            hits, misses = cache.counts()["tlnorm.TestDictionary._bump_template"]
            assert dict8._bump_template(member, scale) is first
            assert cache.counts()["tlnorm.TestDictionary._bump_template"] == (hits + 1, misses)
            # members wrap around the bump recipes
            np.testing.assert_array_equal(dict8._bump_template(member + count, scale), first)
            assert not first.flags.writeable
            fresh = (dict8._bump_recipes[member](dict8._cube_offsets(scale))
                     / dict8._bump_constants[member] / 2.0 ** scale)
            np.testing.assert_array_equal(first, fresh)
