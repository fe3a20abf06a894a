import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica import AtomBasis, CascadeError, DyadicCube, RootBox, build_family
from dyadica.wavelet import CoefficientTree, daubechies_filter, l2_norm, mirror_filter
from oracles import atom_pair, gram_matrix, n_nonzero, table_moment, table_values


def test_filter_order2_matches_closed_form():
    # recomputed from the orthogonality/moment equations, then compared
    s3 = np.sqrt(3.0)
    closed = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2.0))
    assert np.max(np.abs(daubechies_filter(2) - closed)) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_filter_equations(N):
    h = daubechies_filter(N)
    assert len(h) == 2 * N
    assert np.sum(h) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    for m in range(N):
        val = sum(h[n] * h[n + 2 * m] for n in range(len(h)) if n + 2 * m < len(h))
        assert val == pytest.approx(1.0 if m == 0 else 0.0, abs=1e-12)
    g = mirror_filter(h)
    for a in range(N):
        assert abs(sum(gn * n ** a for n, gn in enumerate(g))) < 1e-10


def test_haar_family():
    fam = build_family(1, refine=6)
    assert np.allclose(fam.lowpass, [1 / np.sqrt(2)] * 2)
    assert fam.w == 1
    # mother wavelet is the Haar step
    mid = table_values(fam, np.array([0.25, 0.75]))
    assert mid[0] == pytest.approx(1.0)
    assert mid[1] == pytest.approx(-1.0)


def test_cascade_moment_quadrature_oracle(family2):
    assert abs(table_moment(family2, 0)) < 1e-8
    assert abs(table_moment(family2, 1)) < 1e-8
    assert table_moment(family2, 0, kind="phi") == pytest.approx(1.0, abs=1e-10)
    assert family2.cascade_residual < 1e-10


def test_build_family_validation():
    with pytest.raises(ValueError):
        build_family(0)
    with pytest.raises(ValueError):
        build_family(3, refine=4)
    with pytest.raises(CascadeError):
        build_family(3, cap=3)


def test_gram_identity_interior(basis8):
    cubes = basis8.interior_cubes()
    assert basis8.gram_residual(cubes) < 1e-8


# the finest box of each dimension, at most 2^12 cells
_DEEPEST = {1: 9, 2: 6, 3: 4}


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 4), d=st.sampled_from([1, 2, 3]), depth=st.integers(4, 9))
def test_gram_identity_property(N, d, depth):
    # every family and box builds its basis from the one shared family
    basis = AtomBasis(build_family(N), RootBox(d=d, L=0, J=-min(depth, _DEEPEST[d])))
    cubes = basis.interior_cubes()
    assert cubes
    assert basis.gram_residual(cubes) < 1e-8


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 4), depth=st.integers(3, 9), data=st.data())
def test_high_low_identity_property(N, depth, data):
    # sum over cubes coarser than 2^ell of the wavelet projections equals the
    # scale-ell scaling projection, for samples over the whole box
    root = RootBox(d=1, L=0, J=-depth)
    basis = AtomBasis(build_family(N), root)
    ell = data.draw(st.integers(root.J + 1, root.L), label="ell")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    f = np.random.default_rng(seed).standard_normal(root.shape)
    assert basis.high_low_residual(f, ell) < 1e-8 * l2_norm(f, root)


@pytest.mark.parametrize("d, J", [(1, -7), (2, -4), (3, -3)])
def test_gram_matrix_matches_per_cube_reference(family3, d, J):
    basis = AtomBasis(family3, RootBox(d=d, L=0, J=J))
    # every cube above the grid: the box clips the windows of boundary cubes
    cubes = [c for c in basis.root.all_cubes() if c.scale > J]
    got = basis.gram_matrix(cubes)
    ref = gram_matrix(basis, cubes)
    assert np.max(np.abs(got - ref)) <= 1e-14
    assert np.max(np.abs(ref - np.eye(len(cubes)))) > 1e-3


def test_analyze_single_atom(basis8):
    q = DyadicCube(-5, (12,))
    f = np.sqrt(q.measure) * basis8.atom_grid(q)
    tree = basis8.analyze(f)
    assert tree[q] == pytest.approx(1 / np.sqrt(q.measure), rel=1e-12)
    others = max((abs(v) for c, v in tree.items() if c != q), default=0.0)
    assert others < 1e-8


def test_analyze_constant_cancellation(basis8):
    tree = basis8.analyze(np.ones(basis8.root.shape))
    interior = basis8.interior_cubes()
    assert max(abs(tree[q]) for q in interior) < 1e-8


def test_analyze_haar_step(haar):
    root = RootBox(d=1, L=0, J=-6)
    basis = AtomBasis(haar, root)
    x = root.midpoints_1d()
    f = np.where(x < 0.5, 1.0, -1.0)
    assert atom_pair(basis, f, DyadicCube(0, (0,)), "wavelet") == pytest.approx(1.0)


def test_synthesize_examples(basis8):
    tree = CoefficientTree(basis8.root)
    assert np.all(basis8.synthesize(tree) == 0.0)
    q = DyadicCube(-4, (7,))
    tree[q] = 1.0
    out = basis8.synthesize(tree)
    assert np.allclose(out, q.measure * basis8.atom_grid(q))


def test_analyze_synthesize_roundtrip(basis8, rng):
    tree = CoefficientTree(basis8.root)
    for q in rng.choice(basis8.interior_cubes(), size=10, replace=False):
        tree[q] = rng.standard_normal()
    f = basis8.synthesize(tree)
    rec = basis8.synthesize(basis8.analyze(f))
    assert l2_norm(rec - f, basis8.root) < 1e-6 * l2_norm(f, basis8.root)


def test_scaling_atom_unit_integral(basis8):
    # unclipped atoms integrate to one exactly; scale-J atoms are cell averages
    for q in [DyadicCube(-4, (5,)), DyadicCube(-5, (16,)), DyadicCube(-8, (3,))]:
        vals = basis8.atom_grid(q, "scaling")
        assert np.sum(vals) * basis8.root.cell_measure == pytest.approx(1.0)


def test_atom_support_inside_dilate(basis8):
    w = basis8.family.w
    for q in [DyadicCube(-4, (8,)), DyadicCube(-6, (30,))]:
        vals = basis8.atom_grid(q)
        window = np.zeros(basis8.root.shape, dtype=bool)
        window[basis8.root.window_slices(q, w)] = True
        assert np.all(vals[~window] == 0.0)


def test_high_low_scaling_span(basis8, rng):
    f = rng.standard_normal(basis8.root.shape)
    g = basis8._projection_1d(f, -4, "scaling")
    res = basis8.high_low_residual(g, ell=-4)
    assert res < 1e-8 * max(l2_norm(g, basis8.root), 1e-300)


def test_high_low_fine_atom_orthogonality(basis8):
    q = DyadicCube(-6, (30,))
    f = basis8.atom_grid(q)
    # both sides vanish individually for a wavelet finer than the band
    lhs = np.zeros_like(f)
    for s in range(-3, basis8.root.L + 1):
        lhs += basis8._projection_1d(f, s, "wavelet")
    rhs = basis8._projection_1d(f, -4, "scaling")
    assert l2_norm(lhs, basis8.root) < 1e-8
    assert l2_norm(rhs, basis8.root) < 1e-8


def test_high_low_random_interior(basis8, rng):
    f = np.zeros(basis8.root.shape)
    f[40:216] = rng.standard_normal(176)
    rel = basis8.high_low_residual(f, ell=-4) / l2_norm(f, basis8.root)
    assert rel < 1e-6


def test_high_low_validation(basis8):
    with pytest.raises(ValueError):
        basis8.high_low_residual(np.zeros(basis8.root.shape), ell=-8)


def test_moment_exactness_discrete(basis8):
    # cancellative atoms kill sampled polynomials up to order N-1 exactly
    x = basis8.root.midpoints_1d()
    for q in [DyadicCube(-4, (6,)), DyadicCube(-3, (3,))]:
        vals = basis8.atom_grid(q)
        for a in range(basis8.family.N):
            assert abs(np.sum(vals * x ** a) * basis8.root.cell_measure) < 1e-10


def test_d2_gram_and_roundtrip(family3):
    root = RootBox(d=2, L=0, J=-4)
    basis = AtomBasis(family3, root)
    cubes = basis.interior_cubes()
    assert basis.gram_residual(cubes) < 1e-8
    tree = CoefficientTree(root)
    tree[cubes[0]] = 1.5
    f = basis.synthesize(tree)
    assert basis.analyze(f)[cubes[0]] == pytest.approx(1.5, rel=1e-10)


def test_coefficient_tree_ops(root8):
    t1 = CoefficientTree(root8)
    q = DyadicCube(-3, (2,))
    t1[q] = 2.0
    t2 = t1.scaled(0.5) + t1
    assert t2[q] == pytest.approx(3.0)
    assert n_nonzero(t1) == 1
    with pytest.raises(ValueError):
        t1[DyadicCube(-9, (0,))] = 1.0
    with pytest.raises(ValueError):
        t1[DyadicCube(-3, (900,))] = 1.0


@pytest.mark.parametrize("d, J, N", [(1, -6, 1), (1, -7, 3), (1, -3, 4),
                                     (2, -4, 2), (2, -5, 3), (3, -3, 2)])
def test_analyze_matches_per_cube_pair(d, J, N, rng):
    # the strided filter bank against the clipped per-cube atom windows
    root = RootBox(d=d, L=0, J=J)
    basis = AtomBasis(build_family(N), root)
    f = rng.standard_normal(root.shape)
    tree = basis.analyze(f)
    assert sorted(tree.data) == list(range(root.J + 1, root.L + 1))
    for scale, arr in tree.data.items():
        slow = np.zeros_like(arr)
        for cube in root.cubes_at_scale(scale):
            slow[cube.pos] = atom_pair(basis, f, cube, "wavelet")
        np.testing.assert_allclose(arr, slow, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(slow)))
