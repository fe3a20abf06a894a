import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracles
from dyadica import AtomBasis, DyadicCube, RootBox
from dyadica.funcspace import (GridFunction, anti_ibp_check, grad_norm,
                               load_gridfunction, local_average, maximal, multi_indices,
                               save_gridfunction, sobolev_norm, taylor_poly, theta_weights)


def test_local_average_examples(root8):
    f = GridFunction.from_callable(root8, lambda x: 3.0)
    q = DyadicCube(-2, (1,))
    for p in (1.0, 2.0, np.inf):
        assert local_average(f, q, p) == pytest.approx(3.0)
    g = GridFunction.from_callable(root8, lambda x: np.where(x < 0.5, 1.0, 0.0))
    unit = DyadicCube(0, (0,))
    assert local_average(g, unit, 1.0) == pytest.approx(0.5)
    assert local_average(g, unit, 2.0) == pytest.approx(np.sqrt(0.5))
    assert local_average(g, unit, np.inf) == pytest.approx(1.0)


def test_local_average_power_mean_monotone(root8, rng):
    f = GridFunction(root8, rng.standard_normal(root8.shape))
    q = DyadicCube(-3, (4,))
    vals = [local_average(f, q, p) for p in (0.5, 1.0, 2.0, 4.0, np.inf)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_maximal_brute_force_oracle():
    root = RootBox(d=1, L=3, J=-4)
    f = GridFunction.from_callable(root, lambda x: np.where(x < 1.0, 1.0, 0.0))
    m = maximal(f)
    x = root.midpoints_1d()
    sel = (x >= 2.0) & (x < 4.0)
    assert np.allclose(m.samples[sel], 0.25)
    # exhaustive check at a few points against a direct cube scan
    for cell in (3, 40, 100):
        best = 0.0
        for scale in range(root.J, root.L + 1):
            cube = oracles.cube_of_cell(root, (cell,), scale)
            best = max(best, local_average(f, cube, 1.0))
        assert m.samples[cell] == pytest.approx(best)


def test_maximal_product_form(root8, rng):
    f = GridFunction.from_callable(root8, lambda x: np.where(x < 0.25, 1.0, 0.0))
    single = maximal(f)
    double = maximal([f, f])
    assert np.allclose(double.samples, single.samples ** 2)


def test_maximal_dominates_function(root8, rng):
    f = GridFunction(root8, np.abs(rng.standard_normal(root8.shape)))
    m = maximal(f)
    assert np.all(m.samples >= f.samples - 1e-12)


def test_taylor_zero_order(basis8, rng):
    f = GridFunction(basis8.root, rng.standard_normal(basis8.root.shape))
    p = taylor_poly(f, DyadicCube(-3, (3,)), 0)
    assert np.all(p.samples == 0.0)


def test_taylor_reproduces_low_degree(root8):
    f = GridFunction.from_callable(root8, lambda x: 2.0 - 0.5 * x)
    q = DyadicCube(-3, (3,))
    for k in (2, 3):
        p = taylor_poly(f, q, k, dilation=3)
        sl = root8.window_slices(q, 3)
        assert np.max(np.abs(p.samples[sl] - f.samples[sl])) < 1e-6


def test_taylor_quadratic_oracle():
    # k = 1 on f(x) = x^2 returns the bump-weighted average of y^2 over Q,
    # computed independently by adaptive quadrature
    root = RootBox(d=1, L=2, J=-6)
    f = GridFunction.from_callable(root, lambda x: x ** 2)
    q = DyadicCube(0, (0,))
    p = taylor_poly(f, q, 1)
    sl = root.window_slices(q)
    vals = np.unique(p.samples[sl].round(10))
    assert len(vals) == 1
    num, _ = integrate.quad(lambda y: np.exp(-1 / (1 - (2 * y - 1) ** 2)) * y * y,
                            0.0, 1.0)
    den, _ = integrate.quad(lambda y: np.exp(-1 / (1 - (2 * y - 1) ** 2)),
                            0.0, 1.0)
    assert vals[0] == pytest.approx(num / den, rel=1e-3)


def test_taylor_linear_in_f(basis8, rng):
    q = DyadicCube(-3, (4,))
    f = GridFunction(basis8.root, rng.standard_normal(basis8.root.shape))
    g = GridFunction(basis8.root, rng.standard_normal(basis8.root.shape))
    lhs = taylor_poly(GridFunction(basis8.root, f.samples + 2 * g.samples), q, 2)
    rhs = taylor_poly(f, q, 2).samples + 2 * taylor_poly(g, q, 2).samples
    assert np.max(np.abs(lhs.samples - rhs)) < 1e-10


def test_theta_unit_mass(root8):
    for q in [DyadicCube(-3, (2,)), DyadicCube(-8, (100,))]:
        w = theta_weights(root8, q)
        assert np.sum(w) * root8.cell_measure == pytest.approx(1.0, abs=1e-13)


def test_anti_ibp_haar_oracle(haar):
    # f = x against the unit Haar atom: direct integration gives -1/4
    root = RootBox(d=1, L=2, J=-6)
    basis = AtomBasis(haar, root)
    f = GridFunction.from_callable(
        root, lambda x: x * np.exp(-np.maximum(x - 2.5, 0.0) ** 2 * 8))
    rep = anti_ibp_check(f, DyadicCube(0, (1,)), 1, basis)
    assert rep["lhs"] == pytest.approx(-0.25, abs=1e-10)
    assert rep["rel_gap"] < 1e-6


def test_anti_ibp_polynomial_kills_both_sides(basis8):
    f = GridFunction.from_callable(basis8.root, lambda x: 1.0 + 2.0 * x)
    rep = anti_ibp_check(f, DyadicCube(-4, (8,)), 2, basis8)
    assert abs(rep["lhs"]) < 1e-8
    assert abs(rep["rhs"]) < 1e-8


def test_anti_ibp_smooth_two_sided(basis8, rng):
    f = GridFunction.from_callable(
        basis8.root, lambda x: np.sin(6 * x) * np.exp(-40 * (x - 0.5) ** 2))
    for k in (1, 2):
        rep = anti_ibp_check(f, DyadicCube(-4, (8,)), k, basis8)
        assert rep["rel_gap"] < 1e-4
        assert np.isfinite(rep["class_constant"])


def test_anti_ibp_moment_deficiency(haar):
    root = RootBox(d=1, L=0, J=-6)
    basis = AtomBasis(haar, root)
    f = GridFunction.from_callable(root, lambda x: x)
    with pytest.raises(ValueError):
        anti_ibp_check(f, DyadicCube(-2, (1,)), 2, basis)  # k exceeds moments


def test_neighbor_taylor_inequality(basis8, rng):
    f = oracles.plateau_function(rng, basis8.root) + oracles.wave_function(rng, basis8.root)
    q = DyadicCube(-2, (1,))
    p_cube = DyadicCube(-4, (5,))
    r_cube = DyadicCube(-4, (6,))
    rep = oracles.neighbor_taylor_gap(f, p_cube, q, r_cube, 2, basis8)
    assert rep["lhs"] <= 64.0 * rep["rhs"]


def test_sobolev_atom_norm(basis8):
    q = DyadicCube(-4, (7,))
    f = GridFunction(basis8.root, np.sqrt(q.measure) * basis8.atom_grid(q))
    assert sobolev_norm(f, 0, 2.0) == pytest.approx(1.0, rel=1e-6)
    assert sobolev_norm(GridFunction.zeros(basis8.root), 1, 2.0) == 0.0


def test_sobolev_gaussian_oracle(root8):
    f = GridFunction.from_callable(root8, lambda x: np.exp(-60 * (x - 0.5) ** 2))
    got = sobolev_norm(f, 1, 2.0)
    x = root8.midpoints_1d()
    fp = -120 * (x - 0.5) * np.exp(-60 * (x - 0.5) ** 2)
    oracle = np.sqrt(np.sum(f.samples ** 2) * root8.cell_measure) \
        + np.sqrt(np.sum(fp ** 2) * root8.cell_measure)
    assert abs(got - oracle) / oracle < 0.05


def test_sobolev_negative_needs_basis(root8, basis8):
    f = GridFunction.zeros(root8)
    with pytest.raises(ValueError):
        sobolev_norm(f, -1, 2.0)
    assert sobolev_norm(f, -1, 2.0, basis8) == 0.0
    with pytest.raises(ValueError):
        sobolev_norm(f, -5, 2.0, basis8)


def test_grad_norm_multiindices():
    assert list(multi_indices(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    root = RootBox(d=2, L=0, J=-4)
    f = GridFunction.from_callable(root, lambda x, y: x + 3 * y)
    g = grad_norm(f, 1)
    inner = g.samples[4:-4, 4:-4]
    assert np.allclose(inner, np.sqrt(10.0))


def test_gridfunction_io_roundtrip(tmp_path, root8, rng):
    f = GridFunction(root8, rng.standard_normal(root8.shape))
    path = tmp_path / "f.gfn"
    save_gridfunction(path, f)
    assert os.path.getsize(path) == 32 + 8 * root8.cells_per_side
    g = load_gridfunction(path)
    assert g.root == root8
    assert np.array_equal(f.samples, g.samples)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), L=st.integers(-2, 2), depth=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gridfunction_io_roundtrip_property(tmp_path_factory, d, L, depth, seed):
    root = RootBox(d=d, L=L, J=L - depth)
    f = GridFunction(root, np.random.default_rng(seed).standard_normal(root.shape))
    path = tmp_path_factory.mktemp("gfn") / "f.gfn"
    save_gridfunction(path, f)
    g = load_gridfunction(path)
    assert g.root == root
    assert np.array_equal(f.samples, g.samples)


def test_gridfunction_save_rejects_a_batch(tmp_path, root_small):
    # the header would count batch x cells samples, which the loader rejects
    batch = GridFunction(root_small, np.ones((3,) + root_small.shape))
    with pytest.raises(ValueError, match=r"sample shape \(3, 64\) is a batch"):
        save_gridfunction(tmp_path / "b.gfn", batch)
    assert not (tmp_path / "b.gfn").exists()


def test_gridfunction_load_rejects_truncated_payload(tmp_path, root8, rng):
    path = tmp_path / "f.gfn"
    save_gridfunction(path, GridFunction(root8, rng.standard_normal(root8.shape)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    need = 8 * root8.cells_per_side
    with pytest.raises(ValueError, match=f"{need} bytes.*{need - 8}"):
        load_gridfunction(path)
    path.write_bytes(data[:20])
    with pytest.raises(ValueError, match="header"):
        load_gridfunction(path)


def test_gridfunction_load_ignores_trailing_bytes(tmp_path, root8, rng):
    f = GridFunction(root8, rng.standard_normal(root8.shape))
    path = tmp_path / "f.gfn"
    save_gridfunction(path, f)
    with open(path, "ab") as fh:
        fh.write(b"trailer")
    assert np.array_equal(load_gridfunction(path).samples, f.samples)


def _load_through_fifo(path, data: bytes):
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_gridfunction(path)
    finally:
        writer.join()


def test_gridfunction_load_from_pipe(tmp_path, root8, rng):
    # a pipe reports size 0, so the payload is checked as it arrives
    f = GridFunction(root8, rng.standard_normal(root8.shape))
    save_gridfunction(tmp_path / "f.gfn", f)
    data = (tmp_path / "f.gfn").read_bytes()
    g = _load_through_fifo(tmp_path / "whole.gfn", data)
    assert np.array_equal(g.samples, f.samples)
    with pytest.raises(ValueError, match=f"{8 * root8.cells_per_side} bytes.*stream holds "
                                         f"{8 * root8.cells_per_side - 8}"):
        _load_through_fifo(tmp_path / "short.gfn", data[:-8])


def test_gridfunction_load_rejects_huge_header_without_allocating(tmp_path):
    # a self-consistent header for 2^60 cells and no payload
    root = RootBox(d=3, L=0, J=-20)
    path = tmp_path / "huge.gfn"
    path.write_bytes(struct.pack("<qqqq", 3, 0, -20, root.cells_per_side ** 3))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{8 * root.cells_per_side ** 3} bytes.* 0$"):
            load_gridfunction(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("J", [-2 ** 20, -2 ** 40])
def test_gridfunction_load_rejects_a_huge_depth_before_building_the_box(tmp_path, J):
    # 2^(L - J) cells would be a number of 2^20 or 2^40 bits
    path = tmp_path / "deep.gfn"
    path.write_bytes(struct.pack("<qqqq", 1, 0, J, 256))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"sample count 256 does not match a box of "
                                             rf"2\^{-J} cells"):
            load_gridfunction(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gridfunction_io_rejects_complex(tmp_path, root8):
    f = GridFunction(root8, np.zeros(root8.shape, dtype=complex))
    with pytest.raises(ValueError):
        save_gridfunction(tmp_path / "c.gfn", f)


def test_scale_averages_layout(root8, rng):
    f = GridFunction(root8, np.abs(rng.standard_normal(root8.shape)))
    arr = oracles.scale_averages(f, -3, 1.0)
    q = DyadicCube(-3, (5,))
    assert arr[5] == pytest.approx(local_average(f, q, 1.0))
