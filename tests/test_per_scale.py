"""Per-scale paraproducts, synthesis and projections against the per-cube
references in ``oracles.py``, plus the exact identities they must keep."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import AtomBasis, DyadicCube, RootBox, build_family
from dyadica.ensembles import atom_tree, default_atom_scales
from dyadica.funcspace import GridFunction, pairing
from dyadica.paraproduct import (ParaproductSpec, WaveletFormSpec, adjoint_apply,
                                 apply_paraproduct, duality_form, form_eval,
                                 localized_form)
from dyadica.tlnorm import TestDictionary
from dyadica.wavelet import CoefficientTree, strided_pairings, strided_spread


@functools.lru_cache(maxsize=None)
def _family(N):
    return build_family(N)


@functools.lru_cache(maxsize=None)
def _space(d, J, N):
    basis = AtomBasis(_family(N), RootBox(d=d, L=0, J=J))
    return basis, TestDictionary(basis, size=4)


SPACES = {1: (1, -7, 3), 2: (2, -5, 2)}  # 128 cells; 32 x 32 cells


def families(name, basis, dictionary):
    """(beta, chi, per-cube beta, per-cube chi, finest symbol scale)."""
    J = basis.root.J
    if name == "canonical":
        return (basis.atoms("wavelet"), basis.atoms("scaling"),
                oracles.canonical_values(basis, "wavelet"),
                oracles.canonical_values(basis, "scaling"), J + 1)
    if name == "dictionary":  # sampled members exist from 4 cells per cube up
        return (dictionary.member_family(2), dictionary.bump_family(1, unit=True),
                oracles.member_values(dictionary, 2),
                oracles.unit_bump_values(dictionary, 1), J + 2)
    # member 0 is the canonical wavelet, masked where the box clips it
    return (dictionary.member_family(0), dictionary.bump_family(2),
            oracles.member_values(dictionary, 0), oracles.bump_values(dictionary, 2), J + 1)


def make_symbol(kind, basis, smin, rng) -> CoefficientTree:
    """Sparse (random cubes, the corner cubes included), dense (analysed
    white noise) or complex, on the scales smin..L."""
    root = basis.root
    if kind == "dense":
        tree = basis.analyze(rng.standard_normal(root.shape))
        for scale in range(root.J + 1, smin):
            del tree.data[scale]
        return tree
    tree = CoefficientTree(root, dtype=complex if kind == "complex" else float)
    for scale in range(smin, root.L + 1):
        npos = root.positions_per_side(scale)
        for pos in [(0,) * root.d, (npos - 1,) * root.d,
                    tuple(rng.integers(0, npos, size=root.d))]:
            value = rng.standard_normal()
            if kind == "complex":
                value = value + 1j * rng.standard_normal()
            tree[DyadicCube(scale, pos)] = value
    return tree


def noise(basis, rng):
    return GridFunction(basis.root, rng.standard_normal(basis.root.shape))


def assert_matches(new, old):
    """Equal to 1e-12 relative to the largest entry of the reference."""
    old = np.asarray(old)
    scale = max(float(np.max(np.abs(old), initial=0.0)), 1e-300)
    assert np.max(np.abs(np.asarray(new) - old), initial=0.0) <= 1e-12 * scale


CASES = [(d, fam, kind) for d in (1, 2) for fam in ("canonical", "dictionary", "masked")
         for kind in ("sparse", "dense", "complex")]


@pytest.mark.parametrize("d, kind", [(d, k) for d in (1, 2)
                                     for k in ("sparse", "dense", "complex")])
def test_synthesize_matches_per_cube(d, kind):
    basis, _ = _space(*SPACES[d])
    tree = make_symbol(kind, basis, basis.root.J + 1, np.random.default_rng(1))
    assert_matches(basis.synthesize(tree), oracles.synthesize(basis, tree))


@pytest.mark.parametrize("d, fam, kind", CASES)
def test_paraproduct_operators_match_per_cube(d, fam, kind):
    basis, dictionary = _space(*SPACES[d])
    beta, chi, beta_v, chi_v, smin = families(fam, basis, dictionary)
    rng = np.random.default_rng([d, len(fam), len(kind)])
    symbol = make_symbol(kind, basis, smin, rng)
    spec = ParaproductSpec(basis, symbol, arity=2, beta=beta, chi=chi)
    fs = [noise(basis, rng) for _ in range(2)]
    assert_matches(apply_paraproduct(spec, fs).samples,
                   oracles.apply_paraproduct(symbol, beta_v, chi_v, fs))
    for j in (1, 2):
        assert_matches(adjoint_apply(spec, j, fs).samples,
                       oracles.adjoint_apply(symbol, beta_v, chi_v, j, fs))
    for scale in symbol.data:
        slow = np.zeros((basis.root.positions_per_side(scale),) * d)
        for cube in basis.root.cubes_at_scale(scale):
            slow[cube.pos] = oracles.zeta(chi_v, cube, fs)
        assert_matches(spec.zeta(scale, fs), slow)


@pytest.mark.parametrize("d, fam, kind", CASES)
def test_forms_match_per_cube(d, fam, kind):
    basis, dictionary = _space(*SPACES[d])
    beta, chi, beta_v, chi_v, smin = families(fam, basis, dictionary)
    root = basis.root
    rng = np.random.default_rng([d, len(fam), len(kind), 7])
    symbol = make_symbol(kind, basis, smin, rng)
    spec = ParaproductSpec(basis, symbol, arity=2, beta=beta, chi=chi)
    f, g, h1, h2 = (noise(basis, rng) for _ in range(4))
    wav = oracles.canonical_values(basis, "wavelet")
    corner = DyadicCube(root.L - 1, (0,) * d)
    above = [c for c in root.all_cubes() if c.scale >= smin]
    below = [c for c in oracles.descendants(root, corner) if c.scale > root.J]
    forms = [  # (form, phi, slots, cubes, trailing inputs), per cube
        (duality_form(spec), wav, [beta_v, chi_v, chi_v], symbol.support(), [g, h1, h2]),
        (WaveletFormSpec(basis, 2, oracles.ones_tree(root, below), slots=[chi, chi]), wav,
         [chi_v, chi_v], below, [h1, h2]),
        # from smin up, where the members start
        (WaveletFormSpec(basis, 1, oracles.ones_tree(root, above), phi=beta, slots=[chi]),
         beta_v, [chi_v], above, [g])]
    for form, phi, slots, cubes, inputs in forms:
        terms = oracles.form_terms(phi, slots, cubes, f, inputs)
        mass = float(np.sum(np.abs(terms)))
        assert abs(form_eval(form, f, inputs) - np.sum(terms)) <= 1e-12 * mass
    for q0 in (root.root_cube, corner, DyadicCube(root.L - 2, (1,) * d)):
        fast = localized_form(symbol, q0, g, [h1, h2], spec)
        terms = [cube.measure * b * oracles.pair(beta_v, cube, g)
                 * oracles.zeta(chi_v, cube, [h1, h2])
                 for cube, b in symbol.items() if oracles.contains(q0, cube)]
        mass = float(np.sum(np.abs(terms)))
        assert abs(fast - np.sum(terms)) <= 1e-12 * max(mass, 1e-300)


@pytest.mark.parametrize("N, J", [(1, -5), (2, -6), (3, -7), (4, -6)])
def test_projection_1d_matches_per_position(N, J):
    basis, _ = _space(1, J, N)
    f = np.random.default_rng(N).standard_normal(basis.root.shape)
    for scale in range(J, basis.root.L + 12):
        for kind in ("wavelet", "scaling"):
            if kind == "wavelet" and scale == J:
                continue
            assert_matches(basis._projection_1d(f, scale, kind),
                           oracles.projection_1d(basis, f, scale, kind))


@pytest.mark.parametrize("d, npos, first", [(1, 9, -5), (2, 5, -5), (3, 3, -5),
                                            (1, 2, -5), (1, 9, 3), (2, 4, 2)])
def test_strided_spread_is_the_transpose(d, npos, first):
    # <spread(c), x> = <c, pairings(x)> for a bank with boundary blocks, the
    # two blocks listing the same positions when npos is small; windows
    # start left of the box (first < 0) or inside it
    rng = np.random.default_rng(d * 10 + npos)
    stride, K, width = 4, 3, 13
    n = npos * stride
    bank, tail = rng.standard_normal((K, width)), rng.standard_normal(width)
    r = min(2, npos)
    ncols = min(6, n)
    boundary = [(np.arange(r), 0, rng.standard_normal((ncols, r * K))),
                (np.arange(npos - r, npos), n - ncols, rng.standard_normal((ncols, r * K)))]
    x = rng.standard_normal((n,) * d)
    c = rng.standard_normal((npos,) * d + (K,)) + 1j * rng.standard_normal((npos,) * d + (K,))
    y = strided_spread(c, bank, tail, first, stride, n, boundary)
    assert y.shape == (n,) * d
    lhs = np.sum(y * x)
    rhs = np.sum(c * strided_pairings(x, bank, tail, first, stride, boundary))
    assert abs(lhs - rhs) <= 1e-12 * float(np.sum(np.abs(y * x)))


def test_adjoint_of_complex_symbol():
    # the output takes its dtype from the symbol: a float buffer used to
    # raise a casting error for complex coefficients
    basis, _ = _space(1, -6, 3)
    tree = CoefficientTree(basis.root, dtype=complex)
    q0 = DyadicCube(-3, (3,))
    tree[q0] = 0.5 - 1.5j
    spec = ParaproductSpec(basis, tree, arity=2)
    rng = np.random.default_rng(3)
    fs = [noise(basis, rng) for _ in range(2)]
    for j in (1, 2):
        out = adjoint_apply(spec, j, fs)
        assert np.iscomplexobj(out.samples) and np.max(np.abs(out.samples.imag)) > 0
        assert_matches(out.samples, oracles.adjoint_apply(
            tree, oracles.canonical_values(basis, "wavelet"),
            oracles.canonical_values(basis, "scaling"), j, fs))


# -- properties ------------------------------------------------------------------

SHAPES = st.sampled_from([(1, -6, 1), (1, -7, 3), (1, -5, 2), (2, -4, 2), (2, -5, 3)])


def _interior_tree(rng, basis, count):
    cubes = basis.interior_cubes()
    tree = CoefficientTree(basis.root)
    for i in rng.choice(len(cubes), size=min(count, len(cubes)), replace=False):
        tree[cubes[i]] = rng.standard_normal()
    return tree


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 12))
def test_analyze_synthesize_identity_on_interior_trees(shape, seed, count):
    basis, _ = _space(*shape)
    tree = _interior_tree(np.random.default_rng(seed), basis, count)
    back = basis.analyze(basis.synthesize(tree))
    assert sorted(back.data) == list(range(basis.root.J + 1, basis.root.L + 1))
    err = max(np.max(np.abs(arr - tree.data.get(scale, 0.0)))
              for scale, arr in back.data.items())
    assert err <= 1e-12 * tree.max_abs()


@settings(max_examples=30, deadline=None)
@given(shape=SHAPES, seed=st.integers(0, 2 ** 32 - 1), arity=st.integers(1, 3),
       fam=st.sampled_from(["canonical", "dictionary", "masked"]))
def test_duality_and_adjoint_slots(shape, seed, arity, fam):
    basis, dictionary = _space(*shape)
    beta, chi, _, _, smin = families(fam, basis, dictionary)
    rng = np.random.default_rng(seed)
    scales = [s for s in default_atom_scales(basis) if s >= smin]
    tree = atom_tree(rng, basis, scales=scales, count=8)
    spec = ParaproductSpec(basis, tree, arity=arity, beta=beta, chi=chi)
    # white noise: inputs that vanish where the atoms live make every side
    # a rounding residual, with no scale to measure it against
    fs = [noise(basis, rng) for _ in range(arity)]
    g = noise(basis, rng)
    out = apply_paraproduct(spec, fs)
    lhs = pairing(out, g)
    bfunc = GridFunction(basis.root, basis.synthesize(tree))
    rhs = form_eval(duality_form(spec), bfunc, [g] + fs)
    mass = float(np.sum(np.abs(out.samples * g.samples))) * basis.root.cell_measure
    denom = max(abs(lhs), mass, 1e-300)
    assert abs(lhs - rhs) <= 1e-8 * denom
    for j in range(1, arity + 1):
        swapped = list(fs)
        swapped[j - 1] = g
        assert abs(pairing(adjoint_apply(spec, j, swapped), fs[j - 1]) - lhs) <= 1e-8 * denom
