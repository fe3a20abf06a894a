import numpy as np
import pytest

from dyadica import DyadicCube
from dyadica.ensembles import atom_tree, mixed_function
from dyadica.funcspace import GridFunction, pairing
from dyadica.paraproduct import (ArityError, ParaproductSpec, WaveletFormSpec,
                                 adjoint_apply, apply_paraproduct,
                                 duality_form, form_eval, intrinsic_form,
                                 localized_form)
from dyadica.wavelet import CoefficientTree
from oracles import atom_pair, descendants, form_mass, intrinsic_coeff, ones_tree


@pytest.fixture()
def random_spec(basis8, rng):
    tree = atom_tree(rng, basis8, count=8)
    return ParaproductSpec(basis8, tree, arity=2)


def test_apply_zero_symbol(basis8, rng):
    spec = ParaproductSpec(basis8, CoefficientTree(basis8.root), arity=2)
    f = mixed_function(rng, basis8)
    out = apply_paraproduct(spec, [f, f])
    assert np.all(out.samples == 0.0)


def test_apply_single_cube_with_unit_inputs(basis8):
    tree = CoefficientTree(basis8.root)
    q0 = DyadicCube(-4, (8,))
    tree[q0] = 1.0
    spec = ParaproductSpec(basis8, tree, arity=2)
    ones = GridFunction.from_callable(basis8.root, lambda x: 1.0)
    out = apply_paraproduct(spec, [ones, ones])
    assert np.allclose(out.samples, q0.measure * basis8.atom_grid(q0), atol=1e-12)


def test_apply_linearity(basis8, rng):
    t1 = atom_tree(rng, basis8, count=5)
    t2 = atom_tree(rng, basis8, count=5)
    fs = [mixed_function(rng, basis8, kind=k) for k in range(2)]
    a = apply_paraproduct(ParaproductSpec(basis8, t1, arity=2), fs)
    b = apply_paraproduct(ParaproductSpec(basis8, t2, arity=2), fs)
    c = apply_paraproduct(ParaproductSpec(basis8, t1 + t2, arity=2), fs)
    assert np.max(np.abs(c.samples - a.samples - b.samples)) < 1e-10


def test_apply_arity_mismatch(random_spec, basis8, rng):
    with pytest.raises(ArityError):
        apply_paraproduct(random_spec, [mixed_function(rng, basis8)])


def test_duality_identity(random_spec, basis8, rng):
    fs = [mixed_function(rng, basis8, kind=k) for k in range(2)]
    g = mixed_function(rng, basis8, kind=2)
    out = apply_paraproduct(random_spec, fs)
    lhs = pairing(out, g)
    bfunc = GridFunction(basis8.root, basis8.synthesize(random_spec.symbol))
    dual = duality_form(random_spec)
    rhs = form_eval(dual, bfunc, [g] + fs)
    mass = form_mass(dual, bfunc, [g] + fs)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), mass, 1e-300)


def test_form_eval_zero_first_slot(random_spec, basis8, rng):
    dual = duality_form(random_spec)
    zero = GridFunction.zeros(basis8.root)
    fs = [mixed_function(rng, basis8, kind=k) for k in range(3)]
    assert form_eval(dual, zero, fs) == 0.0


def test_empty_forms_keep_the_batch_shape(basis8, rng):
    # no symbol scale contributes: one zero per member, 0.0 for one function
    root = basis8.root
    f = GridFunction(root, rng.standard_normal((3,) + root.shape))
    g = GridFunction(root, rng.standard_normal(root.shape))
    empty = WaveletFormSpec(basis8, 1, CoefficientTree(root), [basis8.atoms("scaling")])
    assert form_eval(empty, f, [g]).shape == (3,)
    assert not form_eval(empty, f, [g]).any()
    assert form_eval(empty, f[0], [g]) == 0.0
    tree = CoefficientTree(root)
    tree[DyadicCube(0, (0,))] = 1.0
    spec = ParaproductSpec(basis8, tree, arity=1)
    q0 = DyadicCube(-3, (2,))  # finer than the only symbol scale
    assert localized_form(tree, q0, f, [g], spec).shape == (3,)
    assert not localized_form(tree, q0, f, [g], spec).any()
    assert localized_form(tree, q0, f[0], [g], spec) == 0.0


def test_form_eval_single_cube_hand_sum(basis8, rng):
    tree = CoefficientTree(basis8.root)
    q0 = DyadicCube(-4, (9,))
    tree[q0] = 2.5
    spec = ParaproductSpec(basis8, tree, arity=1)
    f = mixed_function(rng, basis8, kind=1)
    g = mixed_function(rng, basis8, kind=2)
    bfunc = GridFunction(basis8.root, basis8.synthesize(tree))
    val = form_eval(duality_form(spec), bfunc, [g, f])
    hand = q0.measure * atom_pair(basis8, bfunc.samples, q0, "wavelet") \
        * atom_pair(basis8, g.samples, q0, "wavelet") \
        * atom_pair(basis8, f.samples, q0, "scaling")
    assert val == pytest.approx(hand, rel=1e-12)


def test_adjoint_identity_random(random_spec, basis8, rng):
    fs = [mixed_function(rng, basis8, kind=k) for k in range(2)]
    for j in (1, 2):
        adj = adjoint_apply(random_spec, j, fs)
        for trial in range(5):
            g = mixed_function(rng, basis8, kind=trial)
            swapped = list(fs)
            swapped[j - 1] = g
            lhs = pairing(adj, g)
            rhs = pairing(apply_paraproduct(random_spec, swapped), fs[j - 1])
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_adjoint_m1_transpose(basis8, rng):
    tree = atom_tree(rng, basis8, count=6)
    spec = ParaproductSpec(basis8, tree, arity=1)
    f = mixed_function(rng, basis8, kind=1)
    g = mixed_function(rng, basis8, kind=2)
    lhs = pairing(adjoint_apply(spec, 1, [f]), g)
    rhs = pairing(apply_paraproduct(spec, [g]), f)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_adjoint_single_cube_closed_form(basis8, rng):
    tree = CoefficientTree(basis8.root)
    q0 = DyadicCube(-4, (6,))
    tree[q0] = 1.3
    spec = ParaproductSpec(basis8, tree, arity=2)
    f1 = mixed_function(rng, basis8, kind=1)
    f2 = mixed_function(rng, basis8, kind=2)
    adj = adjoint_apply(spec, 1, [f1, f2])
    expect = q0.measure * 1.3 * atom_pair(basis8, f1.samples, q0, "wavelet") \
        * atom_pair(basis8, f2.samples, q0, "scaling") * basis8.atom_grid(q0, "scaling")
    assert np.max(np.abs(adj.samples - expect)) < 1e-12


def test_adjoint_bad_slot(random_spec, basis8, rng):
    fs = [mixed_function(rng, basis8, kind=k) for k in range(2)]
    with pytest.raises(ValueError):
        adjoint_apply(random_spec, 3, fs)


def test_intrinsic_form_constants(dict8, basis8):
    ones = GridFunction.from_callable(basis8.root, lambda x: 1.0)
    q0 = DyadicCube(-3, (3,))  # interior for w = 5
    assert intrinsic_form(q0, ones, [ones, ones], dict8) < 1e-8


def test_intrinsic_form_single_finest_cube(dict8, basis8, rng):
    q0 = DyadicCube(-8, (100,))
    f = mixed_function(rng, basis8, kind=1)
    g = mixed_function(rng, basis8, kind=2)
    h = mixed_function(rng, basis8, kind=0)
    from dyadica.funcspace import local_average
    val = intrinsic_form(q0, f, [g, h], dict8)
    expect = q0.measure * intrinsic_coeff(f, q0, dict8) \
        * intrinsic_coeff(g, q0, dict8) \
        * local_average(h, q0, 1.0, dict8.family.w)
    assert val == pytest.approx(expect, rel=1e-10, abs=1e-300)


def test_intrinsic_form_dominates_localized_dictionary_forms(dict8, basis8, rng):
    q0 = DyadicCube(-3, (3,))
    f = mixed_function(rng, basis8, kind=1)
    g = mixed_function(rng, basis8, kind=2)
    h = mixed_function(rng, basis8, kind=0)
    dom = intrinsic_form(q0, f, [g, h], dict8)
    # restrict to scales where the sampled members exist (resolution floor)
    support = ones_tree(basis8.root, [c for c in descendants(basis8.root, q0)
                                     if c.scale >= basis8.root.J + 2])
    for member in range(1, 3):
        spec = WaveletFormSpec(
            basis8, arity=2, support=support,
            phi=dict8.member_family(member),
            slots=[dict8.member_family(member + 1), dict8.bump_family(member, unit=True)])
        val = abs(form_eval(spec, f, [g, h]))
        # the bump slot is unit-integral rather than class-normalized, so
        # allow its measured renormalization factor
        assert val <= 40.0 * dom + 1e-12


def test_localized_form_examples(random_spec, basis8, rng):
    g = mixed_function(rng, basis8, kind=2)
    fs = [mixed_function(rng, basis8, kind=k) for k in range(2)]
    # whole-box localization reproduces the global pairing
    total = localized_form(random_spec.symbol, basis8.root.root_cube, g, fs,
                           random_spec)
    lhs = pairing(apply_paraproduct(random_spec, fs), g)
    assert total == pytest.approx(lhs, rel=1e-10)
    # partition consistency: children plus own-scale term
    q = DyadicCube(-1, (0,))
    kids = [q.child(0), q.child(1)]
    own = 0.0
    for cube, b in random_spec.symbol.items():
        if cube == q:
            own = cube.measure * b * atom_pair(basis8, g.samples, cube, "wavelet") \
                * random_spec.zeta(cube.scale, fs)[cube.pos]
    split = sum(localized_form(random_spec.symbol, kid, g, fs, random_spec)
                for kid in kids) + own
    assert split == pytest.approx(
        localized_form(random_spec.symbol, q, g, fs, random_spec),
        rel=1e-10, abs=1e-14)


def test_localized_form_finest_scale_single_term(basis8, rng):
    tree = CoefficientTree(basis8.root)
    q = DyadicCube(-5, (12,))
    tree[q] = 0.7
    spec = ParaproductSpec(basis8, tree, arity=1)
    g = mixed_function(rng, basis8, kind=2)
    f = mixed_function(rng, basis8, kind=1)
    val = localized_form(tree, q, g, [f], spec)
    hand = q.measure * 0.7 * atom_pair(basis8, g.samples, q, "wavelet") \
        * atom_pair(basis8, f.samples, q, "scaling")
    assert val == pytest.approx(hand, rel=1e-12)


def test_complex_coefficients_supported(basis8, rng):
    tree = CoefficientTree(basis8.root, dtype=complex)
    tree[DyadicCube(-4, (8,))] = 1.0 + 2.0j
    spec = ParaproductSpec(basis8, tree, arity=1)
    f = mixed_function(rng, basis8, kind=1)
    out = apply_paraproduct(spec, [f])
    assert np.iscomplexobj(out.samples)
    assert np.max(np.abs(out.samples.imag)) > 0.0
