"""Batched input draws: the render of a batch against the one-at-a-time
generators in ``oracles`` (bit for bit, with the same rng state after), the
batch axes of ``AtomFamily.spread`` and the scale checks of ``atom_tree``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dyadica import AtomBasis, RootBox
from dyadica.ensembles import (atom_tree, default_atom_scales, draw_atoms, draw_mixed,
                               draw_plateau, draw_wave, mixed_function,
                               random_interior_function, render)
from dyadica.funcspace import GridFunction
from dyadica.tlnorm import TestDictionary


@pytest.fixture(scope="module")
def bases(family3):
    return {1: AtomBasis(family3, RootBox(d=1, L=0, J=-6)),
            2: AtomBasis(family3, RootBox(d=2, L=0, J=-5))}


# -- AtomFamily.spread on batches ------------------------------------------------


def _layouts(basis):
    """(family, scale) for the canonical atoms and for a sampled member with
    boundary blocks and a bump, at every scale where they exist."""
    dictionary = TestDictionary(basis, size=3)
    root = basis.root
    for family in (basis.atoms("wavelet"), dictionary.member_family(1),
                   dictionary.bump_family(0)):
        for scale in range(root.J + 1, root.L + 1):
            try:
                family.layout(scale)
            except IndexError:  # no sampled member this fine
                continue
            yield family, scale


@pytest.mark.parametrize("d", [1, 2])
def test_spread_batch_matches_rows(bases, d):
    basis = bases[d]
    root = basis.root
    rng = np.random.default_rng(d)
    for family, scale in _layouts(basis):
        coeffs = rng.standard_normal((3,) + (root.positions_per_side(scale),) * d)
        out = family.spread(coeffs, scale)
        # at d = 1 a (3, 16) batch at scale -4 once came back (64, 64)
        assert out.shape == (3,) + root.shape
        for i in range(3):
            assert np.array_equal(out[i], family.spread(coeffs[i], scale))


@pytest.mark.parametrize("d", [1, 2])
def test_spread_is_the_transpose_of_pair_on_batches(bases, d):
    # <spread(c), x> = sum_Q c[Q] pair(x)[Q], member by member
    basis = bases[d]
    root = basis.root
    rng = np.random.default_rng(10 + d)
    x = rng.standard_normal((3,) + root.shape)
    box = tuple(range(1, d + 1))
    for family, scale in _layouts(basis):
        c = rng.standard_normal((3,) + (root.positions_per_side(scale),) * d)
        y = family.spread(c, scale)
        lhs = np.sum(y * x, axis=box) * root.cell_measure
        rhs = np.sum(c * family.pair(x, scale), axis=box)
        mass = np.sum(np.abs(y * x), axis=box) * root.cell_measure
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * mass)


# -- atom_tree scale checks ---------------------------------------------------------


@pytest.mark.parametrize("scales, message", [
    ([-2], r"scale -2 has no interior atom positions on RootBox\(d=1, L=0, J=-4\)"),
    ([-3, 1], r"scale 1 has no interior .* J=-4\)"),
    ([-4], r"scale -4 has no interior .* J=-4\)"),
    ([], r"no atom scales given for RootBox\(d=1, L=0, J=-4\)")])
def test_atom_tree_rejects_bad_scales_before_drawing(family3, scales, message):
    basis = AtomBasis(family3, RootBox(d=1, L=0, J=-4))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        atom_tree(rng, basis, scales=scales)
    assert rng.bit_generator.state == state


# -- a batch of draws against the one-at-a-time generators --------------------------

OPS = st.one_of(
    st.tuples(st.just("mixed"), st.one_of(st.none(), st.integers(0, 5))),
    st.tuples(st.just("atoms"), st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=1,
                                                               max_size=4)),
              st.integers(0, 9), st.sampled_from([1.0, 0.5, 0.0])),
    st.tuples(st.just("plateau"), st.integers(1, 3)),
    st.sampled_from([("wave",), ("interior",), ("plateau+wave",)]))


def _scales(basis, picks):
    scales = default_atom_scales(basis)
    return None if picks is None else [scales[i % len(scales)] for i in picks]


def _reference(op, rng, basis):
    kind, *args = op
    root = basis.root
    if kind == "mixed":
        return oracles.mixed_function(rng, basis, args[0])
    if kind == "atoms":
        tree = oracles.atom_tree(rng, basis, _scales(basis, args[0]), *args[1:])
        return GridFunction(root, basis.synthesize(tree))
    if kind == "plateau":
        return oracles.plateau_function(rng, root, args[0])
    if kind == "wave":
        return oracles.wave_function(rng, root)
    if kind == "interior":
        return oracles.random_interior_function(rng, basis)
    return oracles.plateau_function(rng, root) + oracles.wave_function(rng, root)


def _draw(op, rng, basis):
    kind, *args = op
    root = basis.root
    if kind == "mixed":
        return draw_mixed(rng, basis, args[0])
    if kind == "atoms":
        return draw_atoms(rng, basis, _scales(basis, args[0]), *args[1:])
    if kind == "plateau":
        return draw_plateau(rng, root, args[0])
    if kind == "wave":
        return draw_wave(rng, root)
    if kind == "interior":
        return draw_atoms(rng, basis) + draw_plateau(rng, root, terms=1)
    return draw_plateau(rng, root) + draw_wave(rng, root)


def _one(op, rng, basis):
    """The public generator of ``op``, or its draw rendered alone: the batch
    of one."""
    kind, *args = op
    root = basis.root
    if kind == "mixed":
        return mixed_function(rng, basis, args[0])
    if kind == "atoms":
        tree = atom_tree(rng, basis, _scales(basis, args[0]), *args[1:])
        return GridFunction(root, basis.synthesize(tree))
    if kind == "interior":
        return random_interior_function(rng, basis)
    return render(root, [_draw(op, rng, basis)])[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([1, 2]),
       ops=st.lists(OPS, min_size=1, max_size=7))
def test_batch_render_matches_one_at_a_time(bases, seed, d, ops):
    basis = bases[d]
    ref_rng, rng, one_rng = (np.random.default_rng(seed) for _ in range(3))
    refs = [_reference(op, ref_rng, basis).samples for op in ops]
    draws = [_draw(op, rng, basis) for op in ops]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    batch = render(basis.root, draws)
    assert batch.samples.shape == (len(ops),) + basis.root.shape
    for got, ref in zip(batch.samples, refs):
        assert np.array_equal(got, ref)
    ones = [_one(op, one_rng, basis).samples for op in ops]
    assert one_rng.bit_generator.state == ref_rng.bit_generator.state
    assert all(np.array_equal(got, ref) for got, ref in zip(ones, refs))


@pytest.mark.parametrize("d", [1, 2])
def test_atom_trees_match_one_at_a_time(bases, d):
    basis = bases[d]
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for count, amplitude in ((6, 1.0), (12, 0.5), (0, 1.0)):
            tree = atom_tree(rng, basis, count=count, amplitude=amplitude)
            ref = oracles.atom_tree(ref_rng, basis, count=count, amplitude=amplitude)
            # same scales in the same (first-touch) order, same coefficients
            assert list(tree.data) == list(ref.data)
            assert all(np.array_equal(tree.data[s], ref.data[s]) for s in ref.data)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(render(basis.root, [draw_atoms(rng, basis)]).samples[0],
                              oracles.atom_function(ref_rng, basis).samples)


def test_render_rejects_atoms_of_two_bases(bases, family2):
    rng = np.random.default_rng(0)
    other = AtomBasis(family2, bases[1].root)
    with pytest.raises(ValueError, match="different bases"):
        render(bases[1].root, [draw_atoms(rng, bases[1]), draw_atoms(rng, other)])
