"""Wavelet families and dictionary tables are built once per process and
shared: every dictionary built from them equals one that builds its own
tables, in whatever order the boxes come, and nothing can write to them."""

import dataclasses
import itertools

import numpy as np
import pytest

from dyadica import AtomBasis, RootBox, build_family, cache, tlnorm
from dyadica.funcspace import GridFunction
from dyadica.tlnorm import TestDictionary
from oracles import PerDictionaryTables

TABLES = ("tlnorm._recipe", "tlnorm._sampled_row", "tlnorm._bump_row")
# (size, min_cells, d): every size, both cell floors and both dimensions
COMBOS = [(1, 4, 1), (2, 2, 2), (8, 4, 2), (8, 2, 1), (11, 2, 1), (11, 4, 2)]
BOXES = (-3, -4, -6)  # J, coarse to fine


@pytest.fixture()
def cold_tables():
    cache.clear()


def _misses():
    counts = cache.counts()
    return [counts[name][1] for name in TABLES]


def _assert_same_tables(shared, own):
    assert shared._templates.keys() == own._templates.keys()
    for scale, rows in own._templates.items():
        assert np.array_equal(shared._templates[scale], rows)
        for member in range(len(own._bump_recipes)):
            assert np.array_equal(shared._bump_template(member, scale),
                                  own._bump_template(member, scale))
    assert np.array_equal(shared._ref_constants, own._ref_constants)
    assert np.array_equal(shared._bump_constants, own._bump_constants)


@pytest.mark.parametrize("fine_first", [False, True])
def test_shared_tables_match_per_dictionary_construction(cold_tables, fine_first):
    # all three families fill one set of tables, so a key that misses N,
    # the recipe or the cell count hands some dictionary another's rows
    boxes = BOXES[::-1] if fine_first else BOXES
    for N, J in itertools.product((2, 3, 4)[::-1] if fine_first else (2, 3, 4), boxes):
        for size, min_cells, d in COMBOS:
            basis = AtomBasis(build_family(N), RootBox(d=d, L=0, J=J))
            shared = TestDictionary(basis, size=size, min_cells=min_cells)
            own = PerDictionaryTables(basis, size=size, min_cells=min_cells)
            _assert_same_tables(shared, own)
            rng = np.random.default_rng([N, d, -J, size])
            f = GridFunction(basis.root, rng.standard_normal((2,) + basis.root.shape))
            got, ref = shared.coeff_arrays(f), own.coeff_arrays(f)
            assert got.keys() == ref.keys()
            for scale, arr in ref.items():
                assert np.array_equal(got[scale], arr)


def test_finest_box_fills_the_tables_of_coarser_boxes(cold_tables):
    family = build_family(3)
    assert build_family(3, 8, 500) is family
    assert build_family(3, refine=7) is not family
    TestDictionary(AtomBasis(family, RootBox(d=1, L=0, J=-7)), size=8)
    filled = _misses()
    assert filled[1] > 0
    for J in (-6, -5, -4):
        TestDictionary(AtomBasis(family, RootBox(d=1, L=0, J=J)), size=8)
    assert _misses() == filled


def _assert_read_only(arr):
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


def test_shared_arrays_are_read_only(family3):
    arrays = [getattr(family3, field.name) for field in dataclasses.fields(family3)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 5
    for arr in arrays:
        _assert_read_only(arr)
    for i in range(len(tlnorm._MEMBER_SHAPES)):
        _assert_read_only(tlnorm._sampled_row(3, i, 8))
    for i in range(len(tlnorm._BUMP_SHAPES)):
        _assert_read_only(tlnorm._bump_row(3, i, 8))


@pytest.mark.parametrize("size", [0, -1, 12, 40])
def test_dictionary_rejects_sizes_outside_the_recipe_table(basis_small, size):
    with pytest.raises(ValueError, match=rf"\[dictionary\] size = {size} must lie in 1\.\.11"):
        TestDictionary(basis_small, size=size)
