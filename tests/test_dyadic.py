import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadica.dyadic import DyadicCube, RootBox, children, long_distance, rescale_point
from oracles import contains, descendants


def test_children_bisection_1d():
    q = DyadicCube(0, (0,))
    kids = children(q)
    assert [k.pos for k in kids] == [(0,), (1,)]
    assert all(k.scale == -1 for k in kids)


def test_children_quadrisection_corner_order():
    q = DyadicCube(1, (0, 0))
    kids = children(q)
    # side 1, so the corners are the positions
    assert [k.pos for k in kids] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_parent_child_roundtrip():
    q = DyadicCube(2, (3, 5, 1))
    for i in range(8):
        assert q.child(i).parent() == q


def test_nesting_trichotomy_exhaustive():
    root = RootBox(d=1, L=0, J=-4)
    cubes = list(root.all_cubes())
    for a, b in itertools.combinations(cubes, 2):
        rels = [contains(a, b), contains(b, a) and a != b,
                not (contains(a, b) or contains(b, a))]
        assert sum(rels) == 1


def test_long_distance_examples():
    q = DyadicCube(0, (0,))
    assert long_distance(q, q) == 1.0
    s = DyadicCube(0, (4,))
    assert long_distance(q, s) == 4.0
    big = DyadicCube(1, (0,))
    assert long_distance(big, q) == 2.0


def test_long_distance_symmetric_and_bounded_below(rng):
    for _ in range(50):
        a = DyadicCube(int(rng.integers(-3, 2)),
                       tuple(int(p) for p in rng.integers(0, 8, size=2)))
        b = DyadicCube(int(rng.integers(-3, 2)),
                       tuple(int(p) for p in rng.integers(0, 8, size=2)))
        assert long_distance(a, b) == long_distance(b, a)
        assert long_distance(a, b) >= max(a.side, b.side)


def test_rescale_point_examples():
    q = DyadicCube(0, (0,))
    # side-1 cube centered at 1/2: x=1/2 maps to the origin with unit weight
    arg, weight = rescale_point(q, 2.0, [0.5])
    assert arg[0] == 0.0 and weight == 1.0
    q2 = DyadicCube(1, (0,))
    arg, weight = rescale_point(q2, 1.0, [3.0])
    assert arg[0] == pytest.approx(1.0)
    assert weight == pytest.approx(0.5)
    _, winf = rescale_point(q2, np.inf, [3.0])
    assert winf == 1.0


def test_rescale_point_validation():
    q = DyadicCube(0, (0, 0))
    with pytest.raises(ValueError):
        rescale_point(q, 2.0, [1.0])  # wrong dimension
    with pytest.raises(ValueError):
        rescale_point(q, 2.0, [np.inf, 0.0])


def test_descendant_count_formula():
    root = RootBox(d=2, L=0, J=-3)
    q = DyadicCube(-1, (1, 1))
    count = sum(1 for _ in descendants(root, q))
    t = q.scale - root.J + 1
    assert count == (4 ** t - 1) // 3


def test_enumeration_canonical_order():
    root = RootBox(d=1, L=0, J=-2)
    cubes = list(root.all_cubes())
    assert cubes == sorted(cubes, key=lambda c: c.sort_key())
    assert cubes[0] == root.root_cube
    assert cubes[-1].scale == root.J


def test_token_roundtrip():
    q = DyadicCube(-3, (5, 7))
    assert DyadicCube.from_token(q.token()) == q
    assert q.token() == "2:-3:5,7"
    with pytest.raises(ValueError):
        DyadicCube.from_token("3:-3:5,7")


def test_cell_window_and_interior():
    root = RootBox(d=1, L=0, J=-4)
    q = DyadicCube(-2, (1,))
    assert root.cell_window(q) == [(4, 8)]
    assert root.cell_window(q, 3) == [(0, 12)]
    assert root.is_interior(q, 1)
    assert root.is_interior(q, 3)
    assert not root.is_interior(q, 5)
    with pytest.raises(ValueError):
        root.cell_window(q, 2)


def test_rootbox_validation():
    with pytest.raises(ValueError):
        RootBox(d=1, L=-2, J=-2)
    with pytest.raises(ValueError):
        RootBox(d=0, L=0, J=-2)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.integers(-40, 40), st.lists(st.integers(0, 2 ** 40), min_size=d, max_size=d))))
def test_cube_token_roundtrip(scale_pos):
    scale, pos = scale_pos
    cube = DyadicCube(scale, tuple(pos))
    back = DyadicCube.from_token(cube.token())
    assert back == cube and back.dim == len(pos)
