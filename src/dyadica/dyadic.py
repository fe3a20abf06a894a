"""Dyadic grid geometry: cubes, tree navigation, long distance, rescaling maps.

A cube is identified by an integer scale exponent and an integer position
vector; every geometric quantity derives from that pair in exact integer
arithmetic, so tree logic never sees float drift.  A ``RootBox`` truncates the
infinite dyadic grid to the subcubes of ``[0, 2^L)^d`` with scales in
``[J, L]``; functions are extended by zero outside of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube with side ``2**scale`` and corner ``pos * 2**scale``."""

    scale: int
    pos: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(int(p) for p in self.pos))

    @property
    def dim(self) -> int:
        return len(self.pos)

    @property
    def side(self) -> float:
        return 2.0 ** self.scale

    @property
    def measure(self) -> float:
        return 2.0 ** (self.scale * self.dim)

    def center(self) -> np.ndarray:
        return (np.asarray(self.pos, dtype=float) + 0.5) * self.side

    def parent(self) -> "DyadicCube":
        return DyadicCube(self.scale + 1, tuple(p >> 1 for p in self.pos))

    def child(self, i: int) -> "DyadicCube":
        # bit j of i selects the offset along coordinate j
        off = tuple((i >> j) & 1 for j in range(self.dim))
        return DyadicCube(self.scale - 1,
                          tuple(2 * p + o for p, o in zip(self.pos, off)))

    def block(self, scale: int) -> tuple:
        """Per-axis slices of the positions of this cube's scale-``scale``
        subcubes, in the position array of that scale."""
        shift = self.scale - scale
        return tuple(slice(p << shift, (p + 1) << shift) for p in self.pos)

    def token(self) -> str:
        return f"{self.dim}:{self.scale}:" + ",".join(str(p) for p in self.pos)

    @staticmethod
    def from_token(tok: str) -> "DyadicCube":
        d_s, scale, pos = tok.split(":")
        cube = DyadicCube(int(scale), tuple(int(p) for p in pos.split(",")))
        if cube.dim != int(d_s):
            raise ValueError(f"token dimension mismatch: {tok!r}")
        return cube

    def sort_key(self):
        # canonical: scale-descending, then lexicographic position
        return (-self.scale, self.pos)


def children(cube: DyadicCube) -> list[DyadicCube]:
    """The 2^d cubes of the next finer scale partitioning ``cube``.

    Ordered with the leading coordinate varying fastest, i.e. corners of
    the unit-square example come out as (0,0), (1,0), (0,1), (1,1).
    """
    return [cube.child(i) for i in range(1 << cube.dim)]


def long_distance(q: DyadicCube, s: DyadicCube) -> float:
    """max{|c(Q) - c(S)|, side(Q), side(S)} with Euclidean center distance."""
    if q.dim != s.dim:
        raise ValueError("cubes live in different dimensions")
    dc = float(np.linalg.norm(q.center() - s.center()))
    return max(dc, q.side, s.side)


def rescale_point(q: DyadicCube, p: float, x, n: int = 1):
    """Affine rescaling of ``x in R^{dn}`` to cube-adapted coordinates.

    Returns ``((x - (c(Q),...,c(Q))) / side(Q), side(Q)**(-n*d/p))``,
    the argument/weight pair of the L^p-normalized rescaling map.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != n * q.dim:
        raise ValueError(f"point has size {x.size}, expected n*d = {n * q.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    centers = np.tile(q.center(), n)
    arg = (x - centers) / q.side
    weight = 1.0 if np.isinf(p) else q.side ** (-n * q.dim / p)
    return arg, weight


@dataclass(frozen=True)
class RootBox:
    """Truncation of the dyadic grid: subcubes of [0, 2^L)^d, scales in [J, L]."""

    d: int
    L: int
    J: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.L <= self.J:
            raise ValueError("root scale L must exceed finest scale J")

    @property
    def depth(self) -> int:
        return self.L - self.J

    @property
    def cells_per_side(self) -> int:
        return 1 << self.depth

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.d

    @property
    def cell_width(self) -> float:
        return 2.0 ** self.J

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (self.J * self.d)

    @property
    def root_cube(self) -> DyadicCube:
        return DyadicCube(self.L, (0,) * self.d)

    def midpoints_1d(self) -> np.ndarray:
        return (np.arange(self.cells_per_side) + 0.5) * self.cell_width

    def contains_cube(self, cube: DyadicCube) -> bool:
        if cube.dim != self.d or not (self.J <= cube.scale <= self.L):
            return False
        n = 1 << (self.L - cube.scale)
        return all(0 <= p < n for p in cube.pos)

    def positions_per_side(self, scale: int) -> int:
        return 1 << (self.L - scale)

    def cubes_at_scale(self, scale: int):
        if not (self.J <= scale <= self.L):
            raise ValueError(f"scale {scale} outside [{self.J}, {self.L}]")
        n = self.positions_per_side(scale)
        for pos in itertools.product(range(n), repeat=self.d):
            yield DyadicCube(scale, pos)

    def all_cubes(self):
        """Canonical enumeration: scale-descending, lexicographic position."""
        for scale in range(self.L, self.J - 1, -1):
            yield from self.cubes_at_scale(scale)

    def cell_window(self, cube: DyadicCube, dilation: int = 1):
        """Per-axis (start, stop) cell ranges of the dilated cube, clipped to the box.

        ``dilation`` must be odd so the dilate stays grid-aligned.
        """
        if dilation % 2 != 1 or dilation < 1:
            raise ValueError("dilation must be an odd positive integer")
        m = 1 << (cube.scale - self.J)
        half = (dilation - 1) // 2
        out = []
        for p in cube.pos:
            a = (p - half) * m
            b = (p + 1 + half) * m
            out.append((max(a, 0), min(b, self.cells_per_side)))
        return out

    def window_slices(self, cube: DyadicCube, dilation: int = 1):
        return tuple(slice(a, b) for a, b in self.cell_window(cube, dilation))

    def is_interior(self, cube: DyadicCube, dilation: int) -> bool:
        """True iff the dilated cube lies inside the root box."""
        if dilation % 2 != 1 or dilation < 1:
            raise ValueError("dilation must be an odd positive integer")
        half = (dilation - 1) // 2
        n = self.positions_per_side(cube.scale)
        return all(p - half >= 0 and p + 1 + half <= n for p in cube.pos)
