"""Seeded generators for experiment ensembles.

All generators draw shapes relative to the top scale L, so the same seed
produces the same continuous object at every refinement level J; only the
sampling grid changes.  Functions are interior-supported by construction.

A generator is two steps.  Its draw (``draw_atoms``, ``draw_plateau``,
``draw_wave``, ``draw_mixed``) makes the rng calls and keeps their results in
a ``Draw``; ``render`` samples a whole batch of draws: one midpoint grid per
batch, every plateau term in one array expression and each scale of atoms
in one batched ``AtomFamily.spread``.  Drawing a batch consumes the rng
exactly as the same generators called one at a time, and each rendered
member is bit-identical to rendering its draw alone; ``mixed_function`` and
``random_interior_function`` are the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, RootBox
from .funcspace import GridFunction
from .wavelet import AtomBasis, CoefficientTree


def interior_positions(basis: AtomBasis, scale: int) -> range:
    half = (basis.family.w - 1) // 2
    npos = basis.root.positions_per_side(scale)
    return range(half, npos - half)


def default_atom_scales(basis: AtomBasis) -> list[int]:
    """Up to three of the coarsest scales below the top with interior
    positions, coarsest first."""
    root = basis.root
    out = []
    for scale in range(root.L - 1, root.J, -1):
        if len(interior_positions(basis, scale)) > 0:
            out.append(scale)
        if len(out) == 3:
            break
    if not out:
        raise ValueError("box too small for interior atoms of this family")
    return out


@dataclass(frozen=True, eq=False)
class Draw:
    """The rng results behind one generated function, before sampling: a sum
    of parts, rendered left to right.  A part is ``("atoms", basis,
    entries)`` with ``(scale, pos, value)`` entries in draw order,
    ``("plateau", terms)`` with ``(center, radius, height)`` terms, or
    ``("wave", terms, freqs, offset)``: the absolute value of a plateau
    times a windowed sine.  ``a + b`` is the draw of the sum."""

    parts: tuple

    def __add__(self, other: "Draw") -> "Draw":
        return Draw(self.parts + other.parts)

    def tree(self) -> CoefficientTree:
        """The coefficient tree of an atoms draw."""
        (_, basis, entries), = self.parts
        tree = CoefficientTree(basis.root)
        for scale, pos, value in entries:
            # a draw holds interior cubes only: no per-cube admissibility check
            tree._array(scale)[pos] = value
        return tree


def draw_atoms(rng: np.random.Generator, basis: AtomBasis, scales=None,
               count: int = 6, amplitude: float = 1.0) -> Draw:
    """Random coefficients on random interior cubes across the given scales
    (a later draw of the same cube replaces the earlier one)."""
    root = basis.root
    scales = default_atom_scales(basis) if scales is None else list(scales)
    if not scales:
        raise ValueError(f"no atom scales given for {root}")
    bands = []
    for scale in scales:
        band = interior_positions(basis, scale) if root.J < scale <= root.L else range(0)
        if len(band) == 0:
            raise ValueError(f"scale {scale} has no interior atom positions on {root}")
        bands.append(band)
    entries = []
    for _ in range(count):
        k = rng.integers(0, len(scales))  # the draw rng.choice(scales) makes
        band = bands[k]
        pos = tuple(int(rng.integers(band.start, band.stop)) for _ in range(root.d))
        entries.append((int(scales[k]), pos, amplitude * rng.standard_normal()))
    return Draw((("atoms", basis, tuple(entries)),))


def draw_plateau(rng, root: RootBox, terms: int = 2) -> Draw:
    """Sum of smooth compactly supported plateaus in the middle of the box.

    Radii never drop below a few cells, so derivative norms stay meaningful
    on very coarse grids; at the standard sizes the draw is grid-independent.
    """
    side = 2.0 ** root.L
    r_lo = max(0.08, 4.0 / root.cells_per_side)
    r_hi = max(0.18, 6.0 / root.cells_per_side)
    drawn = []
    for _ in range(terms):
        center = rng.uniform(0.35, 0.65, size=root.d) * side
        radius = rng.uniform(r_lo, r_hi) * side
        drawn.append((center, radius, rng.standard_normal()))
    return Draw((("plateau", tuple(drawn)),))


def draw_wave(rng, root: RootBox) -> Draw:
    """Windowed oscillation: bounded derivatives of every order used here."""
    (_, terms), = draw_plateau(rng, root, terms=1).parts
    max_freq = min(12.0, root.cells_per_side / 4.0)
    freqs = [rng.uniform(2.0, max_freq) for _ in range(root.d)]
    return Draw((("wave", terms, freqs, rng.uniform(0, 2 * np.pi)),))


def draw_mixed(rng, basis: AtomBasis, kind: int | None = None) -> Draw:
    """Rotating generator: atom combinations, plateaus, windowed waves."""
    kind = int(rng.integers(0, 3)) if kind is None else kind % 3
    if kind == 0:
        return draw_atoms(rng, basis)
    if kind == 1:
        return draw_plateau(rng, basis.root)
    return draw_wave(rng, basis.root)


def _plateaus(root: RootBox, grids, parts) -> np.ndarray:
    """Each member's sum of plateau terms (``part[1]``), added in its draw
    order."""
    term_lists = [part[1] for part in parts]
    width = max(map(len, term_lists))
    # a zero-height term adds +0, which changes no partial sum
    pad = ((np.zeros(root.d), 1.0, 0.0),)
    terms = [term for ts in term_lists for term in ts + pad * (width - len(ts))]
    centers, radii, heights = (np.array(col) for col in zip(*terms))
    expand = (slice(None),) + (None,) * root.d
    r2 = np.zeros((len(terms),) + root.shape)
    for axis, gax in enumerate(grids):
        r2 += ((gax - centers[:, axis][expand]) / radii[expand]) ** 2
    mask = r2 < 1.0
    bump = np.zeros(r2.shape)
    bump[mask] = np.exp(1.0 - 1.0 / (1.0 - r2[mask]))
    bump *= heights[expand]
    bump = bump.reshape((len(term_lists), width) + root.shape)
    out = np.zeros((len(term_lists),) + root.shape)
    for k in range(width):
        out += bump[:, k]
    return out


def _waves(root: RootBox, grids, parts) -> np.ndarray:
    """Each member's |plateau| times sin(2 pi freqs . x / side + offset)."""
    envelope = np.abs(_plateaus(root, grids, parts))
    freqs = np.array([freqs for _, _, freqs, _ in parts])
    offsets = np.array([offset for *_, offset in parts])
    expand = (slice(None),) + (None,) * root.d
    phase = np.zeros(envelope.shape)
    for axis, gax in enumerate(grids):
        phase += freqs[:, axis][expand] * gax / 2.0 ** root.L
    return np.sin(2 * np.pi * phase + offsets[expand]) * envelope


def _atoms(root: RootBox, grids, parts) -> np.ndarray:
    """Each member's synthesized tree, as one batched ``synthesize``."""
    basis = parts[0][1]
    if any(part[1] is not basis for part in parts):
        raise ValueError("atom draws of one batch come from different bases")
    return basis.synthesize([Draw((part,)).tree() for part in parts])


_RENDER = {"atoms": _atoms, "plateau": _plateaus, "wave": _waves}


def render(root: RootBox, draws) -> GridFunction:
    """The batch (one leading axis) of the functions of ``draws`` on the grid
    of ``root``: one midpoint grid, one plateau expression and one spread
    per atom scale for the whole batch.  Member i is bit-identical to
    rendering ``draws[i]`` alone."""
    draws = list(draws)
    grids = (np.meshgrid(*[root.midpoints_1d()] * root.d, indexing="ij")
             if any(part[0] != "atoms" for draw in draws for part in draw.parts) else None)
    out = None
    for k in range(max(len(draw.parts) for draw in draws)):
        rows = [i for i, draw in enumerate(draws) if len(draw.parts) > k]
        parts = [draws[i].parts[k] for i in rows]
        by_kind: dict = {}
        for r, part in enumerate(parts):
            by_kind.setdefault(part[0], []).append(r)
        vals = np.empty((len(rows),) + root.shape)
        for kind, idx in by_kind.items():
            vals[idx] = _RENDER[kind](root, grids, [parts[r] for r in idx])
        if out is None:
            out = vals
        else:
            out[rows] += vals
    return GridFunction(root, out)


def atom_tree(rng: np.random.Generator, basis: AtomBasis,
              scales=None, count: int = 6, amplitude: float = 1.0) -> CoefficientTree:
    """Random coefficients on random interior cubes across the given scales."""
    return draw_atoms(rng, basis, scales, count, amplitude).tree()


def mixed_function(rng, basis: AtomBasis, kind: int | None = None) -> GridFunction:
    return render(basis.root, [draw_mixed(rng, basis, kind)])[0]


def random_interior_function(rng, basis: AtomBasis) -> GridFunction:
    """Atom combination plus a smooth plateau, interior-supported."""
    return render(basis.root, [draw_atoms(rng, basis) + draw_plateau(rng, basis.root, terms=1)])[0]


def lacunary_tower(basis: AtomBasis, exponent: float) -> CoefficientTree:
    """Nested tower over the two scales J + 2 and J + 3 (below the top) with
    coefficients side(Q)^{-exponent}: the norm-saturating rough symbol.

    At the borderline exponent 1/p the scale-weighted symbol norm at local
    exponent p stays level under refinement while the mean oscillation
    explodes, because the large coefficients live on a bounded number of
    scales that refine together with the grid."""
    root = basis.root
    tree = CoefficientTree(root)
    lo = root.J + 2
    hi = min(lo + 1, root.L - 1)
    for scale in range(hi, lo - 1, -1):
        pos = 1 << (root.L - 1 - scale)  # the chain through the box center
        tree[DyadicCube(scale, (pos,) * root.d)] = (2.0 ** scale) ** (-exponent)
    return tree


def dilate_tree(tree: CoefficientTree, shift: int) -> CoefficientTree:
    """Exact dyadic dilation f -> f(2^shift x): same coefficients and position
    indices on cubes ``shift`` scales finer (corners scale toward the origin)."""
    out = CoefficientTree(tree.root, dtype=tree.dtype)
    for cube, val in tree.items():
        target = DyadicCube(cube.scale - shift, cube.pos)
        if not tree.root.contains_cube(target) or target.scale <= tree.root.J:
            raise ValueError("dilation leaves the admissible scale range")
        out[target] = val
    return out


def plateau_closed_form(root: RootBox, center, radius: float,
                        height: float, shift: int = 0) -> GridFunction:
    """Plateau bump evaluated in closed form after a 2^shift dilation."""
    term = (np.atleast_1d(np.asarray(center, dtype=float)) / (1 << shift),
            radius / (1 << shift), height)
    return render(root, [Draw((("plateau", (term,)),))])[0]
