"""Seeded generators for experiment ensembles.

All generators draw shapes relative to the top scale L, so the same seed
produces the same continuous object at every refinement level J; only the
sampling grid changes.  Functions are interior-supported by construction.
"""

from __future__ import annotations

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


def atom_tree(rng: np.random.Generator, basis: AtomBasis,
              scales=None, count: int = 6, amplitude: float = 1.0) -> CoefficientTree:
    """Random coefficients on random interior cubes across the given scales."""
    root = basis.root
    scales = default_atom_scales(basis) if scales is None else scales
    tree = CoefficientTree(root)
    for _ in range(count):
        scale = int(rng.choice(scales))
        band = interior_positions(basis, scale)
        pos = tuple(int(rng.integers(band.start, band.stop))
                    for _ in range(root.d))
        tree[DyadicCube(scale, pos)] = amplitude * rng.standard_normal()
    return tree


def atom_function(rng, basis: AtomBasis, scales=None, count: int = 6) -> GridFunction:
    return GridFunction(basis.root, basis.synthesize(atom_tree(rng, basis, scales, count)))


def plateau_function(rng, root: RootBox, terms: int = 2) -> GridFunction:
    """Sum of smooth compactly supported plateaus in the middle of the box.

    Radii never drop below a few cells, so derivative norms stay meaningful
    on very coarse grids; at the standard sizes the draw is grid-independent.
    """
    side = 2.0 ** root.L
    r_lo = max(0.08, 4.0 / root.cells_per_side)
    r_hi = max(0.18, 6.0 / root.cells_per_side)
    samples = np.zeros(root.shape)
    axes = [root.midpoints_1d()] * root.d
    grids = np.meshgrid(*axes, indexing="ij")
    for _ in range(terms):
        center = rng.uniform(0.35, 0.65, size=root.d) * side
        radius = rng.uniform(r_lo, r_hi) * side
        height = rng.standard_normal()
        r2 = np.zeros(root.shape)
        for gax, c in zip(grids, center):
            r2 += ((gax - c) / radius) ** 2
        mask = r2 < 1.0
        bump = np.zeros(root.shape)
        bump[mask] = np.exp(1.0 - 1.0 / (1.0 - r2[mask]))
        samples += height * bump
    return GridFunction(root, samples)


def wave_function(rng, root: RootBox) -> GridFunction:
    """Windowed oscillation: bounded derivatives of every order used here."""
    envelope = plateau_function(rng, root, terms=1)
    envelope.samples = np.abs(envelope.samples)
    side = 2.0 ** root.L
    max_freq = min(12.0, root.cells_per_side / 4.0)
    axes = [root.midpoints_1d()] * root.d
    grids = np.meshgrid(*axes, indexing="ij")
    phase = np.zeros(root.shape)
    for gax in grids:
        phase += rng.uniform(2.0, max_freq) * gax / side
    return GridFunction(root, np.sin(2 * np.pi * phase + rng.uniform(0, 2 * np.pi))
                        * envelope.samples)


def mixed_function(rng, basis: AtomBasis, kind: int | None = None) -> GridFunction:
    """Rotating generator: atom combinations, plateaus, windowed waves."""
    kind = int(rng.integers(0, 3)) if kind is None else kind % 3
    if kind == 0:
        return atom_function(rng, basis)
    if kind == 1:
        return plateau_function(rng, basis.root)
    return wave_function(rng, basis.root)


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


def random_interior_function(rng, basis: AtomBasis) -> GridFunction:
    """Atom combination plus a smooth plateau, interior-supported."""
    return atom_function(rng, basis) + plateau_function(rng, basis.root, terms=1)


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
    c = np.atleast_1d(np.asarray(center, dtype=float)) / (1 << shift)
    r = radius / (1 << shift)
    axes = [root.midpoints_1d()] * root.d
    grids = np.meshgrid(*axes, indexing="ij")
    r2 = np.zeros(root.shape)
    for gax, ci in zip(grids, c):
        r2 += ((gax - ci) / r) ** 2
    out = np.zeros(root.shape)
    mask = r2 < 1.0
    out[mask] = height * np.exp(1.0 - 1.0 / (1.0 - r2[mask]))
    return GridFunction(root, out)
