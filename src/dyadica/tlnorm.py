"""Intrinsic wavelet coefficients, square functions, and the unified
Morrey-Campanato-Besov-Triebel-Lizorkin norm family.

The supremum over all normalized cancellative bumps is replaced by a finite
frozen dictionary: the canonical discrete wavelet plus differences of shifted
B-spline bumps.  Sampled dictionary members are discretely moment-corrected,
so pairings against polynomials of degree <= k vanish at machine precision,
matching the exactness of the canonical atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.interpolate import BSpline

from .cache import memo
from .dyadic import DyadicCube
from .funcspace import GridFunction, block_reduce, box_axes, expand_blocks
from .wavelet import AtomBasis, AtomFamily, strided_pairings


@dataclass(frozen=True)
class NormSpec:
    """Parameters (n, m, p, q) of the unified norm: smoothness inside the
    square function, outer scaling power, local exponent, scale exponent."""

    n: float
    m: float
    p: float
    q: float

    def __post_init__(self):
        if not (1 <= self.p <= np.inf and 1 <= self.q <= np.inf):
            raise ValueError("exponents must lie in [1, inf]")


def _bspline_profile(degree: int, diffs: int, width: float, offset: float):
    """Difference of shifted B-splines: kills moments up to order diffs-1.

    Returns (callable on [-width/2, width/2], support half-width).  The
    (diffs)-th finite difference of consecutive cardinal B-splines has exact
    vanishing continuous moments of orders 0..diffs-1.
    """
    base = BSpline.basis_element(np.arange(degree + 2), extrapolate=False)
    span = degree + 1 + diffs
    coeff = np.array([(-1) ** i * comb(diffs, i) for i in range(diffs + 1)])

    def profile(u):
        t = (np.asarray(u, dtype=float) - offset) * span / width + span / 2.0
        out = np.zeros_like(t)
        for i, ci in enumerate(coeff):
            vals = base(t - i)
            out += ci * np.nan_to_num(vals)
        return out

    return profile


def _bump_profile(degree: int, width: float, offset: float):
    base = BSpline.basis_element(np.arange(degree + 2), extrapolate=False)
    span = degree + 1

    def profile(u):
        t = (np.asarray(u, dtype=float) - offset) * span / width + span / 2.0
        return np.nan_to_num(base(t))

    return profile


def _class_constant(u: np.ndarray, vals: np.ndarray, rho: float) -> float:
    """Size-and-smoothness surrogate on pullback coordinates."""
    weight = (1.0 + np.abs(u)) ** (1.0 + rho)
    const = float(np.max(weight * np.abs(vals)))
    if len(u) > 1:
        du = u[1] - u[0]
        stride = 1
        while stride < len(u) and stride * du <= 1.0:
            q = np.abs(vals[stride:] - vals[:-stride]) / (stride * du)
            w = np.minimum(weight[stride:], weight[:-stride])
            const = max(const, float(np.max(w * q)))
            stride *= 2
    return const


# (width, offset) of the sampled members' B-spline differences and of the
# bumps, as fractions of the window w; member 0 is the canonical wavelet
_MEMBER_SHAPES = ((1.0, 0.0), (0.72, 0.1), (0.5, -0.15), (0.36, 0.2), (0.62, -0.05),
                  (0.85, 0.05), (0.45, 0.12), (0.3, -0.08), (0.55, 0.18), (0.78, -0.12))
_BUMP_SHAPES = ((0.9, 0.0), (0.6, 0.1), (0.45, -0.12))
MAX_DICTIONARY_SIZE = len(_MEMBER_SHAPES) + 1


def check_dictionary_size(size: int) -> None:
    """The size check of ``[dictionary] size``, at load and at construction."""
    if not 1 <= size <= MAX_DICTIONARY_SIZE:
        raise ValueError(f"[dictionary] size = {size} must lie in 1..{MAX_DICTIONARY_SIZE}, "
                         f"the largest size the recipe table supports")


def _window_offsets(w: int, m: int) -> np.ndarray:
    """Pullback coordinates of the w-window cells around a cube center, at m
    cells per cube side."""
    half = (w - 1) // 2
    idx = np.arange(w * m) - half * m
    return (idx + 0.5) / m - 0.5


def _moment_correct(u: np.ndarray, vals: np.ndarray, k: int) -> np.ndarray:
    """Project out discrete polynomials of degree <= k on the window."""
    if len(u) <= k + 1:
        return np.zeros_like(vals)
    V = np.vander(u, k + 1, increasing=True)
    Q, _ = np.linalg.qr(V)
    return vals - Q @ (Q.T @ vals)


# The tables below depend only on the family order N, a recipe and the cells
# per cube, never on the box: each entry is computed once per process and
# shared, read-only, by every dictionary that needs it.


@memo
def _recipe(N: int, bump: bool, i: int):
    """(profile, reference class constant) of sampled member i + 1 of the
    order-N dictionaries, or of bump i.  The constant is measured on a fine
    table, so member normalization does not drift with the grid resolution."""
    k, w = N - 1, float(2 * N - 1)
    degree = k + 3
    if bump:
        width_frac, offset = _BUMP_SHAPES[i]
        profile = _bump_profile(degree, w * width_frac, offset * w)
    else:
        width_frac, off_frac = _MEMBER_SHAPES[i]
        width = w * width_frac
        profile = _bspline_profile(degree, k + 1, width, off_frac * (w - width) / 2.0)
    u_ref = (np.arange(4096) + 0.5) / 4096 * w - w / 2.0
    return profile, max(_class_constant(u_ref, profile(u_ref), float(k + 1)), 1e-300)


@memo
def _sampled_row(N: int, i: int, m: int):
    """Sampled member i + 1 on the w-window at m cells per cube side,
    moment-corrected; None when the correction leaves nothing."""
    u = _window_offsets(2 * N - 1, m)
    vals = _moment_correct(u, _recipe(N, False, i)[0](u), N - 1)
    if np.max(np.abs(vals), initial=0.0) < 1e-14:
        return None
    return vals


@memo
def _bump_row(N: int, i: int, m: int) -> np.ndarray:
    """Bump i on the w-window at m cells per cube side."""
    return _recipe(N, True, i)[0](_window_offsets(2 * N - 1, m))


class TestDictionary:
    """Frozen per-scale dictionary of cancellative test atoms.

    Member 0 at scales with one refinement level available is the canonical
    discrete wavelet (exact discrete moments); the rest are sampled B-spline
    differences, discretely moment-corrected and normalized to class
    constant <= 1 under the measured surrogate.  The sampled rows come from
    the process-wide tables above; each dictionary only scales them.
    """

    __test__ = False  # not a pytest collection target

    def __init__(self, basis: AtomBasis, size: int = 8, min_cells: int = 4):
        check_dictionary_size(size)
        self.basis = basis
        self.root = basis.root
        self.family = basis.family
        self.size = size
        self.min_cells = min_cells
        N = self.family.N
        self._rho = float(self.family.k + 1)
        self._ref_constants = [_recipe(N, False, i)[1] for i in range(size - 1)]
        # per-scale 1-d cancellative value templates on the w-window, stacked
        # into one bank per scale and moment-corrected on the full window;
        # boundary cubes get clip-corrected variants
        self._templates: dict[int, np.ndarray] = {}
        for scale in range(self.root.J, self.root.L + 1):
            rows = [t for t in (self._sampled_template(i, scale) for i in range(size - 1))
                    if t is not None]
            width = self.family.w << (scale - self.root.J)
            self._templates[scale] = np.array(rows).reshape(len(rows), width)
        # noncancellative bumps for weak-boundedness style tests
        bumps = [_recipe(N, True, i) for i in range(len(_BUMP_SHAPES))]
        self._bump_recipes = [profile for profile, _ in bumps]
        self._bump_constants = [const for _, const in bumps]

    # -- template construction ---------------------------------------------

    def _cube_offsets(self, scale: int) -> np.ndarray:
        """Pullback coordinates of the w-window cells around a cube center."""
        return _window_offsets(self.family.w, 1 << (scale - self.root.J))

    def _sampled_template(self, i: int, scale: int):
        m = 1 << (scale - self.root.J)
        if m < self.min_cells:
            return None  # under-resolved sampling drifts with the grid; the
            # canonical atom covers these scales exactly
        vals = _sampled_row(self.family.N, i, m)
        if vals is None:
            return None
        return vals / self._ref_constants[i] / 2.0 ** scale  # L^1-normalized per axis

    def _canonical_row(self, scale: int) -> np.ndarray:
        """Per-axis factor of the canonical wavelet on the w-window of its
        cube; w = 2N - 1, so the wavelet starts where the window does."""
        t = scale - self.root.J
        wav = self.basis._template(t, "wavelet") * 2.0 ** (-(self.root.J + scale) / 2.0)
        return np.pad(wav, (0, (self.family.w << t) - len(wav)))

    def _clip_correct(self, scale: int, member_idx: int, lo_cut: int, hi_cut: int):
        """Boundary variant: re-corrected on the surviving cells so clipped
        atoms still annihilate sampled polynomials exactly."""
        full = self._templates[scale][member_idx]
        u = self._cube_offsets(scale)
        piece = full[lo_cut:len(full) - hi_cut]
        up = u[lo_cut:len(u) - hi_cut]
        vals = _moment_correct(up, piece, self.family.k)
        if np.max(np.abs(vals), initial=0.0) < 1e-14:
            return np.zeros_like(piece)
        side = 2.0 ** scale
        const = _class_constant(up, vals * side, self._rho)
        return vals / const

    @memo
    def _bump_template(self, member: int, scale: int) -> np.ndarray:
        """Normalized bump on the w-window."""
        idx = member % len(self._bump_recipes)
        vals = _bump_row(self.family.N, idx, 1 << (scale - self.root.J))
        return vals / self._bump_constants[idx] / 2.0 ** scale

    # -- atom families ------------------------------------------------------

    @memo
    def member_family(self, member: int) -> AtomFamily:
        """Cancellative member ``member`` at every cube, a scale at a time.
        Member 0 is the canonical discrete wavelet where one
        refinement level is available, zero where the box clips its support;
        the others are the sampled members, clip-corrected at boundary cubes."""
        return AtomFamily(self.root, lambda scale: self._member_layout(scale, member))

    @memo
    def bump_family(self, member: int = 0, unit: bool = False) -> AtomFamily:
        """The noncancellative normalized bump ``member`` adapted to every
        cube, centered on it on its w-window, a scale at a time; with
        ``unit`` each atom is divided by its discrete integral."""
        return AtomFamily(self.root, lambda scale: self._bump_layout(scale, member, unit))

    def _member_layout(self, scale: int, member: int):
        """The canonical wavelet, masked where the box clips it, or a sampled
        member with its clip-corrected rows from the scale operator."""
        root = self.root
        if member == 0 and scale > root.J:
            bank, tail, first, _, factor = self.basis.atoms("wavelet").layout(scale)
            weight = self._canonical_mask(scale) * (factor / self.family.class_constant)
            return bank, tail, first, (), weight
        idx = member - (1 if scale > root.J else 0)
        if not (0 <= idx < len(self._templates[scale])):
            raise IndexError(f"no dictionary member {member} at scale {scale}")
        members, tail, boundary = self._scale_operator(scale)[0][-1]  # the sampled group
        rows = [(pos, c0, block.reshape(len(block), len(pos), -1)[:, :, idx])
                for pos, c0, block in boundary]
        half = (self.family.w - 1) // 2
        return members[idx:idx + 1], tail, -half * (1 << (scale - root.J)), rows, 1.0

    def _bump_layout(self, scale: int, member: int, unit: bool):
        m = 1 << (scale - self.root.J)
        first = -((self.family.w - 1) // 2) * m
        template = self._bump_template(member, scale)
        weight = 1.0
        if unit:
            mass = self.bump_family(member).pair(np.ones(self.root.shape), scale)
            weight = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0)
        return template[None], template, first, (), weight

    # -- intrinsic coefficients ----------------------------------------------

    def _canonical_mask(self, scale: int) -> np.ndarray:
        """The positions whose canonical wavelet the box does not clip."""
        m = 1 << (scale - self.root.J)
        start = (np.arange(self.root.positions_per_side(scale)) - self.family.N + 1) * m
        band = (start >= 0) & (start + self.family.w * (m - 1) + 1 <= self.root.cells_per_side)
        mask = band
        for _ in range(self.root.d - 1):
            mask = np.logical_and.outer(mask, band)
        return mask

    def _boundary(self, scale: int, bank: np.ndarray):
        """Clip-corrected axis-0 rows of the sampled members ``bank`` at the
        positions whose w-window leaves the box, as the ``boundary`` blocks
        of ``strided_pairings``.

        The low positions only reach cells below 2 half 2^t and the high ones
        only cells above n - 2 half 2^t, so each block is trimmed to that.
        """
        m = 1 << (scale - self.root.J)
        half = (self.family.w - 1) // 2
        n = self.root.cells_per_side
        npos = n // m
        width = bank.shape[1]
        r = min(half, npos)
        if not r:
            return []
        ncols = min(2 * half * m, n)
        out = []
        for p0, c0 in ((0, 0), (npos - r, n - ncols)):
            block = np.zeros((ncols, r, len(bank)))
            for i in range(r):
                s0 = (p0 + i - half) * m
                a, b = max(s0, 0), min(s0 + width, n)
                for k in range(len(bank)):
                    block[a - c0:b - c0, i, k] = self._clip_correct(
                        scale, k, a - s0, s0 + width - b)
            out.append((np.arange(p0, p0 + r), c0, block.reshape(ncols, -1)))
        return out

    @memo
    def _scale_operator(self, scale: int):
        """(groups, canonical mask) of a scale, built on first use.

        A group is (axis-0 bank, template on the other axes, boundary
        blocks).  The canonical row is its own group with the wavelet factor
        on the other axes; zero extension clips it, and the mask drops the
        positions where that clip cuts its support."""
        members = self._templates[scale]
        groups = [(members, self._bump_template(0, scale), self._boundary(scale, members))] \
            if len(members) else []
        mask = None
        if scale > self.root.J:
            row = self._canonical_row(scale)
            groups.insert(0, (row[None] / self.family.class_constant, row, []))
            mask = self._canonical_mask(scale)
        return groups, mask

    def coeff_arrays(self, f: GridFunction) -> dict[int, np.ndarray]:
        """Per-scale arrays of the intrinsic coefficient at every position
        (after the batch axes of ``f``): max over the bank of |pairing|, the
        canonical row masked where its atom is clipped.  O(w n) per scale
        through ``strided_pairings``."""
        root = self.root
        half = (self.family.w - 1) // 2
        batch = f.samples.shape[:f.samples.ndim - root.d]
        out = {}
        for scale in range(root.J, root.L + 1):
            m = 1 << (scale - root.J)
            groups, mask = self._scale_operator(scale)
            best = np.zeros(batch + (root.positions_per_side(scale),) * root.d)
            for i, (bank, tail, boundary) in enumerate(groups):
                vals = strided_pairings(f.samples, bank, tail, -half * m, m, boundary,
                                        d=root.d)
                np.abs(vals, out=vals)
                if i == 0 and mask is not None:  # the canonical row
                    vals[..., 0] *= mask
                # group by group: a batch never holds every member's pairings
                best = vals.max(axis=-1) if i == 0 else np.maximum(best, vals.max(axis=-1))
            out[scale] = best * root.cell_measure
        return out


def scale_profile(coeffs: dict[int, np.ndarray], root, n: float, q: float,
                  region: DyadicCube | None = None):
    """The cumulative per-scale profile of a function's coefficients on the
    cells of ``region`` (the box by default), after the batch axes: yields
    (scale, P) for scale = J .. scale(region), where P holds at each cell the
    sum over scales s <= scale of (coeff_s / side_s^n)^q at the cell's cube
    (the max for q = inf).  The square function anchored at ``region`` is
    the last P to the power 1/q."""
    region = root.root_cube if region is None else region
    finite_q = not np.isinf(q)
    acc = None
    for scale in range(root.J, region.scale + 1):
        term = expand_blocks(coeffs[scale][(...,) + region.block(scale)] / 2.0 ** (scale * n),
                             1 << (scale - root.J), root.d)
        if finite_q:
            term = term ** q
        acc = term if acc is None else (acc + term if finite_q else np.maximum(acc, term))
        yield scale, acc


def square_function(f: GridFunction, region: DyadicCube, n: float, q: float,
                    dictionary: TestDictionary,
                    coeffs: dict[int, np.ndarray] | None = None) -> GridFunction:
    """Scale-aggregated coefficient profile on a cube: at each grid point the
    l^q norm over subcubes containing it of coeff / side^n (zero off the
    cube), for every member of a batch."""
    if n > dictionary.family.k:
        raise ValueError(f"smoothness {n} exceeds family budget {dictionary.family.k}")
    root = f.root
    if coeffs is None:
        coeffs = dictionary.coeff_arrays(f)
    for _, acc in scale_profile(coeffs, root, n, q, region):
        pass
    out = GridFunction(root, np.zeros(f.samples.shape))
    out.samples[(...,) + root.window_slices(region)] = acc if np.isinf(q) else acc ** (1.0 / q)
    return out


def tl_norms(f: GridFunction, specs, dictionary: TestDictionary,
             coeffs: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """sup over admissible cubes of side^{-m} <S^n_{q,Q} f>_{p,Q}, for each
    spec (the last axis, after the batch axes of ``f``): the scale profile
    runs once per distinct (n, q), the block means once per distinct
    (n, q, p), and the weight 2^{-m scale} last."""
    specs = list(specs)
    fam = dictionary.family
    for spec in specs:
        if spec.n > fam.k or spec.m > fam.k:
            raise ValueError(f"norm indices ({spec.n}, {spec.m}) exceed budget {fam.k}")
    root = f.root
    if coeffs is None:
        coeffs = dictionary.coeff_arrays(f)
    axes = box_axes(root.d)
    groups: dict = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.n, spec.q), {}).setdefault(spec.p, []).append(i)
    out = np.zeros(coeffs[root.J].shape[:-root.d] + (len(specs),))
    for (n, q), by_p in groups.items():
        peaks = {p: [] for p in by_p}
        for scale, acc in scale_profile(coeffs, root, n, q):
            factor = 1 << (scale - root.J)
            s_vals = acc if np.isinf(q) else acc ** (1.0 / q)
            for p in by_p:
                if np.isinf(p):
                    local = block_reduce(s_vals, factor, np.max, root.d)
                else:
                    local = block_reduce(s_vals ** p, factor, d=root.d) ** (1.0 / p)
                peaks[p].append((scale, np.max(local, axis=axes)))
        for p, idx in by_p.items():
            for i in idx:
                best = 0.0
                for scale, peak in peaks[p]:
                    # fmax: a NaN peak never hides a finite one
                    best = np.fmax(best, 2.0 ** (-specs[i].m * scale) * peak)
                out[..., i] = best
    return out


def tl_norm(f: GridFunction, spec: NormSpec, dictionary: TestDictionary,
            coeffs: dict[int, np.ndarray] | None = None):
    """sup over admissible cubes of side^{-m} <S^n_{q,Q} f>_{p,Q}: a float,
    or an array over the batch."""
    vals = tl_norms(f, [spec], dictionary, coeffs)[..., 0]
    return float(vals) if vals.ndim == 0 else vals


def bmo_norm(f: GridFunction, dictionary: TestDictionary,
             coeffs: dict[int, np.ndarray] | None = None):
    return tl_norm(f, NormSpec(0.0, 0.0, 2.0, 2.0), dictionary, coeffs)
