"""Daubechies wavelet families and discrete multiresolution transforms.

The filter pair is constructed from the orthogonality/moment equations by
spectral factorization; point values of the scaling function and mother
wavelet come from the cascade iteration run to a fixed point on a dyadic
refinement grid.

Atoms on a root box are built by exact filter refinement of unit cell
vectors, so the family ``{sqrt(|Q|) * phi_Q}`` is orthonormal to machine
precision at every admissible scale, discrete vanishing moments hold exactly
up to order N-1, and the analysis/synthesis pair inverts exactly on spans of
interior atoms.  Point-value tables are kept alongside as the
continuous-function reference (moment quadrature, class-constant
measurements, template seeds).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy import sparse

from .cache import memo
from .dyadic import DyadicCube, RootBox

SQRT2 = np.sqrt(2.0)


class CascadeError(RuntimeError):
    """Cascade iteration failed to reach its fixed point."""


def daubechies_filter(N: int) -> np.ndarray:
    """Lowpass filter of the order-N Daubechies family (2N taps).

    Solves the orthonormality and vanishing-moment equations by spectral
    factorization of the binomial half-band polynomial, keeping the
    minimal-phase root set.  N=1 returns the Haar filter.
    """
    if N < 1:
        raise ValueError("order must be >= 1")
    if N == 1:
        return np.array([1.0, 1.0]) / SQRT2
    poly_y = [comb(N - 1 + k, k) for k in range(N)]
    yroots = np.roots(poly_y[::-1])
    factor = np.poly1d([1.0])
    for y in yroots:
        # y = (2 - z - 1/z)/4  <=>  z^2 + (4y - 2) z + 1 = 0
        zs = sorted(np.roots(np.array([1.0, 4.0 * y - 2.0, 1.0])), key=abs)
        factor *= np.poly1d([1.0, -zs[0]])
    factor /= np.polyval(factor, 1.0)
    spread = np.poly1d([1.0])
    for _ in range(N):
        spread *= np.poly1d([0.5, 0.5])
    h = (spread * factor).coeffs.real * SQRT2
    return h.copy()


def mirror_filter(h: np.ndarray) -> np.ndarray:
    """Highpass filter g_n = (-1)^n h_{M-1-n}."""
    M = len(h)
    return np.array([(-1) ** n * h[M - 1 - n] for n in range(M)])


def cascade_table(h: np.ndarray, refine: int, cap: int = 500):
    """Fixed-point cascade for scaling/wavelet values on the grid 2^-refine * Z.

    Returns (x, phi, psi, residual, iterations).  The iteration map reads
    values of the previous iterate at the coarser half-grid, so the dyadic
    table is closed under it; the start is the unit box indicator.  It
    stops once an iterate moves by less than 1e-11.
    """
    M = len(h)
    width = M - 1
    step = 1 << refine
    n = width * step + 1
    x = np.arange(n) / step
    v = ((x >= 0.0) & (x < 1.0)).astype(float)
    base = 2 * np.arange(n)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cap + 1):
        vn = np.zeros_like(v)
        for kk, hk in enumerate(h):
            idx = base - kk * step
            m = (idx >= 0) & (idx < n)
            vn[m] += SQRT2 * hk * v[idx[m]]
        residual = float(np.max(np.abs(vn - v)))
        v = vn
        if residual < 1e-11:
            break
    g = mirror_filter(h)
    psi = np.zeros_like(v)
    for kk, gk in enumerate(g):
        idx = base - kk * step
        m = (idx >= 0) & (idx < n)
        psi[m] += SQRT2 * gk * v[idx[m]]
    return x, v, psi, residual, iterations


def _table_class_constant(x: np.ndarray, vals: np.ndarray, rho: float) -> float:
    """Measured size-and-smoothness constant of a profile given by point values.

    Centered coordinates; the Lipschitz quotient is probed at dyadic strides
    down to 2^-6 (a measurement, never an assertion: rough families have
    resolution-limited quotients).
    """
    xc = x - 0.5 * (x[0] + x[-1])
    weight = (1.0 + np.abs(xc)) ** (1.0 + rho)
    const = float(np.max(weight * np.abs(vals)))
    dx = x[1] - x[0]
    stride = max(1, int(round(2.0 ** -6 / dx)))
    while stride < len(x):
        q = np.abs(vals[stride:] - vals[:-stride]) / (stride * dx)
        w = np.minimum(weight[stride:], weight[:-stride])
        const = max(const, float(np.max(w * q)))
        stride *= 2
    return const


@dataclass(frozen=True)
class WaveletFamily:
    """Daubechies filter pair plus cascaded point values."""

    N: int
    refine: int
    lowpass: np.ndarray
    highpass: np.ndarray
    xgrid: np.ndarray
    phi_table: np.ndarray
    psi_table: np.ndarray
    cascade_residual: float
    cascade_iterations: int
    class_constant: float

    @property
    def k(self) -> int:
        """The smoothness budget: atoms carry k + 1 = N exact discrete
        vanishing moments (orders 0..k)."""
        return self.N - 1

    @property
    def w(self) -> int:
        """The odd dilation factor with supp(phi_Q) inside wQ."""
        return 2 * self.N - 1


@memo
def build_family(N: int, refine: int = 8, cap: int = 500) -> WaveletFamily:
    """The order-N family with point values at resolution 2^-refine.

    Built once per argument tuple and shared by every caller in the process,
    so its arrays are read-only."""
    if N < 1:
        raise ValueError("order must be >= 1")
    if refine < 6:
        raise ValueError("refinement must be >= 6")
    h = daubechies_filter(N)
    g = mirror_filter(h)
    x, phi, psi, residual, iterations = cascade_table(h, refine, cap=cap)
    if residual > 1e-10:
        raise CascadeError(
            f"cascade residual {residual:.3e} above 1e-10 after {iterations} iterations")
    return WaveletFamily(
        N=N, refine=refine, lowpass=h, highpass=g, xgrid=x, phi_table=phi, psi_table=psi,
        cascade_residual=residual, cascade_iterations=iterations,
        class_constant=_table_class_constant(x, psi, rho=float(N)))


class CoefficientTree:
    """Finitely supported map from admissible cubes to coefficients.

    Backed by one dense array per scale; cancellative coefficients live at
    scales J+1..L (one refinement step below the grid is needed to realize
    a wavelet atom).
    """

    def __init__(self, root: RootBox, dtype=float):
        self.root = root
        self.data: dict[int, np.ndarray] = {}
        self.dtype = dtype

    def _array(self, scale: int) -> np.ndarray:
        if not (self.root.J + 1 <= scale <= self.root.L):
            raise ValueError(f"scale {scale} outside [{self.root.J + 1}, {self.root.L}]")
        if scale not in self.data:
            n = self.root.positions_per_side(scale)
            self.data[scale] = np.zeros((n,) * self.root.d, dtype=self.dtype)
        return self.data[scale]

    def __getitem__(self, cube: DyadicCube):
        if cube.scale not in self.data:
            return self.dtype(0)
        return self.data[cube.scale][cube.pos]

    def __setitem__(self, cube: DyadicCube, value):
        if not self.root.contains_cube(cube):
            raise ValueError(f"cube {cube.token()} not admissible")
        self._array(cube.scale)[cube.pos] = value

    def items(self):
        """(cube, coefficient) pairs over the nonzero support, canonical order."""
        for scale in sorted(self.data, reverse=True):
            arr = self.data[scale]
            for pos in zip(*np.nonzero(arr)):
                yield DyadicCube(scale, tuple(int(p) for p in pos)), arr[pos]

    def support(self):
        return [cube for cube, _ in self.items()]

    def copy(self) -> "CoefficientTree":
        out = CoefficientTree(self.root, dtype=self.dtype)
        out.data = {s: a.copy() for s, a in self.data.items()}
        return out

    def scaled(self, factor) -> "CoefficientTree":
        out = self.copy()
        for s in out.data:
            out.data[s] = out.data[s] * factor
        return out

    def __add__(self, other: "CoefficientTree") -> "CoefficientTree":
        if other.root != self.root:
            raise ValueError("trees on different root boxes")
        out = self.copy()
        for s, arr in other.data.items():
            if s in out.data:
                out.data[s] = out.data[s] + arr
            else:
                out.data[s] = arr.copy()
        return out

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(a))) for a in self.data.values()),
                   default=0.0)


def stack_trees(trees):
    """``(coeffs, groups, batch)`` of one tree, or of a batch of trees (a
    list, one per member): the coefficients per scale, stacked over the
    members (zero where a member has none); the groups ``(rows, scales)`` of
    members that hold their nonzero scales in one order, ``rows`` indexing
    the batch (``...`` when every member shares the order); and the batch
    shape, ``()`` for one tree.  Addition is not associative, so
    ``add_scales`` adds each member's scale terms in its own order: the sum
    of its own loop over ``tree.data``."""
    members = [trees] if isinstance(trees, CoefficientTree) else trees
    rows_by_order: dict = {}
    for i, tree in enumerate(members):
        order = tuple(s for s, arr in tree.data.items() if np.count_nonzero(arr))
        rows_by_order.setdefault(order, []).append(i)
    groups = [(np.array(rows), order) for order, rows in rows_by_order.items()]
    if len(groups) == 1:
        groups = [(..., groups[0][1])]
    if members is not trees:
        return dict(trees.data), groups, ()
    root = trees[0].root
    coeffs = {}
    for s in dict.fromkeys(s for order in rows_by_order for s in order):
        zero = np.zeros((root.positions_per_side(s),) * root.d)
        coeffs[s] = np.stack([tree.data.get(s, zero) for tree in trees])
    return coeffs, groups, (len(trees),)


def add_scales(out: np.ndarray, groups, term) -> np.ndarray:
    """``out`` plus ``term(s)[rows]`` for each scale s of each ``stack_trees``
    group, in the group's order, in place.  ``term(s)`` is computed once for
    the whole batch and dropped after its last use."""
    last = {s: k for k, (_, order) in enumerate(groups) for s in order}
    terms = {}
    for k, (rows, order) in enumerate(groups):
        for s in order:
            if s not in terms:
                terms[s] = term(s)
            out[rows] += terms[s][rows]
            if last[s] == k:
                del terms[s]
    return out


class AtomBasis:
    """Discrete wavelet/scaling atoms of a family realized on a root box.

    Atom vectors are exact filter refinements of unit cell vectors, recentered
    by N-1 positions so the atom of cube Q is supported in wQ and centered on
    Q.  All pairings are grid pairings with the cell measure; L^1
    normalization follows the family convention.
    """

    def __init__(self, family: WaveletFamily, root: RootBox):
        self.family = family
        self.root = root

    @staticmethod
    def _refine(c: np.ndarray, filt: np.ndarray) -> np.ndarray:
        """One filter refinement of the last axis of ``c``."""
        width = c.shape[-1]
        out = np.zeros(c.shape[:-1] + (2 * (width - 1) + len(filt),))
        for n, fn in enumerate(filt):
            out[..., n:n + 2 * width - 1:2] += fn * c
        return out

    # -- geometry ---------------------------------------------------------

    def _shift(self, t: int, kind: str) -> int:
        if kind == "scaling" and t == 0:
            return 0
        return self.family.N - 1

    @memo
    def _template(self, t: int, kind: str) -> np.ndarray:
        """The atom of ``kind`` t levels below the grid: t filter refinements
        of a unit cell vector, the first by the highpass for a wavelet."""
        if kind == "wavelet" and t < 1:
            raise ValueError("wavelet atoms need one refinement level below the grid")
        if t == 0:
            return np.array([1.0])
        first = kind == "wavelet" and t == 1
        return self._refine(self._template(t - 1, "scaling" if first else kind),
                            self.family.highpass if first else self.family.lowpass)

    def atom_values(self, cube: DyadicCube, kind: str = "wavelet"):
        """Clipped window slices plus the L^1-normalized values on them: the
        layout of ``atoms(kind)`` at one cube."""
        _, template, first, _, factor = self.atoms(kind).layout(cube.scale)
        m = 1 << (cube.scale - self.root.J)
        slices, vals = clipped_outer([first + p * m for p in cube.pos],
                                     [template] * self.root.d, self.root.cells_per_side)
        if slices is None:
            return None, None
        return slices, vals * factor

    def atom_grid(self, cube: DyadicCube, kind: str = "wavelet") -> np.ndarray:
        out = np.zeros(self.root.shape)
        slices, vals = self.atom_values(cube, kind)
        if slices is not None:
            out[slices] = vals
        return out

    def interior_cubes(self, smin: int | None = None, smax: int | None = None):
        smin = self.root.J + 1 if smin is None else smin
        smax = self.root.L if smax is None else smax
        out = []
        for scale in range(smax, smin - 1, -1):
            for cube in self.root.cubes_at_scale(scale):
                if self.root.is_interior(cube, self.family.w):
                    out.append(cube)
        return out

    # -- transforms -------------------------------------------------------

    @memo
    def atoms(self, kind: str) -> "AtomFamily":
        """The canonical atoms of ``kind`` ("wavelet" or "scaling") as an
        ``AtomFamily``, shared by every caller of this basis."""
        return AtomFamily(self.root, lambda s: self._layout(s, kind))

    def _layout(self, scale: int, kind: str):
        t = scale - self.root.J
        template = self._template(t, kind)
        factor = 2.0 ** (-(self.root.J + scale) * self.root.d / 2.0)  # L^1-normalized
        return template[None], template, -self._shift(t, kind) * (1 << t), (), factor

    def analyze(self, samples: np.ndarray) -> CoefficientTree:
        """Cancellative coefficients phi_Q(f) for every admissible cube."""
        samples = np.asarray(samples)
        tree = CoefficientTree(self.root, dtype=samples.dtype.type)
        wavelets = self.atoms("wavelet")
        for scale in range(self.root.J + 1, self.root.L + 1):
            tree.data[scale] = wavelets.pair(samples, scale)
        return tree

    def synthesize(self, tree) -> np.ndarray:
        """Sum over cubes of |Q| t(Q) phi_Q sampled on the grid: one
        overlap-add per scale that has a nonzero coefficient.  A batch of
        trees (a list) gives one function per member (``stack_trees``)."""
        coeffs, groups, batch = stack_trees(tree)
        out = np.zeros(batch + self.root.shape, dtype=np.result_type(float, *coeffs.values()))
        wavelets = self.atoms("wavelet")
        return add_scales(out, groups, lambda s: wavelets.spread(
            2.0 ** (s * self.root.d) * coeffs[s], s))

    # -- multiresolution identities ----------------------------------------

    @memo
    def _tail_rows(self, scale: int, kind: str) -> np.ndarray:
        """Rows on the box of the atoms of a scale above the root that meet
        it, as orthonormal vectors up to h^{-1/2}.  All positions are refined
        top down at once, each level clipped to a margin around the box, so
        coarse scales stay O(box) work."""
        root, N = self.root, self.family.N
        n = root.cells_per_side
        m = 1 << (scale - root.J)
        # position k's atom starts at level-``scale`` index k - (N - 1)
        start = -(((2 * N - 1) * (m - 1) + m) // m)
        coeffs = np.eye((n + m - 1) // m - start + 1)
        for level in range(scale, root.J, -1):
            filt = self.family.highpass if (kind == "wavelet" and level == scale) \
                else self.family.lowpass
            nxt, nxt_start = self._refine(coeffs, filt), 2 * start
            npos_level = 1 << max(root.depth - (level - 1 - root.J), 0)
            a = max(nxt_start, -2 * N)
            b = min(nxt_start + nxt.shape[-1], npos_level + 2 * N)
            coeffs, start = nxt[:, a - nxt_start:max(a, b) - nxt_start], a
        rows = np.zeros((len(coeffs), n))
        a, b = max(start, 0), min(start + coeffs.shape[1], n)
        rows[:, a:max(a, b)] = coeffs[:, a - start:max(a, b) - start]
        # positions whose atom the clipping left off the box
        return rows[np.any(rows, axis=1)]

    def _projection_1d(self, samples: np.ndarray, scale: int, kind: str) -> np.ndarray:
        """Sum of |Q| atom_Q(f) atom_Q over all scale-``scale`` positions
        whose atom meets the box, d=1: a pairing and its overlap-add at
        scales up to the root, two products with the cached tail rows above."""
        n = self.root.cells_per_side
        t = scale - self.root.J
        if t > self.root.depth:
            rows = self._tail_rows(scale, kind)
            # einsum keeps these small products off the threaded BLAS (see below)
            return np.einsum("pc,p->c", rows, np.einsum("pc,c->p", rows, samples))
        template = self._template(t, kind)
        m = 1 << t
        # positions below the box whose atom still reaches into it
        first = -((len(template) - 1) // m) * m
        npos = (n - first) // m
        coeffs = strided_pairings(samples, template[None], template, first, m, npos=npos, d=1)
        return strided_spread(coeffs, template[None], template, first, m, n)

    def high_low_residual(self, samples: np.ndarray, ell: int) -> float:
        """L^2 residual between the coarse wavelet sum and the scaling sum.

        The wavelet side runs over all cubes with side > 2^ell meeting the
        box; scales above the root are included, at most 64 of them, until
        the remaining coarse tail is provably below 1e-9 relative to ||f||_2.
        """
        if self.root.d != 1:
            raise NotImplementedError("high-low residual is implemented for d = 1")
        if not (self.root.J < ell <= self.root.L):
            raise ValueError("need J < ell <= L")
        samples = np.asarray(samples, dtype=float)
        lhs = np.zeros_like(samples)
        fnorm = l2_norm(samples, self.root)
        smax = self.root.L + 64
        for scale in range(ell + 1, smax + 1):
            lhs += self._projection_1d(samples, scale, "wavelet")
            if scale >= self.root.L:
                tail = self._projection_1d(samples, scale, "scaling")
                if l2_norm(tail, self.root) < 1e-9 * max(fnorm, 1e-300):
                    break
        rhs = self._projection_1d(samples, ell, "scaling")
        return l2_norm(lhs - rhs, self.root)

    def gram_matrix(self, cubes) -> np.ndarray:
        """Grid Gram matrix of the L^2-normalized wavelets sqrt|Q| phi_Q:
        the product over axes of V V^T, where row i of the sparse V holds
        cube i's 1-D template on its window, clipped to the box.  The L^1
        factor, sqrt|Q| and the cell measure are powers of two whose product
        is 1, so no weight enters."""
        n = self.root.cells_per_side
        wavelets = self.atoms("wavelet")
        gram = np.ones((len(cubes), len(cubes)))
        for axis in range(self.root.d):
            data, cols, indptr = [], [], [0]
            for cube in cubes:
                _, template, first, _, _ = wavelets.layout(cube.scale)
                s0 = first + cube.pos[axis] * (1 << (cube.scale - self.root.J))
                a = min(max(s0, 0), n)
                b = max(min(s0 + len(template), n), a)
                data.append(template[a - s0:b - s0])
                cols.append(np.arange(a, b))
                indptr.append(indptr[-1] + b - a)
            V = sparse.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                                  shape=(len(cubes), n))
            gram *= (V @ V.T).toarray()
        return gram

    def gram_residual(self, cubes) -> float:
        G = self.gram_matrix(cubes)
        return float(np.max(np.abs(G - np.eye(len(G)))))


def clipped_outer(starts, templates, n: int):
    """Box slices and tensor-product values of per-axis templates whose
    windows start at cells ``starts``, clipped to [0, n); (None, None) when
    a window misses the box."""
    slices, vals = [], None
    for s0, template in zip(starts, templates):
        a, b = max(s0, 0), min(s0 + len(template), n)
        if a >= b:
            return None, None
        slices.append(slice(a, b))
        piece = template[a - s0:b - s0]
        vals = piece if vals is None else np.multiply.outer(vals, piece)
    return tuple(slices), vals


def _pair_last_axis(x: np.ndarray, templates: np.ndarray, first: int,
                    stride: int, npos: int) -> np.ndarray:
    """Pair the last axis of ``x`` with ``templates`` at positions
    ``first + p * stride``, p < npos, zero-extending ``x``.

    Returns ``x.shape[:-1] + (npos,) + templates.shape[:-1]``.
    """
    n, width = x.shape[-1], templates.shape[-1]
    lo = max(-first, 0)
    hi = max(first + (npos - 1) * stride + width - n, 0)
    padded = np.zeros(x.shape[:-1] + (lo + n + hi,), dtype=x.dtype)
    padded[..., lo:lo + n] = x
    # a window view built directly: as_strided costs more than the
    # contraction on the small boxes most calls see
    s = padded.strides
    windows = np.ndarray(x.shape[:-1] + (npos, width), x.dtype, padded,
                         (lo + first) * s[-1], s[:-1] + (stride * s[-1], s[-1]))
    # einsum keeps these small products off the threaded BLAS, whose thread
    # wake-ups stalled calls by ~8 ms on a busy 2-CPU machine
    spec = "...pw,kw->...pk" if templates.ndim == 2 else "...pw,w->...p"
    return np.einsum(spec, windows, templates)


def strided_pairings(samples: np.ndarray, bank: np.ndarray, tail, first: int,
                     stride: int, boundary=(), npos: int | None = None,
                     d: int | None = None) -> np.ndarray:
    """Pairings of ``samples`` with a bank of tensor-product templates at
    every position of one scale.

    The template of member k at position p = (p_0, ..., p_{d-1}) is
    ``bank[k]`` along axis 0 and ``tail`` along every other axis, each
    factor starting at cell ``first + p_i * stride``.  Samples count as zero
    outside the box, which is the same as clipping the templates to it.
    ``boundary`` lists ``(rows, c0, block)`` replacements of the axis-0
    templates at the positions ``rows``: ``block`` has shape
    ``(ncols, len(rows) * K)`` and pairs cells ``c0 .. c0 + ncols``.

    The bank is applied axis by axis (every template is a tensor product)
    through one strided window view of the zero-extended samples per axis,
    the strided filter bank of Mallat's pyramid without its recursion.  With
    templates w strides wide a scale costs O((K + d) w n^d) in a fixed
    number of array operations, with no Python work per position, and
    computes only the strided lags a full correlation (O(n^2) at d = 1)
    would mostly discard.  The box axes are the last ``d`` (all by default);
    leading axes are a batch.  Returns an array of shape
    ``batch + (npos,) * d + (K,)``, by default ``npos = n // stride``.
    """
    d = samples.ndim if d is None else d
    nb = samples.ndim - d
    n = samples.shape[-1]
    npos = n // stride if npos is None else npos
    y = samples
    for _ in range(d - 1):
        y = np.moveaxis(_pair_last_axis(y, tail, first, stride, npos), -1, nb)
    lead = y.shape[:-1]
    y = y.reshape(-1, n)
    out = _pair_last_axis(y, bank, first, stride, npos)
    for rows, c0, block in boundary:
        cut = np.einsum("rc,cj->rj", y[:, c0:c0 + block.shape[0]], block)
        out[:, rows] = cut.reshape(len(y), len(rows), -1)
    return np.moveaxis(out.reshape(lead + out.shape[1:]), -2, nb) if lead else out[0]


def _spread_last_axis(c: np.ndarray, templates: np.ndarray, first: int,
                      stride: int, n: int) -> np.ndarray:
    """Transpose of ``_pair_last_axis``: add ``c[..., p, k] * templates[k]``
    at cell ``first + p * stride`` of a last axis of ``n`` cells, dropping
    what falls outside.

    Polyphase form: the run of ``stride`` cells from ``first + q * stride``
    receives sum_j c[q - j] times chunk j of the templates, one window view
    of the zero-extended coefficients and one contraction."""
    bank = templates if templates.ndim == 2 else templates[None]
    if templates.ndim == 1:
        c = c[..., None]
    lead, (npos, K), width = c.shape[:-2], c.shape[-2:], bank.shape[-1]
    chunks = -(-width // stride)
    runs = npos + chunks - 1
    padded_bank = np.zeros((K, chunks * stride))
    padded_bank[:, :width] = bank
    padded = np.zeros(lead + (runs + chunks - 1, K), dtype=c.dtype)
    padded[..., chunks - 1:chunks - 1 + npos, :] = c
    s = padded.strides
    windows = np.ndarray(lead + (runs, chunks, K), c.dtype, padded, 0,
                         s[:-2] + (s[-2], s[-2], s[-1]))
    chunked = padded_bank.reshape(K, chunks, stride)[:, ::-1]
    cells = np.einsum("...qjk,kjr->...qr", windows, chunked).reshape(lead + (runs * stride,))
    # cells[..., i] is cell first + i
    if first <= 0 and first + runs * stride >= n:
        return cells[..., -first:n - first]
    a, b = max(first, 0), min(first + runs * stride, n)
    out = np.zeros(lead + (n,), dtype=cells.dtype)
    out[..., a:b] = cells[..., a - first:b - first]
    return out


def strided_spread(coeffs: np.ndarray, bank: np.ndarray, tail, first: int,
                   stride: int, n: int, boundary=(), d: int | None = None) -> np.ndarray:
    """Overlap-add transpose of ``strided_pairings``: the samples on the
    box ``(n,) * d`` of the sum over positions p and members k of
    ``coeffs[p, k]`` times the template of member k at p, in the same
    layout (``bank``, ``tail``, ``first``, ``stride``, ``boundary``).

    Pairing the result with any samples gives the sum of ``coeffs`` times
    their ``strided_pairings``.  A boundary row replaces the bank at its
    position, and of two blocks listing one position the later one counts,
    as in the pairing.  O((K + d) w n^d) per call, with no Python work per
    position.  The last axis of ``coeffs`` indexes members and the ``d``
    before it positions (by default every other axis); leading axes are a
    batch, and the result has shape ``batch + (n,) * d``."""
    d = coeffs.ndim - 1 if d is None else d
    nb = coeffs.ndim - 1 - d
    batch = tuple(range(nb))
    # np.moveaxis, without its per-call argument handling
    c = coeffs.transpose(batch + tuple(range(nb + 1, nb + d)) + (nb, nb + d))
    lead = c.shape[:-2]
    c = c.reshape((-1,) + c.shape[-2:])
    cuts = []
    if boundary:
        c = c.copy()
        for rows, c0, block in reversed(boundary):
            cuts.append((c0, block, c[:, rows].reshape(len(c), -1)))
            c[:, rows] = 0  # these positions carry the block's row, not the bank's
    out = _spread_last_axis(c, bank, first, stride, n)
    for c0, block, cut in cuts:
        out[:, c0:c0 + block.shape[0]] += np.einsum("rj,cj->rc", cut, block)
    y = out.reshape(lead + (n,))
    for _ in range(d - 1):
        y = _spread_last_axis(y.transpose(batch + tuple(range(nb + 1, y.ndim)) + (nb,)),
                              tail, first, stride, n)
    return y


class AtomFamily:
    """One atom per cube, applied a whole scale at a time.

    ``layout(scale)`` is ``(bank, tail, first, boundary, weight)``: the atom
    at position p is ``weight`` (a scalar or an array over positions) times
    the ``strided_pairings`` template of member 0 at p.  ``pair`` is that
    engine and ``spread`` its transpose, so an operator diagonal in the
    atoms of a scale costs O(w n^d).  Layouts are built on first use.
    """

    def __init__(self, root: RootBox, layout):
        self.root = root
        self._layout = layout

    @memo
    def layout(self, scale: int):
        return self._layout(scale)

    def pair(self, samples: np.ndarray, scale: int) -> np.ndarray:
        """atom_Q(f) by the grid quadrature at every position of ``scale``,
        after the batch axes of ``samples``."""
        bank, tail, first, boundary, weight = self.layout(scale)
        vals = strided_pairings(samples, bank, tail, first, 1 << (scale - self.root.J),
                                boundary, d=self.root.d)
        return vals[..., 0] * (weight * self.root.cell_measure)

    def spread(self, coeffs: np.ndarray, scale: int) -> np.ndarray:
        """sum_Q coeffs[Q] atom_Q over the positions of ``scale``, on the grid,
        after the batch axes of ``coeffs``."""
        bank, tail, first, boundary, weight = self.layout(scale)
        return strided_spread((coeffs * weight)[..., None], bank, tail, first,
                              1 << (scale - self.root.J), self.root.cells_per_side,
                              boundary, d=self.root.d)


def l2_norm(samples: np.ndarray, root: RootBox) -> float:
    return float(np.sqrt(np.sum(np.abs(samples) ** 2) * root.cell_measure))
