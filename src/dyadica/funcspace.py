"""Grid functions and their calculus: local means, maximal operators,
Taylor projections, discrete derivatives, Sobolev norms.

All quadrature is the midpoint rule on the finest-level grid; functions are
extended by zero outside the root box, so derivatives never need one-sided
stencils on the test classes (interior-supported inputs).
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, RootBox
from .wavelet import AtomBasis

_HEADER = struct.Struct("<qqqq")


@dataclass
class GridFunction:
    """Samples of a function at the midpoints of the finest-level cells.

    Leading axes, if any, index a batch of functions on the same box: the
    samples have shape ``batch + root.shape``, every layer reduces over the
    trailing ``root.d`` axes only, and a single function is the batch of
    one (``batch == ()``)."""

    root: RootBox
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.shape[self.samples.ndim - self.root.d:] != self.root.shape:
            raise ValueError(
                f"sample shape {self.samples.shape} does not match box {self.root.shape}")

    @classmethod
    def stack(cls, fs) -> "GridFunction":
        """The batch of the functions ``fs`` (one leading axis)."""
        fs = list(fs)
        return cls(fs[0].root, np.stack([f.samples for f in fs]))

    def __getitem__(self, index) -> "GridFunction":
        """Member ``index`` of a batch."""
        return GridFunction(self.root, self.samples[index])

    @classmethod
    def zeros(cls, root: RootBox, dtype=float) -> "GridFunction":
        return cls(root, np.zeros(root.shape, dtype=dtype))

    @classmethod
    def from_callable(cls, root: RootBox, fn) -> "GridFunction":
        axes = [root.midpoints_1d()] * root.d
        grids = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(fn(*grids), dtype=float)
        return cls(root, np.broadcast_to(vals, root.shape).copy())

    def copy(self) -> "GridFunction":
        return GridFunction(self.root, self.samples.copy())

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.root, self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.root, self.samples - other.samples)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.root, self.samples * scalar)

    __rmul__ = __mul__


def pairing(f: GridFunction, g: GridFunction):
    """Bilinear grid pairing <f, g> = sum f g * cell measure, summed over
    the flattened box: a float, or an array over the broadcast batch."""
    prod = f.samples * g.samples
    return _scalar(np.sum(prod.reshape(prod.shape[:prod.ndim - f.root.d] + (-1,)), axis=-1)
                   * f.root.cell_measure)


def box_axes(d: int) -> tuple:
    """The trailing ``d`` axes: the box axes of batched samples."""
    return tuple(range(-d, 0))


def _scalar(vals):
    """A Python scalar (float, or complex for a complex form) for an
    unbatched result, else the array over the batch."""
    return np.asarray(vals).item() if np.ndim(vals) == 0 else vals


def scalar_power(x, e):
    """``x ** e`` one numpy scalar at a time: numpy's vectorized pow may
    differ in the last bit from the scalar one, so a batch reduced to one
    scalar per member keeps the unbatched values bit for bit."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(x[()] ** e)
    return np.array([v ** e for v in x.ravel()]).reshape(x.shape)


def lp_norm(f: GridFunction, p: float):
    """L^p norm over the box: a float, or an array over the batch."""
    a = np.abs(f.samples)
    axes = box_axes(f.root.d)
    if np.isinf(p):
        return _scalar(np.max(a, axis=axes))
    return scalar_power(np.sum(a ** p, axis=axes) * f.root.cell_measure, 1.0 / p)


def local_average(f: GridFunction, cube: DyadicCube, p: float,
                  dilation: int = 1):
    """<f>_{p, wQ} = |wQ|^{-1/p} ||f||_{L^p(wQ)} with zero extension: a
    float, or an array over the batch.

    The normalizing measure is that of the full dilated cube even when the
    window is clipped by the box.
    """
    slices = (...,) + f.root.window_slices(cube, dilation)
    window = np.abs(f.samples[slices])
    axes = box_axes(f.root.d)
    if np.isinf(p):
        if not window.size:
            return _scalar(np.zeros(window.shape[:window.ndim - f.root.d]))
        return _scalar(np.max(window, axis=axes))
    measure = (dilation * cube.side) ** f.root.d
    mass = np.sum(window ** p, axis=axes) * f.root.cell_measure
    return _scalar(np.where(mass > 0, scalar_power(mass / measure, 1.0 / p), 0.0))


def block_reduce(arr: np.ndarray, factor: int, reduce=np.mean,
                 d: int | None = None) -> np.ndarray:
    """``reduce`` (np.mean, np.max or np.min) over aligned blocks of side
    ``factor`` along each of the last ``d`` axes (all axes by default)."""
    if factor == 1:
        return arr
    d = arr.ndim if d is None else d
    lead = arr.shape[:arr.ndim - d]
    shape = list(lead) + [m for n in arr.shape[arr.ndim - d:] for m in (n // factor, factor)]
    return reduce(arr.reshape(shape), axis=tuple(range(len(lead) + 1, len(shape), 2)))


def expand_blocks(arr: np.ndarray, factor: int, d: int | None = None) -> np.ndarray:
    """Broadcast per-cube values back to their cells, along each of the last
    ``d`` axes (all axes by default)."""
    d = arr.ndim if d is None else d
    out = arr
    for ax in range(arr.ndim - d, arr.ndim):
        out = np.repeat(out, factor, axis=ax)
    return out


def dilated_scale_averages(f: GridFunction, scale: int, p: float,
                           dilation: int) -> np.ndarray:
    """Array over scale-``scale`` positions of <f>_{p, wQ} (zero extension),
    after the batch axes."""
    from scipy import ndimage
    d = f.root.d
    factor = 1 << (scale - f.root.J)
    a = np.abs(f.samples)
    size = (1,) * (a.ndim - d) + (dilation,) * d  # no filtering across the batch
    if np.isinf(p):
        block = block_reduce(a, factor, np.max, d)
        return ndimage.maximum_filter(block, size=size, mode="constant", cval=0.0)
    block = block_reduce(a ** p, factor, d=d)
    summed = ndimage.uniform_filter(block, size=size, mode="constant", cval=0.0)
    return summed ** (1.0 / p)


def maximal(fs) -> GridFunction:
    """Dyadic multilinear maximal function: at each grid point the sup over
    admissible cubes containing it of the product of local 1-means.  One
    top-down pass with the running max at block resolution; bit-identical
    to the max over scales of the expanded products."""
    if isinstance(fs, GridFunction):
        fs = [fs]
    root = fs[0].root
    if any(f.root != root for f in fs):
        raise ValueError("functions on different root boxes")
    absolute = [np.abs(f.samples) for f in fs]
    best = None
    for scale in range(root.L, root.J - 1, -1):
        prod = None
        for a in absolute:
            avg = block_reduce(a, 1 << (scale - root.J), d=root.d)
            prod = avg if prod is None else prod * avg
        best = prod if best is None else np.maximum(expand_blocks(best, 2, root.d), prod)
    return GridFunction(root, best)


# -- discrete calculus ------------------------------------------------------

def central_diff(samples: np.ndarray, root: RootBox, axis: int,
                 order: int = 1) -> np.ndarray:
    """Iterated central difference along box axis ``axis`` (counted among
    the trailing ``root.d`` axes) with zero extension outside the box."""
    h = root.cell_width
    out = samples
    axis += samples.ndim - root.d
    for _ in range(order):
        padded = np.pad(out, [(1, 1) if ax == axis else (0, 0)
                              for ax in range(out.ndim)])
        hi = padded.take(range(2, padded.shape[axis]), axis=axis)
        lo = padded.take(range(0, padded.shape[axis] - 2), axis=axis)
        out = (hi - lo) / (2.0 * h)
    return out


def multi_indices(d: int, total: int):
    """Multi-indices alpha in N^d with |alpha| = total."""
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in multi_indices(d - 1, total - head):
            yield (head,) + rest


def multi_indices_upto(d: int, k: int):
    for total in range(k + 1):
        yield from multi_indices(d, total)


def derivative(f: GridFunction, alpha) -> GridFunction:
    out = f.samples
    for axis, order in enumerate(alpha):
        if order:
            out = central_diff(out, f.root, axis, order)
    return GridFunction(f.root, out)


def grad_norm(f: GridFunction, n: int) -> GridFunction:
    """Euclidean size of all order-n derivatives (one entry per multi-index)."""
    if n == 0:
        return GridFunction(f.root, np.abs(f.samples))
    acc = np.zeros(f.samples.shape)
    for alpha in multi_indices(f.root.d, n):
        acc += np.abs(derivative(f, alpha).samples) ** 2
    return GridFunction(f.root, np.sqrt(acc))


# -- Taylor projection ------------------------------------------------------

def _theta_profile(u: np.ndarray) -> np.ndarray:
    """Smooth unit-cube bump exp(-1/(1 - |2u - 1|^2)), un-normalized."""
    r2 = np.sum((2.0 * u - 1.0) ** 2, axis=0)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def theta_weights(root: RootBox, cube: DyadicCube) -> np.ndarray:
    """theta_Q on the cells of Q, normalized to exact unit discrete mass."""
    slices = root.window_slices(cube)
    axes = []
    for sl, p in zip(slices, cube.pos):
        mids = (np.arange(sl.start, sl.stop) + 0.5) * root.cell_width
        axes.append((mids - p * cube.side) / cube.side)
    grids = np.meshgrid(*axes, indexing="ij")
    vals = _theta_profile(np.stack(grids))
    mass = np.sum(vals) * root.cell_measure
    if mass <= 0:
        raise ValueError("bump mass vanished; cube too small for the profile")
    return vals / mass


def taylor_poly(f: GridFunction, cube: DyadicCube, k: int,
                dilation: int = 1) -> GridFunction:
    """Taylor-type polynomial of order k adapted to f on Q, sampled on the
    dilated cube (zero elsewhere).  k = 0 gives the zero function."""
    root = f.root
    out = GridFunction.zeros(root, dtype=f.samples.dtype)
    if k == 0:
        return out
    theta = theta_weights(root, cube)
    q_slices = root.window_slices(cube)
    w_slices = root.window_slices(cube, dilation)
    # per-axis difference tables (x - y) restricted to the windows
    h = root.cell_width
    xs = [(np.arange(sl.start, sl.stop) + 0.5) * h for sl in w_slices]
    ys = [(np.arange(sl.start, sl.stop) + 0.5) * h for sl in q_slices]
    diffs = [np.subtract.outer(x, y) for x, y in zip(xs, ys)]
    acc = np.zeros([len(x) for x in xs], dtype=f.samples.dtype)
    for alpha in multi_indices_upto(root.d, k - 1):
        df = derivative(f, alpha).samples[q_slices]
        weighted = theta * df * root.cell_measure
        fact = math.prod(math.factorial(a) for a in alpha)
        block = weighted
        # contract each y-axis against (x_i - y_i)^alpha_i, keeping axis order
        for axis in range(root.d):
            kern = diffs[axis] ** alpha[axis]
            block = np.moveaxis(np.tensordot(kern, block, axes=([1], [axis])), 0, axis)
        acc += block / fact
    out.samples[w_slices] = acc
    return out


# -- anti integration by parts ----------------------------------------------

def _forward_diff(samples: np.ndarray, h: float, order: int = 1) -> np.ndarray:
    out = samples
    for _ in range(order):
        out = (np.append(out[1:], 0.0) - out) / h
    return out


def anti_ibp_check(f: GridFunction, cube: DyadicCube, k: int,
                   basis: AtomBasis) -> dict:
    """Verify that the k-fold antidifferentiated atom converts the wavelet
    coefficient of f minus its Taylor projection into a coefficient of the
    k-th derivative.  Exact path is one-dimensional.

    The antiderivative is the cumulative sum dual to the forward difference,
    so the two sides agree by exact summation by parts.
    """
    root = f.root
    if root.d != 1:
        raise NotImplementedError("exact antidifferentiation path is d = 1")
    if k > basis.family.N:
        raise ValueError(
            f"atom has {basis.family.N} vanishing moments; cannot antidifferentiate {k} times")
    h = root.cell_width
    atom = basis.atom_grid(cube, "wavelet")
    p = taylor_poly(f, cube, k, dilation=basis.family.w)
    lhs = np.sum(atom * (f.samples - p.samples)) * h

    anti = atom.copy()
    for _ in range(k):
        mass = abs(np.sum(anti)) * h
        if mass > 1e-8 * max(np.max(np.abs(anti)) * cube.side, 1e-300):
            raise ValueError("antiderivative failed to close up (moment deficiency)")
        anti = np.cumsum(anti) * h
    phi_minus = ((-1.0) ** k) * anti / cube.side ** k
    rhs = cube.side ** k * np.sum(phi_minus * _forward_diff(f.samples, h, k)) * h

    denom = max(abs(lhs), abs(rhs), 1e-300)
    const = float(cube.side * np.max(np.abs(phi_minus)))
    return {"lhs": float(lhs), "rhs": float(rhs), "rel_gap": abs(lhs - rhs) / denom,
            "class_constant": const}


# -- Sobolev norms ----------------------------------------------------------

def sobolev_norm(f: GridFunction, kappa: int, r: float,
                 basis: AtomBasis | None = None):
    """W^{kappa, r} norm: finite differences for kappa >= 0, the wavelet
    square-function surrogate for kappa < 0 (no finite-difference realization
    exists there).  A float, or an array over the batch."""
    if basis is not None and abs(kappa) > basis.family.k:
        raise ValueError(f"|kappa| = {abs(kappa)} exceeds family budget {basis.family.k}")
    if kappa >= 0:
        total = 0.0
        for alpha in multi_indices_upto(f.root.d, kappa):
            total += lp_norm(derivative(f, alpha), r)
        return total
    if basis is None:
        raise ValueError("negative smoothness needs an atom basis")
    return wavelet_sobolev_norm(f, kappa, r, basis)


def wavelet_sobolev_norm(f: GridFunction, kappa: int, r: float, basis: AtomBasis):
    """Wavelet square-function surrogate of the W^{kappa, r} norm, any kappa:
    the L^r norm of (sum_Q |side(Q)^{-kappa} phi_Q(f)|^2 1_Q)^{1/2}."""
    tree = basis.analyze(f.samples)
    acc = np.zeros(f.samples.shape)
    for scale in range(f.root.J + 1, f.root.L + 1):
        coeffs = np.abs(tree.data[scale]) * (2.0 ** (-kappa * scale))
        acc += expand_blocks(coeffs, 1 << (scale - f.root.J), f.root.d) ** 2
    return lp_norm(GridFunction(f.root, np.sqrt(acc)), r)


# -- binary I/O -------------------------------------------------------------

def save_gridfunction(path, f: GridFunction) -> None:
    """One function per file: a batch would write a sample count that
    ``load_gridfunction`` rejects."""
    if np.iscomplexobj(f.samples):
        raise ValueError("binary format stores real samples only")
    if f.samples.shape != f.root.shape:
        raise ValueError(f"sample shape {f.samples.shape} is a batch; the binary format "
                         f"stores one function on the box {f.root.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.root.d, f.root.L, f.root.J, f.samples.size))
        fh.write(np.ascontiguousarray(f.samples, dtype="<f8").tobytes())


def load_gridfunction(path) -> GridFunction:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"header has {len(head)} bytes, expected {_HEADER.size}")
        d, L, J, count = _HEADER.unpack(head)
        root = RootBox(d=int(d), L=int(L), J=int(J))
        if count != root.n_cells:
            raise ValueError(f"sample count {count} does not match box {root.shape}")
        need = 8 * count
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - _HEADER.size < need:
            raise ValueError(f"header implies a payload of {need} bytes, "
                             f"the file holds {st.st_size - _HEADER.size}")
        # a pipe has no size to check, so read it in bounded chunks and
        # allocate only what arrives
        payload = bytearray()
        while len(payload) < need:
            chunk = fh.read(min(need - len(payload), 1 << 20))
            if not chunk:
                raise ValueError(f"header implies a payload of {need} bytes, "
                                 f"the stream holds {len(payload)}")
            payload += chunk
        data = np.frombuffer(payload, dtype="<f8", count=count)
    return GridFunction(root, data.reshape(root.shape).copy())

