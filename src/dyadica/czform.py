"""Singular-integral form ingestion: kernel quadrature, weak boundedness,
testing symbols built from pairings with wavelets and cut-off monomials,
the associated norms, and the Sobolev bench.

Planted wavelet/paraproduct forms evaluate by exact summation; closed-form
kernels by tensor-grid quadrature with diagonal cells excluded and the
excluded mass estimated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .cache import memo
from .dyadic import RootBox
from .funcspace import (GridFunction, _scalar, multi_indices, multi_indices_upto, pairing,
                        sobolev_norm)
from .paraproduct import ParaproductSpec, apply_paraproduct
from .tlnorm import NormSpec, TestDictionary, tl_norm
from .wavelet import AtomBasis, CoefficientTree


class SingularConfigurationError(ValueError):
    """Kernel quadrature refused: supports meet and no truncation is set."""


_SHARED_SUPPORT = "inputs share support and the kernel carries no truncation radius"


def _dot(a, b):
    """sum_x a(x) b(x) over the last axis, per member of the broadcast batch."""
    return np.einsum("...n,...n->...", a, b)


@memo
def _kernel_matrix(self, root: RootBox, eps_trunc: float):
    """Bilinear kernel ``self`` on the midpoint grid, d = 1: the matrix with
    cells within ``eps_trunc`` of the diagonal zeroed, and a sparse matrix
    of |kernel| on those excluded off-diagonal cells.  The table lives on
    the kernel callable, so a kernel must not change after its first use
    and its matrices go with it."""
    x = root.midpoints_1d()
    xx0, xx1 = np.meshgrid(x, x, indexing="ij")
    keep = np.abs(xx0 - xx1) > eps_trunc
    K = np.where(keep, self(xx0, xx1), 0.0)
    near = ~keep & (np.abs(xx0 - xx1) > 0)
    rows, cols = np.nonzero(near)
    near_abs = sparse.csr_matrix(
        (np.abs(np.asarray(self(xx0[near], xx1[near]), dtype=float)), (rows, cols)),
        shape=K.shape)
    return K, near_abs


def _bilinear(a, K, b):
    """sum_{x, y} a(x) K(x, y) b(y) per member of the broadcast batch.

    K meets the side with fewer rows as a stack of matrix-vector products,
    and einsum does the rest: level-3 BLAS products stalled for ~16 ms under
    threads on a busy 2-CPU machine, and their buffers raised peak memory."""
    if b.size < a.size:
        return _dot(a, np.matmul(K, b[..., None])[..., 0])
    return _dot(np.matmul(a[..., None, :], K)[..., 0, :], b)


def _trilinear_slot0(kernel, root: RootBox, eps_trunc: float, f1, f2, cells):
    """An n = 2 kernel, d = 1, one x0 at a time: at the x0 of each of the
    ``cells``, sum_{x1, x2} K(x0, x1, x2) f1(x1) f2(x2) over the kept cells
    and sum |K f1 f2| over the excluded off-diagonal ones, per member of the
    broadcast batch of the sample arrays, unscaled."""
    x = root.midpoints_1d()
    shape = np.broadcast_shapes(f1.shape, f2.shape)
    out, excluded = np.zeros(shape), np.zeros(shape)
    xx1, xx2 = np.meshgrid(x, x, indexing="ij")
    for a in cells:
        dist = np.maximum(np.abs(x[a] - xx1), np.abs(x[a] - xx2))
        keep = dist > eps_trunc
        out[..., a] = _bilinear(f1, np.where(keep, kernel(x[a], xx1, xx2), 0.0), f2)
        i, j = np.nonzero(~keep & (dist > 0))
        excluded[..., a] = np.sum(np.abs(f1[..., i] * kernel(x[a], x[i], x[j])
                                         * f2[..., j]), axis=-1)
    return out, excluded


def form_quadrature(kernel, root: RootBox, fs, eps_trunc: float) -> dict:
    """Tensor-grid quadrature of an (n+1)-linear kernel form, d = 1, n = 1 or 2.

    Cells within ``eps_trunc`` of the diagonal (in the max metric on the
    center tuple) are excluded; the report carries the value and an estimate
    of the excluded mass.  ``eps_trunc == 0`` demands empty common support.
    Leading batch axes of the inputs broadcast: a batch gets one value and
    one mass per member, single functions get floats.
    """
    if root.d != 1:
        raise NotImplementedError("kernel quadrature is implemented for d = 1")
    n = len(fs) - 1
    if n not in (1, 2):
        raise NotImplementedError(f"kernel arity n = {n} not supported")
    rows = [f.samples for f in fs]
    if eps_trunc <= 0.0 and np.any(functools.reduce(
            np.logical_and, [np.abs(r) > 0 for r in rows])):
        raise SingularConfigurationError(_SHARED_SUPPORT)
    if n == 1:
        a, b = rows
        K, near_abs = _kernel_matrix(kernel, root, eps_trunc)
        value = _bilinear(a, K, b)
        near_b = near_abs @ np.abs(b).reshape(-1, b.shape[-1]).T
        excluded = _dot(np.abs(a), near_b.T.reshape(b.shape))
    else:
        # the x0 where no member's f0 is nonzero add nothing
        active = np.flatnonzero(np.any(rows[0] != 0, axis=tuple(range(rows[0].ndim - 1))))
        out, near = _trilinear_slot0(kernel, root, eps_trunc, rows[1], rows[2], active)
        value, excluded = _dot(rows[0], out), _dot(np.abs(rows[0]), near)
    cell = root.cell_width ** (n + 1)
    return {"value": _scalar(value * cell), "excluded_mass": _scalar(excluded * cell)}


@dataclass
class KernelSpec:
    """A registered (n+1)-linear form: closed-form kernel, a planted
    paraproduct form, or zero.

    The kernel callable is built once, at construction, and its n = 1 matrix
    is kept while that callable lives, so a spec must not be mutated
    afterwards."""

    root: RootBox
    n: int
    kind: str
    eps_trunc: float = 0.0
    strength: float = 1.0
    planted: ParaproductSpec | None = None

    def __post_init__(self):
        kinds = ("zero", "planted", "convolution")
        if self.kind not in kinds:
            raise ValueError(f"kernel kind must be one of {kinds}")
        if self.kind == "planted":
            if self.planted is None:
                raise ValueError("planted kernels wrap a paraproduct spec")
            self.n = self.planted.arity
        self._kernel = self._convolution_kernel() if self.kind == "convolution" else None

    # -- kernel callables ---------------------------------------------------

    def _convolution_kernel(self):
        s = self.strength
        n = self.n

        def kernel(x0, *xs):
            total = np.zeros(np.broadcast_shapes(np.shape(x0),
                                                 *(np.shape(x) for x in xs)))
            sign = np.ones_like(total)
            for xi in xs:
                diff = x0 - xi
                total = total + np.abs(diff)
                sign = sign * np.sign(diff)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = s * sign / total ** n
            return np.where(total > 0, out, 0.0)

        return kernel

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, fs):
        """Lambda(f_0, ..., f_n): a float, or one value per member of the
        broadcast batch of the inputs."""
        if len(fs) != self.n + 1:
            raise ValueError(f"form takes {self.n + 1} inputs, got {len(fs)}")
        if self._kernel is not None:
            return form_quadrature(self._kernel, self.root, fs, self.eps_trunc)["value"]
        if self.kind == "planted":
            return pairing(apply_paraproduct(self.planted, fs[1:]), fs[0])
        return _scalar(np.zeros(np.broadcast_shapes(
            *(f.samples.shape[:f.samples.ndim - self.root.d] for f in fs))))

    def evaluate_adjoint(self, j: int, fs):
        """j-th adjoint: exchange slot 0 with slot j."""
        if not (1 <= j <= self.n):
            raise ValueError(f"adjoint index {j} outside 1..{self.n}")
        swapped = list(fs)
        swapped[0], swapped[j] = swapped[j], swapped[0]
        return self.evaluate(swapped)


def wbp_check(spec: KernelSpec, dictionary: TestDictionary,
              sample_cubes) -> dict:
    """Max over sampled cubes and bump tuples of |Q|^n |Lambda(bumps)|.

    Slot s of tuple c holds bump member (c + s) mod 3; one evaluation per
    tuple covers every cube."""
    n_bumps = 3
    root = spec.root
    rows = [dictionary.bump_family(member).grid(sample_cubes) for member in range(n_bumps)]
    vals = np.stack([spec.evaluate([GridFunction(root, rows[(c + slot) % n_bumps])
                                    for slot in range(spec.n + 1)])
                     for c in range(n_bumps)], axis=1)
    consts = np.array([c.measure for c in sample_cubes]).reshape(-1, 1) ** spec.n * np.abs(vals)
    best = float(np.max(consts, initial=0.0))
    # the first cube that reaches the max, none when every value is zero
    return {"constant": best,
            "cube": sample_cubes[int(np.argmax(np.max(consts, axis=1)))] if best > 0 else None}


def _radial_bumps(root: RootBox, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Smooth cutoffs: identically 1 inside half the radius, C^inf decay to 0.

    ``centers`` is (m, d) and ``radii`` (m, r); the result is (m, r, *shape),
    one cutoff per center and radius.  The inner plateau makes cut-off
    pairings saturate exactly once the plateau covers the relevant support.
    """
    grids = np.meshgrid(*[root.midpoints_1d()] * root.d, indexing="ij")
    radii = radii.reshape(radii.shape + (1,) * root.d)
    r2 = np.zeros(radii.shape[:2] + root.shape)
    for gax, c in zip(grids, centers.T):
        r2 = r2 + ((gax - c.reshape((-1, 1) + (1,) * root.d)) / radii) ** 2
    r = np.sqrt(r2)
    t = np.clip(2.0 * r - 1.0, 0.0, 1.0)  # 0 on the plateau, 1 outside
    with np.errstate(divide="ignore", over="ignore"):
        b0 = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        b1 = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    return b0 / (b0 + b1)


def _monomial(root: RootBox, gamma_j) -> GridFunction:
    def fn(*grids):
        out = np.ones_like(grids[0])
        for gax, power in zip(grids, np.atleast_1d(gamma_j)):
            out = out * gax ** power
        return out
    return GridFunction.from_callable(root, fn)


# cutoff radii of the testing symbols, in units of truncation_scale * side
_CUT_RADII = np.array([1.0, 2.0, 4.0])
# cubes per stack of ``testing_symbols``: bounds its arrays, which hold one
# row per cube and input order or cutoff radius
_STACK = 64


@dataclass
class TestingSymbols:
    trees: dict = field(default_factory=dict)   # gamma tuple -> CoefficientTree
    star: dict = field(default_factory=dict)    # slot j -> CoefficientTree
    flagged: list = field(default_factory=list)


def input_orders(n: int, d: int, k: int):
    """Tuples gamma = (gamma_1, ..., gamma_n), gamma_j in N^d, |gamma| <= k."""
    singles = list(multi_indices_upto(d, k))
    for combo in itertools.product(singles, repeat=n):
        if sum(sum(g) for g in combo) <= k:
            yield combo


def testing_symbols(spec: KernelSpec, basis: AtomBasis, k: int,
                    truncation_scale: float = 8.0, cubes=None) -> TestingSymbols:
    """Paraproduct symbols of the form: pairings with wavelets against
    cut-off monomials, and adjoint pairings against stabilized cutoffs:
    a cube is flagged when its adjoint pairings at the two outer radii
    differ by more than 1e-6 of their size.

    The cubes go in stacks of at most ``_STACK``.  Each stack takes one
    evaluation for the gamma-trees, over the batch (cube x gamma), and one
    adjoint evaluation per slot, over the batch (cube x cutoff radius)."""
    root = basis.root
    out = TestingSymbols()
    radii = _CUT_RADII * truncation_scale
    if cubes is None:
        cubes = [c for c in root.all_cubes() if c.scale > root.J]
    gammas = list(input_orders(spec.n, root.d, k))
    for gamma in gammas:
        out.trees[gamma] = CoefficientTree(root)
    for j in range(1, spec.n + 1):
        out.star[j] = CoefficientTree(root)
    monomials = {g: _monomial(root, g).samples for g in multi_indices_upto(root.d, k)}
    wavelets = basis.atoms("wavelet")
    for lo in range(0, len(cubes), _STACK):
        part = cubes[lo:lo + _STACK]
        phi = GridFunction(root, wavelets.grid(part)[:, None])
        # nested cutoffs; the innermost truncates the monomials
        cuts = _radial_bumps(root, np.array([c.center() for c in part]),
                             radii * np.array([[c.side] for c in part]))
        inputs = {g: monomials[g] * cuts[:, 0] for g in monomials}
        tree_vals = spec.evaluate([phi] + [
            GridFunction(root, np.stack([inputs[gamma[j]] for gamma in gammas], axis=1))
            for j in range(spec.n)])
        cut_fs = [phi] + [GridFunction(root, cuts)] * spec.n
        star_vals = {j: spec.evaluate_adjoint(j, cut_fs) for j in out.star}
        for i, cube in enumerate(part):
            scale_k = cube.side ** k
            for gamma, val in zip(gammas, tree_vals[i]):
                out.trees[gamma][cube] = scale_k * val
            # adjoint symbols against nested cutoffs with stabilization check;
            # values below the weak-boundedness unit count as stabilized at zero
            floor = 1e-10 * cube.measure ** (-spec.n)
            for j, vals in star_vals.items():
                vals_by_radius = vals[i]
                v2, v4 = vals_by_radius[1], vals_by_radius[2]
                scale_ref = max(max(abs(v) for v in vals_by_radius), floor)
                if abs(v4 - v2) > 1e-6 * scale_ref:
                    out.flagged.append((j, cube))
                out.star[j][cube] = scale_k * v4
    return out


def testing_norm(symbols: TestingSymbols, k: int, p: float, q: float,
                 basis: AtomBasis, dictionary: TestDictionary) -> dict:
    """Four-part testing norm: low orders at exponent p, mid orders at q,
    top orders and adjoints at 1; parts combined additively."""
    if not (1 <= p <= q):
        raise ValueError("need 1 <= p <= q")
    root = basis.root
    d_over_p = 0 if np.isinf(p) else int(np.floor(root.d / p))
    parts = {"low": 0.0, "mid": 0.0, "top": 0.0, "star": 0.0}
    for gamma, tree in symbols.trees.items():
        order = sum(sum(g) for g in gamma)
        func = GridFunction(root, basis.synthesize(tree))
        if order < k - d_over_p:
            parts["low"] = max(parts["low"], tl_norm(
                func, NormSpec(0.0, float(order - k), p, 2.0), dictionary))
        if k - d_over_p <= order <= k - 1:
            parts["mid"] = max(parts["mid"], tl_norm(
                func, NormSpec(0.0, float(order - k), q, 2.0), dictionary))
        if order == k:
            parts["top"] = max(parts["top"], tl_norm(
                func, NormSpec(0.0, 0.0, 1.0, 2.0), dictionary))
    for j, tree in symbols.star.items():
        func = GridFunction(root, basis.synthesize(tree))
        parts["star"] = max(parts["star"], tl_norm(
            func, NormSpec(-float(k), 0.0, 1.0, 2.0), dictionary))
    parts["total"] = parts["low"] + parts["mid"] + parts["top"] + parts["star"]
    return parts


def sobolev_bound_bench(spec: KernelSpec, exponents, k: int, q: float,
                        basis: AtomBasis, dictionary: TestDictionary,
                        fs, symbols: TestingSymbols | None = None) -> dict:
    """Ratio of ||T(f)||_{W^{k,p}} against (1 + testing norm) times the
    Leibniz-type product of input Sobolev norms, over an input ensemble:
    ``fs`` holds one stack of members per input slot, and member i of the
    ensemble is ``[f[i] for f in fs]``.  T is the planted form's paraproduct."""
    if spec.kind != "planted":
        raise ValueError(f"the Sobolev bench applies planted forms, not {spec.kind!r} ones")
    p = exponents[0]
    ps = list(exponents[1:])
    if len(ps) != spec.n:
        raise ValueError("one exponent per input slot")
    hol = sum(0.0 if np.isinf(v) else 1.0 / v for v in ps)
    if not np.isinf(p) and abs(hol - 1.0 / p) > 1e-9:
        raise ValueError("exponents fail the Hoelder relation")
    if q <= p:
        raise ValueError("need q > p")
    if symbols is None:
        symbols = testing_symbols(spec, basis, k)
    tnorm = testing_norm(symbols, k, p, q, basis, dictionary)["total"]
    lhs = sobolev_norm(apply_paraproduct(spec.planted, fs), k, p)
    rhs = 0.0
    for beta in multi_indices(spec.n, k):
        prod = 1.0
        for f, bj, pj in zip(fs, beta, ps):
            prod *= sobolev_norm(f, bj, pj)
        rhs += prod
    rhs *= (1.0 + tnorm)
    kept = rhs > 1e-12
    ratios = lhs[kept] / rhs[kept]
    return {"max_ratio": float(np.max(ratios, initial=0.0)),
            "testing_norm": tnorm, "count": len(ratios)}
