"""Singular-integral form ingestion: kernel quadrature, weak boundedness,
testing symbols built from pairings with wavelets and truncated monomials,
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

from .dyadic import DyadicCube, RootBox
from .funcspace import (GridFunction, lp_norm, multi_indices, multi_indices_upto,
                        pairing, sobolev_norm)
from .paraproduct import ParaproductSpec, apply_paraproduct
from .tlnorm import NormSpec, TestDictionary, tl_norm
from .wavelet import AtomBasis, CoefficientTree


class SingularConfigurationError(ValueError):
    """Kernel quadrature refused: supports meet and no truncation is set."""


def _common_support_nonempty(fs) -> bool:
    mask = np.abs(fs[0].samples) > 0
    for f in fs[1:]:
        mask = mask & (np.abs(f.samples) > 0)
    return bool(np.any(mask))


@functools.lru_cache(maxsize=4)
def _kernel_matrix(kernel, root: RootBox, eps_trunc: float):
    """Bilinear kernel on the midpoint grid, d = 1: the matrix with cells
    within ``eps_trunc`` of the diagonal zeroed, and the (rows, cols, kernel
    values) of those excluded off-diagonal cells.  Cached on the kernel
    callable, so a kernel must not change after its first use."""
    x = root.midpoints_1d()
    xx0, xx1 = np.meshgrid(x, x, indexing="ij")
    keep = np.abs(xx0 - xx1) > eps_trunc
    K = np.where(keep, kernel(xx0, xx1), 0.0)
    near = ~keep & (np.abs(xx0 - xx1) > 0)
    rows, cols = np.nonzero(near)
    near_vals = np.array(kernel(xx0[near], xx1[near]))
    for arr in (K, rows, cols, near_vals):
        arr.flags.writeable = False
    return K, rows, cols, near_vals


def form_quadrature(kernel, root: RootBox, fs, eps_trunc: float) -> dict:
    """Tensor-grid quadrature of an (n+1)-linear kernel form, d = 1.

    Cells within ``eps_trunc`` of the diagonal (in the max metric on the
    center tuple) are excluded; the report carries the value and an estimate
    of the excluded mass.  ``eps_trunc == 0`` demands empty common support.
    """
    if root.d != 1:
        raise NotImplementedError("kernel quadrature is implemented for d = 1")
    n = len(fs) - 1
    if eps_trunc <= 0.0 and _common_support_nonempty(fs):
        raise SingularConfigurationError(
            "inputs share support and the kernel carries no truncation radius")
    h = root.cell_width
    if n == 1:
        K, rows, cols, near_vals = _kernel_matrix(kernel, root, eps_trunc)
        value = float(fs[0].samples @ K @ fs[1].samples) * h ** 2
        excluded = float(np.sum(np.abs(near_vals * fs[0].samples[rows]
                                       * fs[1].samples[cols]))) * h ** 2 \
            if len(rows) else 0.0
        return {"value": value, "excluded_mass": excluded}
    if n == 2:
        value = 0.0
        excluded = 0.0
        x = root.midpoints_1d()
        xx1, xx2 = np.meshgrid(x, x, indexing="ij")
        for a, x0 in enumerate(x):
            w0 = fs[0].samples[a]
            if w0 == 0.0:
                continue
            dist = np.maximum(np.abs(x0 - xx1), np.abs(x0 - xx2))
            keep = dist > eps_trunc
            K = np.where(keep, kernel(x0, xx1, xx2), 0.0)
            value += w0 * float(fs[1].samples @ K @ fs[2].samples)
            near = ~keep & (dist > 0)
            if np.any(near):
                excluded += abs(w0) * float(np.sum(np.abs(
                    kernel(x0, xx1[near], xx2[near])
                    * fs[1].samples[np.nonzero(near)[0]]
                    * fs[2].samples[np.nonzero(near)[1]])))
        return {"value": value * h ** 3, "excluded_mass": excluded * h ** 3}
    raise NotImplementedError(f"kernel arity n = {n} not supported")


@dataclass
class KernelSpec:
    """A registered (n+1)-linear form: closed-form kernel, tabulated grid
    kernel, a planted paraproduct form, or zero.

    The kernel callable is built once, at construction, and its n = 1 matrix
    is cached on that callable, so a spec must not be mutated afterwards."""

    root: RootBox
    n: int
    kind: str
    eps_trunc: float = 0.0
    strength: float = 1.0
    smoothness: tuple = (1, 0.5)
    planted: ParaproductSpec | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        kinds = ("zero", "planted", "convolution", "tabulated")
        if self.kind not in kinds:
            raise ValueError(f"kernel kind must be one of {kinds}")
        if self.kind == "planted":
            if self.planted is None:
                raise ValueError("planted kernels wrap a paraproduct spec")
            self.n = self.planted.arity
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("tabulated kernels need a value table")
        self._kernel = (self._convolution_kernel() if self.kind == "convolution"
                        else self._tabulated_kernel() if self.kind == "tabulated"
                        else None)

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

    def _tabulated_kernel(self):
        x = self.root.midpoints_1d()
        h = self.root.cell_width

        def kernel(x0, *xs):
            idx0 = np.clip((np.asarray(x0) / h - 0.5).astype(int), 0, len(x) - 1)
            idxs = [np.clip((np.asarray(xi) / h - 0.5).astype(int), 0, len(x) - 1)
                    for xi in xs]
            return self.table[(idx0, *idxs)]

        return kernel

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, fs) -> float:
        """Lambda(f_0, ..., f_n)."""
        if len(fs) != self.n + 1:
            raise ValueError(f"form takes {self.n + 1} inputs, got {len(fs)}")
        if self.kind == "zero":
            return 0.0
        if self.kind == "planted":
            return pairing(apply_paraproduct(self.planted, list(fs[1:])), fs[0])
        return form_quadrature(self._kernel, self.root, fs, self.eps_trunc)["value"]

    def evaluate_adjoint(self, j: int, fs) -> float:
        """j-th adjoint: exchange slot 0 with slot j."""
        if not (1 <= j <= self.n):
            raise ValueError(f"adjoint index {j} outside 1..{self.n}")
        swapped = list(fs)
        swapped[0], swapped[j] = swapped[j], swapped[0]
        return self.evaluate(swapped)

    def apply_slot0(self, fs) -> GridFunction:
        """The function T(f_1,...,f_n) with <T(f), g> = Lambda(g, f)."""
        if self.kind == "zero":
            return GridFunction.zeros(self.root)
        if self.kind == "planted":
            return apply_paraproduct(self.planted, list(fs))
        if self.root.d != 1:
            raise NotImplementedError("kernel application is d = 1")
        x = self.root.midpoints_1d()
        h = self.root.cell_width
        if self.n == 1:
            K = _kernel_matrix(self._kernel, self.root, self.eps_trunc)[0]
            return GridFunction(self.root, (K @ fs[0].samples) * h)
        if self.n == 2:
            out = np.zeros_like(x)
            xx1, xx2 = np.meshgrid(x, x, indexing="ij")
            for a, x0 in enumerate(x):
                dist = np.maximum(np.abs(x0 - xx1), np.abs(x0 - xx2))
                K = np.where(dist > self.eps_trunc, self._kernel(x0, xx1, xx2), 0.0)
                out[a] = fs[0].samples @ K @ fs[1].samples
            return GridFunction(self.root, out * h ** 2)
        raise NotImplementedError(f"kernel arity n = {self.n} not supported")


def wbp_check(spec: KernelSpec, dictionary: TestDictionary,
              sample_cubes) -> dict:
    """Max over sampled cubes and bump tuples of |Q|^n |Lambda(bumps)|."""
    best = 0.0
    worst_cube = None
    n_bumps = 3
    for cube in sample_cubes:
        for combo in range(n_bumps):
            fs = []
            ok = True
            for slot in range(spec.n + 1):
                slices, vals = dictionary.bump_values(cube, (combo + slot) % n_bumps)
                if slices is None:
                    ok = False
                    break
                g = GridFunction.zeros(spec.root)
                g.samples[slices] = vals
                fs.append(g)
            if not ok:
                continue
            val = cube.measure ** spec.n * abs(spec.evaluate(fs))
            if val > best:
                best, worst_cube = val, cube
    return {"constant": best, "cube": worst_cube}


def _radial_bump(root: RootBox, center, radius: float) -> GridFunction:
    """Smooth cutoff: identically 1 inside half the radius, C^inf decay to 0.

    The inner plateau makes truncated pairings saturate exactly once the
    plateau covers the relevant support.
    """
    def fn(*grids):
        r2 = np.zeros_like(grids[0])
        for gax, c in zip(grids, np.atleast_1d(center)):
            r2 = r2 + ((gax - c) / radius) ** 2
        r = np.sqrt(r2)
        t = np.clip(2.0 * r - 1.0, 0.0, 1.0)  # 0 on the plateau, 1 outside
        with np.errstate(divide="ignore", over="ignore"):
            b0 = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
            b1 = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        return b0 / (b0 + b1)
    return GridFunction.from_callable(root, fn)


def _monomial(root: RootBox, gamma_j) -> GridFunction:
    def fn(*grids):
        out = np.ones_like(grids[0])
        for gax, power in zip(grids, np.atleast_1d(gamma_j)):
            out = out * gax ** power
        return out
    return GridFunction.from_callable(root, fn)


@dataclass
class TestingSymbols:
    order: int
    trees: dict = field(default_factory=dict)   # gamma tuple -> CoefficientTree
    star: dict = field(default_factory=dict)    # slot j -> CoefficientTree
    flagged: list = field(default_factory=list)
    truncation_scale: float = 8.0


def input_orders(n: int, d: int, k: int):
    """Tuples gamma = (gamma_1, ..., gamma_n), gamma_j in N^d, |gamma| <= k."""
    singles = list(multi_indices_upto(d, k))
    for combo in itertools.product(singles, repeat=n):
        if sum(sum(g) for g in combo) <= k:
            yield combo


def testing_symbols(spec: KernelSpec, basis: AtomBasis, k: int,
                    truncation_scale: float = 8.0,
                    stabilization_tol: float = 1e-6,
                    cubes=None) -> TestingSymbols:
    """Paraproduct symbols of the form: pairings with wavelets against
    truncated monomials, and adjoint pairings against stabilized cutoffs."""
    root = basis.root
    A = truncation_scale
    out = TestingSymbols(order=k, truncation_scale=A)
    if cubes is None:
        cubes = [c for c in root.all_cubes() if c.scale > root.J]
    gammas = list(input_orders(spec.n, root.d, k))
    for gamma in gammas:
        out.trees[gamma] = CoefficientTree(root)
    for j in range(1, spec.n + 1):
        out.star[j] = CoefficientTree(root)
    monomials = {g: _monomial(root, g).samples for g in multi_indices_upto(root.d, k)}
    for cube in cubes:
        slices, vals = basis.atom_values(cube, "wavelet")
        if slices is None:
            continue
        phi = GridFunction.zeros(root)
        phi.samples[slices] = vals
        scale_k = cube.side ** k
        center = cube.center()
        # nested cutoffs; the innermost truncates the monomials
        cuts = [_radial_bump(root, center, mult * A * cube.side)
                for mult in (1.0, 2.0, 4.0)]
        for gamma in gammas:
            fs = [phi] + [GridFunction(root, monomials[g] * cuts[0].samples)
                          for g in gamma]
            out.trees[gamma][cube] = scale_k * spec.evaluate(fs)
        # adjoint symbols against nested cutoffs with stabilization check;
        # values below the weak-boundedness unit count as stabilized at zero
        floor = 1e-10 * cube.measure ** (-spec.n)
        for j in range(1, spec.n + 1):
            vals_by_radius = []
            for cut in cuts:
                fs = [phi] + [cut.copy() for _ in range(spec.n)]
                vals_by_radius.append(spec.evaluate_adjoint(j, fs))
            v2, v4 = vals_by_radius[1], vals_by_radius[2]
            scale_ref = max(max(abs(v) for v in vals_by_radius), floor)
            if abs(v4 - v2) > stabilization_tol * scale_ref:
                out.flagged.append((j, cube))
            out.star[j][cube] = scale_k * v4
    return out


def testing_norm(symbols: TestingSymbols, k: int, p: float, q: float,
                 basis: AtomBasis, dictionary: TestDictionary) -> dict:
    """Four-part testing norm: low orders at exponent p, mid orders at q,
    top orders and adjoints at 1; parts combined additively."""
    if not (1 <= p <= q or np.isinf(q)):
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
                        inputs_list, symbols: TestingSymbols | None = None) -> dict:
    """Ratio of ||T(f)||_{W^{k,p}} against (1 + testing norm) times the
    Leibniz-type product of input Sobolev norms, over an input ensemble."""
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
    ratios = []
    for fs in inputs_list:
        out = spec.apply_slot0(list(fs))
        lhs = sobolev_norm(out, k, p)
        rhs = 0.0
        for beta in multi_indices(spec.n, k):
            prod = 1.0
            for f, bj, pj in zip(fs, beta, ps):
                prod *= sobolev_norm(f, bj, pj)
            rhs += prod
        rhs *= (1.0 + tnorm)
        if rhs > 1e-12:
            ratios.append(lhs / rhs)
    return {"max_ratio": max(ratios) if ratios else 0.0,
            "testing_norm": tnorm, "count": len(ratios)}
