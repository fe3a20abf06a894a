"""Multilinear paraproducts, their adjoints, wavelet forms, and the
localized/intrinsic forms they are dominated by.

A paraproduct pairs a symbol tree with a cancellative output atom per cube
and a tensor of unit-integral averaging atoms per input slot; the associated
(m+2)-linear wavelet form then satisfies the duality identity exactly under
the shared grid quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube
from .funcspace import GridFunction, box_axes, dilated_scale_averages
from .tlnorm import TestDictionary
from .wavelet import AtomBasis, AtomFamily, CoefficientTree, add_scales, stack_trees


class ArityError(ValueError):
    """Number of input functions does not match the spec arity."""


@dataclass
class ParaproductSpec:
    """Symbol plus atom families: output atoms beta_Q (cancellative) and the
    tensor averaging form zeta_Q(f_1,...,f_m) = prod_j chi_Q(f_j) with
    unit-integral chi_Q.  The symbol is one tree, or a batch of trees (a
    list), one per member of the batch it is applied to."""

    basis: AtomBasis
    symbol: CoefficientTree | list
    arity: int
    beta: AtomFamily = None
    chi: AtomFamily = None

    def __post_init__(self):
        if self.arity < 1:
            raise ArityError("paraproduct arity must be >= 1")
        if self.beta is None:
            self.beta = self.basis.atoms("wavelet")
        if self.chi is None:
            self.chi = self.basis.atoms("scaling")

    def zeta(self, scale: int, fs) -> np.ndarray:
        """zeta_Q(f) at every position of ``scale``."""
        out = 1.0
        for f in fs:
            out = out * self.chi.pair(f.samples, scale)
        return out


def _output(spec: ParaproductSpec, fs, coeffs, batch) -> GridFunction:
    """Zero output over the broadcast batch of the inputs and the symbols,
    whose dtype holds the symbol coefficients ``coeffs`` and the inputs."""
    if len(fs) != spec.arity:
        raise ArityError(f"expected {spec.arity} inputs, got {len(fs)}")
    root = spec.basis.root
    return GridFunction(root, np.zeros(
        np.broadcast_shapes(batch + root.shape, *(f.samples.shape for f in fs)),
        dtype=np.result_type(float, *coeffs.values(), *(f.samples for f in fs))))


def apply_paraproduct(spec: ParaproductSpec, fs) -> GridFunction:
    """Sum over the symbol support of |Q| b_Q zeta_Q(f) beta_Q: per scale,
    Pi_b f = S^T(|Q| b zeta(f)) with one spread of beta.  Leading batch axes
    of the inputs broadcast, so an identity batch gives the operator matrix;
    a batch of symbols gives member i the paraproduct of symbol i."""
    coeffs, groups, batch = stack_trees(spec.symbol)
    out = _output(spec, fs, coeffs, batch)
    d = spec.basis.root.d
    add_scales(out.samples, groups, lambda s: spec.beta.spread(
        2.0 ** (s * d) * coeffs[s] * spec.zeta(s, fs), s))
    return out


def adjoint_apply(spec: ParaproductSpec, j: int, fs) -> GridFunction:
    """j-th adjoint: slot j pairs with the cancellative atom and the output
    rides on the averaging atom."""
    if not (1 <= j <= spec.arity):
        raise ValueError(f"slot index {j} outside 1..{spec.arity}")
    coeffs, groups, batch = stack_trees(spec.symbol)
    out = _output(spec, fs, coeffs, batch)
    d = spec.basis.root.d
    others = [f for i, f in enumerate(fs, start=1) if i != j]

    def term(s):
        coeff = 2.0 ** (s * d) * coeffs[s] * spec.beta.pair(fs[j - 1].samples, s)
        return spec.chi.spread(coeff * spec.zeta(s, others), s)

    add_scales(out.samples, groups, term)
    return out


@dataclass
class WaveletFormSpec:
    """(m+1)-linear wavelet form over the nonzero cubes of ``support`` (a
    tree, or a batch of trees, one per member): cancellative first slot
    against phi_Q, the rest against per-slot atoms."""

    basis: AtomBasis
    arity: int  # number of trailing slots m; the form is (m+1)-linear
    support: CoefficientTree | list
    slots: list  # one atom family per trailing slot
    phi: AtomFamily = None

    def __post_init__(self):
        if self.phi is None:
            self.phi = self.basis.atoms("wavelet")
        if len(self.slots) != self.arity:
            raise ArityError("one atom family per trailing slot")


def duality_form(spec: ParaproductSpec) -> WaveletFormSpec:
    """The (m+2)-linear form with phi_Q canonical and psi_Q = beta_Q x zeta_Q,
    realizing <Pi_b(f), g> = V(b, g, f) for the symbol's function avatar."""
    return WaveletFormSpec(
        basis=spec.basis, arity=spec.arity + 1,
        slots=[spec.beta] + [spec.chi] * spec.arity, support=spec.symbol)


def _support_sums(prod: np.ndarray, support: np.ndarray, d: int) -> np.ndarray:
    """Each member's sum of ``prod`` over the nonzero positions of its
    support, as the 1-D sum of a single call.  For a batch of supports, the
    members with as many positions are the rows of one contiguous array: a
    sum over a shared mask would group numpy's pairwise sums differently."""
    if support.ndim == d:  # one support for every member
        return np.sum(np.ascontiguousarray(prod[(...,) + np.nonzero(support)]), axis=-1)
    mask = (support != 0).reshape(len(support), -1)
    prod = np.broadcast_to(prod, support.shape).reshape(mask.shape)
    counts = np.count_nonzero(mask, axis=1)
    sums = np.zeros(len(mask), prod.dtype)
    for k in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == k)
        sums[rows] = np.sum(prod[rows][mask[rows]].reshape(len(rows), k), axis=-1)
    return sums


def form_eval(form: WaveletFormSpec, f: GridFunction, fs):
    """Sum over cubes of |Q| phi_Q(f) prod_j slot_j(f_j), a scale at a time:
    a float, or one value per member of the broadcast batch of the inputs
    (and of the supports, for a batch of them)."""
    if len(fs) != form.arity:
        raise ArityError(f"expected {form.arity} trailing inputs, got {len(fs)}")
    root = form.basis.root
    d = root.d
    support, groups, batch = stack_trees(form.support)
    inputs = [g.samples for g in [f, *fs]]

    def term(s):
        prod = form.phi.pair(f.samples, s)
        for slot, g in zip(form.slots, fs):
            prod = prod * slot.pair(g.samples, s)
        return 2.0 ** (s * d) * _support_sums(prod, support[s], d)

    total = np.zeros(np.broadcast_shapes(batch + root.shape, *(x.shape for x in inputs))[:-d],
                     dtype=np.result_type(float, *inputs))
    return add_scales(total, groups, term)[()]


def intrinsic_form(q0: DyadicCube, f: GridFunction, fs,
                   dictionary: TestDictionary,
                   coeff_f=None, coeff_f1=None):
    """Intrinsic majorant of localized forms: sum over subcubes of
    |Q| Psi_Q(f) Psi_Q(f_1) prod_{j>=2} <f_j>_{1,wQ}; a float, or an array
    over the batch."""
    root = f.root
    w = dictionary.family.w
    if coeff_f is None:
        coeff_f = dictionary.coeff_arrays(f)
    if coeff_f1 is None:
        coeff_f1 = dictionary.coeff_arrays(fs[0])
    total = 0.0
    for scale in range(root.J, q0.scale + 1):
        pos_slices = (...,) + q0.block(scale)
        prod = coeff_f[scale][pos_slices] * coeff_f1[scale][pos_slices]
        for f_j in fs[1:]:
            prod = prod * dilated_scale_averages(f_j, scale, 1.0, w)[pos_slices]
        total = total + np.sum(prod, axis=box_axes(root.d)) * 2.0 ** (scale * root.d)
    return float(total) if np.ndim(total) == 0 else total


def localized_form(symbol: CoefficientTree, q0: DyadicCube, g: GridFunction,
                   fs, spec: ParaproductSpec):
    """V_Q: the paraproduct form restricted to subcubes of Q; a float, or one
    value per member of the broadcast batch of the inputs."""
    d = symbol.root.d
    total = np.zeros(np.broadcast_shapes(*(f.samples.shape for f in [g, *fs]))[:-d])[()]
    for scale, arr in symbol.data.items():
        if scale > q0.scale:
            continue
        block = (...,) + q0.block(scale)
        b = arr[block]
        if b.any():
            term = b * spec.beta.pair(g.samples, scale)[block] * spec.zeta(scale, fs)[block]
            total = total + 2.0 ** (scale * d) * np.sum(term, axis=box_axes(d))
    return total
