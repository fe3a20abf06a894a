"""Slow references for the fast paths.

Most functions here work one cube (or one position) at a time, the way the
package did before its operators went through ``strided_pairings`` and its
transpose ``strided_spread``.  A family is given by its per-cube values,
``cube -> (slices, values)`` with ``(None, None)`` for an atom off the box.
Then come the Gram check and the testing bench with one full-box grid or
form per cube, with a cell-by-cell n = 2 kernel form and a kernel looked up
in a value table, for tests that want an arbitrary kernel; the per-scale maximal
function, the stopping-time construction that rebuilds every node on each
threshold doubling and the one-trial recursion that keeps each node's data
across doublings; the input generators that draw and sample one function
at a time, each plateau on its own meshgrid and each atom tree synthesized
alone; the planted form and the Sobolev bench one member at a time; the
per-trial suite loops, one symbol per paraproduct call; and a test
dictionary whose sampled tables are built for it alone, as before they were
shared per family.  The last section holds helpers that only the tests call.
"""

from __future__ import annotations

import csv
import functools
import itertools

import numpy as np
from scipy import ndimage

from dyadica import DyadicCube, paraproduct
from dyadica.czform import KernelSpec, TestingSymbols, _monomial, input_orders
from dyadica.dyadic import long_distance
from dyadica.funcspace import (GridFunction, block_reduce, expand_blocks, grad_norm,
                               local_average, multi_indices, multi_indices_upto, pairing,
                               sobolev_norm, taylor_poly)
from dyadica.sparse import SparseCollection, ThetaCapError
from dyadica.tlnorm import (TestDictionary, _bspline_profile, _bump_profile, _class_constant,
                            square_function)
from dyadica.wavelet import CoefficientTree, clipped_outer

# -- per-cube atom values ------------------------------------------------------


def canonical_values(basis, kind):
    return lambda cube: basis.atom_values(cube, kind)


def atom_pair(basis, samples, cube, kind="wavelet"):
    """L^1-normalized pairing atom_Q(f) by the grid quadrature."""
    slices, vals = basis.atom_values(cube, kind)
    if slices is None:
        return samples.dtype.type(0)
    return np.sum(samples[slices] * vals) * basis.root.cell_measure


def canonical_admissible(dictionary, cube) -> bool:
    """The canonical wavelet counts as a dictionary member only when the box
    does not clip its support (else it is not cancellative)."""
    root = dictionary.root
    if cube.scale <= root.J:
        return False
    m = 1 << (cube.scale - root.J)
    length = (2 * dictionary.family.N - 1) * (m - 1) + 1
    sh = dictionary.family.N - 1
    return all(0 <= (p - sh) * m and (p - sh) * m + length <= root.cells_per_side
               for p in cube.pos)


@functools.lru_cache(maxsize=None)
def _clip_corrected(dictionary, scale, idx, lo_cut, hi_cut):
    return dictionary._clip_correct(scale, idx, lo_cut, hi_cut)


def member_window(dictionary, cube, member):
    """Window slices and values of a cancellative member at a cube: the
    canonical discrete wavelet (member 0, where available), else a sampled
    member, clip-corrected on the first axis at boundary cubes, with
    normalized bump factors on the other axes."""
    root = dictionary.root
    if member == 0 and cube.scale > root.J:
        if not canonical_admissible(dictionary, cube):
            return None, None
        slices, vals = dictionary.basis.atom_values(cube, "wavelet")
        return slices, vals / dictionary.family.class_constant
    idx = member - (1 if cube.scale > root.J else 0)
    temps = dictionary._templates[cube.scale]
    if not (0 <= idx < len(temps)):
        raise IndexError(f"no dictionary member {member} at scale {cube.scale}")
    m = 1 << (cube.scale - root.J)
    half = (dictionary.family.w - 1) // 2
    n = root.cells_per_side
    starts = [(p - half) * m for p in cube.pos]
    template = temps[idx]
    width = len(template)
    lo_cut, hi_cut = max(-starts[0], 0), max(starts[0] + width - n, 0)
    if (lo_cut or hi_cut) and lo_cut + hi_cut < width:
        template = np.zeros(width)
        template[lo_cut:width - hi_cut] = _clip_corrected(
            dictionary, cube.scale, idx, lo_cut, hi_cut)
    bump = [dictionary._bump_template(0, cube.scale)] * (root.d - 1)
    return clipped_outer(starts, [template] + bump, n)


def member_values(dictionary, member):
    return lambda cube: member_window(dictionary, cube, member)


def intrinsic_coeff(f: GridFunction, cube, dictionary) -> float:
    """Max over dictionary atoms at the cube of |atom(f)|."""
    best = 0.0
    for member in range(n_members(dictionary, cube.scale)):
        slices, vals = member_window(dictionary, cube, member)
        if slices is not None:
            val = abs(np.sum(f.samples[slices] * vals) * f.root.cell_measure)
            best = max(best, float(val))
    return best


def bump_values(dictionary, member):
    return lambda cube: dictionary.bump_values(cube, member)


def unit_bump_values(dictionary, member):
    cell = dictionary.root.cell_measure

    def values(cube):
        slices, vals = dictionary.bump_values(cube, member)
        if slices is None:
            return None, None
        mass = float(np.sum(vals)) * cell
        if mass <= 0:
            return None, None
        return slices, vals / mass
    return values


# -- per-cube operators ----------------------------------------------------------


def pair(values, cube, f: GridFunction):
    slices, vals = values(cube)
    if slices is None:
        return 0.0
    return np.sum(f.samples[slices] * vals) * f.root.cell_measure


def zeta(chi, cube, fs):
    out = 1.0
    for f in fs:
        out *= pair(chi, cube, f)
    return out


def _add(out, values, cube, coeff):
    slices, vals = values(cube)
    if slices is not None:
        out[slices] += coeff * vals


def synthesize(basis, tree) -> np.ndarray:
    dtype = complex if any(np.iscomplexobj(a) for a in tree.data.values()) else float
    out = np.zeros(basis.root.shape, dtype=dtype)
    for cube, value in tree.items():
        _add(out, canonical_values(basis, "wavelet"), cube, cube.measure * value)
    return out


def apply_paraproduct(symbol, beta, chi, fs) -> np.ndarray:
    out = np.zeros(symbol.root.shape, dtype=complex)
    for cube, b in symbol.items():
        _add(out, beta, cube, cube.measure * b * zeta(chi, cube, fs))
    return out


def adjoint_apply(symbol, beta, chi, j, fs) -> np.ndarray:
    out = np.zeros(symbol.root.shape, dtype=complex)
    others = [f for i, f in enumerate(fs, start=1) if i != j]
    for cube, b in symbol.items():
        coeff = b * pair(beta, cube, fs[j - 1]) * zeta(chi, cube, others)
        _add(out, chi, cube, cube.measure * coeff)
    return out


def form_terms(phi, slots, cubes, f, fs) -> np.ndarray:
    """|Q| phi_Q(f) prod_j slot_j(f_j), one entry per cube."""
    terms = []
    for cube in cubes:
        term = cube.measure * pair(phi, cube, f)
        for slot, g in zip(slots, fs):
            term *= pair(slot, cube, g)
        terms.append(term)
    return np.array(terms)


# -- the d = 1 projections of the high-low identity ---------------------------------


def _positions_overlapping(basis, scale, kind):
    """1-d position range whose atom window meets the box (may leave it)."""
    t = scale - basis.root.J
    m = 1 << t
    length = (2 * basis.family.N - 1) * (m - 1) + 1  # of the atom after t refinements
    sh = basis._shift(t, kind)
    n = basis.root.cells_per_side
    return range(sh - (length + m - 1) // m, sh + (n + m - 1) // m + 1)


def _clipped_coeffs(basis, scale, k, kind):
    """Atom coefficients on box cells for one position above the root scale,
    refined top down with each level clipped to a margin around the box."""
    root, fam = basis.root, basis.family
    start = k - basis._shift(scale - root.J, kind)
    coeffs = np.array([1.0])
    level = scale
    while level > root.J:
        filt = fam.highpass if (kind == "wavelet" and level == scale) else fam.lowpass
        nxt_start = 2 * start
        nxt = np.zeros(2 * (len(coeffs) - 1) + len(filt))
        for i, fi in enumerate(filt):
            nxt[i:i + 2 * len(coeffs) - 1:2] += fi * coeffs
        level -= 1
        npos_level = 1 << max(root.depth - (level - root.J), 0)
        a = max(nxt_start, -2 * fam.N)
        b = min(nxt_start + len(nxt), npos_level + 2 * fam.N)
        if a >= b:
            return 0, np.zeros(0)
        coeffs = nxt[a - nxt_start:b - nxt_start]
        start = a
    return start, coeffs


def projection_1d(basis, samples, scale, kind) -> np.ndarray:
    """Sum of |Q| atom_Q(f) atom_Q over the positions whose atom meets the
    box: a full correlation below the root, clipped refinements above."""
    n = basis.root.cells_per_side
    out = np.zeros(n, dtype=samples.dtype)
    t = scale - basis.root.J
    if t <= basis.root.depth:
        vals = basis._template(t, kind)
        corr = np.correlate(samples, vals, mode="full")
        m = 1 << t
        sh = basis._shift(t, kind)
        for k in _positions_overlapping(basis, scale, kind):
            o = (k - sh) * m
            c = corr[len(vals) - 1 + o] if 0 <= len(vals) - 1 + o < len(corr) else 0.0
            a, b = max(o, 0), min(o + len(vals), n)
            if a < b:
                out[a:b] += c * vals[a - o:b - o]
        return out
    for k in _positions_overlapping(basis, scale, kind):
        start, coeffs = _clipped_coeffs(basis, scale, k, kind)
        a, b = max(start, 0), min(start + len(coeffs), n)
        if a < b:
            window = coeffs[a - start:b - start]
            out[a:b] += np.sum(samples[a:b] * window) * window
    return out


# -- the Gram check and the testing bench, one cube at a time ----------------------


def gram_matrix(basis, cubes) -> np.ndarray:
    """Gram matrix of sqrt|Q| phi_Q from one full-box grid per cube."""
    vecs = np.stack([np.sqrt(c.measure) * basis.atom_grid(c).ravel() for c in cubes])
    return (vecs @ vecs.T) * basis.root.cell_measure


def wbp_check(spec, dictionary, sample_cubes) -> dict:
    """Max over cubes and bump tuples of |Q|^n |Lambda(bumps)|, one full-box
    form per (cube, tuple)."""
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


def radial_bump(root, center, radius: float) -> GridFunction:
    """One smooth cutoff: 1 inside half the radius, C^inf decay to 0."""
    def fn(*grids):
        r2 = np.zeros_like(grids[0])
        for gax, c in zip(grids, np.atleast_1d(center)):
            r2 = r2 + ((gax - c) / radius) ** 2
        r = np.sqrt(r2)
        t = np.clip(2.0 * r - 1.0, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            b0 = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
            b1 = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        return b0 / (b0 + b1)
    return GridFunction.from_callable(root, fn)


def testing_symbols(spec, basis, k, truncation_scale=8.0, cubes=None):
    """Testing symbols with six (for n = 1) full-box forms per cube."""
    root = basis.root
    A = truncation_scale
    out = TestingSymbols()
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
        cuts = [radial_bump(root, cube.center(), mult * A * cube.side)
                for mult in (1.0, 2.0, 4.0)]
        for gamma in gammas:
            fs = [phi] + [GridFunction(root, monomials[g] * cuts[0].samples)
                          for g in gamma]
            out.trees[gamma][cube] = scale_k * spec.evaluate(fs)
        floor = 1e-10 * cube.measure ** (-spec.n)
        for j in range(1, spec.n + 1):
            vals_by_radius = []
            for cut in cuts:
                fs = [phi] + [cut.copy() for _ in range(spec.n)]
                vals_by_radius.append(spec.evaluate_adjoint(j, fs))
            v2, v4 = vals_by_radius[1], vals_by_radius[2]
            scale_ref = max(max(abs(v) for v in vals_by_radius), floor)
            if abs(v4 - v2) > 1e-6 * scale_ref:
                out.flagged.append((j, cube))
            out.star[j][cube] = scale_k * v4
    return out


def trilinear_form(kernel, root, fs, eps_trunc) -> dict:
    """An n = 2 kernel form, d = 1, one cell triple at a time: the sum of
    K f0 f1 f2 over the triples farther than ``eps_trunc`` from the diagonal
    (max metric) and of |K f0 f1 f2| over the other off-diagonal triples."""
    x = root.midpoints_1d()
    K = kernel(*np.meshgrid(x, x, x, indexing="ij"))
    f0, f1, f2 = (f.samples for f in fs)
    value = excluded = 0.0
    for a, b, c in itertools.product(range(len(x)), repeat=3):
        dist = max(abs(x[a] - x[b]), abs(x[a] - x[c]))
        term = K[a, b, c] * f0[a] * f1[b] * f2[c]
        if dist > eps_trunc:
            value += term
        elif dist > 0:
            excluded += abs(term)
    cell = root.cell_width ** 3
    return {"value": value * cell, "excluded_mass": excluded * cell}


def table_kernel(root, table):
    """A d = 1 kernel callable that looks K(x0, ..., xn) up in ``table``,
    indexed by the cells of the midpoints, one table axis per slot."""
    h = root.cell_width
    last = root.cells_per_side - 1

    def kernel(*xs):
        return table[tuple(np.clip((np.asarray(x) / h - 0.5).astype(int), 0, last)
                           for x in xs)]

    return kernel


def table_spec(root, table, eps_trunc: float) -> KernelSpec:
    """A registered form whose kernel is ``table_kernel``: a convolution
    spec with its kernel callable exchanged before first use."""
    spec = KernelSpec(root, n=table.ndim - 1, kind="convolution", eps_trunc=eps_trunc)
    spec._kernel = table_kernel(root, table)
    return spec


# -- maximal function and stopping rules ---------------------------------------


def scale_averages(f: GridFunction, scale: int, p: float) -> np.ndarray:
    """Array over scale-``scale`` positions of <f>_{p,Q} (canonical layout)."""
    factor = 1 << (scale - f.root.J)
    a = np.abs(f.samples)
    if np.isinf(p):
        return block_reduce(a, factor, np.max)
    return block_reduce(a ** p, factor) ** (1.0 / p)


def maximal(fs, ps=None) -> GridFunction:
    """Max over scales of the product of block p-means, each expanded to the
    full box."""
    if isinstance(fs, GridFunction):
        fs = [fs]
    root = fs[0].root
    if ps is None:
        ps = [1.0] * len(fs)
    best = np.full(root.shape, -np.inf)
    for scale in range(root.J, root.L + 1):
        factor = 1 << (scale - root.J)
        prod = np.ones([root.cells_per_side // factor] * root.d)
        for f, p in zip(fs, ps):
            prod = prod * scale_averages(f, scale, p)
        best = np.maximum(best, expand_blocks(prod, factor))
    return GridFunction(root, best)


def _select_maximal(root, q0, predicate):
    selected = []
    covered = None
    for scale in range(q0.scale, root.J - 1, -1):
        shift = q0.scale - scale
        pred = predicate(scale)
        if covered is None:
            covered = np.zeros_like(pred, dtype=bool)
        cand = pred & ~covered
        if np.any(cand):
            base = [p << shift for p in q0.pos]
            for rel in np.argwhere(cand):
                pos = tuple(int(b + r) for b, r in zip(base, rel))
                selected.append(DyadicCube(scale, pos))
        covered = covered | cand
        if scale > root.J:
            for ax in range(root.d):
                covered = np.repeat(covered, 2, axis=ax)
    return selected


def _position_slices(q0, scale):
    shift = q0.scale - scale
    return tuple(slice(p << shift, (p + 1) << shift) for p in q0.pos)


def _masked_max(f, q0, w):
    masked = GridFunction.zeros(f.root)
    wslices = f.root.window_slices(q0, w)
    masked.samples[wslices] = f.samples[wslices]
    return maximal(masked).samples


def stopping_children(q0, b, g, fs, dictionary, theta, coeff_b=None, coeff_g=None):
    """Block minima over the whole box of the anchored square functions and
    masked maximal functions, compared with theta times their q0 means."""
    root = b.root
    w = dictionary.family.w
    sb = square_function(b, q0, 0.0, 2.0, dictionary, coeff_b).samples
    sg = square_function(g, q0, 0.0, 2.0, dictionary, coeff_g).samples
    thr_b = theta * float(np.mean(sb[root.window_slices(q0)]))
    thr_g = theta * float(np.mean(sg[root.window_slices(q0)]))
    masked_max = [_masked_max(f, q0, w) for f in fs]
    thresholds = [theta * local_average(f, q0, 1.0, w) for f in fs]

    def predicate(scale):
        factor = 1 << (scale - root.J)
        sl = _position_slices(q0, scale)
        pred = block_reduce(sb, factor, np.min)[sl] > thr_b
        pred |= block_reduce(sg, factor, np.min)[sl] > thr_g
        for mm, thr in zip(masked_max, thresholds):
            pred |= block_reduce(mm, factor, np.min)[sl] > thr
        return pred

    return _select_maximal(root, q0, predicate)


def gradient_stopping_children(q0, f1, n, w, theta):
    """Minimum filter over the whole box of the block minima of the masked
    maximal gradient, compared with theta times its wQ mean."""
    root = f1.root
    gn = grad_norm(f1, n)
    mm = _masked_max(gn, q0, w)
    thr = theta * local_average(gn, q0, 1.0, w)

    def predicate(scale):
        block = block_reduce(mm, 1 << (scale - root.J), np.min)
        dil = ndimage.minimum_filter(block, size=w, mode="constant", cval=-np.inf)
        return dil[_position_slices(q0, scale)] > thr

    return _select_maximal(root, q0, predicate)


def _stopped_square_max(q0, coeffs, root, selected) -> float:
    sl_cells = root.window_slices(q0)
    acc = np.zeros([s.stop - s.start for s in sl_cells])
    blocked = None
    for scale in range(q0.scale, root.J - 1, -1):
        shift = q0.scale - scale
        npos_shape = [1 << shift] * root.d
        if blocked is None:
            blocked = np.zeros(npos_shape, dtype=bool)
        sel_here = np.zeros(npos_shape, dtype=bool)
        base = [p << shift for p in q0.pos]
        for cube in selected:
            if cube.scale == scale:
                sel_here[tuple(c - b for c, b in zip(cube.pos, base))] = True
        blocked = blocked | sel_here
        vals = coeffs[scale][_position_slices(q0, scale)].copy()
        vals[blocked] = 0.0
        expanded = vals ** 2
        for ax in range(root.d):
            expanded = np.repeat(expanded, 1 << (scale - root.J), axis=ax)
        acc = acc + expanded
        if scale > root.J:
            for ax in range(root.d):
                blocked = np.repeat(blocked, 2, axis=ax)
    return float(np.sqrt(np.max(acc)))


def build_sparse(q0, inputs, cfg, dictionary) -> SparseCollection:
    """Threshold doubling where every attempt rebuilds every node from
    scratch and checks the stopped square function of every parent."""
    root = dictionary.root
    theta = cfg.theta
    coeff_b = coeff_g = None
    if cfg.mode == "intest":
        coeff_b = dictionary.coeff_arrays(inputs["b"])
        coeff_g = dictionary.coeff_arrays(inputs["g"])
    while True:
        coll = SparseCollection(root_cube=q0, theta=theta)
        frontier = [q0]
        ok = True
        while frontier:
            nxt = []
            for node in frontier:
                if cfg.mode == "intest":
                    kids = stopping_children(node, inputs["b"], inputs["g"],
                                             inputs.get("fs", []), dictionary,
                                             theta, coeff_b, coeff_g)
                else:
                    kids = gradient_stopping_children(node, inputs["f1"], inputs["n"],
                                                      dictionary.family.w, theta)
                ratio = sum(c.measure for c in kids) / node.measure
                coll.packing_by_parent[node] = ratio
                if ratio > cfg.packing_target:
                    ok = False
                    break
                if cfg.mode == "intest" and kids:
                    smax = _stopped_square_max(node, coeff_b, root, kids)
                    bound = theta * float(np.mean(
                        square_function(inputs["b"], node, 0.0, 2.0, dictionary,
                                        coeff_b).samples[root.window_slices(node)]))
                    coll.stopped_square_checks.append((smax, bound))
                nxt.extend(kids)
            if not ok:
                break
            if nxt:
                coll.generations.append(nxt)
            frontier = nxt
        if ok:
            return coll
        theta *= 2.0
        if theta > cfg.theta_cap:
            raise ThetaCapError("threshold exceeded its cap")


def select_one(stops, root, q0, theta):
    """One member's maximal-cube scan over an unbatched ``NodeStops``:
    scale-descending, lexicographic, descendants of selected cubes masked."""
    thr = (theta * stops.bases).reshape((-1,) + (1,) * root.d)
    selected, covered = [], None
    for scale in range(q0.scale, root.J - 1, -1):
        shift = q0.scale - scale
        cand = np.any(stops.levels[scale - root.J] > thr, axis=0)
        if covered is not None:
            cand &= ~covered
        for rel in np.argwhere(cand):
            selected.append(DyadicCube(scale, tuple(int((p << shift) + r)
                                                    for p, r in zip(q0.pos, rel))))
        covered = cand if covered is None else covered | cand
        if scale > root.J:
            covered = expand_blocks(covered, 2)
    return selected


def build_sparse_trial(q0, inputs, cfg, dictionary) -> SparseCollection:
    """One trial's recursion with each node's stopping data built once and
    kept across doublings, node by node: the construction the batched
    build replaced.  Records the bases of every node it checked."""
    from dyadica.sparse import _stopped_square_max, gradient_stops, intest_stops
    root = dictionary.root
    theta = cfg.theta
    if cfg.mode == "intest":
        b, g, fs = inputs["b"], inputs["g"], inputs.get("fs", [])
        coeff_b, coeff_g = dictionary.coeff_arrays(b), dictionary.coeff_arrays(g)

        def stops(node):
            return intest_stops(node, b, g, fs, dictionary, coeff_b, coeff_g)
    else:
        gn = grad_norm(inputs["f1"], inputs["n"])

        def stops(node):
            return gradient_stops(node, gn, dictionary.family.w)
    by_node = {}
    while True:
        coll = SparseCollection(root_cube=q0, theta=theta)
        parents, frontier, ok = [], [q0], True
        while frontier:
            nxt = []
            for node in frontier:
                if node not in by_node:
                    by_node[node] = stops(node)
                kids = select_one(by_node[node], root, node, theta)
                ratio = sum(c.measure for c in kids) / node.measure
                coll.packing_by_parent[node] = ratio
                if ratio > cfg.packing_target:
                    ok = False
                    break
                if kids:
                    parents.append((node, kids))
                nxt.extend(kids)
            if not ok:
                break
            if nxt:
                coll.generations.append(nxt)
            frontier = nxt
        if ok:
            coll.bases = {node: by_node[node].bases for node in coll.packing_by_parent}
            if cfg.mode == "intest":
                coll.stopped_square_checks = [
                    (_stopped_square_max(node, coeff_b, root, kids),
                     float(theta * by_node[node].bases[0]))
                    for node, kids in parents]
            return coll
        theta *= 2.0
        if theta > cfg.theta_cap:
            raise ThetaCapError("threshold exceeded its cap")


# -- input draws, one function at a time -------------------------------------------


def atom_tree(rng, basis, scales=None, count: int = 6, amplitude: float = 1.0):
    """Random coefficients on random interior cubes across the given scales."""
    from dyadica.ensembles import default_atom_scales, interior_positions
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


def atom_function(rng, basis, scales=None, count: int = 6) -> GridFunction:
    return GridFunction(basis.root, basis.synthesize(atom_tree(rng, basis, scales, count)))


def plateau_function(rng, root, terms: int = 2) -> GridFunction:
    """Sum of smooth compactly supported plateaus, each on its own meshgrid."""
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


def wave_function(rng, root) -> GridFunction:
    """Windowed oscillation."""
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


def mixed_function(rng, basis, kind=None) -> GridFunction:
    kind = int(rng.integers(0, 3)) if kind is None else kind % 3
    if kind == 0:
        return atom_function(rng, basis)
    if kind == 1:
        return plateau_function(rng, basis.root)
    return wave_function(rng, basis.root)


def random_interior_function(rng, basis) -> GridFunction:
    return atom_function(rng, basis) + plateau_function(rng, basis.root, terms=1)


def probe_member(ws, seed_key, member: int, scales, atom_source) -> dict:
    """One theorem-probe member drawn on its own: symbol tree, its function,
    paraproduct spec and two inputs."""
    from dyadica.paraproduct import ParaproductSpec
    rng = np.random.default_rng(seed_key + [member])
    tree = atom_tree(rng, ws.basis, scales=scales, count=6)
    spec = ParaproductSpec(ws.basis, tree, arity=2, beta=atom_source.member_family(1),
                           chi=atom_source.bump_family(0, unit=True))
    fs = [atom_function(rng, ws.basis, scales=scales, count=6) if (member + j) % 3 == 0
          else mixed_function(rng, ws.basis, kind=member + j) for j in range(2)]
    return {"tree": tree, "bfunc": GridFunction(ws.root, ws.basis.synthesize(tree)),
            "spec": spec, "fs": fs}


# -- the paraproduct layer for one symbol, a scale at a time -----------------------


def _symbol_scales(symbol):
    """(scale, |Q|, coefficients) of the scales with a nonzero coefficient,
    in the order the tree holds them."""
    d = symbol.root.d
    return [(scale, 2.0 ** (scale * d), arr) for scale, arr in symbol.data.items()
            if arr.any()]


def _zero_output(spec, fs) -> np.ndarray:
    root = spec.basis.root
    return np.zeros(np.broadcast_shapes(root.shape, *(f.samples.shape for f in fs)),
                    dtype=np.result_type(float, *spec.symbol.data.values(),
                                         *(f.samples for f in fs)))


def scale_loop_apply(spec, fs) -> np.ndarray:
    """``apply_paraproduct`` of a one-tree spec, each scale added in turn."""
    out = _zero_output(spec, fs)
    for scale, measure, b in _symbol_scales(spec.symbol):
        out += spec.beta.spread(measure * b * spec.zeta(scale, fs), scale)
    return out


def scale_loop_adjoint(spec, j: int, fs) -> np.ndarray:
    """``adjoint_apply`` of a one-tree spec, each scale added in turn."""
    out = _zero_output(spec, fs)
    others = [f for i, f in enumerate(fs, start=1) if i != j]
    for scale, measure, b in _symbol_scales(spec.symbol):
        coeff = measure * b * spec.beta.pair(fs[j - 1].samples, scale)
        out += spec.chi.spread(coeff * spec.zeta(scale, others), scale)
    return out


def scale_loop_form(form, f: GridFunction, fs):
    """``form_eval`` of a one-tree support, each scale's sum over its
    nonzero cubes added in turn."""
    d = form.basis.root.d
    total = np.zeros(np.broadcast_shapes(*(g.samples.shape for g in [f, *fs]))[:-d])[()]
    for scale, measure, arr in _symbol_scales(form.support):
        index = (...,) + np.nonzero(arr)
        term = form.phi.pair(f.samples, scale)[index]
        for slot, g in zip(form.slots, fs):
            term = term * slot.pair(g.samples, scale)[index]
        total = total + measure * np.sum(np.ascontiguousarray(term), axis=-1)
    return total


# -- the planted form and the Sobolev bench, one member at a time ------------------


def planted_evaluate(spec: KernelSpec, fs) -> np.ndarray:
    """``KernelSpec.evaluate`` of a planted form: one paraproduct and one
    pairing per member of the broadcast batch, an array over the batch."""
    root = spec.root
    batch = np.broadcast_shapes(*(f.samples.shape[:f.samples.ndim - root.d] for f in fs))
    f0, *rest = (GridFunction(root, np.broadcast_to(f.samples, batch + root.shape))
                 for f in fs)
    return np.reshape([pairing(paraproduct.apply_paraproduct(spec.planted,
                                                             [f[i] for f in rest]), f0[i])
                       for i in np.ndindex(batch)], batch)


def sobolev_bench(spec: KernelSpec, exponents, k: int, tnorm: float, inputs_list) -> dict:
    """The ratios of ``sobolev_bound_bench`` at testing norm ``tnorm``, one
    input tuple at a time."""
    p, *ps = exponents
    ratios = []
    for fs in inputs_list:
        out = paraproduct.apply_paraproduct(spec.planted, list(fs))
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
    return {"max_ratio": max(ratios) if ratios else 0.0, "count": len(ratios)}


# -- per-trial domination check and suite loops ---------------------------------


def verify_domination_intest(q0, cfg, dictionary, exponents, b, g, fs):
    """One trial of the intest domination check, every piece from scratch:
    the rebuilding ``build_sparse`` above, two square functions per cube of
    the collection, the Hoelder bound from its own coefficient arrays."""
    from dyadica.paraproduct import intrinsic_form
    from dyadica.tlnorm import NormSpec, tl_norm
    p, q, *ps = exponents
    root = dictionary.root
    w = dictionary.family.w
    coeff_b = dictionary.coeff_arrays(b)
    coeff_g = dictionary.coeff_arrays(g)
    lhs = intrinsic_form(q0, b, [g] + list(fs), dictionary, coeff_b, coeff_g)
    coll = build_sparse(q0, {"b": b, "g": g, "fs": list(fs)}, cfg, dictionary)
    rhs = 0.0
    for cube in coll.cubes():
        sl = root.window_slices(cube)
        term = cube.measure
        term *= float(np.mean(square_function(b, cube, 0.0, 2.0, dictionary,
                                              coeff_b).samples[sl]))
        term *= float(np.mean(square_function(g, cube, 0.0, 2.0, dictionary,
                                              coeff_g).samples[sl]))
        for f in fs:
            term *= local_average(f, cube, 1.0)
        rhs += term
    holder = q0.measure * tl_norm(b, NormSpec(0.0, 0.0, p, 2.0), dictionary, coeff_b) \
        * local_average(g, q0, q, w)
    for f, pj in zip(fs, ps):
        holder *= local_average(f, q0, pj, w)
    return {"lhs": lhs, "rhs": rhs, "rhs_holder": holder,
            "ratio": lhs / rhs if rhs > 0 else np.inf,
            "theta": coll.theta, "collection": coll}


def run_theorem_probe(cfg):
    """The probe's detail rows with every member's norms computed one member
    at a time, each on first use."""
    from dyadica.config import ExperimentConfig
    from dyadica.ensembles import default_atom_scales
    from dyadica.funcspace import sobolev_norm
    from dyadica.paraproduct import adjoint_apply, apply_paraproduct
    from dyadica.suites import _variant_norm, probe_variants, workspace
    from dyadica.tlnorm import TestDictionary, tl_norms
    sweep = cfg.probe_j_sweep
    ws0 = workspace(cfg.d, cfg.L, max(sweep), cfg.probe_order, cfg.dictionary_size,
                    cfg.refine)
    scales = [s for s in default_atom_scales(ws0.basis) if s >= max(sweep) + 2]
    variants = [(label, split, exps, norm)
                for label, kappa, split, exps, adjoint in probe_variants(cfg)
                if (norm := _variant_norm(cfg, kappa, split, exps, adjoint))]
    norm_specs = list(dict.fromkeys(norm[0] for *_, norm in variants))
    rows = []
    for J in sweep:
        ws = workspace(cfg.d, cfg.L, J, cfg.probe_order, cfg.dictionary_size, cfg.refine)
        atom_source = TestDictionary(ws.basis, size=2, min_cells=2)
        mems = [probe_member(ws, [cfg.seed, 9], i, scales, atom_source)
                for i in range(cfg.probe_members)]
        for mem in mems:
            mem["tl"] = dict(zip(norm_specs, map(float, tl_norms(
                mem["bfunc"], norm_specs, ws.dictionary))))
            mem["norms"] = {}

        def wnorm(mem, which, kappa, r):
            key = (which, kappa, r)
            if key not in mem["norms"]:
                if which == "out":
                    f = apply_paraproduct(mem["spec"], mem["fs"])
                elif isinstance(which, tuple):
                    f = adjoint_apply(mem["spec"], which[1], mem["fs"])
                else:
                    f = mem["fs"][which]
                mem["norms"][key] = sobolev_norm(f, kappa, r, ws.basis)
            return mem["norms"][key]

        for label, split, exps, (norm_spec, which, target) in variants:
            r = ExperimentConfig.holder_r(exps)
            ratios, skipped = [], 0
            for mem in mems:
                rhs = mem["tl"][norm_spec]
                for nj, (idx, p) in zip(split, enumerate(exps)):
                    rhs *= wnorm(mem, idx, nj, p)
                if rhs < 1e-12:
                    skipped += 1
                    continue
                ratios.append(wnorm(mem, which, target, r) / rhs)
            if ratios:
                rows.append([label, J, max(ratios), float(np.median(ratios)),
                             len(ratios), skipped])
    return rows


def paraproduct_suite_values(cfg):
    """The paraproduct suite's values with every trial drawn and checked in
    turn, one symbol per call: the worst duality gap, and per sweep level
    the worst Lebesgue ratio and the worst maximal-domination constant.
    A Lebesgue trial whose symbol has no BMO mass draws no inputs here, so
    the last value, the number of such trials, must be 0 for the suite
    (which draws every trial's inputs) to agree."""
    from dyadica.funcspace import lp_norm, maximal
    from dyadica.paraproduct import (ParaproductSpec, apply_paraproduct, duality_form,
                                     form_eval)
    from dyadica.suites import workspace
    from dyadica.tlnorm import bmo_norm
    ws = workspace(cfg.d, cfg.L, cfg.J, cfg.wavelet_order, cfg.dictionary_size, cfg.refine)
    rng = np.random.default_rng([cfg.seed, 3])
    worst = 0.0
    for i in range(50):
        m = 1 + i % 3
        tree = atom_tree(rng, ws.basis, count=8)
        fs = [mixed_function(rng, ws.basis, kind=i + j) for j in range(m)]
        g = mixed_function(rng, ws.basis, kind=i + m)
        spec = ParaproductSpec(ws.basis, tree, arity=m)
        out = apply_paraproduct(spec, fs)
        lhs = pairing(out, g)
        rhs = form_eval(duality_form(spec), GridFunction(ws.root, ws.basis.synthesize(tree)),
                        [g] + fs)
        pair_mass = float(np.sum(np.abs(out.samples * g.samples)) * ws.root.cell_measure)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), pair_mass, 1e-300))
    max_ratio_by_j, dom_const_by_j, degenerate = [], [], 0
    for J in cfg.sparse_j_sweep:
        wsj = workspace(cfg.d, cfg.L, J - 1, cfg.wavelet_order, cfg.dictionary_size,
                        cfg.refine)
        rngj = np.random.default_rng([cfg.seed, 4])
        ratios, dom = [], []
        for i in range(30):
            tree = atom_tree(rngj, wsj.basis, count=8)
            bfunc = GridFunction(wsj.root, wsj.basis.synthesize(tree))
            nb = bmo_norm(bfunc, wsj.dictionary)
            if nb < 1e-12:
                degenerate += 1
                continue
            tree = tree.scaled(1.0 / nb)
            bfunc = GridFunction(wsj.root, bfunc.samples / nb)
            spec = ParaproductSpec(wsj.basis, tree, arity=2)
            fs = [mixed_function(rngj, wsj.basis, kind=i + j) for j in range(2)]
            out = apply_paraproduct(spec, fs)
            rhs = np.prod([lp_norm(f, 4.0) for f in fs])
            if rhs > 1e-12:
                ratios.append(lp_norm(out, 2.0) / rhs)
            g = mixed_function(rngj, wsj.basis, kind=i + 2)
            lam = abs(form_eval(duality_form(spec), bfunc, [g] + fs))
            bound = min(bmo_norm(bfunc, wsj.dictionary) * lp_norm(maximal([g] + fs), 1.0),
                        lp_norm(maximal([bfunc, g] + fs), 1.0))
            if bound > 1e-12:
                dom.append(lam / bound)
        max_ratio_by_j.append(max(ratios))
        dom_const_by_j.append(max(dom))
    return worst, max_ratio_by_j, dom_const_by_j, degenerate


def sparse_suite_values(cfg):
    """The sparse suite's criterion values with every trial drawn and
    checked in turn: worst packing ratios and thetas of both modes, the
    stopped-square flag, the worst domination ratio per sweep level, and
    the packing loop's collections of each mode in trial order."""
    from dyadica.sparse import StoppingConfig
    from dyadica.suites import workspace
    ws = workspace(cfg.d, cfg.L, cfg.J, cfg.wavelet_order, cfg.dictionary_size, cfg.refine)
    rng = np.random.default_rng([cfg.seed, 5])
    q0 = ws.root.root_cube
    cfg_i = StoppingConfig(theta=cfg.sparse_theta, packing_target=cfg.packing_intest,
                           theta_cap=cfg.sparse_theta_cap, mode="intest")
    cfg_m = StoppingConfig(theta=cfg.sparse_theta, packing_target=cfg.packing_mainiter,
                           theta_cap=cfg.sparse_theta_cap, mode="mainiter")
    worst = {"intest": 0.0, "mainiter": 0.0}
    theta = {"intest": 0.0, "mainiter": 0.0}
    stopped_ok = True
    built = {"intest": [], "mainiter": []}
    for i in range(100):
        b, g, f2 = (mixed_function(rng, ws.basis, kind=i + k) for k in range(3))
        coll = build_sparse_trial(q0, {"b": b, "g": g, "fs": [f2]}, cfg_i, ws.dictionary)
        built["intest"].append(coll)
        worst["intest"] = max(worst["intest"], max(coll.packing_by_parent.values(), default=0.0))
        theta["intest"] = max(theta["intest"], coll.theta)
        stopped_ok &= all(s <= bnd + 1e-9 for s, bnd in coll.stopped_square_checks)
        f1 = plateau_function(rng, ws.root) + wave_function(rng, ws.root)
        coll = build_sparse_trial(q0, {"f1": f1, "n": 1}, cfg_m, ws.dictionary)
        built["mainiter"].append(coll)
        worst["mainiter"] = max(worst["mainiter"], max(coll.packing_by_parent.values(),
                                                       default=0.0))
        theta["mainiter"] = max(theta["mainiter"], coll.theta)
    per_j = []
    for J in cfg.sparse_j_sweep:
        wsj = workspace(cfg.d, cfg.L, J, cfg.wavelet_order, cfg.dictionary_size, cfg.refine)
        rngj = np.random.default_rng([cfg.seed, 6])
        ratio = 0.0
        for i in range(cfg.sparse_trials):
            b, g, f2 = (mixed_function(rngj, wsj.basis, kind=i + k) for k in range(3))
            rep = verify_domination_intest(wsj.root.root_cube, cfg_i, wsj.dictionary,
                                           cfg.sparse_exponents, b, g, [f2])
            if rep["rhs"] > 1e-12:
                ratio = max(ratio, rep["ratio"])
        per_j.append(ratio)
    return worst, theta, stopped_ok, per_j, built


# -- dictionary tables built for one dictionary alone ------------------------------


def _moment_correct(u, vals, k):
    if len(u) <= k + 1:
        return np.zeros_like(vals)
    V = np.vander(u, k + 1, increasing=True)
    Q, _ = np.linalg.qr(V)
    return vals - Q @ (Q.T @ vals)


class PerDictionaryTables(TestDictionary):
    """A ``TestDictionary`` that builds its recipes, reference constants,
    sampled templates and bumps from scratch for itself, sharing nothing
    with other dictionaries; every other method is the package's."""

    def __init__(self, basis, size=8, min_cells=4):
        if size < 1:
            raise ValueError("dictionary needs at least one member")
        self.basis = basis
        self.root = basis.root
        self.family = basis.family
        self.size = size
        self.min_cells = min_cells
        k = self.family.k
        w = float(self.family.w)
        rho = float(k + 1)
        degree = k + 3
        recipes = []
        shapes = [(1.0, 0.0), (0.72, 0.1), (0.5, -0.15), (0.36, 0.2),
                  (0.62, -0.05), (0.85, 0.05), (0.45, 0.12), (0.3, -0.08),
                  (0.55, 0.18), (0.78, -0.12)]
        for width_frac, off_frac in shapes[:max(size - 1, 0)]:
            width = w * width_frac
            offset = off_frac * (w - width) / 2.0
            recipes.append(_bspline_profile(degree, k + 1, width, offset))
        self._rho = rho
        u_ref = (np.arange(4096) + 0.5) / 4096 * w - w / 2.0
        self._ref_constants = [
            max(_class_constant(u_ref, prof(u_ref), rho), 1e-300)
            for prof in recipes]
        self._templates = {}
        self._bump_cache = {}
        self._operators = {}
        self._families = {}
        for scale in range(self.root.J, self.root.L + 1):
            rows = [t for t in (self._own_template(prof, cref, scale)
                                for prof, cref in zip(recipes, self._ref_constants))
                    if t is not None]
            width = self.family.w << (scale - self.root.J)
            self._templates[scale] = np.array(rows).reshape(len(rows), width)
        self._bump_recipes = [_bump_profile(degree, w * f, o * w)
                              for f, o in [(0.9, 0.0), (0.6, 0.1), (0.45, -0.12)]]
        self._bump_constants = [
            max(_class_constant(u_ref, prof(u_ref), rho), 1e-300)
            for prof in self._bump_recipes]

    def _own_offsets(self, scale):
        m = 1 << (scale - self.root.J)
        half = (self.family.w - 1) // 2
        idx = np.arange(self.family.w * m) - half * m
        return (idx + 0.5) / m - 0.5

    def _own_template(self, profile, ref_constant, scale):
        if (1 << (scale - self.root.J)) < self.min_cells:
            return None
        u = self._own_offsets(scale)
        vals = _moment_correct(u, profile(u), self.family.k)
        if np.max(np.abs(vals), initial=0.0) < 1e-14:
            return None
        return vals / ref_constant / 2.0 ** scale

    def _bump_template(self, member, scale):
        idx = member % len(self._bump_recipes)
        cached = self._bump_cache.get((idx, scale))
        if cached is None:
            vals = self._bump_recipes[idx](self._own_offsets(scale))
            cached = self._bump_cache[idx, scale] = vals / self._bump_constants[idx] / 2.0 ** scale
            cached.flags.writeable = False
        return cached


# -- helpers only the tests call ---------------------------------------------------


def generation_ratios(coll: SparseCollection) -> list:
    """Per-generation mass of a sparse collection relative to its root cube."""
    return [sum(c.measure for c in gen) / coll.root_cube.measure
            for gen in coll.generations]


def total_measure(coll: SparseCollection) -> float:
    return sum(c.measure for c in coll.cubes())


def neighbor_taylor_gap(f: GridFunction, p_cube, q_cube, r_cube, k: int, basis) -> dict:
    """Two-cube Taylor difference paired against a noncancellative atom,
    compared with side(Q) * longdist(Q,R)^{k-1} * <|grad^k f|>_{1,wQ}."""
    w = basis.family.w
    gap = taylor_poly(f, p_cube, k, dilation=w) - taylor_poly(f, q_cube, k, dilation=w)
    chi = basis.atom_grid(r_cube, "scaling")
    lhs = abs(np.sum(chi * gap.samples) * f.root.cell_measure)
    gk = grad_norm(f, k)
    rhs = q_cube.side * long_distance(q_cube, r_cube) ** (k - 1) \
        * local_average(gk, q_cube, 1.0, dilation=w)
    return {"lhs": float(lhs), "rhs": float(rhs)}


def contains(a: DyadicCube, b: DyadicCube) -> bool:
    """True iff cube ``b`` lies in cube ``a``."""
    shift = a.scale - b.scale
    return shift >= 0 and all((q >> shift) == p for p, q in zip(a.pos, b.pos))


def descendants(root, cube: DyadicCube, include_self: bool = True):
    """Admissible subcubes of ``cube``, canonical order."""
    for scale in range(cube.scale, root.J - 1, -1):
        if include_self or scale != cube.scale:
            shift = cube.scale - scale
            ranges = [range(p << shift, (p + 1) << shift) for p in cube.pos]
            for pos in itertools.product(*ranges):
                yield DyadicCube(scale, pos)


def cube_of_cell(root, cell, scale: int) -> DyadicCube:
    """The scale-``scale`` cube holding the grid cell ``cell``."""
    shift = scale - root.J
    return DyadicCube(scale, tuple(c >> shift for c in cell))


def n_members(dictionary, scale: int) -> int:
    """Dictionary members at a scale: the sampled ones, plus the canonical
    wavelet where one refinement level is available."""
    return len(dictionary._templates[scale]) + (1 if scale > dictionary.root.J else 0)


def ones_tree(root, cubes) -> CoefficientTree:
    """The tree that is 1 on ``cubes`` and 0 elsewhere."""
    tree = CoefficientTree(root)
    for cube in cubes:
        tree[cube] = 1.0
    return tree


def n_nonzero(tree: CoefficientTree) -> int:
    return int(sum(np.count_nonzero(a) for a in tree.data.values()))


def table_moment(family, alpha: int, kind: str = "psi") -> float:
    """Riemann-sum moment of a tabulated profile (the quadrature oracle)."""
    vals = family.psi_table if kind == "psi" else family.phi_table
    dx = family.xgrid[1] - family.xgrid[0]
    return float(np.sum(family.xgrid ** alpha * vals) * dx)


def table_values(family, pts, kind: str = "psi"):
    """Linear interpolation of a point-value table (zero outside)."""
    vals = family.psi_table if kind == "psi" else family.phi_table
    return np.interp(pts, family.xgrid, vals, left=0.0, right=0.0)


def form_mass(form, f: GridFunction, fs) -> float:
    """Triangle-inequality majorant of ``form_eval``: the sum over the
    form's cubes of |Q| |phi_Q(f)| prod_j |slot_j(f_j)|."""
    d = form.basis.root.d
    total = 0.0
    for scale, arr in form.support.data.items():
        index = np.nonzero(arr)
        term = np.abs(form.phi.pair(f.samples, scale)[index])
        for slot, g in zip(form.slots, fs):
            term = term * np.abs(slot.pair(g.samples, scale)[index])
        total += 2.0 ** (scale * d) * np.sum(term)
    return total


def save_symbol_csv(path, tree: CoefficientTree) -> None:
    """The symbol CSV that ``dyadica paraproduct --symbol`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cube", "re", "im"])
        for cube, val in tree.items():
            writer.writerow([cube.token(), repr(float(np.real(val))),
                             repr(float(np.imag(val)))])
