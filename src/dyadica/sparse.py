"""Stopping-time builders for sparse cube collections and the executable
sparse-domination checks they support.

Selection is deterministic: scale-descending, lexicographic position scan,
a cube selected only when no selected ancestor exists.  The threshold is
doubled globally until every parent meets the configured packing ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .dyadic import DyadicCube, RootBox
from .funcspace import (GridFunction, block_reduce, box_axes, dilated_scale_averages,
                        expand_blocks, grad_norm, local_average, maximal,
                        taylor_poly)
from .paraproduct import ParaproductSpec, intrinsic_form, localized_form
from .tlnorm import NormSpec, TestDictionary, square_function, tl_norm


class ThetaCapError(RuntimeError):
    """Threshold doubling exceeded its cap without meeting the packing target."""


@dataclass
class StoppingConfig:
    theta: float = 16.0
    packing_target: float = 0.25
    theta_cap: float = 2.0 ** 20
    mode: str = "intest"

    def __post_init__(self):
        if self.theta <= 1.0:
            raise ValueError("threshold must exceed 1")
        if not (0.0 < self.packing_target < 1.0):
            raise ValueError("packing target must lie in (0, 1)")
        if self.mode not in ("intest", "mainiter"):
            raise ValueError(f"unknown stopping mode {self.mode!r}")
        if self.theta_cap < self.theta:
            raise ValueError(f"theta_cap {self.theta_cap} is below theta {self.theta}")


@dataclass
class SparseCollection:
    root_cube: DyadicCube
    generations: list = field(default_factory=list)
    packing_by_parent: dict = field(default_factory=dict)
    theta: float = 0.0
    stopped_square_checks: list = field(default_factory=list)
    # NodeStops.bases of every node the accepted attempt checked, in order;
    # that is every cube of the collection
    bases: dict = field(default_factory=dict)

    def cubes(self):
        out = [self.root_cube]
        for gen in self.generations:
            out.extend(gen)
        return out


@dataclass
class NodeStops:
    """The theta-free part of a node's stopping rules: rule i fires on a cube
    at ``scale`` when ``levels[scale - J][i]`` at its position exceeds
    ``theta * bases[i]``.  Built for a batch, both carry the batch axes
    first, and ``stops[i]`` is member i's."""

    bases: np.ndarray
    levels: list

    def __getitem__(self, index) -> "NodeStops":
        return NodeStops(self.bases[index], [lv[index] for lv in self.levels])

    @classmethod
    def stack(cls, rows) -> "NodeStops":
        """The batch whose member i is ``rows[i]``."""
        return cls(np.stack([r.bases for r in rows]),
                   [np.stack(lvs) for lvs in zip(*(r.levels for r in rows))])

    def select(self, root: RootBox, q0: DyadicCube, theta) -> list:
        """Maximal subcubes of q0 on which some rule fires: scale-descending,
        lexicographic scan; descendants of selected cubes are masked out.
        Over a batch, ``theta`` holds one threshold per member and the
        result is one list per member."""
        if self.bases.ndim == 1:
            return self[None].select(root, q0, [theta])[0]
        thr = np.asarray(theta, dtype=float)[:, None] * self.bases
        thr = thr.reshape(thr.shape + (1,) * root.d)
        selected, covered = [[] for _ in thr], np.zeros_like(thr[:, 0], dtype=bool)
        for scale in range(q0.scale, root.J - 1, -1):
            shift = q0.scale - scale
            cand = np.any(self.levels[scale - root.J] > thr, axis=1) & ~covered
            for i, *rel in np.argwhere(cand):
                pos = tuple(int((p << shift) + r) for p, r in zip(q0.pos, rel))
                selected[i].append(DyadicCube(scale, pos))
            if scale > root.J:
                covered = expand_blocks(covered | cand, 2, root.d)
        return selected


def _masked_maximal(f: GridFunction, q0: DyadicCube, w: int) -> np.ndarray:
    """Maximal function of f restricted to the w-dilate of q0 (zero elsewhere)."""
    masked = GridFunction(f.root, np.zeros(f.samples.shape))
    wslices = (...,) + f.root.window_slices(q0, w)
    masked.samples[wslices] = f.samples[wslices]
    return maximal(masked).samples


def intest_stops(q0: DyadicCube, b: GridFunction, g: GridFunction, fs,
                 dictionary: TestDictionary, coeff_b=None, coeff_g=None) -> NodeStops:
    """Anchored square functions of b and g against their means over q0, and
    masked maximal functions of each later slot against <f>_{1,wQ}; for
    batched inputs, one NodeStops whose rows are the members'."""
    root = b.root
    w = dictionary.family.w
    sl = (...,) + root.window_slices(q0)
    sb = square_function(b, q0, 0.0, 2.0, dictionary, coeff_b).samples[sl]
    sg = square_function(g, q0, 0.0, 2.0, dictionary, coeff_g).samples[sl]
    arrays = [sb, sg] + [_masked_maximal(f, q0, w)[sl] for f in fs]
    axes = box_axes(root.d)
    bases = [np.mean(sb, axis=axes), np.mean(sg, axis=axes)] \
        + [local_average(f, q0, 1.0, w) for f in fs]
    nb = sb.ndim - root.d
    return NodeStops(np.moveaxis(np.array(bases, dtype=float), 0, -1),
                     [np.stack([block_reduce(a, 1 << t, np.min, root.d) for a in arrays],
                               axis=nb)
                      for t in range(q0.scale - root.J + 1)])


def gradient_stops(q0: DyadicCube, gn: GridFunction, w: int) -> NodeStops:
    """Minimum over the w-dilate of each cube (off the box counts as -inf)
    of the masked maximal function of ``gn`` = |grad^n f1|, against
    <gn>_{1,wQ}; for a batched ``gn``, one NodeStops whose rows are the
    members'.  Block minima over the w-dilate of q0 hold every block the
    dilates of its subcubes read."""
    root = gn.root
    wslices = root.window_slices(q0, w)
    mm = _masked_maximal(gn, q0, w)[(...,) + wslices]
    size = (1,) * (mm.ndim - root.d) + (w,) * root.d
    r = w // 2
    levels = []
    for t in range(q0.scale - root.J + 1):
        # q0's positions relative to the window, and r more each side
        step = 1 << (q0.scale - root.J - t)
        own = [p * step - (s.start >> t) for p, s in zip(q0.pos, wslices)]
        ext = tuple(slice(max(a - r, 0), a + step + r) for a in own)
        cells = (...,) + tuple(slice(e.start << t, e.stop << t) for e in ext)
        dil = ndimage.minimum_filter(block_reduce(mm[cells], 1 << t, np.min, root.d),
                                     size=size, mode="constant", cval=-np.inf)
        inner = tuple(slice(a - e.start, a - e.start + step) for a, e in zip(own, ext))
        levels.append(np.expand_dims(dil[(...,) + inner], -root.d - 1))
    return NodeStops(np.asarray(local_average(gn, q0, 1.0, w))[..., None], levels)


def _stopped_square_max(q0: DyadicCube, coeffs, root: RootBox,
                        selected) -> float:
    """Max over q0 of the square function re-summed over non-stopped cubes."""
    acc = 0.0
    blocked = np.zeros((1,) * root.d, dtype=bool)
    for scale in range(q0.scale, root.J - 1, -1):
        base = [p << (q0.scale - scale) for p in q0.pos]
        for cube in selected:
            if cube.scale == scale:
                blocked[tuple(c - b for c, b in zip(cube.pos, base))] = True
        vals = np.where(blocked, 0.0, coeffs[scale][q0.block(scale)])
        acc = acc + expand_blocks(vals ** 2, 1 << (scale - root.J))
        if scale > root.J:
            blocked = expand_blocks(blocked, 2)
    return float(np.sqrt(np.max(acc)))


def _member_attempts(q0: DyadicCube, cfg: StoppingConfig, member: int):
    """One member's threshold doubling: yields (theta, frontier), is sent the
    selections by (node, member), returns the collection or None at the cap.
    A node that selects itself has packing 1, so accepted generations are
    strictly finer and every attempt ends."""
    theta = cfg.theta
    while theta <= cfg.theta_cap:
        coll = SparseCollection(root_cube=q0, theta=theta)
        frontier, ok = [q0], True
        while frontier and ok:
            kids_of = yield theta, frontier
            nxt = []
            for node in frontier:
                kids = kids_of[node, member]
                ratio = sum(c.measure for c in kids) / node.measure
                coll.packing_by_parent[node] = ratio
                if ratio > cfg.packing_target:
                    ok = False
                    break
                nxt.extend(kids)
            if ok and nxt:
                coll.generations.append(nxt)
            frontier = nxt
        if ok:
            return coll
        theta *= 2.0
    return None


def build_sparse_batch(q0: DyadicCube, inputs: dict, cfg: StoppingConfig,
                       dictionary: TestDictionary,
                       coeff_b=None, coeff_g=None) -> list[SparseCollection]:
    """Stopping-time collections of a batch in lockstep, each member's the
    one it gets alone.  ``inputs`` carry one batch axis: b, g, fs (and maybe
    their ``coeff_b``/``coeff_g``) in mode 'intest'; f1, n and optionally
    gn = ``grad_norm(f1, n)`` in 'mainiter'.  Each round, every member still
    building advances a generation or restarts with theta doubled; a node's
    stopping data is built once, over the members that reach it, and one
    scan per node selects for them, each at its own theta.  Raises
    ThetaCapError naming the first member whose theta passes the cap."""
    root = dictionary.root
    if cfg.mode == "intest":
        b, g, fs = inputs["b"], inputs["g"], list(inputs.get("fs", []))
        coeff_b = dictionary.coeff_arrays(b) if coeff_b is None else coeff_b
        coeff_g = dictionary.coeff_arrays(g) if coeff_g is None else coeff_g

        def stops(node, idx):
            return intest_stops(node, b[idx], g[idx], [f[idx] for f in fs], dictionary,
                                {s: a[idx] for s, a in coeff_b.items()},
                                {s: a[idx] for s, a in coeff_g.items()})
    else:
        gn = inputs["gn"] if "gn" in inputs else grad_norm(inputs["f1"], inputs["n"])

        def stops(node, idx):
            return gradient_stops(node, gn[idx], dictionary.family.w)
    size = len((b if cfg.mode == "intest" else gn).samples)
    runs = [_member_attempts(q0, cfg, i) for i in range(size)]
    asks = {i: next(run) for i, run in enumerate(runs)}  # member -> (theta, frontier)
    # by (node, member): its NodeStops row, its selection at the latest theta
    rows, sent, done = {}, {}, {}
    while asks:
        at = {}
        for i, (_, frontier) in asks.items():
            for node in frontier:
                at.setdefault(node, []).append(i)
        for node, idx in at.items():
            missing = [i for i in idx if (node, i) not in rows]
            take = missing if len(missing) < size else slice(None)  # a view, no copy
            new = stops(node, take) if missing else None
            rows.update(((node, i), new[j]) for j, i in enumerate(missing))
            batch = new if missing == idx else NodeStops.stack([rows[node, i] for i in idx])
            sent.update(zip([(node, i) for i in idx],
                            batch.select(root, node, [asks[i][0] for i in idx])))
        for i in list(asks):
            try:
                asks[i] = runs[i].send(sent)
            except StopIteration as stop:
                done[i] = stop.value
                del asks[i]
    for i in range(size):
        if done[i] is None:
            raise ThetaCapError(f"member {i}: threshold exceeded cap {cfg.theta_cap} "
                                f"before packing {cfg.packing_target} was met")
        coll = done[i]
        coll.bases = {node: rows[node, i].bases for node in coll.packing_by_parent}
        if cfg.mode == "intest":
            cb = {s: a[i] for s, a in coeff_b.items()}
            coll.stopped_square_checks = [
                (_stopped_square_max(node, cb, root, sent[node, i]),
                 float(coll.theta * coll.bases[node][0]))
                for node in coll.packing_by_parent if sent[node, i]]
    return [done[i] for i in range(size)]


def build_sparse(q0: DyadicCube, inputs: dict, cfg: StoppingConfig,
                 dictionary: TestDictionary) -> SparseCollection:
    """``build_sparse_batch`` for one member, given without a batch axis."""
    one = {k: [f[None] for f in v] if k == "fs" else
           v[None] if isinstance(v, GridFunction) else v for k, v in inputs.items()}
    return build_sparse_batch(q0, one, cfg, dictionary)[0]


def sparse_form_eval(coll: SparseCollection, fs) -> float:
    """Sum over the collection of |Q| <S b>_{1,Q} <S g>_{1,Q} prod <f_j>_{1,Q},
    the means of S b and S g being the bases its intest build recorded."""
    total = 0.0
    for cube in coll.cubes():
        means = coll.bases[cube]
        term = cube.measure * float(means[0]) * float(means[1])
        for f in fs:
            term *= local_average(f, cube, 1.0)
        total += term
    return total


def check_exponents(p: float, q: float, ps) -> None:
    total = (0.0 if np.isinf(p) else 1.0 / p) + (0.0 if np.isinf(q) else 1.0 / q)
    total += sum(0.0 if np.isinf(v) else 1.0 / v for v in ps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"exponents fail the Hoelder relation: sum 1/p = {total}")


def verify_domination(q0: DyadicCube, cfg: StoppingConfig,
                      dictionary: TestDictionary, *, exponents,
                      b: GridFunction | None = None, g: GridFunction = None,
                      fs=(), spec: ParaproductSpec | None = None,
                      f1: GridFunction | None = None, n: int = 0) -> dict:
    """Sparse-domination report {lhs, rhs, ratio, ...} in either mode.

    mode 'intest': lhs is the intrinsic form of (b, g, fs); rhs both the
    sparse-form bound and the single-cube Hoelder bound.
    mode 'mainiter': lhs is the localized paraproduct form acting on
    f1 - Taylor(f1); rhs the gradient-sparse bound.

    In mode 'intest', batched b, g and fs give a list of reports, one per
    member: the coefficient arrays, the intrinsic form, the Hoelder bound
    and the stopping-time collections run once over the batch.
    """
    p, q = exponents[0], exponents[1]
    ps = list(exponents[2:])
    check_exponents(p, q, ps)
    root = dictionary.root
    w = dictionary.family.w
    if cfg.mode == "intest":
        batched = b.samples.ndim > root.d
        if not batched:
            b, g, fs = b[None], g[None], [f[None] for f in fs]
        fs = list(fs)
        coeff_b = dictionary.coeff_arrays(b)
        coeff_g = dictionary.coeff_arrays(g)
        lhs = intrinsic_form(q0, b, [g] + fs, dictionary, coeff_f=coeff_b, coeff_f1=coeff_g)
        holder = q0.measure * tl_norm(b, NormSpec(0.0, 0.0, p, 2.0), dictionary, coeff_b) \
            * local_average(g, q0, q, w)
        for f, pj in zip(fs, ps):
            holder = holder * local_average(f, q0, pj, w)
        reports = []
        for i, coll in enumerate(build_sparse_batch(q0, {"b": b, "g": g, "fs": fs}, cfg,
                                                    dictionary, coeff_b, coeff_g)):
            rhs_sparse = sparse_form_eval(coll, [f[i] for f in fs])
            lhs_i = float(lhs[i])
            reports.append({"lhs": lhs_i, "rhs": rhs_sparse, "rhs_holder": float(holder[i]),
                            "ratio": lhs_i / rhs_sparse if rhs_sparse > 0 else np.inf,
                            "theta": coll.theta, "collection": coll})
        return reports if batched else reports[0]
    if spec is None or f1 is None:
        raise ValueError("mainiter mode needs a paraproduct spec and f1")
    resid = f1 - taylor_poly(f1, q0, n, dilation=w)
    lhs = abs(localized_form(spec.symbol, q0, g, [resid] + list(fs), spec))
    gn = grad_norm(f1, n)
    coll = build_sparse(q0, {"f1": f1, "n": n, "gn": gn}, cfg, dictionary)
    bfunc = GridFunction(root, spec.basis.synthesize(spec.symbol))
    total = 0.0
    for cube in coll.cubes():
        term = cube.measure * local_average(g, cube, q, w)
        term *= local_average(gn, cube, 1.0, w)
        for f, pj in zip(fs, ps):
            term *= local_average(f, cube, pj, w)
        total += term
    rhs = tl_norm(bfunc, NormSpec(0.0, -float(n), p, 2.0), dictionary) * total
    return {"lhs": lhs, "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0 else np.inf,
            "theta": coll.theta, "collection": coll}


def taylor_telescoping_ratio(q0: DyadicCube, f1: GridFunction, n: int,
                             w: int) -> float:
    """Largest ratio over subcubes P of <f1 - T_{q0} f1>_{1,wP} against
    side(q0)^n inf_P M(masked grad^n f1)."""
    root = f1.root
    resid = f1 - taylor_poly(f1, q0, n, dilation=w)
    mm = _masked_maximal(grad_norm(f1, n), q0, w)
    best = 0.0
    scale_factor = q0.side ** n
    for scale in range(root.J, q0.scale + 1):
        factor = 1 << (scale - root.J)
        sl = q0.block(scale)
        lhs = dilated_scale_averages(resid, scale, 1.0, w)[sl]
        rhs = scale_factor * block_reduce(mm, factor, np.min)[sl]
        mask = rhs > 1e-14
        if np.any(mask):
            best = max(best, float(np.max(lhs[mask] / rhs[mask])))
    return best


def taylor_pair_ratio(q0: DyadicCube, children, f1: GridFunction, n: int,
                      w: int) -> float:
    """Largest ratio over selected Z and P in D(Z) of
    <T_Z f1 - T_{q0} f1>_{1,wP} against side(q0)^n inf_Z M(masked grad^n f1)."""
    root = f1.root
    mm = _masked_maximal(grad_norm(f1, n), q0, w)
    p_big = taylor_poly(f1, q0, n, dilation=w)
    best = 0.0
    for z in children:
        gap = taylor_poly(f1, z, n, dilation=w) - p_big
        inf_z = float(np.min(mm[root.window_slices(z)]))
        rhs = q0.side ** n * inf_z
        if rhs <= 1e-14:
            continue
        for scale in range(root.J, z.scale + 1):
            sl = z.block(scale)
            lhs = dilated_scale_averages(gap, scale, 1.0, w)[sl]
            best = max(best, float(np.max(lhs)) / rhs)
    return best
