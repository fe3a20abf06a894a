"""Acceptance suites: each runs one cluster of verification targets at desk
scale, emits CSV rows and plot data, and returns pass/fail per criterion.

The same callables back the pytest acceptance module and the command line;
all randomness is seeded and draws are refinement-independent, so reports
are byte-stable for a fixed configuration.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

import numpy as np

from .cache import memo
from .config import ExperimentConfig
from .czform import (KernelSpec, testing_norm, testing_symbols, wbp_check,
                     sobolev_bound_bench)
from .dyadic import DyadicCube, RootBox
from .ensembles import (atom_tree, default_atom_scales, draw_atoms, draw_mixed,
                        draw_plateau, draw_wave, lacunary_tower, mixed_function,
                        random_interior_function, render)
from .funcspace import (GridFunction, derivative, lp_norm, maximal, multi_indices,
                        pairing, sobolev_norm, wavelet_sobolev_norm)
from .paraproduct import (ParaproductSpec, adjoint_apply, apply_paraproduct,
                          duality_form, form_eval)
from .sparse import (StoppingConfig, build_sparse, build_sparse_batch, taylor_pair_ratio,
                     taylor_telescoping_ratio, verify_domination)
from .tlnorm import NormSpec, TestDictionary, bmo_norm, tl_norm, tl_norms
from .wavelet import AtomBasis, build_family, l2_norm

SUITE_NAMES = ("wavelet", "norms", "paraproduct", "sparse", "testbench", "theorem")


@dataclass
class CriterionRow:
    suite: str
    name: str
    value: float
    threshold: float
    comparator: str
    passed: bool
    detail: str = ""

    @staticmethod
    def check(suite, name, value, threshold, comparator="<=", detail=""):
        if comparator == "<=":
            ok = value <= threshold
        elif comparator == ">=":
            ok = value >= threshold
        else:
            raise ValueError(comparator)
        return CriterionRow(suite, name, float(value), float(threshold),
                            comparator, bool(ok), detail)


@dataclass
class Workspace:
    root: RootBox
    basis: AtomBasis
    dictionary: TestDictionary

    @memo
    def probe_dictionary(self) -> TestDictionary:
        """The size-2 dictionary the theorem probe draws its atoms from."""
        return TestDictionary(self.basis, size=2, min_cells=2)

    @memo
    def default_kernels(self, seed: int, kdefs: tuple) -> list[tuple[str, KernelSpec]]:
        """The testbench's kernels at ``seed``: the built-ins, then one per
        ``[kernel:NAME]`` definition in ``kdefs``."""
        out = []
        rng = np.random.default_rng([seed, 7])
        tree = atom_tree(rng, self.basis, count=8)
        spec = ParaproductSpec(self.basis, tree, arity=2)
        out.append(("planted_paraproduct", KernelSpec(self.root, n=2, kind="planted",
                                                      planted=spec)))
        out.append(("truncated_hilbert",
                    KernelSpec(self.root, n=1, kind="convolution",
                               eps_trunc=4.0 * self.root.cell_width)))
        out.append(("zero", KernelSpec(self.root, n=1, kind="zero")))
        for kdef in kdefs:
            if kdef.kind == "planted":
                krng = np.random.default_rng([seed, 7, kdef.seed])
                ktree = atom_tree(krng, self.basis, count=kdef.symbol_count)
                kspec = KernelSpec(self.root, n=kdef.arity, kind="planted",
                                   planted=ParaproductSpec(self.basis, ktree,
                                                           arity=kdef.arity))
            else:
                eps = kdef.eps_trunc if kdef.eps_trunc > 0 \
                    else 4.0 * self.root.cell_width
                kspec = KernelSpec(self.root, n=kdef.arity, kind=kdef.kind,
                                   eps_trunc=eps, strength=kdef.strength)
            out.append((kdef.name, kspec))
        return out


@memo
def workspace(d: int, L: int, J: int, N: int, dict_size: int,
              refine: int = 8) -> Workspace:
    """One box with its basis and dictionary, shared by every suite until
    ``cache.clear()``."""
    root = RootBox(d=d, L=L, J=J)
    basis = AtomBasis(build_family(N, refine=refine), root)
    return Workspace(root, basis, TestDictionary(basis, dict_size))


# -- report writers -----------------------------------------------------------


def write_csv(path, header, rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_plotdata(path, xs, ys) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x} {y}\n")


def _growth_factor(values) -> float:
    """Largest step-up ratio along a refinement sweep (1.0 when monotone down)."""
    worst = 1.0
    for prev, cur in zip(values, values[1:]):
        if prev > 1e-300:
            worst = max(worst, cur / prev)
        elif cur > 1e-300:
            return float("inf")
    return worst


# -- wavelet suite (criteria 1 and 9) ----------------------------------------


def suite_wavelet(cfg: ExperimentConfig, outdir=None) -> list[CriterionRow]:
    rows = []
    rng = np.random.default_rng([cfg.seed, 1])
    gram_data = []
    for N in (2, 3):
        ws = workspace(1, cfg.L, cfg.L - 8, N, cfg.dictionary_size, cfg.refine)
        cubes = ws.basis.interior_cubes()
        res = ws.basis.gram_residual(cubes)
        gram_data.append((N, res))
        rows.append(CriterionRow.check(
            "wavelet", f"gram_identity_N{N}", res, 1e-8,
            detail=f"{len(cubes)} interior cubes"))
        worst = 0.0
        for i in range(50):
            f = random_interior_function(rng, ws.basis)
            ell = int(rng.integers(ws.root.J + 2, ws.root.L))
            rel = ws.basis.high_low_residual(f.samples, ell) / max(
                l2_norm(f.samples, ws.root), 1e-300)
            worst = max(worst, rel)
        rows.append(CriterionRow.check(
            "wavelet", f"high_low_residual_N{N}", worst, 1e-6,
            detail="50 random interior functions"))
    # anti integration by parts, exact path (criterion 9)
    ws = workspace(1, cfg.L, cfg.L - 8, 3, cfg.dictionary_size, cfg.refine)
    from .funcspace import anti_ibp_check
    worst = 0.0
    consts = []
    evaluated = skipped = 0
    # each check's function, scale and (for a non-empty band) position, all
    # drawn before the checks, which draw nothing
    draws, cubes = [], []
    for i in range(60):
        draws.append(draw_plateau(rng, ws.root) + draw_wave(rng, ws.root))
        scale = int(rng.integers(ws.root.J + 3, ws.root.L - 1))
        band = range((ws.basis.family.w - 1) // 2,
                     ws.root.positions_per_side(scale) - (ws.basis.family.w - 1) // 2)
        cubes.append(DyadicCube(scale, (int(rng.integers(band.start, band.stop)),))
                     if len(band) else None)
    fs = render(ws.root, draws)
    for i, cube in enumerate(cubes):
        if cube is None:
            continue
        f = fs[i]
        rep = anti_ibp_check(f, cube, 1 + (i % 2), ws.basis)
        floor = 1e-12 * float(np.max(np.abs(f.samples)))
        if max(abs(rep["lhs"]), abs(rep["rhs"])) < floor:
            skipped += 1  # cancellation-degenerate pairing, logged not divided
            continue
        evaluated += 1
        worst = max(worst, rep["rel_gap"])
        consts.append(rep["class_constant"])
    rows.append(CriterionRow.check(
        "wavelet", "anti_ibp_two_sided", worst, 1e-4,
        detail=f"k in {{1,2}}; {evaluated} checks ({skipped} degenerate skipped); "
               f"max class constant {max(consts):.3f}"))
    if outdir:
        write_csv(os.path.join(outdir, "wavelet.csv"),
                  ["order", "gram_residual"], gram_data)
    return rows


# -- norms suite (criteria 3 and 4) -------------------------------------------


def suite_norms(cfg: ExperimentConfig, outdir=None) -> list[CriterionRow]:
    rows = []
    ws = workspace(cfg.d, cfg.L, cfg.J, cfg.wavelet_order, cfg.dictionary_size,
                   cfg.refine)
    rng = np.random.default_rng([cfg.seed, 2])
    lattice = [(u, pr, qs)
               for u in (0, 1)
               for pr in ((1.0, 2.0), (2.0, 4.0))
               for qs in ((np.inf, 2.0), (2.0, 1.0))]
    # per lattice instance the pair (a, b) with a <= b expected, then the
    # John-Nirenberg exponents
    specs = [spec for u, (p, r), (q, s) in lattice
             for spec in (NormSpec(0.0, 0.0, p, q), NormSpec(0.0 + u, 0.0 - u, r, s))]
    specs += [NormSpec(0.0, 0.0, p, 2.0) for p in (1.0, 2.0, 4.0)]
    worst_gap = -np.inf
    jn_worst = 0.0
    jn_values = []
    # every draw of the suite comes before its checks, which draw nothing
    fs = render(ws.root, [draw_mixed(rng, ws.basis, kind=i)
                          for i in range(cfg.ensemble_count)])
    smooth = render(ws.root, [draw_plateau(rng, ws.root) + draw_wave(rng, ws.root)
                              for _ in range(12 + 16)])
    for values in tl_norms(fs, specs, ws.dictionary).tolist():
        pairs, vals = values[:2 * len(lattice)], values[2 * len(lattice):]
        worst_gap = max(worst_gap, *(a - b for a, b in zip(pairs[::2], pairs[1::2])))
        if min(vals) > 1e-13:
            ratio = max(vals) / min(vals)
            jn_values.append(ratio)
            jn_worst = max(jn_worst, ratio)
    rows.append(CriterionRow.check(
        "norms", "embedding_lattice_gap", worst_gap, 1e-9,
        detail=f"{cfg.ensemble_count} functions x {len(lattice)} instances"))
    rows.append(CriterionRow.check(
        "norms", "john_nirenberg_ratio", jn_worst, 16.0,
        detail=f"median {np.median(jn_values):.3f}"))
    # square function vs polynomial-oscillation comparison, logged
    k = ws.basis.family.k
    n = min(1, k)
    regions = ws.basis.interior_cubes(smax=ws.root.L - 2)[:4]
    two_sided = []
    for i in range(12):
        f = smooth[i]
        for region in regions:
            sq = tl_region_average(f, region, n, ws.dictionary)
            osc = poly_oscillation(f, region, n, k - n, ws.basis.family.w)
            if sq > 1e-12 and osc > 1e-12:
                two_sided.append(osc / sq)
    if two_sided:
        rows.append(CriterionRow.check(
            "norms", "square_vs_oscillation_spread",
            max(two_sided) / min(two_sided), 1e6, detail=(
                f"ratio range [{min(two_sided):.3f}, {max(two_sided):.3f}] (logged)")))
    # finite-difference vs wavelet-surrogate comparability at kappa >= 0
    fds = smooth[12:]
    factors = [surro / fd for fd, surro in zip(sobolev_norm(fds, 0, 2.0),
                                               wavelet_sobolev_norm(fds, 0, 2.0, ws.basis))
               if fd > 1e-12]
    rows.append(CriterionRow.check(
        "norms", "surrogate_vs_fd_factor_high", max(factors), 8.0,
        detail=f"range [{min(factors):.4f}, {max(factors):.4f}]"))
    rows.append(CriterionRow.check(
        "norms", "surrogate_vs_fd_factor_low", min(factors), 1.0 / 8.0,
        comparator=">="))
    if outdir:
        write_plotdata(os.path.join(outdir, "norms_jn_ratio.dat"),
                       range(len(jn_values)), jn_values)
    return rows


def tl_region_average(f: GridFunction, region: DyadicCube, n: float,
                      dictionary: TestDictionary) -> float:
    """L^2 mean over the cube of the square function anchored at it."""
    from .tlnorm import square_function
    sq = square_function(f, region, n, 2.0, dictionary)
    return float(np.sqrt(np.mean(sq.samples[f.root.window_slices(region)] ** 2)))


def poly_oscillation(f: GridFunction, region: DyadicCube, n: int,
                     degree: int, w: int) -> float:
    """L^2 mean least-squares distance of grad^n f to polynomials on the
    dilated cube."""
    root = f.root
    sl = root.window_slices(region, w)
    comps = [derivative(f, alpha).samples[sl].ravel()
             for alpha in multi_indices(root.d, n)]
    xs = [((np.arange(s.start, s.stop) + 0.5) * root.cell_width - c)
          for s, c in zip(sl, region.center())]
    grids = np.meshgrid(*xs, indexing="ij")
    cols = []
    from .funcspace import multi_indices_upto
    for alpha in multi_indices_upto(root.d, max(degree, 0)):
        col = np.ones_like(grids[0])
        for gax, a in zip(grids, alpha):
            col = col * gax ** a
        cols.append(col.ravel())
    V = np.stack(cols, axis=1)
    resid2 = 0.0
    for comp in comps:
        sol, *_ = np.linalg.lstsq(V, comp, rcond=None)
        resid2 += np.abs(comp - V @ sol) ** 2
    return float(np.sqrt(np.mean(resid2)))


# -- paraproduct suite (criterion 2 plus Lebesgue/maximal probes) -------------


def suite_paraproduct(cfg: ExperimentConfig, outdir=None) -> list[CriterionRow]:
    rows = []
    ws = workspace(cfg.d, cfg.L, cfg.J, cfg.wavelet_order, cfg.dictionary_size,
                   cfg.refine)
    rng = np.random.default_rng([cfg.seed, 3])
    # each trial's symbol, m inputs and g, all drawn before the checks
    symbols, inputs = [], []
    for i in range(50):
        symbols.append(draw_atoms(rng, ws.basis, count=8))
        inputs.append([draw_mixed(rng, ws.basis, kind=i + j) for j in range(2 + i % 3)])
    bfuncs = render(ws.root, symbols)
    funcs = render(ws.root, [draw for row in inputs for draw in row])
    starts = np.cumsum([0] + [len(row) for row in inputs])
    worst = 0.0
    for m in (1, 2, 3):
        # the trials of arity m as one batch, symbol i on trial i
        trials = np.arange(m - 1, len(symbols), 3)
        spec = ParaproductSpec(ws.basis, [symbols[i].tree() for i in trials], arity=m)
        fs, g = [funcs[starts[trials] + j] for j in range(m)], funcs[starts[trials] + m]
        out = apply_paraproduct(spec, fs)
        lhs = pairing(out, g)
        rhs = form_eval(duality_form(spec), bfuncs[trials], [g] + fs)
        # cancellation-heavy pairings are measured against the bilinear mass
        pair_mass = np.sum(np.abs(out.samples * g.samples).reshape(len(trials), -1),
                           axis=-1) * ws.root.cell_measure
        denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), np.maximum(pair_mass, 1e-300))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / denom)))
    rows.append(CriterionRow.check(
        "paraproduct", "duality_identity", worst, 1e-8,
        detail="50 random triples, m in {1,2,3}"))

    # Lebesgue bound probe across refinements, BMO-normalized symbols
    sweep = [J - 1 for J in cfg.sparse_j_sweep]
    max_ratio_by_j = []
    dom_const_by_j = []
    for J in sweep:
        wsj = workspace(cfg.d, cfg.L, J, cfg.wavelet_order, cfg.dictionary_size,
                        cfg.refine)
        rngj = np.random.default_rng([cfg.seed, 4])
        # each trial's symbol, f1, f2 and g, all drawn before the checks; a
        # trial whose symbol has no BMO mass is drawn but not checked
        symbols, inputs = [], []
        for i in range(30):
            symbols.append(draw_atoms(rngj, wsj.basis, count=8))
            inputs.append([mixed_function(rngj, wsj.basis, kind=i + j) for j in range(3)])
        bfuncs = render(wsj.root, symbols)
        nb = bmo_norm(bfuncs, wsj.dictionary)
        kept = np.flatnonzero(~(nb < 1e-12))
        nb = nb[kept]
        spec = ParaproductSpec(wsj.basis, [symbols[i].tree().scaled(1.0 / n)
                                           for i, n in zip(kept, nb)], arity=2)
        bfunc = GridFunction(wsj.root, bfuncs.samples[kept] / nb[(...,) + (None,) * wsj.root.d])
        *fs, g = (GridFunction.stack(col)[kept] for col in zip(*inputs))
        out = apply_paraproduct(spec, fs)
        rhs = lp_norm(fs[0], 4.0) * lp_norm(fs[1], 4.0)
        max_ratio_by_j.append(float(np.max(lp_norm(out, 2.0)[rhs > 1e-12] / rhs[rhs > 1e-12])))
        # maximal-function domination of the associated wavelet form
        lam = np.abs(form_eval(duality_form(spec), bfunc, [g] + fs))
        bound = np.minimum(
            bmo_norm(bfunc, wsj.dictionary) * lp_norm(maximal([g] + fs), 1.0),
            lp_norm(maximal([bfunc, g] + fs), 1.0))
        dom_const_by_j.append(float(np.max(lam[bound > 1e-12] / bound[bound > 1e-12])))
    rows.append(CriterionRow.check(
        "paraproduct", "lebesgue_ratio_growth", _growth_factor(max_ratio_by_j),
        cfg.growth_cap, detail=f"max ratios {np.round(max_ratio_by_j, 4).tolist()}"))
    rows.append(CriterionRow.check(
        "paraproduct", "maximal_domination_growth", _growth_factor(dom_const_by_j),
        cfg.growth_cap, detail=f"constants {np.round(dom_const_by_j, 4).tolist()}"))
    if outdir:
        write_plotdata(os.path.join(outdir, "paraproduct_lebesgue.dat"),
                       sweep, max_ratio_by_j)
    return rows


# -- sparse suite (criteria 5 and 6) ------------------------------------------

# trials per batch: the batched layers' arrays grow with it, while their
# per-call overhead is already small against the per-trial recursion at 50
_BATCH = 50


def _batches(count: int):
    for start in range(0, count, _BATCH):
        yield range(start, min(start + _BATCH, count))


def _render_columns(root: RootBox, rows) -> list[GridFunction]:
    """Draws given per trial (one list per trial) rendered as one batch, and
    returned as one stack per column."""
    cols = list(zip(*rows))
    fs = render(root, [draw for col in cols for draw in col])
    n = len(rows)
    return [fs[k * n:(k + 1) * n] for k in range(len(cols))]


def suite_sparse(cfg: ExperimentConfig, outdir=None) -> list[CriterionRow]:
    rows = []
    p, q, *ps = cfg.sparse_exponents
    # packing in both modes (criterion 5)
    ws = workspace(cfg.d, cfg.L, cfg.J, cfg.wavelet_order, cfg.dictionary_size,
                   cfg.refine)
    rng = np.random.default_rng([cfg.seed, 5])
    q0 = ws.root.root_cube
    cfg_i = StoppingConfig(theta=cfg.sparse_theta, packing_target=cfg.packing_intest,
                           theta_cap=cfg.sparse_theta_cap, mode="intest")
    cfg_m = StoppingConfig(theta=cfg.sparse_theta, packing_target=cfg.packing_mainiter,
                           theta_cap=cfg.sparse_theta_cap, mode="mainiter")
    worst_pack = {"intest": 0.0, "mainiter": 0.0}
    theta_max = {"intest": 0.0, "mainiter": 0.0}
    stopped_ok = True
    for batch in _batches(100):
        # a batch's trials are all drawn, (b, g, f2, f1) per trial in trial
        # order, before any is checked; the builds draw nothing, so each
        # trial sees the draws it would see alone
        bs, gs, f2s, f1s = _render_columns(ws.root, [
            [draw_mixed(rng, ws.basis, kind=i + k) for k in range(3)]
            + [draw_plateau(rng, ws.root) + draw_wave(rng, ws.root)] for i in batch])
        for stop_cfg, inputs in ((cfg_i, {"b": bs, "g": gs, "fs": [f2s]}),
                                 (cfg_m, {"f1": f1s, "n": 1})):
            mode = stop_cfg.mode
            for coll in build_sparse_batch(q0, inputs, stop_cfg, ws.dictionary):
                worst_pack[mode] = max([worst_pack[mode], *coll.packing_by_parent.values()])
                theta_max[mode] = max(theta_max[mode], coll.theta)
                stopped_ok &= all(s <= bnd + 1e-9 for s, bnd in coll.stopped_square_checks)
    rows.append(CriterionRow.check(
        "sparse", "packing_intest", worst_pack["intest"], cfg.packing_intest,
        detail=f"theta up to {theta_max['intest']}"))
    rows.append(CriterionRow.check(
        "sparse", "packing_mainiter", worst_pack["mainiter"], cfg.packing_mainiter,
        detail=f"theta up to {theta_max['mainiter']}"))
    rows.append(CriterionRow.check(
        "sparse", "stopped_square_bound", 0.0 if stopped_ok else 1.0, 0.5,
        detail="non-stopped square function within theta bound"))

    # domination stability across refinements (criterion 6)
    per_j = []
    tele3 = []
    tele4 = []
    trials = cfg.sparse_trials
    for J in cfg.sparse_j_sweep:
        wsj = workspace(cfg.d, cfg.L, J, cfg.wavelet_order, cfg.dictionary_size,
                        cfg.refine)
        rngj = np.random.default_rng([cfg.seed, 6])
        q0j = wsj.root.root_cube
        worst_ratio = 0.0
        for batch in _batches(trials):
            # (b, g, f2) per trial in trial order, then one batched check
            bs, gs, f2s = _render_columns(wsj.root, [
                [draw_mixed(rngj, wsj.basis, kind=i + k) for k in range(3)] for i in batch])
            for rep in verify_domination(q0j, cfg_i, wsj.dictionary, exponents=(p, q, *ps),
                                         b=bs, g=gs, fs=[f2s]):
                if rep["rhs"] > 1e-12:
                    worst_ratio = max(worst_ratio, rep["ratio"])
        per_j.append(worst_ratio)
        f1 = render(wsj.root, [draw_plateau(rngj, wsj.root) + draw_wave(rngj, wsj.root)])[0]
        tele3.append(taylor_telescoping_ratio(q0j, f1, 1, wsj.basis.family.w))
        coll = build_sparse(q0j, {"f1": f1, "n": 1}, cfg_m, wsj.dictionary)
        if coll.generations:
            tele4.append(taylor_pair_ratio(q0j, coll.generations[0], f1, 1,
                                           wsj.basis.family.w))
    rows.append(CriterionRow.check(
        "sparse", "domination_constant_growth", _growth_factor(per_j),
        cfg.growth_cap, detail=f"max lhs/rhs {np.round(per_j, 4).tolist()}"))
    rows.append(CriterionRow.check(
        "sparse", "taylor_telescoping_constant", max(tele3), 64.0,
        detail=f"constants {np.round(tele3, 4).tolist()}, "
               f"growth {_growth_factor(tele3):.3f}"))
    if tele4:
        rows.append(CriterionRow.check(
            "sparse", "taylor_pair_constant", max(tele4), 64.0,
            detail=f"constants {np.round(tele4, 4).tolist()}, "
                   f"growth {_growth_factor(tele4):.3f}"))
    if outdir:
        write_plotdata(os.path.join(outdir, "sparse_domination.dat"),
                       cfg.sparse_j_sweep, per_j)
    return rows


# -- testbench suite (criterion 10) --------------------------------------------


def suite_testbench(cfg: ExperimentConfig, outdir=None) -> list[CriterionRow]:
    rows = []
    k = cfg.testbench_k
    ws = workspace(1, cfg.L, cfg.L - 8, max(cfg.wavelet_order, k + 1),
                   cfg.dictionary_size, cfg.refine)
    rng = np.random.default_rng([cfg.seed, 8])
    kernels = ws.default_kernels(cfg.seed, tuple(cfg.kernels))
    sample_cubes = [c for c in ws.basis.interior_cubes(ws.root.J + 3, ws.root.L - 2)]
    sample_cubes = sample_cubes[::max(1, len(sample_cubes) // cfg.testbench_samples)]
    name, planted = kernels[0]
    support = planted.planted.symbol.support()
    symbol_cubes = sorted(set(sample_cubes) | set(support),
                          key=lambda c: c.sort_key())

    bench_rows = []
    symbols_by_name = {}
    for name, spec in kernels:
        wbp = wbp_check(spec, ws.dictionary, sample_cubes)
        symbols = testing_symbols(spec, ws.basis, k,
                                  truncation_scale=cfg.truncation_scale,
                                  cubes=symbol_cubes)
        symbols_by_name[name] = symbols
        parts = testing_norm(symbols, k, 2.0, cfg.bench_q, ws.basis, ws.dictionary)
        # trivial-bound constant: scale-weighted sup of the symbol coefficients
        finfty = 0.0
        for gamma, tree in symbols.trees.items():
            order = sum(sum(gv) for gv in gamma)
            for cube, val in tree.items():
                finfty = max(finfty, abs(val) * cube.side ** (k - order))
        bench_rows.append([name, wbp["constant"], finfty, parts["total"],
                           len(symbols.flagged)])
        if name == "zero":
            rows.append(CriterionRow.check(
                "testbench", "zero_kernel_testing_norm", parts["total"], 1e-12))
    # plant-and-recover proportionality across scales (gamma = 0)
    name, planted = kernels[0]
    symbols = symbols_by_name[name]
    gamma0 = tuple([(0,) * 1] * planted.n)
    consts_by_scale = {}
    for cube, bval in planted.planted.symbol.items():
        if abs(bval) < 1e-12:
            continue
        rec = symbols.trees[gamma0][cube] / cube.side ** k
        consts_by_scale.setdefault(cube.scale, []).append(rec / bval)
    scale_means = {s: np.mean(v) for s, v in consts_by_scale.items() if v}
    if len(scale_means) >= 2:
        vals = list(scale_means.values())
        variation = (max(vals) - min(vals)) / abs(np.mean(vals))
    else:
        variation = 0.0
    rows.append(CriterionRow.check(
        "testbench", "plant_recover_scale_variation", variation, 0.05,
        detail=f"per-scale means {np.round(list(scale_means.values()), 5).tolist()}"))

    # Sobolev bench ratio across an input dilation sweep: the same member
    # (plateau plus atom combination) is dyadically dilated toward the corner
    from .ensembles import dilate_tree, plateau_closed_form
    side = 2.0 ** ws.root.L
    member_params = []
    base_scales = default_atom_scales(ws.basis)[:2]
    for i in range(8):
        member_params.append({
            "centers": rng.uniform(0.4, 0.6, size=(planted.n,)) * side,
            "radii": rng.uniform(0.08, 0.16, size=(planted.n,)) * side,
            "heights": rng.standard_normal(planted.n),
            "trees": [atom_tree(rng, ws.basis, scales=base_scales, count=3,
                                amplitude=0.5) for _ in range(planted.n)],
        })
    ratios = []
    for shift in (0, 1, 2):
        fs = [GridFunction.stack([
            plateau_closed_form(ws.root, prm["centers"][slot], prm["radii"][slot],
                                prm["heights"][slot], shift)
            + GridFunction(ws.root, ws.basis.synthesize(dilate_tree(prm["trees"][slot], shift)))
            for prm in member_params]) for slot in range(planted.n)]
        rep = sobolev_bound_bench(planted, (2.0, 4.0, 4.0), k, cfg.bench_q,
                                  ws.basis, ws.dictionary, fs, symbols=symbols)
        ratios.append(rep["max_ratio"])
    rows.append(CriterionRow.check(
        "testbench", "sobolev_bench_dilation_growth", _growth_factor(ratios),
        cfg.growth_cap, detail=f"ratios {np.round(ratios, 5).tolist()}"))
    if outdir:
        write_csv(os.path.join(outdir, "testbench.csv"),
                  ["kernel", "wbp_constant", "finfty_constant", "testing_norm",
                   "flagged"], bench_rows)
    return rows


# -- theorem suite (criteria 7 and 8) -------------------------------------------


def _probe_members(ws: Workspace, seed_key, members: int, scales):
    """Members drawn refinement-independently, member i from the rng
    ``seed_key + [i]``: a symbol on ``scales`` and two inputs.  Returns the
    paraproduct spec of the batch of symbols and the stacks of the symbols'
    functions and of each input slot.

    Paraproduct atoms come from the smooth sampled families of the
    workspace's probe dictionary, so probe derivative norms are resolved at
    every sweep level; the symbol's function avatar stays the canonical
    expansion.
    """
    symbols, inputs = [], []
    for member in range(members):
        rng = np.random.default_rng(seed_key + [member])
        symbols.append(draw_atoms(rng, ws.basis, scales=scales, count=6))
        inputs.append([draw_atoms(rng, ws.basis, scales=scales, count=6)
                       if (member + j) % 3 == 0
                       else draw_mixed(rng, ws.basis, kind=member + j) for j in range(2)])
    bfuncs, *slots = _render_columns(ws.root, [[sym] + fs for sym, fs in zip(symbols, inputs)])
    atoms = ws.probe_dictionary()
    spec = ParaproductSpec(ws.basis, [sym.tree() for sym in symbols], arity=2,
                           beta=atoms.member_family(1), chi=atoms.bump_family(0, unit=True))
    return spec, bfuncs, slots


def probe_variants(cfg: ExperimentConfig):
    """(label, kappa, split, exponents, adjoint) tuples for the probe sweep."""
    for kappa in cfg.probe_kappas:
        for split in cfg.probe_splits:
            for exps in cfg.probe_exponents:
                yield (f"base_k{kappa}_n{'-'.join(map(str, split))}"
                       f"_p{'-'.join(str(p) for p in exps)}",
                       kappa, split, exps, None)
                if kappa >= 0:
                    for j in range(1, len(split) + 1):
                        for sign in ("pos", "neg"):
                            yield (f"adj{sign}{j}_k{kappa}"
                                   f"_n{'-'.join(map(str, split))}"
                                   f"_p{'-'.join(str(p) for p in exps)}",
                                   kappa, split, exps, (j, sign))
    return


def _adjoint_exponent(split, exps, j, sign, kappa):
    """Rescaled exponent for the adjoint bounds; None when degenerate."""
    others = [(ni, pi) for idx, (ni, pi) in enumerate(zip(split, exps), start=1)
              if idx != j]
    n = sum(split)
    n_j = split[j - 1]
    if sign == "pos":
        numer = n - n_j
        denom = sum((0.0 if np.isinf(p) else ni / p) for ni, p in others)
        if numer == 0:
            denom = sum((0.0 if np.isinf(p) else 1.0 / p) / max(len(others), 1)
                        for _, p in others)
            numer = 1.0
    else:
        numer = n - (n_j - kappa)
        denom = kappa + sum((0.0 if np.isinf(p) else (ni - kappa) / p)
                            for ni, p in others)
        if numer == 0:
            return None
    if denom <= 0:
        return float("inf") if numer > 0 else None
    val = numer / denom
    return val if val > 1.0 else None


def _variant_norm(cfg: ExperimentConfig, kappa, split, exps, adjoint):
    """(symbol NormSpec, output, output smoothness) of a probe variant; the
    output is "out" or ("adj", j).  None when the adjoint exponent is
    degenerate."""
    n = sum(split)
    eps = cfg.probe_epsilon
    if adjoint is None:
        pi = ExperimentConfig.probe_pi(split, exps)
        return NormSpec(float(kappa), -float(n), min(pi + eps, np.inf), 2.0), "out", kappa
    j, sign = adjoint
    pij = _adjoint_exponent(split, exps, j, sign, kappa)
    if pij is None:
        return None
    n_j = split[j - 1]
    if sign == "pos":
        return NormSpec(float(kappa - n_j), float(n_j - n), pij + eps, 2.0), ("adj", j), kappa
    return NormSpec(-float(n_j), float(n_j - n - kappa), pij + eps, 2.0), ("adj", j), -kappa


def run_theorem_probe(cfg: ExperimentConfig, outdir=None):
    """Criterion-7 sweep: ratio tables per variant per refinement level."""
    fam_n = cfg.probe_order
    members = cfg.probe_members
    sweep = cfg.probe_j_sweep
    # scales pinned at the coarsest sweep root so draws match across levels;
    # symbols stay two refinement levels above the coarsest grid so their
    # atoms are resolved everywhere in the sweep
    ws0 = workspace(cfg.d, cfg.L, max(sweep), fam_n, cfg.dictionary_size,
                    cfg.refine)
    # atoms on both sides stay two refinement levels above the coarsest grid
    # of the sweep, so every rendering in the ratio is resolved
    symbol_scales = [s for s in default_atom_scales(ws0.basis)
                     if s >= max(sweep) + 2]
    variants = [(label, split, exps, norm)
                for label, kappa, split, exps, adjoint in probe_variants(cfg)
                if (norm := _variant_norm(cfg, kappa, split, exps, adjoint))]
    norm_specs = list(dict.fromkeys(norm[0] for *_, norm in variants))
    table = {}
    detail_rows = []
    for J in sweep:
        ws = workspace(cfg.d, cfg.L, J, fam_n, cfg.dictionary_size, cfg.refine)
        spec, bfuncs, slots = _probe_members(ws, [cfg.seed, 9], members, symbol_scales)
        # each layer once over all members: the symbol norms now, each
        # role's stack and each distinct Sobolev norm of it on first use
        tl = tl_norms(bfuncs, norm_specs, ws.dictionary)
        roles, norms = dict(enumerate(slots)), {}

        def norm(which, kappa, r):
            if (which, kappa, r) not in norms:
                if which not in roles:
                    roles[which] = (apply_paraproduct(spec, slots) if which == "out"
                                    else adjoint_apply(spec, which[1], slots))
                norms[which, kappa, r] = sobolev_norm(roles[which], kappa, r, ws.basis)
            return norms[which, kappa, r]

        for label, split, exps, (norm_spec, which, target) in variants:
            r = ExperimentConfig.holder_r(exps)
            # each member's products in the per-member order: bit-identical
            rhs = tl[:, norm_specs.index(norm_spec)]
            for nj, (idx, p) in zip(split, enumerate(exps)):
                rhs = rhs * norm(idx, nj, p)
            kept = ~(rhs < 1e-12)
            skipped = int(np.count_nonzero(~kept))
            ratios = (norm(which, target, r)[kept] / rhs[kept]).tolist() if kept.any() else []
            if ratios:
                table.setdefault(label, {})[J] = max(ratios)
                detail_rows.append([label, J, max(ratios), float(np.median(ratios)),
                                    len(ratios), skipped])
    growth_rows = []
    worst_growth = 0.0
    for label, by_j in table.items():
        values = [by_j[J] for J in sweep if J in by_j]
        if len(values) >= 2:
            gf = _growth_factor(values)
            growth_rows.append([label, gf] + [by_j.get(J, "") for J in sweep])
            worst_growth = max(worst_growth, gf)
    if outdir:
        write_csv(os.path.join(outdir, "theorem_probe.csv"),
                  ["variant", "J", "max_ratio", "median_ratio", "count", "skipped"],
                  detail_rows)
        write_csv(os.path.join(outdir, "theorem_growth.csv"),
                  ["variant", "growth_factor"] + [f"maxratio_J{J}" for J in sweep],
                  growth_rows)
    return worst_growth, table, detail_rows


def suite_theorem(cfg: ExperimentConfig, outdir=None) -> list[CriterionRow]:
    rows = []
    t0 = time.time()
    worst_growth, table, _ = run_theorem_probe(cfg, outdir)
    elapsed = time.time() - t0
    rows.append(CriterionRow.check(
        "theorem", "probe_ratio_growth", worst_growth, cfg.growth_cap,
        detail=f"{len(table)} variants in {elapsed:.0f}s"))
    rows.append(CriterionRow.check(
        "theorem", "probe_runtime_seconds", elapsed, 900.0))

    # beyond-BMO separation (criterion 8): the tower saturating the
    # scale-weighted norm at the probe's own exponent pair (2, inf)
    smooth_n = 1
    exps = (2.0, np.inf)
    pi = ExperimentConfig.probe_pi((smooth_n, 0), exps)
    pi_eps = pi + cfg.probe_epsilon
    bmos, fnorms, probe_ratios = [], [], []
    depths = cfg.bmo_depths
    for depth in depths:
        ws = workspace(1, 0, -depth, cfg.wavelet_order, cfg.dictionary_size,
                       cfg.refine)
        tower = lacunary_tower(ws.basis, exponent=1.0 / pi)
        bfunc = GridFunction(ws.root, ws.basis.synthesize(tower))
        coeffs = ws.dictionary.coeff_arrays(bfunc)
        bmos.append(bmo_norm(bfunc, ws.dictionary, coeffs))
        fnorms.append(tl_norm(bfunc, NormSpec(0.0, -float(smooth_n), pi_eps, 2.0),
                              ws.dictionary, coeffs))
        spec = ParaproductSpec(ws.basis, tower, arity=2)
        rngd = np.random.default_rng([cfg.seed, 10])
        f1s, f2s = _render_columns(ws.root, [
            [draw_plateau(rngd, ws.root) + draw_wave(rngd, ws.root), draw_plateau(rngd, ws.root)]
            for _ in range(24)])
        lhs = lp_norm(apply_paraproduct(spec, [f1s, f2s]), ExperimentConfig.holder_r(exps))
        rhs = fnorms[-1] * sobolev_norm(f1s, smooth_n, exps[0]) * lp_norm(f2s, exps[1])
        kept = rhs > 1e-12
        probe_ratios.append(float(np.max(lhs[kept] / rhs[kept], initial=0.0)))
    lin_ok = all(bmos[i + 1] / bmos[i] >= depths[i + 1] / depths[i]
                 for i in range(len(depths) - 1))
    rows.append(CriterionRow.check(
        "theorem", "lacunary_bmo_growth", 1.0 if lin_ok else 0.0, 1.0,
        comparator=">=", detail=f"bmo {np.round(bmos, 4).tolist()}"))
    rows.append(CriterionRow.check(
        "theorem", "lacunary_fnorm_stability",
        max(fnorms) / min(fnorms), 2.0,
        detail=f"F-norms {np.round(fnorms, 4).tolist()}"))
    rows.append(CriterionRow.check(
        "theorem", "lacunary_probe_stability", _growth_factor(probe_ratios), 2.0,
        detail=f"ratios {np.round(probe_ratios, 6).tolist()}"))
    if outdir:
        write_plotdata(os.path.join(outdir, "beyond_bmo.dat"), depths, bmos)
    return rows


# -- orchestration ---------------------------------------------------------------


SUITES = {
    "wavelet": suite_wavelet,
    "norms": suite_norms,
    "paraproduct": suite_paraproduct,
    "sparse": suite_sparse,
    "testbench": suite_testbench,
    "theorem": suite_theorem,
}


def run_suite(names, cfg: ExperimentConfig, outdir: str) -> int:
    """Execute the named suites (all when empty); nonzero exit on failure."""
    if not names:
        names = list(SUITE_NAMES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite names: {unknown}; "
                         f"choose from {sorted(SUITES)}")
    os.makedirs(outdir, exist_ok=True)
    all_rows = []
    for name in names:
        all_rows.extend(SUITES[name](cfg, outdir))
    summary = [[r.suite, r.name, repr(r.value), repr(r.threshold), r.comparator,
                "pass" if r.passed else "FAIL", r.detail, cfg.config_hash]
               for r in all_rows]
    write_csv(os.path.join(outdir, "summary.csv"),
              ["suite", "criterion", "value", "threshold", "comparator",
               "status", "detail", "config_hash"], summary)
    with open(os.path.join(outdir, "config_echo.cfg"), "w", encoding="utf-8") as fh:
        fh.write(f"# config hash: {cfg.config_hash}\n")
        fh.write(cfg.dump())
    for r in all_rows:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}/{r.name}: value={r.value:.6g} "
              f"{r.comparator} {r.threshold:.6g}  {r.detail}")
    return 0 if all(r.passed for r in all_rows) else 1
