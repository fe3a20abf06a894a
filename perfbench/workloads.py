"""The benchmark's seeded workloads.

Each workload has a set-up step (build every workspace it uses, which every
``dyadica`` invocation pays), an input step (seeded draws, not timed) and a
pass (the timed work).  A pass returns a ``PassLog``: one entry per
operation with its pass/fail status, the residual of every exactness
identity it checked, and checksums of its outputs, so that two passes, two
runs or two commits can be compared.

Only public names of the ``dyadica`` modules are used.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from dyadica import suites
from dyadica.config import ExperimentConfig
from dyadica.czform import KernelSpec, testing_norm, testing_symbols, wbp_check
from dyadica.dyadic import DyadicCube, RootBox
from dyadica.ensembles import (atom_tree, interior_positions, mixed_function,
                               random_interior_function)
from dyadica.funcspace import GridFunction, pairing, sobolev_norm
from dyadica.paraproduct import (ParaproductSpec, adjoint_apply, apply_paraproduct,
                                 duality_form, form_eval)
from dyadica.sparse import StoppingConfig, verify_domination
from dyadica.tlnorm import NormSpec, TestDictionary, tl_norm
from dyadica.wavelet import AtomBasis, CoefficientTree, build_family, l2_norm

DEFAULT_SEED = 20240817

# Tolerances of the exactness identities, as the acceptance suites state them
# for the same identities.
GRAM_TOL = 1e-8
HIGH_LOW_TOL = 1e-6
DUALITY_TOL = 1e-8
ANALYSIS_SYNTHESIS_TOL = 1e-8
EMBEDDING_TOL = 1e-9
ANTISYMMETRY_TOL = 1e-10

# Acceptance criteria that are exact identities: a failure is a wrong
# result, not an unlucky draw, so it also makes the run incorrect.
EXACT_CRITERIA = frozenset({
    "wavelet/gram_identity_N2", "wavelet/gram_identity_N3",
    "wavelet/high_low_residual_N2", "wavelet/high_low_residual_N3",
    "paraproduct/duality_identity", "norms/embedding_lattice_gap",
    "testbench/zero_kernel_testing_norm",
})

# summary.csv fields that carry wall-clock time and so differ between two
# runs of the same code; they are masked before outputs are compared.
MASKED_VALUES = frozenset({"theorem/probe_runtime_seconds"})
_ELAPSED_RE = re.compile(r"\bin \d+s\b")


def mask_detail(key: str, detail: str) -> str:
    if key == "theorem/probe_ratio_growth":
        return _ELAPSED_RE.sub("in <masked>s", detail)
    return detail


# -- pass records ---------------------------------------------------------


@dataclass
class PassLog:
    """Operations of one pass, their outcome and the outputs they produced."""

    ops: list = field(default_factory=list)        # (name, ok, exact, detail)
    residuals: dict = field(default_factory=dict)  # identity -> (value, tol)
    outputs: dict = field(default_factory=dict)    # name -> checksum or record
    seconds: dict = field(default_factory=dict)    # operation -> wall seconds

    def run(self, name: str, fn, exact: bool = False) -> None:
        """Run one operation; it fails if it raises or returns False."""
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a raising operation is a failed operation
            ok, exact, detail = False, True, f"raised {type(exc).__name__}: {exc}"
        self.seconds[name] = time.perf_counter() - t0
        self.ops.append((name, bool(ok), exact, detail))

    def identity(self, name: str, value: float, tol: float):
        self.residuals[name] = (float(value), tol)
        return value <= tol, f"{name} {value:.3e} <= {tol:g}"

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _, _ in self.ops if not ok)

    @property
    def exact_ok(self) -> bool:
        """False if an exactness identity failed or an operation raised."""
        return all(ok for _, ok, exact, _ in self.ops if exact)


def checksum(arr) -> list[float]:
    """Order-sensitive summary of an array: sum, sum of |x|, l2 norm and a
    weighted sum with fixed pseudo-random weights."""
    a = np.asarray(arr, dtype=float).ravel()
    w = np.random.default_rng(12345).standard_normal(a.size)
    return [float(a.sum()), float(np.abs(a).sum()),
            float(np.sqrt(np.dot(a, a))), float(np.dot(w, a))]


def flat(arrays: dict) -> np.ndarray:
    """Per-scale arrays (a tree's data, coefficient arrays) in scale order."""
    return np.concatenate([arrays[s].ravel() for s in sorted(arrays)])


# -- workspaces -------------------------------------------------------------


@dataclass
class Space:
    root: RootBox
    basis: AtomBasis
    dictionary: TestDictionary


def build_space(d: int, L: int, J: int, N: int, size: int, refine: int = 8) -> Space:
    """The work ``suites.workspace`` does for one key, without its cache."""
    fam = build_family(N, refine=refine)
    root = RootBox(d=d, L=L, J=J)
    basis = AtomBasis(fam, root)
    return Space(root, basis, TestDictionary(basis, size))


class Workload:
    name = ""
    warm_up = True  # untimed first pass: lazy caches fill before timing

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Build every workspace; repeatable, and only the first one's
        workspaces are used by the passes."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Draw the seeded inputs; called once, after set-up."""

    def run_pass(self) -> PassLog:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload wrote."""


# -- acceptance -------------------------------------------------------------


def acceptance_keys(cfg: ExperimentConfig) -> list[tuple]:
    """``suites.workspace`` keys the six suites use for ``cfg``."""
    d, L, J, size, refine = cfg.d, cfg.L, cfg.J, cfg.dictionary_size, cfg.refine
    order = cfg.wavelet_order
    keys = [(1, L, L - 8, 2, size, refine), (1, L, L - 8, 3, size, refine),
            (d, L, J, order, size, refine),
            (1, L, L - 8, max(order, cfg.testbench_k + 1), size, refine)]
    keys += [(d, L, Jj - 1, order, size, refine) for Jj in cfg.sparse_j_sweep]
    keys += [(d, L, Jj, order, size, refine) for Jj in cfg.sparse_j_sweep]
    sweep = cfg.probe_j_sweep
    keys += [(d, L, Jj, cfg.probe_order, size, refine) for Jj in [max(sweep), *sweep]]
    keys += [(1, 0, -depth, order, size, refine) for depth in cfg.bmo_depths]
    return list(dict.fromkeys(keys))


class Acceptance(Workload):
    name = "acceptance"
    # `dyadica suite` fills the workspaces' clip caches on every invocation,
    # so the cold first pass is what users wait for and is timed too
    warm_up = False

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.cfg = ExperimentConfig.defaults()
        self.cfg.raw.set("ensemble", "seed", str(seed))
        self.keys = acceptance_keys(self.cfg)
        self.outdir = tempfile.mkdtemp(prefix="suite-", dir=scratch)
        self._setups = 0

    def setup(self) -> None:
        # The first set-up fills the suites' workspace cache, as a user's
        # process does; later ones repeat the same construction uncached.
        self._setups += 1
        for key in self.keys:
            if self._setups == 1:
                suites.workspace(*key)
            else:
                build_space(*key)

    def run_pass(self) -> PassLog:
        log = PassLog()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                suites.run_suite([], self.cfg, self.outdir)
        except Exception as exc:  # a raising run is a failed operation
            log.ops.append(("run_suite", False, True,
                            f"raised {type(exc).__name__}: {exc}"))
            return log
        with open(os.path.join(self.outdir, "summary.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            key = f"{row['suite']}/{row['criterion']}"
            ok = row["status"] == "pass"
            log.ops.append((key, ok, key in EXACT_CRITERIA,
                            f"{row['value']} {row['comparator']} {row['threshold']}"))
            value = "<masked>" if key in MASKED_VALUES else float(row["value"])
            log.outputs[key] = {"value": value, "threshold": float(row["threshold"]),
                                "comparator": row["comparator"], "status": row["status"],
                                "detail": mask_detail(key, row["detail"])}
            if key in EXACT_CRITERIA:
                log.residuals[key] = (float(row["value"]), float(row["threshold"]))
        if not rows:
            log.ops.append(("summary", False, True, "summary.csv has no rows"))
        return log

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


# -- fine single-box pipelines -----------------------------------------------


def interior_tree(basis: AtomBasis, tree: CoefficientTree) -> CoefficientTree:
    """``tree`` restricted to cubes whose dilated cube stays in the box."""
    out = CoefficientTree(basis.root)
    for scale, arr in tree.data.items():
        band = np.zeros(arr.shape[0], dtype=bool)
        rng = interior_positions(basis, scale)
        band[rng.start:rng.stop] = True
        mask = band
        for _ in range(arr.ndim - 1):
            mask = np.logical_and.outer(mask, band)
        out.data[scale] = np.where(mask, arr, 0.0)
    return out


class Fine(Workload):
    """One d-dimensional box, every layer called once per pass."""

    d: int
    J: int
    czform_J: int | None = None  # box of the czform bench, d = 1 only

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.cfg = ExperimentConfig.defaults()

    def setup(self) -> None:
        # The first set-up builds the workspaces the passes use; later ones
        # repeat the construction and drop it, so the passes keep the
        # workspaces whose caches a warm-up pass filled.
        cfg = self.cfg
        space = build_space(self.d, 0, self.J, cfg.wavelet_order,
                            cfg.dictionary_size, cfg.refine)
        cz = None if self.czform_J is None else build_space(
            1, 0, self.czform_J, max(cfg.wavelet_order, cfg.testbench_k + 1),
            cfg.dictionary_size, cfg.refine)
        if not hasattr(self, "space"):
            self.space, self.cz = space, cz

    def prepare(self) -> None:
        sp, cfg = self.space, self.cfg
        rng = np.random.default_rng([self.seed, 100 + self.d])
        self.f = [mixed_function(rng, sp.basis, kind=i) for i in range(3)]
        # fixed kinds, so that every seed draws inputs of the same structure
        self.b = mixed_function(rng, sp.basis, kind=2)
        self.g = mixed_function(rng, sp.basis, kind=1)
        # white noise: its analysis tree is nonzero on every cube, so the
        # per-cube paraproduct loops do the same work for every seed
        self.noise = GridFunction(sp.root, rng.standard_normal(sp.root.shape))
        self.interior_f = random_interior_function(rng, sp.basis)
        self.atoms = atom_tree(rng, sp.basis, count=24)
        cubes = sp.basis.interior_cubes()
        pick = rng.choice(len(cubes), size=min(192, len(cubes)), replace=False)
        self.gram_cubes = [cubes[i] for i in sorted(pick)]
        self.ells = sorted({int(e) for e in rng.integers(sp.root.J + 2, sp.root.L, size=2)})
        # mainiter domination runs on the central subcube with 2^4 cells per
        # side, where the plateau and wave inputs do not vanish
        sub_scale = sp.root.J + 4
        self.sub_cube = DyadicCube(
            sub_scale, (sp.root.positions_per_side(sub_scale) // 2,) * self.d)
        self.intest = StoppingConfig(theta=cfg.sparse_theta,
                                     packing_target=cfg.packing_intest,
                                     theta_cap=cfg.sparse_theta_cap, mode="intest")
        self.mainiter = StoppingConfig(theta=cfg.sparse_theta,
                                       packing_target=cfg.packing_mainiter,
                                       theta_cap=cfg.sparse_theta_cap, mode="mainiter")
        if self.czform_J is not None:
            cz = self.cz
            self.kernel = KernelSpec(cz.root, n=1, kind="convolution",
                                     eps_trunc=4.0 * cz.root.cell_width)
            cubes = cz.basis.interior_cubes(cz.root.J + 3, cz.root.L - 2)
            self.cz_cubes = cubes[::max(1, len(cubes) // 12)]
            self.cz_pair = [mixed_function(rng, cz.basis, kind=i) for i in (1, 2)]

    def run_pass(self) -> PassLog:
        log = PassLog()
        sp, out = self.space, {}
        basis, dic = sp.basis, sp.dictionary
        f0, f1, f2 = self.f

        def analyze():
            out["tree"] = basis.analyze(f0.samples)
            log.outputs["analyze"] = checksum(flat(out["tree"].data))
            return True, "analysis tree"

        def synthesize():
            rec = basis.synthesize(out["tree"])
            log.outputs["synthesize"] = checksum(rec)
            back = interior_tree(basis, basis.analyze(basis.synthesize(self.atoms)))
            err = max(np.max(np.abs(arr - self.atoms.data.get(s, 0.0)))
                      for s, arr in back.data.items())
            err /= max(self.atoms.max_abs(), 1e-300)
            return log.identity("analysis_synthesis", err, ANALYSIS_SYNTHESIS_TOL)

        def gram():
            return log.identity("gram", basis.gram_residual(self.gram_cubes), GRAM_TOL)

        def high_low():
            fs = self.interior_f.samples
            worst = max(basis.high_low_residual(fs, ell) for ell in self.ells)
            return log.identity("high_low", worst / max(l2_norm(fs, sp.root), 1e-300),
                                HIGH_LOW_TOL)

        def paraproduct():
            symbol = out["symbol"] = interior_tree(basis, basis.analyze(self.noise.samples))
            spec = ParaproductSpec(basis, symbol, arity=2)
            bfunc = GridFunction(sp.root, basis.synthesize(symbol))
            prod = apply_paraproduct(spec, [f1, f2])
            adj = adjoint_apply(spec, 1, [self.g, f2])
            form = form_eval(duality_form(spec), bfunc, [self.g, f1, f2])
            lhs = pairing(prod, self.g)
            mass = float(np.sum(np.abs(prod.samples * self.g.samples))) \
                * sp.root.cell_measure
            denom = max(abs(lhs), abs(form), mass, 1e-300)
            log.outputs["apply_paraproduct"] = checksum(prod.samples)
            log.outputs["adjoint_apply"] = checksum(adj.samples)
            log.outputs["form_eval"] = float(form)
            ok1, d1 = log.identity("duality", abs(lhs - form) / denom, DUALITY_TOL)
            ok2, d2 = log.identity("adjoint_duality",
                                   abs(pairing(adj, f1) - lhs) / denom, DUALITY_TOL)
            return ok1 and ok2, f"{d1}; {d2}"

        def norms():
            coeffs = dic.coeff_arrays(f0)
            log.outputs["coeff_arrays"] = checksum(flat(coeffs))
            gap = -np.inf
            values = []
            for u in (0, 1):
                for p, r in ((1.0, 2.0), (2.0, 4.0)):
                    for q, s in ((np.inf, 2.0), (2.0, 1.0)):
                        a = tl_norm(f0, NormSpec(0.0, 0.0, p, q), dic, coeffs)
                        b = tl_norm(f0, NormSpec(float(u), float(-u), r, s), dic, coeffs)
                        values += [a, b]
                        gap = max(gap, a - b)
            log.outputs["tl_norm"] = values
            sob = sobolev_norm(f1, -1, 2.0, basis)
            log.outputs["sobolev_norm"] = float(sob)
            ok, detail = log.identity("embedding_gap", max(gap, 0.0), EMBEDDING_TOL)
            return ok and math.isfinite(sob) and sob > 0, detail

        def domination_intest():
            rep = verify_domination(sp.root.root_cube, self.intest, dic,
                                    exponents=self.cfg.sparse_exponents,
                                    b=self.b, g=self.g, fs=[f2])
            coll = rep["collection"]
            log.outputs["verify_domination_intest"] = [
                float(rep["lhs"]), float(rep["rhs"]), float(rep["theta"]),
                len(coll.cubes())]
            packed = all(v <= self.intest.packing_target
                         for v in coll.packing_by_parent.values())
            stopped = all(s <= bnd + 1e-9 for s, bnd in coll.stopped_square_checks)
            return (packed and stopped and math.isfinite(rep["ratio"]),
                    f"ratio {rep['ratio']:.4g}, theta {rep['theta']:g}")

        def domination_mainiter():
            spec = ParaproductSpec(basis, out["symbol"], arity=2)
            rep = verify_domination(self.sub_cube, self.mainiter, dic,
                                    exponents=self.cfg.sparse_exponents, spec=spec,
                                    g=f2, fs=[f2], f1=f1, n=1)
            coll = rep["collection"]
            log.outputs["verify_domination_mainiter"] = [
                float(rep["lhs"]), float(rep["rhs"]), float(rep["theta"]),
                len(coll.cubes())]
            packed = all(v <= self.mainiter.packing_target
                         for v in coll.packing_by_parent.values())
            # inputs that vanish near the cube give 0 <= C * 0, which holds
            bounded = rep["lhs"] == 0.0 or math.isfinite(rep["ratio"])
            return (packed and bounded,
                    f"ratio {rep['ratio']:.4g}, theta {rep['theta']:g}")

        def czform():
            cz, spec, k = self.cz, self.kernel, self.cfg.testbench_k
            wbp = wbp_check(spec, cz.dictionary, self.cz_cubes)
            symbols = testing_symbols(spec, cz.basis, k,
                                      truncation_scale=self.cfg.truncation_scale,
                                      cubes=self.cz_cubes)
            parts = testing_norm(symbols, k, 2.0, self.cfg.bench_q, cz.basis,
                                 cz.dictionary)
            u, v = self.cz_pair
            fwd, bwd = spec.evaluate([u, v]), spec.evaluate([v, u])
            mass = float(np.sum(np.abs(u.samples)) * np.sum(np.abs(v.samples))) \
                * cz.root.cell_measure
            log.outputs["czform"] = [float(wbp["constant"]), float(parts["total"]),
                                     len(symbols.flagged), float(fwd)]
            ok, detail = log.identity("antisymmetry", abs(fwd + bwd) / max(mass, 1e-300),
                                      ANTISYMMETRY_TOL)
            finite = all(math.isfinite(x) for x in (wbp["constant"], parts["total"]))
            return ok and finite, detail

        log.run("analyze", analyze)
        log.run("synthesize", synthesize, exact=True)
        log.run("gram_residual", gram, exact=True)
        if self.d == 1:
            log.run("high_low_residual", high_low, exact=True)
        log.run("paraproduct", paraproduct, exact=True)
        log.run("norms", norms, exact=True)
        log.run("verify_domination_intest", domination_intest)
        log.run("verify_domination_mainiter", domination_mainiter)
        if self.czform_J is not None:
            log.run("czform", czform, exact=True)
        return log


class FineD1(Fine):
    name = "fine_d1"
    d, J, czform_J = 1, -12, -9


class FineD2(Fine):
    name = "fine_d2"
    d, J = 2, -6


WORKLOADS = {w.name: w for w in (Acceptance, FineD1, FineD2)}
