"""Command line front end.

    dyadica suite [names ...] --config cfg --out dir
    dyadica norms --input f.gfn --specs "0,0,2,2; 1,-1,4,2" --out dir
    dyadica paraproduct --symbol sym.csv --inputs f1.gfn,f2.gfn --out dir
    dyadica sparse --inputs b.gfn,g.gfn,f2.gfn --mode intest --out dir
    dyadica testbench --config cfg --out dir
    dyadica theorem-probe --config cfg --out dir

Outputs are CSV tables and two-column plot-data files for offline use.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import ExperimentConfig, _parse_float
from .dyadic import DyadicCube, RootBox
from .funcspace import (GridFunction, load_gridfunction, lp_norm,
                        save_gridfunction)
from .paraproduct import ParaproductSpec, apply_paraproduct
from .sparse import StoppingConfig, build_sparse, verify_domination
from .suites import run_suite, run_theorem_probe, suite_testbench, workspace, write_csv
from .tlnorm import NormSpec, tl_norms
from .wavelet import CoefficientTree


def _load_config(path) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig.defaults()
    return ExperimentConfig.from_file(path)


def load_symbol_csv(path, root: RootBox) -> CoefficientTree:
    tree = CoefficientTree(root, dtype=complex)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:1] != ["cube"]:
            raise ValueError(f"{path}, line 1: symbol CSV needs columns cube,re,im")
        for row in reader:
            try:
                if len(row) < 3:
                    raise ValueError(f"expected cube,re,im, got {len(row)} field(s)")
                cube = DyadicCube.from_token(row[0])
                tree[cube] = float(row[1]) + 1j * float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if all(np.allclose(a.imag, 0.0) for a in tree.data.values()):
        real = CoefficientTree(root)
        real.data = {s: a.real.copy() for s, a in tree.data.items()}
        return real
    return tree


def _parse_numbers(text: str) -> list[float]:
    """Comma-separated numbers, inf spelt inf, infinity or oo as in config files."""
    try:
        return [_parse_float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"group {text.strip()!r}: {exc}") from None


def _parse_norm_specs(text: str) -> list[NormSpec]:
    """``n,m,p,q`` groups separated by semicolons."""
    out = []
    for group in filter(None, (g.strip() for g in text.split(";"))):
        vals = _parse_numbers(group)
        if len(vals) != 4:
            raise argparse.ArgumentTypeError(
                f"group {group!r}: expected n,m,p,q, got {len(vals)} value(s)")
        try:
            out.append(NormSpec(*vals))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"group {group!r}: {exc}") from None
    if not out:
        raise argparse.ArgumentTypeError("no n,m,p,q group")
    return out


def _seeded_config(args) -> ExperimentConfig:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.raw.set("ensemble", "seed", str(args.seed))
    return cfg


def cmd_suite(args) -> int:
    return run_suite(args.names, _seeded_config(args), args.out)


def cmd_norms(args) -> int:
    cfg = _load_config(args.config)
    f = load_gridfunction(args.input)
    ws = workspace(f.root.d, f.root.L, f.root.J, cfg.wavelet_order,
                   cfg.dictionary_size, cfg.refine)
    rows = [[spec.n, spec.m, spec.p, spec.q, repr(val), cfg.config_hash]
            for spec, val in zip(args.specs, tl_norms(f, args.specs, ws.dictionary).tolist())]
    write_csv(os.path.join(args.out, "norms.csv"),
              ["n", "m", "p", "q", "value", "config_hash"], rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return 0


def cmd_paraproduct(args) -> int:
    cfg = _load_config(args.config)
    paths, exps = args.inputs.split(","), args.exponents
    if len(exps) != len(paths):
        raise SystemExit(f"--exponents gives {len(exps)} exponent(s) for "
                         f"{len(paths)} input(s); one exponent per input")
    inputs = [load_gridfunction(p) for p in paths]
    root = inputs[0].root
    ws = workspace(root.d, root.L, root.J, cfg.wavelet_order, cfg.dictionary_size,
                   cfg.refine)
    symbol = load_symbol_csv(args.symbol, ws.root)
    spec = ParaproductSpec(ws.basis, symbol, arity=len(inputs))
    out = apply_paraproduct(spec, inputs)
    r = ExperimentConfig.holder_r(exps)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "paraproduct_output.gfn")
    save_gridfunction(out_path, GridFunction(ws.root, np.real(out.samples)))
    denom = float(np.prod([lp_norm(f, p) for f, p in zip(inputs, exps)]))
    ratio = lp_norm(out, r) / denom if denom > 0 else float("nan")
    write_csv(os.path.join(args.out, "paraproduct_ratio.csv"),
              ["output_r", "ratio", "output_file", "config_hash"],
              [[r, repr(ratio), out_path, cfg.config_hash]])
    print(f"wrote {out_path}; ratio {ratio}")
    return 0


def cmd_sparse(args) -> int:
    cfg = _load_config(args.config)
    inputs = [load_gridfunction(p) for p in args.inputs.split(",")]
    root = inputs[0].root
    ws = workspace(root.d, root.L, root.J, cfg.wavelet_order, cfg.dictionary_size,
                   cfg.refine)
    q0 = ws.root.root_cube
    target = cfg.packing_intest if args.mode == "intest" else cfg.packing_mainiter
    stop_cfg = StoppingConfig(theta=cfg.sparse_theta, packing_target=target,
                              theta_cap=cfg.sparse_theta_cap, mode=args.mode)
    os.makedirs(args.out, exist_ok=True)
    if args.mode == "intest":
        b, g, *fs = inputs
        rep = verify_domination(q0, stop_cfg, ws.dictionary,
                                exponents=cfg.sparse_exponents, b=b, g=g, fs=fs)
        coll = rep.pop("collection")
    else:
        coll = build_sparse(q0, {"f1": inputs[0], "n": 1}, stop_cfg, ws.dictionary)
        rep = {"lhs": "", "rhs": "", "ratio": "", "theta": coll.theta}
    rows = []
    for gen_idx, gen in enumerate([[coll.root_cube]] + coll.generations):
        for cube in gen:
            rows.append([cube.token(), gen_idx,
                         repr(coll.packing_by_parent.get(cube, ""))])
    write_csv(os.path.join(args.out, "sparse_collection.csv"),
              ["cube", "generation", "children_packing_ratio"], rows)
    write_csv(os.path.join(args.out, "sparse_domination.csv"),
              ["lhs", "rhs", "ratio", "theta", "config_hash"],
              [[rep["lhs"], rep["rhs"], rep["ratio"], rep["theta"],
                cfg.config_hash]])
    print(f"collection of {len(rows)} cubes written under {args.out}")
    return 0


def cmd_testbench(args) -> int:
    cfg = _seeded_config(args)
    os.makedirs(args.out, exist_ok=True)
    rows = suite_testbench(cfg, args.out)
    bad = [r for r in rows if not r.passed]
    for r in rows:
        print(f"[{'pass' if r.passed else 'FAIL'}] {r.name}: {r.value:.6g}")
    return 1 if bad else 0


def cmd_theorem_probe(args) -> int:
    cfg = _seeded_config(args)
    os.makedirs(args.out, exist_ok=True)
    worst, table, _ = run_theorem_probe(cfg, args.out)
    print(f"worst growth factor {worst:.4f} over {len(table)} variants "
          f"(cap {cfg.growth_cap})")
    return 0 if worst <= cfg.growth_cap else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyadica",
        description="dyadic wavelet machinery: norms, paraproducts, sparse "
                    "domination, testing benches")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--config", default=None, help="INI-style config file")
        p.add_argument("--out", default="out", help="output directory")
        if seeded:  # only the commands that draw seeded ensembles
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("suite", help="run named acceptance suites (all if none)")
    p.add_argument("names", nargs="*", default=[])
    common(p, seeded=True)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("norms", help="evaluate symbol norms of a function file")
    p.add_argument("--input", required=True)
    p.add_argument("--specs", default="0,0,2,2", type=_parse_norm_specs,
                   help='n,m,p,q groups separated by ";"')
    common(p)
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("paraproduct", help="apply a paraproduct to input files")
    p.add_argument("--symbol", required=True, help="symbol CSV (cube,re,im)")
    p.add_argument("--inputs", required=True, help="comma-separated .gfn files")
    p.add_argument("--exponents", default="4,4",
                   type=_parse_numbers,
                   help="one exponent per input, comma-separated")
    common(p)
    p.set_defaults(fn=cmd_paraproduct)

    p = sub.add_parser("sparse", help="build a sparse collection and report")
    p.add_argument("--inputs", required=True, help="b,g,f2,... function files")
    p.add_argument("--mode", choices=("intest", "mainiter"), default="intest")
    common(p)
    p.set_defaults(fn=cmd_sparse)

    p = sub.add_parser("testbench", help="kernel registry bench")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_testbench)

    p = sub.add_parser("theorem-probe", help="boundedness ratio sweep")
    common(p, seeded=True)
    p.set_defaults(fn=cmd_theorem_probe)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
