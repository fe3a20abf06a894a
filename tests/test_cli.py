import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadica import DyadicCube, RootBox
from dyadica import cache, cli
from dyadica.cli import load_symbol_csv, main
from dyadica.config import ExperimentConfig
from dyadica.funcspace import GridFunction, save_gridfunction
from dyadica.wavelet import CoefficientTree
from oracles import save_symbol_csv


def test_config_defaults_validate_and_hash():
    cfg = ExperimentConfig.defaults()
    assert cfg.d == 1 and cfg.L == 0 and cfg.J == -8
    assert cfg.probe_splits == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert cfg.probe_exponents[1] == (2.0, np.inf)
    assert len(cfg.config_hash) == 16
    assert cfg.config_hash == ExperimentConfig.defaults().config_hash


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[root]\nJ = -6\n\n[ensemble]\nseed = 7\n", encoding="utf-8")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.J == -6 and cfg.seed == 7
    assert cfg.config_hash != ExperimentConfig.defaults().config_hash


def test_config_validation_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[probe]\nkappas = 5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path)
    path.write_text("[sparse]\nexponents = 4, 4, 4\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path)
    # the Sobolev bench would refuse these only after the testing symbols
    for value in ("2", "1.5", "nan"):
        path.write_text(f"[testbench]\nbench_q = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"\[testbench\] bench_q = {value} must exceed 2"):
            ExperimentConfig.from_file(path)


def test_probe_pi_conventions():
    assert ExperimentConfig.probe_pi((1, 0), (4.0, 4.0)) == pytest.approx(4.0)
    assert ExperimentConfig.probe_pi((1, 1), (4.0, 4.0)) == pytest.approx(4.0)
    assert ExperimentConfig.probe_pi((0, 0), (2.0, np.inf)) == pytest.approx(4.0)
    assert ExperimentConfig.holder_r((4.0, 4.0)) == pytest.approx(2.0)


def test_symbol_csv_roundtrip(tmp_path, root8):
    tree = CoefficientTree(root8)
    tree[DyadicCube(-3, (2,))] = 1.5
    tree[DyadicCube(-5, (9,))] = -0.25
    path = tmp_path / "sym.csv"
    save_symbol_csv(path, tree)
    back = load_symbol_csv(path, root8)
    assert back[DyadicCube(-3, (2,))] == pytest.approx(1.5)
    assert back[DyadicCube(-5, (9,))] == pytest.approx(-0.25)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), depth=st.integers(1, 3), complex_=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_symbol_csv_roundtrip_property(tmp_path_factory, d, depth, complex_, seed):
    # repr of a float reads back exactly, so the tree comes back bit for bit
    root = RootBox(d=d, L=0, J=-depth)
    rng = np.random.default_rng(seed)
    tree = CoefficientTree(root, dtype=complex if complex_ else float)
    for scale in range(root.J + 1, root.L + 1):
        n = root.positions_per_side(scale)
        vals = rng.standard_normal((n,) * d) * (rng.random((n,) * d) < 0.5)
        if complex_:
            vals = vals + 1j * rng.standard_normal((n,) * d) * (vals != 0)
        tree.data[scale] = vals
    path = tmp_path_factory.mktemp("sym") / "sym.csv"
    save_symbol_csv(path, tree)
    back = load_symbol_csv(path, root)
    is_complex = any(np.any(a.imag != 0) for a in tree.data.values()) if complex_ else False
    assert back.dtype is (complex if is_complex else float)
    assert sorted(back.data) == sorted(s for s, a in tree.data.items() if a.any())
    for scale, arr in back.data.items():
        assert np.array_equal(arr, tree.data[scale])


def _write_inputs(tmp_path, root, count, seed=5):
    rng = np.random.default_rng(seed)
    paths = []
    mids = root.midpoints_1d()
    for i in range(count):
        f = GridFunction(root, rng.standard_normal(root.shape)
                         * np.exp(-30 * (mids - 0.5) ** 2))
        p = tmp_path / f"f{i}.gfn"
        save_gridfunction(p, f)
        paths.append(str(p))
    return paths


def test_cli_norms_subcommand(tmp_path, root8):
    paths = _write_inputs(tmp_path, root8, 1)
    out = tmp_path / "out"
    code = main(["norms", "--input", paths[0], "--specs",
                 "0,0,2,2; 1,-1,4,2; 0,0,2,inf; 0,0,2,oo", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(open(out / "norms.csv")))
    assert rows[0][:4] == ["n", "m", "p", "q"]
    assert len(rows) == 5
    assert float(rows[1][4]) > 0.0
    # oo reads as inf, as in config files
    assert rows[3][3] == rows[4][3] == "inf" and rows[3][4] == rows[4][4]


def test_cli_paraproduct_subcommand(tmp_path, root8):
    tree = CoefficientTree(root8)
    tree[DyadicCube(-3, (3,))] = 1.0
    sym = tmp_path / "sym.csv"
    save_symbol_csv(sym, tree)
    paths = _write_inputs(tmp_path, root8, 2)
    out = tmp_path / "out"
    code = main(["paraproduct", "--symbol", str(sym),
                 "--inputs", ",".join(paths), "--exponents", "4,4",
                 "--out", str(out)])
    assert code == 0
    assert (out / "paraproduct_output.gfn").exists()
    rows = list(csv.reader(open(out / "paraproduct_ratio.csv")))
    assert float(rows[1][1]) >= 0.0
    ratios = []
    for exps in ("2,inf", "2,oo"):
        assert main(["paraproduct", "--symbol", str(sym), "--inputs", ",".join(paths),
                     "--exponents", exps, "--out", str(out / exps[2:])]) == 0
        ratios.append(list(csv.reader(open(out / exps[2:] / "paraproduct_ratio.csv")))[1][:2])
    assert ratios[0] == ratios[1] and ratios[0][0] == "2.0"  # r of (2, inf)


@pytest.mark.parametrize("mode", ["intest", "mainiter"])
def test_cli_sparse_subcommand(tmp_path, root8, mode):
    paths = _write_inputs(tmp_path, root8, 3)
    out = tmp_path / "out"
    code = main(["sparse", "--inputs", ",".join(paths), "--mode", mode,
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(open(out / "sparse_collection.csv")))
    assert rows[0] == ["cube", "generation", "children_packing_ratio"]
    assert rows[1][0].startswith("1:0:")
    # every node's packing is within the mode's default target
    target = {"intest": 2.0 ** -6, "mainiter": 0.25}[mode]
    assert all(float(r[2]) <= target for r in rows[1:] if r[2])
    (report,) = list(csv.DictReader(open(out / "sparse_domination.csv")))
    assert float(report["theta"]) >= 16.0
    assert (report["ratio"] == "") == (mode == "mainiter")


def test_cli_unknown_suite_usage_error(tmp_path):
    with pytest.raises(ValueError):
        main(["suite", "nonsense", "--out", str(tmp_path)])


def test_cli_rejects_removed_threads_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["theorem-probe", "--threads", "2", "--out", str(tmp_path)])


@pytest.mark.parametrize("suite, text, files", [
    ("norms", "[ensemble]\ncount = 10\n", ["summary.csv"]),
    ("paraproduct", "[sparse]\nj_sweep = -5, -6\n", ["summary.csv"]),
    ("sparse", "[sparse]\ntrials = 3\nj_sweep = -6, -7\n", ["summary.csv"]),
    ("testbench", "[testbench]\nsample_count = 6\n", ["summary.csv"]),
    ("theorem", "[probe]\nmembers = 4\nj_sweep = -5, -6\n",
     # its summary.csv holds the probe's wall-clock time
     ["theorem_probe.csv", "theorem_growth.csv"]),
    ("wavelet", "[dictionary]\nsize = 4\n", ["summary.csv"])],
    ids=["norms", "paraproduct", "sparse", "testbench", "theorem", "wavelet"])
def test_cli_suite_reproducible_csv(tmp_path, suite, text, files):
    # a cold run against a warm one: a cache leaking between calls, or one
    # that depends on iteration order, shows as a byte difference
    cache.clear()
    cfg = tmp_path / "small.cfg"
    cfg.write_text(text, encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["suite", suite, "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["suite", suite, "--config", str(cfg), "--out", str(out2)]) == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    text = (out1 / "summary.csv").read_text()
    assert ExperimentConfig.from_file(cfg).config_hash in text


@pytest.mark.parametrize("seed, expect", [(["--seed", "3"], 3), ([], 20240817)])
def test_cli_testbench_applies_seed(tmp_path, monkeypatch, seed, expect):
    seen = []
    monkeypatch.setattr(cli, "suite_testbench",
                        lambda cfg, out: seen.append(cfg.seed) or [])
    assert main(["testbench", "--out", str(tmp_path)] + seed) == 0
    assert seen == [expect]


@pytest.mark.parametrize("argv", [
    ["norms", "--input", "f.gfn"],
    ["paraproduct", "--symbol", "sym.csv", "--inputs", "f.gfn"],
    ["sparse", "--inputs", "f.gfn"]])
def test_cli_unseeded_commands_reject_seed(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, what", [
    ("", 1, "cube,re,im"),
    ("cube,re,im\n1:-3:2,1.5,0.0\n1:-5:9,0.5\n", 3, "got 2 field"),
    ("cube,re,im\n1:-3:2,1.5,0.0\n1:-5:9,abc,0.0\n", 3, "abc")])
def test_symbol_csv_malformed_input(tmp_path, root8, text, line, what):
    path = tmp_path / "sym.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"sym.csv, line {line}: .*{what}"):
        load_symbol_csv(path, root8)


@pytest.mark.parametrize("specs, what", [
    ("0,0,2", "group '0,0,2': expected n,m,p,q, got 3 value"),
    ("0,0,2,2,1", "group '0,0,2,2,1': expected n,m,p,q, got 5 value"),
    ("0,0,2,2; 0,x,2,2", "group '0,x,2,2': could not convert"),
    ("0,0,0.5,2", r"group '0,0,0.5,2': exponents must lie in \[1, inf\]"),
    (" ; ", "no n,m,p,q group")])
def test_cli_norms_rejects_malformed_specs(tmp_path, capsys, specs, what):
    # a usage error that names the group, before any input file is read
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--input", str(tmp_path / "missing.gfn"), "--specs", specs,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert re.search("argument --specs: " + what, capsys.readouterr().err)


@pytest.mark.parametrize("exponents, what", [
    ("4", "--exponents gives 1 exponent"),
    ("4,4,4", "--exponents gives 3 exponent"),
    ("4,x", "argument --exponents: group '4,x': could not convert")])
def test_cli_paraproduct_rejects_malformed_exponents(tmp_path, root8, capsys,
                                                     monkeypatch, exponents, what):
    tree = CoefficientTree(root8)
    tree[DyadicCube(-3, (3,))] = 1.0
    sym = tmp_path / "sym.csv"
    save_symbol_csv(sym, tree)
    paths = _write_inputs(tmp_path, root8, 2)
    # the count is checked before the paraproduct is applied
    monkeypatch.setattr(cli, "apply_paraproduct", lambda *a: pytest.fail("applied"))
    with pytest.raises(SystemExit) as exc:
        main(["paraproduct", "--symbol", str(sym), "--inputs", ",".join(paths),
              "--exponents", exponents, "--out", str(tmp_path / "out")])
    assert what in str(exc.value.code) + capsys.readouterr().err
