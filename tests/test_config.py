"""Configuration validation: every ensemble and sweep a gate reads must be
able to fail it, and every key must be read."""

import ast
from pathlib import Path

import pytest

from dyadica import config
from dyadica.cli import main
from dyadica.config import DEFAULTS, ExperimentConfig

SRC = Path(config.__file__).resolve().parent


def _config(tmp_path, text):
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    return ExperimentConfig.from_file(path)


def test_defaults_validate_and_keep_their_hash():
    # the defaults are unchanged, so is the hash every report echoes
    assert ExperimentConfig.defaults().config_hash == "46a2f1343fda1771"


@pytest.mark.parametrize("section, key", [("probe", "members"), ("sparse", "trials"),
                                          ("ensemble", "count"), ("testbench", "sample_count")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_rejects_empty_ensemble(tmp_path, section, key, value):
    with pytest.raises(ValueError, match=rf"\[{section}\] {key} = {value} must be at least 1"):
        _config(tmp_path, f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key", [("probe", "j_sweep"), ("sparse", "j_sweep"),
                                          ("probe", "bmo_depths")])
@pytest.mark.parametrize("value", ["", "-6", "-6, -6"])
def test_rejects_one_level_sweep(tmp_path, section, key, value):
    with pytest.raises(ValueError, match=rf"\[{section}\] {key} = .* two distinct levels"):
        _config(tmp_path, f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("text", ["[probe]\nmembers = 1\nj_sweep = -5, -6\n",
                                  "[sparse]\ntrials = 1\nj_sweep = -7, -6\n",
                                  "[probe]\nbmo_depths = 4, 6\n",
                                  "[ensemble]\ncount = 1\n",
                                  "[testbench]\nsample_count = 1\n",
                                  "[testbench]\nbench_q = 2.001\n",
                                  "[kernel:k1]\ntype = convolution\narity = 2\n",
                                  "[kernel:k1]\ntype = planted\n",
                                  "[kernel:k1]\ntype = zero\narity = 3\n",
                                  "[dictionary]\nsize = 1\n",
                                  "[dictionary]\nsize = 11\n",
                                  "[root]\nd = 2\n",
                                  "[wavelet]\nN = 1\nrefine = 6\n",
                                  "[probe]\nN = 1\nkappas = 0\nsplits = 0:0\n",
                                  "[sparse]\ntheta = 1.01\ntheta_cap = 1.01\n",
                                  "[sparse]\npacking_intest = 0.99\npacking_mainiter = 0.01\n",
                                  "[testbench]\nk = 0\ntruncation_scale = 0.01\n"])
def test_accepts_smallest_valid_values(tmp_path, text):
    _config(tmp_path, text)


@pytest.mark.parametrize("section, key, value, message", [
    ("root", "d", "0", "dimension must be >= 1"),
    ("wavelet", "N", "0", "order must be >= 1"),
    ("wavelet", "refine", "3", "refinement must be >= 6"),
    ("probe", "N", "0", "order must be >= 1"),
    ("sparse", "theta", "0.5", "threshold must exceed 1"),
    ("sparse", "theta_cap", "8", r"theta_cap 8\.0 is below theta 16\.0"),
    ("sparse", "packing_intest", "1", r"packing target must lie in \(0, 1\)"),
    ("sparse", "packing_mainiter", "0", r"packing target must lie in \(0, 1\)"),
    ("testbench", "k", "-1", "must be at least 0"),
    ("testbench", "truncation_scale", "0", "must be positive"),
])
def test_rejects_values_a_constructor_rejects_later(tmp_path, section, key, value, message):
    # at load, naming the key, not inside a suite after its workspace is built
    with pytest.raises(ValueError, match=rf"^\[{section}\] {key} = {value}(\.0)?:? {message}"):
        _config(tmp_path, f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("value", ["0", "40"])
def test_rejects_dictionary_size_outside_the_recipe_table(tmp_path, value):
    # size 40 gave the coefficients of size 11 under another hash, and size 0
    # failed only when the first workspace was built
    with pytest.raises(ValueError, match=rf"\[dictionary\] size = {value} must lie in "
                                         r"1\.\.11, the largest size the recipe table supports"):
        _config(tmp_path, f"[dictionary]\nsize = {value}\n")


@pytest.mark.parametrize("body, message", [
    ("type = hilbert", r"type = hilbert must be convolution, planted or zero"),
    ("type = tabulated", r"type = tabulated must be convolution, planted or zero"),
    ("type = convolution\narity = 3", r"arity = 3 must be 1 or 2"),
    ("type = convolution\narity = 0", r"arity = 0 must be 1 or 2"),
    ("type = planted\narity = 0", r"arity = 0 must be at least 1"),
    ("type = zero\narity = -1", r"arity = -1 must be at least 1"),
])
def test_rejects_malformed_kernel_section(tmp_path, body, message):
    # at load, naming the section, not inside the testbench after the workspace
    with pytest.raises(ValueError, match=r"\[kernel:k1\] " + message):
        _config(tmp_path, f"[kernel:k1]\n{body}\n")


@pytest.mark.parametrize("section", list(DEFAULTS) + ["kernel:k1"])
def test_rejects_misspelt_key(tmp_path, section):
    # a misspelt key would run with the default and only move the hash
    head = "type = convolution\n" if section.startswith("kernel:") else ""
    with pytest.raises(ValueError, match=rf"\[{section}\] unknown key 'strenght'"):
        _config(tmp_path, f"[{section}]\n{head}strenght = 2\n")


def test_rejects_unknown_section(tmp_path):
    with pytest.raises(ValueError, match=r"unknown section \[sprase\]"):
        _config(tmp_path, "[sprase]\ntrials = 3\n")


def test_valid_files_keep_their_hash(tmp_path):
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in DEFAULTS.items())
    assert _config(tmp_path, text).config_hash == ExperimentConfig.defaults().config_hash
    kernel = "[kernel:k1]\n" + "".join(f"{k} = {v}\n" for k, v in (
        ("type", "convolution"), ("arity", 2), ("eps_trunc", 0.01), ("strength", 2.0),
        ("seed", 3), ("symbol_count", 4)))
    assert _config(tmp_path, kernel).kernels[0].symbol_count == 4


def _property_reads() -> dict:
    """(section, key) -> the ExperimentConfig properties that read it: each
    accessor is a ``name = _read(section, key, ...)`` line of the class."""
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef)
               and n.name == "ExperimentConfig")
    out: dict = {}
    for line in cls.body:
        if isinstance(line, ast.Assign) and isinstance(line.value, ast.Call) \
                and getattr(line.value.func, "id", None) == "_read":
            key = tuple(a.value for a in line.value.args[:2])
            out.setdefault(key, []).append(line.targets[0].id)
    return out


def test_every_default_key_is_read():
    # a key that nothing reads changes the hash but no value
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "config.py":
            used |= {n.attr for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(n, ast.Attribute)}
    reads = _property_reads()
    unread = [(section, key) for section, keys in DEFAULTS.items() for key in keys
              if not used.intersection(reads.get((section, key), ()))]
    assert unread == []


@pytest.mark.parametrize("section, key", [("wavelet", "k"), ("wavelet", "w"),
                                          ("tolerances", "eq_eps"), ("output", "dir"),
                                          ("probe", "growth_cap")])
def test_rejects_removed_key(tmp_path, section, key):
    # nothing reads them, so accepting them would move only the hash
    with pytest.raises(ValueError, match=rf"\[{section}\].* '{key}'"):
        _config(tmp_path, f"[{section}]\n{key} = 3\n")


def test_config_echo_reproduces_the_run(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["suite", "wavelet", "--out", str(first)]) == 0
    assert main(["suite", "wavelet", "--config", str(first / "config_echo.cfg"),
                 "--out", str(second)]) == 0
    for name in ("summary.csv", "config_echo.cfg"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
