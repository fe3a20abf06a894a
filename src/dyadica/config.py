"""Experiment configuration: flat key = value sections, validation of the
probe constraints, and a content hash echoed into every report."""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .tlnorm import check_dictionary_size

DEFAULTS = {
    "root": {"d": "1", "L": "0", "J": "-8"},
    "wavelet": {"N": "3", "refine": "8"},
    "dictionary": {"size": "8"},
    "ensemble": {"count": "100", "seed": "20240817"},
    "probe": {
        "N": "4",
        "members": "100",
        "kappas": "-1, 0, 1",
        "splits": "0:0; 1:0; 0:1; 2:0; 1:1; 0:2",
        "exponents": "4, 4; 2, inf",
        "epsilon": "0.25",
        "j_sweep": "-6, -7, -8",
        "bmo_depths": "4, 6, 8",
    },
    "sparse": {
        "theta": "16",
        "theta_cap": "1048576",
        "packing_intest": "0.015625",
        "packing_mainiter": "0.25",
        "trials": "200",
        "exponents": "4, 2, 4",
        "j_sweep": "-6, -7, -8",
    },
    "tolerances": {"growth_cap": "1.25"},
    "testbench": {"truncation_scale": "8", "k": "2", "bench_q": "4",
                  "sample_count": "24"},
}


def _parse_float(s: str) -> float:
    s = s.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return float("inf")
    return float(s)


def _parse_list(s: str, cast=int):
    return [cast(tok.strip()) for tok in s.split(",") if tok.strip()]


def _parse_tuples(s: str, cast=float, sep=";", inner=","):
    out = []
    for group in s.split(sep):
        group = group.strip()
        if group:
            out.append(tuple(cast(tok.strip()) for tok in group.split(inner)))
    return out


def _read(section: str, key: str, parse=int) -> property:
    """The value of ``[section] key``, parsed."""
    return property(lambda self: parse(self.raw.get(section, key)))


# the keys of a [kernel:NAME] section
KERNEL_KEYS = {"type", "arity", "eps_trunc", "strength", "seed", "symbol_count"}


@dataclass(frozen=True)
class KernelDef:
    name: str
    kind: str
    arity: int = 1
    eps_trunc: float = 0.0
    strength: float = 1.0
    seed: int = 1
    symbol_count: int = 8


@dataclass
class ExperimentConfig:
    raw: configparser.ConfigParser
    kernels: list = field(default_factory=list)

    # -- constructors -------------------------------------------------------

    @classmethod
    def defaults(cls) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_dict(DEFAULTS)
        return cls._finalize(parser)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        parser.read_dict(DEFAULTS)
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        return cls._finalize(parser)

    @classmethod
    def _finalize(cls, parser) -> "ExperimentConfig":
        kernels = []
        for section in parser.sections():
            if section.startswith("kernel:"):
                name = section.split(":", 1)[1]
                kernels.append(KernelDef(
                    name=name,
                    kind=parser.get(section, "type"),
                    arity=parser.getint(section, "arity", fallback=1),
                    eps_trunc=parser.getfloat(section, "eps_trunc", fallback=0.0),
                    strength=parser.getfloat(section, "strength", fallback=1.0),
                    seed=parser.getint(section, "seed", fallback=1),
                    symbol_count=parser.getint(section, "symbol_count", fallback=8),
                ))
        cfg = cls(raw=parser, kernels=kernels)
        cfg.validate()
        return cfg

    # -- typed accessors -----------------------------------------------------

    d = _read("root", "d")
    L = _read("root", "L")
    J = _read("root", "J")
    wavelet_order = _read("wavelet", "N")
    refine = _read("wavelet", "refine")
    dictionary_size = _read("dictionary", "size")
    seed = _read("ensemble", "seed")
    ensemble_count = _read("ensemble", "count")
    probe_order = _read("probe", "N")
    probe_members = _read("probe", "members")
    probe_kappas = _read("probe", "kappas", _parse_list)
    probe_splits = _read("probe", "splits", lambda s: [
        tuple(int(v) for v in t) for t in _parse_tuples(s, float, ";", ":")])
    probe_exponents = _read("probe", "exponents", lambda s: _parse_tuples(s, _parse_float))
    probe_epsilon = _read("probe", "epsilon", float)
    probe_j_sweep = _read("probe", "j_sweep", _parse_list)
    bmo_depths = _read("probe", "bmo_depths", _parse_list)
    growth_cap = _read("tolerances", "growth_cap", float)
    sparse_theta = _read("sparse", "theta", float)
    sparse_theta_cap = _read("sparse", "theta_cap", float)
    sparse_trials = _read("sparse", "trials")
    sparse_exponents = _read("sparse", "exponents",
                             lambda s: tuple(_parse_list(s, _parse_float)))
    sparse_j_sweep = _read("sparse", "j_sweep", _parse_list)
    packing_intest = _read("sparse", "packing_intest", float)
    packing_mainiter = _read("sparse", "packing_mainiter", float)
    truncation_scale = _read("testbench", "truncation_scale", float)
    testbench_k = _read("testbench", "k")
    bench_q = _read("testbench", "bench_q", _parse_float)
    testbench_samples = _read("testbench", "sample_count")

    # -- probe exponent derivations ------------------------------------------

    @staticmethod
    def holder_r(exponents) -> float:
        s = sum(0.0 if np.isinf(p) else 1.0 / p for p in exponents)
        return float("inf") if s == 0 else 1.0 / s

    @staticmethod
    def probe_pi(split, exponents) -> float:
        """n / pi = sum n_j / p_j; degenerate n = 0 uses uniform weights."""
        n = sum(split)
        if n == 0:
            s = sum((0.0 if np.isinf(p) else 1.0 / p) / len(exponents)
                    for p in exponents)
        else:
            s = sum((0.0 if np.isinf(p) else nj / p) / n
                    for nj, p in zip(split, exponents))
        return float("inf") if s == 0 else 1.0 / s

    def validate(self) -> None:
        # a misspelt key would otherwise run with the default and only move the hash
        for section in self.raw.sections():
            known = KERNEL_KEYS if section.startswith("kernel:") else \
                {key.lower() for key in DEFAULTS.get(section, ())}
            if not known:
                raise ValueError(f"unknown section [{section}] (keys "
                                 f"{', '.join(map(repr, self.raw.options(section)))})")
            for key in self.raw.options(section):
                if key not in known:
                    raise ValueError(f"[{section}] unknown key {key!r}")
        if self.L <= self.J:
            raise ValueError("root scale must exceed finest scale")
        check_dictionary_size(self.dictionary_size)
        # an empty ensemble or a one-level sweep would pass its gate vacuously
        for key, count in (("[probe] members", self.probe_members),
                           ("[sparse] trials", self.sparse_trials),
                           ("[ensemble] count", self.ensemble_count),
                           ("[testbench] sample_count", self.testbench_samples)):
            if count < 1:
                raise ValueError(f"{key} = {count} must be at least 1")
        # the Sobolev bench measures W^{k,2} and its testing norm needs q > 2
        if not self.bench_q > 2.0:
            raise ValueError(f"[testbench] bench_q = {self.bench_q:g} must exceed 2")
        for key, levels in (("[probe] j_sweep", self.probe_j_sweep),
                            ("[sparse] j_sweep", self.sparse_j_sweep),
                            ("[probe] bmo_depths", self.bmo_depths)):
            if len(set(levels)) < 2:
                raise ValueError(f"{key} = {levels} needs at least two distinct levels")
        k = self.probe_order - 1
        for kappa in self.probe_kappas:
            if abs(kappa) > k:
                raise ValueError(f"kappa = {kappa} outside [-{k}, {k}]")
        for split in self.probe_splits:
            if sum(split) > k:
                raise ValueError(f"total smoothness {sum(split)} exceeds k = {k}")
            for exps in self.probe_exponents:
                if len(exps) != len(split):
                    raise ValueError("one exponent per input slot")
                for p in exps:
                    if not p > 1:
                        raise ValueError("input exponents must exceed 1")
                self.probe_pi(split, exps)
        p, q, *ps = self.sparse_exponents
        total = sum(0.0 if np.isinf(v) else 1.0 / v for v in (p, q, *ps))
        if abs(total - 1.0) > 1e-9:
            raise ValueError("sparse exponents fail the Hoelder relation")
        # a bad kernel section would fail only inside the testbench, late
        for kdef in self.kernels:
            where = f"[kernel:{kdef.name}]"
            if kdef.kind not in ("convolution", "planted", "zero"):
                raise ValueError(f"{where} type = {kdef.kind} must be convolution, planted "
                                 "or zero")
            if kdef.arity < 1 or (kdef.kind == "convolution" and kdef.arity > 2):
                raise ValueError(f"{where} arity = {kdef.arity} must be "
                                 + ("1 or 2" if kdef.kind == "convolution" else "at least 1"))

    # -- reporting -------------------------------------------------------------

    def dump(self) -> str:
        buf = io.StringIO()
        self.raw.write(buf)
        return buf.getvalue()

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.dump().encode()).hexdigest()[:16]
