"""Span recorder for the traced run.

``Tracer`` wraps named ``dyadica`` functions at every place they are bound:
module globals of the package and of the benchmark (``suites``, ``sparse``,
``czform`` and ``paraproduct`` import functions by name), dict values
(``suites.SUITES``) and class attributes (methods).  Each call records a
span (name, parent span, start, end); the spans stay in memory and are
aggregated when the window closes.  Counters that need a call's inputs or
result (redundant work, retries) are taken at the same boundary.

``dyadic``, ``config`` and ``cli`` are not wrapped: cube methods run millions
of times, so a span on each would swamp them; their cost counts in the
callers' self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name); the metric prefix is the module.
NAMED = [
    ("wavelet", "build_family", "build_family"),
    ("wavelet", "AtomBasis.analyze", "analyze"),
    ("wavelet", "AtomBasis.synthesize", "synthesize"),
    ("wavelet", "AtomBasis.high_low_residual", "high_low_residual"),
    ("wavelet", "AtomBasis.gram_residual", "gram_residual"),
    ("tlnorm", "TestDictionary.__init__", "dictionary_init"),
    ("tlnorm", "TestDictionary.coeff_arrays", "coeff_arrays"),
    ("tlnorm", "tl_norm", "tl_norm"),
    ("tlnorm", "square_function", "square_function"),
    ("paraproduct", "apply_paraproduct", "apply_paraproduct"),
    ("paraproduct", "adjoint_apply", "adjoint_apply"),
    ("paraproduct", "form_eval", "form_eval"),
    ("paraproduct", "intrinsic_form", "intrinsic_form"),
    ("paraproduct", "localized_form", "localized_form"),
    ("sparse", "build_sparse", "build_sparse"),
    ("sparse", "verify_domination", "verify_domination"),
    ("sparse", "sparse_form_eval", "sparse_form_eval"),
    ("czform", "form_quadrature", "form_quadrature"),
    ("czform", "wbp_check", "wbp_check"),
    ("czform", "testing_symbols", "testing_symbols"),
    ("czform", "testing_norm", "testing_norm"),
    ("funcspace", "maximal", "maximal"),
    ("funcspace", "sobolev_norm", "sobolev_norm"),
    ("funcspace", "taylor_poly", "taylor_poly"),
    ("suites", "suite_wavelet", "wavelet"),
    ("suites", "suite_norms", "norms"),
    ("suites", "suite_paraproduct", "paraproduct"),
    ("suites", "suite_sparse", "sparse"),
    ("suites", "suite_testbench", "testbench"),
    ("suites", "suite_theorem", "theorem"),
]

MODULES = ("wavelet", "tlnorm", "paraproduct", "sparse", "czform", "funcspace",
           "ensembles", "suites")


def targets():
    """(module, attribute path, span name) of every wrapped function: the
    named ones plus every public function of ``ensembles`` (input draws)."""
    ens = sys.modules["dyadica.ensembles"]
    draws = [("ensembles", name, name) for name, fn in vars(ens).items()
             if inspect.isfunction(fn) and fn.__module__ == ens.__name__
             and not name.startswith("_")]
    return NAMED + sorted(draws)


def _digest(arr) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def _kernel_key(kernel, root, eps_trunc):
    """The inputs that fix a quadrature kernel matrix."""
    cells = tuple(c.cell_contents if isinstance(c.cell_contents, (int, float))
                  else id(c.cell_contents) for c in (kernel.__closure__ or ()))
    return (root, float(eps_trunc), kernel.__code__, cells)


class Tracer:
    """Install with ``with Tracer() as tr:``; the wrappers are removed on exit."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end]
        self._stack: list[int] = []
        self._patches: list = []
        self.keys = defaultdict(set)     # span name -> distinct input keys
        self.attempts: list[int] = []    # build_sparse threshold attempts
        self.start = self.end = 0.0

    # -- counters taken at the call boundary -------------------------------

    def _count(self, name, args, kwargs, result):
        if name == "tlnorm.coeff_arrays":
            dictionary, f = args[0], args[1] if len(args) > 1 else kwargs["f"]
            self.keys[name].add((id(dictionary), _digest(f.samples)))
        elif name == "czform.form_quadrature":
            kernel, root, _, eps = (list(args) + [None] * 4)[:4]
            eps = kwargs.get("eps_trunc", eps)
            self.keys[name].add(_kernel_key(kernel, root, eps))
        elif name == "sparse.build_sparse":
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            self.attempts.append(round(math.log2(result.theta / cfg.theta)) + 1)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counted = name in ("tlnorm.coeff_arrays", "czform.form_quadrature",
                           "sparse.build_sparse")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if counted:
                self._count(name, args, kwargs, result)
            return result

        return wrapper

    # -- installing and removing the wrappers --------------------------------

    def _set(self, owner, key, value, is_dict=False):
        old = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        mods = [m for n, m in list(sys.modules.items())
                if n == "dyadica" or n.startswith("dyadica.")
                or os.path.dirname(os.path.abspath(getattr(m, "__file__", None) or "/")) == here]
        for module, path, span in targets():
            owner = sys.modules[f"dyadica.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module}.{span}", original)
            if cls_path:  # a method: bound once, on its class
                self._set(owner, attr, wrapper)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._set(value, dkey, wrapper, is_dict=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def __enter__(self):
        self.install()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.uninstall()
        return False

    # -- aggregation ----------------------------------------------------------

    def calls(self) -> dict:
        out = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def by_suite(self) -> dict:
        """Inclusive seconds of each span name under each suite span."""
        suite = [None] * len(self.spans)
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            suite[i] = name if name.startswith("suites.") else \
                (suite[parent] if parent >= 0 else None)
            if suite[i] and suite[i] != name:
                out[suite[i]][name] += t1 - t0
        return {k: dict(v) for k, v in out.items()}

    def problems(self) -> list[str]:
        """Spans that are not closed, start before their earlier sibling
        ends, or leave their parent's interval (the window, for top-level
        spans).  Only when there are none do the self times, with
        ``bench.self_s``, partition the window."""
        out, last_end = [], {}
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            lo, hi = ((self.spans[parent][2], self.spans[parent][3]) if parent >= 0
                      else (self.start, self.end))
            if not (lo <= t0 <= t1 <= hi and t0 >= last_end.get(parent, lo)):
                out.append(f"span {i} ({name}) is not nested in its parent")
            last_end[parent] = t1
        return out[:5]

    def summary(self) -> dict:
        """Per-layer metrics of the window, keyed as in BENCHMARK.json."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = defaultdict(float)
        calls = self.calls()
        self_by_module = dict.fromkeys(MODULES, 0.0)
        top = 0.0
        for (name, parent, t0, t1), covered in zip(self.spans, child):
            incl[name] += t1 - t0
            self_by_module[name.split(".")[0]] += (t1 - t0) - covered
            if parent < 0:
                top += t1 - t0
        wall = self.end - self.start
        m = {f"{mod}.self_s": v for mod, v in self_by_module.items()}
        for module, _, span in NAMED:
            m[f"{module}.{span}_s"] = incl[f"{module}.{span}"]
            m[f"{module}.{span}_calls"] = calls[f"{module}.{span}"]

        def frac(name):
            return len(self.keys[name]) / calls[name] if calls[name] else 0.0

        m["tlnorm.coeff_arrays_unique_frac"] = frac("tlnorm.coeff_arrays")
        m["czform.form_quadrature_unique_frac"] = frac("czform.form_quadrature")
        m["sparse.build_attempts_per_call"] = (
            sum(self.attempts) / len(self.attempts) if self.attempts else 0.0)
        m["bench.self_s"] = wall - top
        m["trace.wall_s"] = wall
        return m


def expected_calls(workload: str) -> list[str]:
    """Span names that must record at least one call on ``workload``; a
    name rebound somewhere the tracer missed would otherwise read as zero."""
    names = [f"{module}.{span}" for module, _, span in targets()]
    if workload == "acceptance":  # no suite runs the mainiter domination
        return [n for n in names if n != "paraproduct.localized_form"]
    # the fine workloads draw their inputs before the traced window
    names = [n for n in names if n.split(".")[0] not in ("suites", "ensembles")]
    if workload == "fine_d2":  # both are implemented for d = 1 only
        names = [n for n in names if not n.startswith("czform.")
                 and n != "wavelet.high_low_residual"]
    return names
