"""Acceptance gate: each test runs one verification target at its stated
tolerance and prints a pass/fail line.  The suite callables are the same ones
behind the command line, so `dyadica suite` and this module agree row for row.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

from dyadica.config import ExperimentConfig
from dyadica.suites import (suite_norms, suite_paraproduct, suite_sparse,
                            suite_testbench, suite_theorem, suite_wavelet)

CFG = ExperimentConfig.defaults()
_CACHE = {}


def rows_for(suite_fn):
    if suite_fn not in _CACHE:
        t0 = time.time()
        _CACHE[suite_fn] = (suite_fn(CFG), time.time() - t0)
    return _CACHE[suite_fn]


def require(suite_fn, names, runtime_cap=None):
    rows, elapsed = rows_for(suite_fn)
    selected = [r for r in rows if any(r.name.startswith(n) for n in names)]
    missing = [n for n in names if not any(r.name.startswith(n) for r in selected)]
    assert not missing, f"no criterion rows matched {missing}"
    for r in selected:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}/{r.name}: {r.value:.6g} {r.comparator} "
              f"{r.threshold:.6g}  {r.detail}")
        assert r.passed, f"{r.suite}/{r.name}: {r.value} !{r.comparator} {r.threshold}"
    if runtime_cap is not None:
        print(f"[info] {suite_fn.__name__} runtime {elapsed:.1f}s (cap {runtime_cap}s)")
        assert elapsed < runtime_cap


def test_criterion_01_wavelet_resolution():
    # Gram identity within 1e-8 entrywise and high-low residual < 1e-6 ||f||_2
    # on 50 random interior functions, d=1, N in {2,3}, L-J=8; under a minute
    require(suite_wavelet, ["gram_identity_N2", "gram_identity_N3",
                            "high_low_residual_N2", "high_low_residual_N3"],
            runtime_cap=60.0)


def test_criterion_02_duality_identity():
    # <Pi_b f, g> = V(b, g, f) within 1e-8 relative on 50 random triples
    t0 = time.time()
    require(suite_paraproduct, ["duality_identity"])
    assert time.time() - t0 < 120.0


def test_criterion_03_embeddings():
    # hard inequalities with 1e-9 slack over the (u, p/r, q/s) lattice
    require(suite_norms, ["embedding_lattice_gap"])


def test_criterion_04_john_nirenberg():
    # max/min over p in {1,2,4} of the level norms <= 16 on 100 members
    require(suite_norms, ["john_nirenberg_ratio"])


def test_criterion_05_stopping_packing():
    # per-parent packing at the configured ratios, threshold within its cap
    require(suite_sparse, ["packing_intest", "packing_mainiter",
                           "stopped_square_bound"])


def test_criterion_06_sparse_domination():
    # lhs <= C rhs across 200 trials with C stable over J in {-6,-7,-8};
    # Taylor telescoping bounds hold with logged constants
    require(suite_sparse, ["domination_constant_growth",
                           "taylor_telescoping_constant", "taylor_pair_constant"])


def test_criterion_07_theorem_probe():
    # boundedness ratios with growth <= 1.25 per refinement level over the
    # kappa/split/exponent lattice including adjoint variants; under 15 min
    require(suite_theorem, ["probe_ratio_growth", "probe_runtime_seconds"])


def test_criterion_08_beyond_bmo():
    # lacunary family: mean oscillation grows at least linearly in depth
    # while the symbol norm and operator ratios stay within factor 2
    require(suite_theorem, ["lacunary_bmo_growth", "lacunary_fnorm_stability",
                            "lacunary_probe_stability"])


def test_criterion_09_anti_integration_by_parts():
    # two-sided agreement < 1e-4 relative on smooth ensembles, k in {1,2}
    require(suite_wavelet, ["anti_ibp_two_sided"])


def test_criterion_10_testing_bench():
    # plant-and-recover proportionality stable across scales (< 5%),
    # zero-kernel testing norm identically zero, and bench ratio stability
    require(suite_testbench, ["plant_recover_scale_variation",
                              "zero_kernel_testing_norm",
                              "sobolev_bench_dilation_growth"])


def test_lebesgue_and_maximal_probes():
    # supporting probes: Lebesgue bound and maximal-function domination
    require(suite_paraproduct, ["lebesgue_ratio_growth",
                                "maximal_domination_growth"])


def test_norm_comparability_probes():
    # square-function vs finite-difference comparability stays in [1/8, 8];
    # the square-function vs oscillation spread is logged, bounded by 1e6
    require(suite_norms, ["surrogate_vs_fd_factor_high",
                          "surrogate_vs_fd_factor_low",
                          "square_vs_oscillation_spread"])
