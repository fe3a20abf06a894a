"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They check that tracing does not change results, that every wrapped name
is reached on its workload, that a result records its environment, and that
the runner refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, expected_calls  # noqa: E402


class SmallD1(workloads.FineD1):
    J, czform_J = -9, -7


class SmallD2(workloads.FineD2):
    J = -5


@pytest.mark.parametrize("cls,name", [(SmallD1, "fine_d1"), (SmallD2, "fine_d2")])
def test_traced_pass_is_bit_identical_and_reaches_every_name(tmp_path, cls, name):
    work = cls(7, str(tmp_path))
    work.setup()
    work.prepare()
    plain = work.run_pass()
    space = work.space
    with Tracer() as tracer:
        work.setup()
        traced = work.run_pass()
    assert work.space is space  # the pass ran on the warmed workspace
    assert plain.failed == 0 and plain.exact_ok
    assert traced.outputs == plain.outputs
    assert tracer.problems() == []
    calls = tracer.calls()
    assert [n for n in expected_calls(name) if not calls.get(n)] == []
    # the wrappers are gone after the window
    assert workloads.verify_domination.__module__ == "dyadica.sparse"
    assert not hasattr(workloads.verify_domination, "__wrapped__")


def test_wrapped_functions_return_identical_values():
    from dyadica.ensembles import mixed_function
    sp = workloads.build_space(1, 0, -8, 3, 8)
    f = mixed_function(np.random.default_rng(3), sp.basis, kind=2)
    before = sp.dictionary.coeff_arrays(f)
    tree = sp.basis.analyze(f.samples)
    with Tracer() as tracer:
        during = sp.dictionary.coeff_arrays(f)
        tree2 = sp.basis.analyze(f.samples)
        sp.dictionary.coeff_arrays(f)
    assert all((before[s] == during[s]).all() for s in before)
    assert all((tree.data[s] == tree2.data[s]).all() for s in tree.data)
    m = tracer.summary()
    assert m["tlnorm.coeff_arrays_calls"] == 2
    assert m["tlnorm.coeff_arrays_unique_frac"] == 0.5
    # analyze inside coeff_arrays is a child span, nested in its parent
    assert tracer.problems() == []
    assert m["tlnorm.self_s"] >= 0 and m["wavelet.self_s"] > 0


def test_span_check_finds_broken_nesting():
    tracer = Tracer()
    tracer.start, tracer.end = 0.0, 10.0
    tracer.spans = [["a", -1, 1.0, 5.0], ["b", 0, 2.0, 6.0],   # leaves its parent
                    ["c", -1, 4.0, 7.0],                         # overlaps a
                    ["d", -1, 8.0, 0.0]]                         # never closed
    assert len(tracer.problems()) == 3
    tracer.spans = [["a", -1, 1.0, 5.0], ["b", 0, 2.0, 3.0], ["c", 0, 3.0, 4.0],
                    ["d", -1, 6.0, 9.0]]
    assert tracer.problems() == []


def test_acceptance_reaches_every_name(tmp_path):
    work = workloads.Acceptance(workloads.DEFAULT_SEED, str(tmp_path))
    work.setup()
    with Tracer() as tracer:
        work.setup()
        log = work.run_pass()
    work.close()
    assert tracer.problems() == []
    calls = tracer.calls()
    assert [n for n in expected_calls("acceptance") if not calls.get(n)] == []
    assert log.failed == 0, [op for op in log.ops if not op[1]]
    assert "<masked>" in log.outputs["theorem/probe_ratio_growth"]["detail"]
    assert log.outputs["theorem/probe_runtime_seconds"]["value"] == "<masked>"


def test_result_records_environment():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fine_d2",
         "--seed", "11", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    with open(ROOT / ".bench_out" / "results" / "fine_d2-seed11-trace0.json") as fh:
        env = json.load(fh)["environment"]
    for key in ("cpu_count", "python", "numpy", "scipy", "blas_threads",
                "git_commit", "seed"):
        assert key in env
    assert env["seed"] == 11 and env["blas_threads"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fine_d1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_percentile_rule():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail(list(range(1, 101)))
    assert pct == 90 and value == 90
    assert run.tail(list(range(20)))[0] == 50


def test_compare_masks_and_rounding():
    base = {"workload": "acceptance", "seed": 1,
            "residuals": {"wavelet/gram_identity_N2": [1e-16, 1e-8]},
            "outputs": {
                "wavelet/gram_identity_N2": {"value": 1e-16, "threshold": 1e-8,
                                             "comparator": "<=", "status": "pass",
                                             "detail": "64 interior cubes"},
                "sparse/x": {"value": 1.5, "threshold": 2.0, "comparator": "<=",
                             "status": "pass", "detail": "max lhs/rhs [1.1234, 0.5]"},
                "fine": [1.0, 2.0, 3.0, 0.0]}}
    other = json.loads(json.dumps(base))
    other["residuals"]["wavelet/gram_identity_N2"][0] = 3e-16
    other["outputs"]["wavelet/gram_identity_N2"]["value"] = 3e-16
    other["outputs"]["sparse/x"]["detail"] = "max lhs/rhs [1.1235, 0.5]"
    other["outputs"]["fine"][3] = 1e-15
    assert compare.differences(base, other) == []
    other["outputs"]["sparse/x"]["value"] = 1.5000001
    other["outputs"]["fine"][0] = 1.1
    assert len(compare.differences(base, other)) == 2
    masked = workloads.mask_detail("theorem/probe_ratio_growth", "18 variants in 6s")
    assert masked == "18 variants in <masked>s"
