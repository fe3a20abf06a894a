"""Which criteria fail at seeds 1-10 under the default config.

Runs every suite at each seed, in one process and in seed order, and
compares each seed's set of failing rows and its number of rows with the
table below.  A change whose outputs are unchanged cannot move either, so a
difference means a change moved a verdict (or state leaked from one run
into the next); the script then names the seed and exits non-zero.  When a
change moves a verdict on purpose, it updates the table.  From the
repository root:

    PYTHONPATH=src python tests/check_seed_failures.py

It also prints one sha256 per seed over that seed's files (names and
contents, the theorem's wall-clock row and the "in Ns" of its detail
masked), so diffing its output at two commits shows any value that moved,
not only a verdict.  Only the table decides the exit code.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

from dyadica.config import ExperimentConfig
from dyadica.suites import run_suite

ROWS = 27
FAILING = {
    1: {"theorem/lacunary_probe_stability"},
    2: {"testbench/sobolev_bench_dilation_growth", "theorem/probe_ratio_growth"},
    3: {"theorem/probe_ratio_growth", "theorem/lacunary_probe_stability"},
    4: {"theorem/probe_ratio_growth", "theorem/lacunary_probe_stability"},
    5: {"theorem/lacunary_probe_stability"},
    6: {"theorem/lacunary_probe_stability"},
    7: {"sparse/domination_constant_growth"},
    8: {"testbench/sobolev_bench_dilation_growth", "theorem/probe_ratio_growth"},
    9: set(),
    10: {"theorem/probe_ratio_growth", "theorem/lacunary_probe_stability"},
}


def digest(outdir: Path) -> str:
    """sha256 over the names and contents of the files in ``outdir``, with
    the theorem's wall-clock row and the "in Ns" of its detail masked."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name == "summary.csv":
            text = re.sub(r" in \d+s", " in Ns", "".join(
                line for line in text.splitlines(keepends=True)
                if "probe_runtime_seconds" not in line))
        h.update(f"{path.name}\0{text}\0".encode())
    return h.hexdigest()


def seed_rows(seed: int, outdir: Path) -> tuple[int, set, str]:
    """(number of rows, failing rows, ``digest``) of ``dyadica suite --seed seed``."""
    cfg = ExperimentConfig.defaults()
    cfg.raw.set("ensemble", "seed", str(seed))
    with contextlib.redirect_stdout(io.StringIO()):
        run_suite([], cfg, str(outdir))
    with open(outdir / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    failing = {f"{r['suite']}/{r['criterion']}" for r in rows if r["status"] == "FAIL"}
    return len(rows), failing, digest(outdir)


def main() -> int:
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed, expected in FAILING.items():
            count, failing, sha = seed_rows(seed, Path(tmp) / str(seed))
            print(f"seed {seed}: sha256 {sha}")
            if count != ROWS or failing != expected:
                moved += 1
                print(f"seed {seed}: {count} rows (expected {ROWS}); "
                      f"newly failing {sorted(failing - expected)}, "
                      f"no longer failing {sorted(expected - failing)}")
    print(f"{len(FAILING) - moved} of {len(FAILING)} seeds as recorded")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
