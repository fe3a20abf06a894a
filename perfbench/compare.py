#!/usr/bin/env python3
"""Compare the outputs of two benchmark runs to rounding.

    python3 perfbench/compare.py A.json B.json

A and B are ``.bench_out/outputs/<workload>-seed<n>.json`` files written by
``run.py`` with ``--trace 0``, for example one from a parent commit and one
from a change, same workload and seed.  They agree when:

* every acceptance criterion has the same status, comparator and threshold,
  its value agrees within ``RTOL`` (1e-9), and the numbers in its detail text agree
  to the last digit printed;
* every checksum and recorded value of a fine workload agrees within
  ``RTOL`` (relative to the largest entry of its list);
* every exactness identity is within its tolerance in both files.  Identity
  residuals are rounding noise, so they are not compared with each other.

Wall-clock fields were masked when the files were written (see NOTES.md).
Exits 0 when the files agree and 1 otherwise, listing each difference.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

RTOL = 1e-9
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-3 * scale)


def _last_digit(token: str) -> float:
    """One unit in the last printed digit of a decimal token."""
    if "e" in token.lower() or "." not in token:
        return 0.0
    return 10.0 ** -len(token.split(".")[1])


def _detail_diff(a: str, b: str):
    if _NUMBER.split(a) != _NUMBER.split(b):
        return "text differs"
    for ta, tb in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        x, y = float(ta), float(tb)
        slack = max(_last_digit(ta), _last_digit(tb))
        if abs(x - y) > slack + RTOL * max(abs(x), abs(y)):
            return f"{ta} vs {tb}"
    return None


def _numbers(v):
    return v if isinstance(v, list) else [v]


def differences(a: dict, b: dict) -> list[str]:
    out = []
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"different runs: {a['workload']}/{a['seed']} vs "
                f"{b['workload']}/{b['seed']}"]
    for which, doc in (("A", a), ("B", b)):
        for name, (value, tol) in doc["residuals"].items():
            if not value <= tol:
                out.append(f"{name}: residual {value:.3e} above {tol:g} in {which}")
    for name in sorted(set(a["outputs"]) | set(b["outputs"])):
        if name not in a["outputs"] or name not in b["outputs"]:
            out.append(f"{name}: present in only one file")
            continue
        va, vb = a["outputs"][name], b["outputs"][name]
        if isinstance(va, dict):  # an acceptance criterion
            for key in ("status", "comparator", "threshold"):
                if va[key] != vb[key]:
                    out.append(f"{name}: {key} {va[key]} vs {vb[key]}")
            if name not in a["residuals"] and va["value"] != vb["value"]:
                if isinstance(va["value"], str) or isinstance(vb["value"], str) \
                        or not _close(va["value"], vb["value"], 0.0):
                    out.append(f"{name}: value {va['value']!r} vs {vb['value']!r}")
            diff = _detail_diff(va["detail"], vb["detail"])
            if diff:
                out.append(f"{name}: detail {diff}: {va['detail']!r} vs {vb['detail']!r}")
            continue
        xa, xb = _numbers(va), _numbers(vb)
        scale = max((abs(x) for x in xa + xb), default=0.0)
        if len(xa) != len(xb) or not all(_close(x, y, scale)
                                         for x, y in zip(xa, xb)):
            out.append(f"{name}: {va} vs {vb}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    diffs = differences(*docs)
    for line in diffs:
        print(line)
    print("agree" if not diffs else f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
