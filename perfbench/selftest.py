#!/usr/bin/env python3
"""Self-test of the benchmark: each workload at a tiny size, untraced and traced.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
every op passes its output checks, and that a traced run survives a layer
function that no longer exists. Takes a few seconds:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs the benchmark directory on sys.path)

SEED = 424242
TINY = {
    "balance": {"n_pos": 30, "n_neg": 150, "d": 3, "pool": 2, "quality_ops": 2, "test_size": 40},
    "safety": {"n_pos": 40, "n_neg": 240, "d": 4, "target_count": 10, "pool": 3,
               "quality_ops": 3, "test_size": 40},
    "cv-grid": {"n_pos": 15, "n_neg": 60, "folds": 3, "k_grid": (3, 4), "passes": 1},
}


def _fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def _check_metrics(label: str, result: dict, expected: list[dict]) -> None:
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        _fail(f"{label}: run not correct: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        extra = sorted(set(got) - set(want))
        _fail(f"{label}: missing {missing}, wrong unit {wrong}, unexpected {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], float):
            _fail(f"{label}: {name} value {m['value']!r} is not a float")


def _check_missing_layer() -> None:
    """A wrapped name that no longer exists is listed and its metrics left out."""
    import spans

    saved = dict(spans.SITES)
    spans.SITES["graphs.pairwise_distances"] = [("simbal.graphs", "no_such_function")]
    try:
        result, record = run.run_workload("balance", SEED, 0.0, True, size=TINY["balance"])
    finally:
        spans.SITES.clear()
        spans.SITES.update(saved)
    if record["missing_layers"] != ["simbal.graphs.no_such_function"]:
        _fail(f"missing_layers is {record['missing_layers']}")
    left_out = {"graphs.pairwise_distances.calls", "graphs.pairwise_distances.s"}
    if left_out & set(result["metrics"]) or not result["correct"]:
        _fail("metrics of a missing layer were emitted, or the run failed")


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if names != set(run.WORKLOAD_NAMES) or names != set(TINY):
        _fail(f"workloads in BENCHMARK.json {sorted(names)} differ from run.py")
    for name in run.WORKLOAD_NAMES:
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _ = run.run_workload(name, SEED, 0.0, trace, size=TINY[name])
            _check_metrics(f"{name} trace={int(trace)}", result, expected)
            print(f"ok {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops")
    _check_missing_layer()
    print("ok missing layer tolerated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
