#!/usr/bin/env python3
"""Benchmark for simbal: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload balance --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

Workloads: balance, safety, cv-grid (see workloads.py for what each stresses).
With ``--trace 0`` the ops run unwrapped and the end-to-end metrics are
reported. With ``--trace 1`` every op runs twice, once with the layer
functions wrapped in spans and once unwrapped, in alternating order, and the
per-layer metrics plus the tracing overhead are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record (versions,
thread settings, sample counts, failures, digests) is written to
``perfbench/out/``. The exit code is 3 if any output check failed (the result
line is still printed), 2 if the simbal sources are missing, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("balance", "safety", "cv-grid")
# One thread per numerical library: a closed loop with one caller, steady
# timings, and never more threads than cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# An untraced run goes on past --seconds until it holds this many ops, so that
# at least MIN_ABOVE_P75 samples lie above op_s.p75.
MIN_OPS = 40
MIN_ABOVE_P75 = 10
EXIT_CHECKS_FAILED = 3

# End-to-end metrics and their units, in print order.
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.p75": "s",
    "ops_per_s": "1/s",
    "synth_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "f1_mean": "score",
    "mcc_mean": "score",
}


def _sha256_of_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    """HEAD commit read from the .git directory, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_op(wl, i: int):
    """Run and check op ``i``; only the op call is timed.

    Returns (seconds, digest, problem, rows). An op that raises has the
    traceback as its problem and no digest; it does not end the run.
    """
    t0 = perf_counter()
    try:
        out = wl.op(i)
    except Exception:  # one failed op must not end the run
        return perf_counter() - t0, None, traceback.format_exc(limit=-3), 0
    seconds = perf_counter() - t0
    return seconds, wl.digest(out), wl.check(i, out), wl.rows(i, out)


def run_ops(wl, seconds: float, ref):
    """Whole cycles of ops until ``seconds`` have passed and at least MIN_OPS ops have run.

    The reference task is timed before the first op and after each op, so op
    i lies between reference times i and i + 1. Failures are (op, message).
    """
    durations, ref_times, digests, failures, rows = [], [ref.time()], [], [], 0
    start = perf_counter()
    i = 0
    while i < MIN_OPS or perf_counter() - start < seconds:
        for _ in range(wl.cycle):
            duration, digest, problem, op_rows = run_op(wl, i)
            ref_times.append(ref.time())
            durations.append(duration)
            digests.append(digest)
            if problem is not None:
                failures.append((i, problem))
            rows += op_rows
            i += 1
    return durations, ref_times, digests, failures, rows


def _timings(op_s: list[float], rows: int) -> dict[str, float]:
    busy = sum(op_s)
    return {"op_s.p50": statistics.median(op_s), "op_s.p75": statistics.quantiles(op_s, n=4)[2],
            "ops_per_s": len(op_s) / busy, "synth_rows_per_s": rows / busy}


def run_traced(wl, tracer, seconds: float):
    """Whole cycles until ``seconds`` have passed, each op run once traced and once untraced.

    Which side goes first alternates from op to op, and for the same op from
    cycle to cycle, so machine drift and the warmth the first run leaves
    fall on both sides alike. Returns the traced and the untraced op times,
    the traced side's digests, the failures of both sides, and whether the
    two sides ever gave different outputs.
    """
    traced, untraced, digests, failures = [], [], [], []
    differ = False
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        for _ in range(wl.cycle):
            tracer.op_id = i
            runs = {}
            traced_first = (i % wl.cycle + i // wl.cycle) % 2 == 0
            for on in (traced_first, not traced_first):
                if on:
                    tracer.install()
                try:
                    runs[on] = run_op(wl, i)
                finally:
                    if on:
                        tracer.uninstall()
            traced.append(runs[True][0])
            untraced.append(runs[False][0])
            digests.append(runs[True][1])
            differ = differ or runs[True][1] != runs[False][1]
            failures += [(i, run[2]) for run in runs.values() if run[2] is not None]
            i += 1
    return traced, untraced, digests, failures, differ


def _check_digests(name: str, seed: int, size: dict, source: str,
                   digests: list) -> list[str]:
    """Compare op digests with an earlier run of the same seed and source, then record them."""
    path = OUT / "digests" / f"{name}-seed{seed}.json"
    # A changed workload definition starts a fresh record.
    workloads = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()
    key = {"source": source, "workloads": workloads, "size": repr(sorted(size.items()))}
    problems = []
    if path.is_file():
        earlier = json.loads(path.read_text())
        if all(earlier.get(k) == v for k, v in key.items()):
            common = min(len(earlier["ops"]), len(digests))
            bad = [i for i in range(common) if earlier["ops"][i] != digests[i]]
            if bad:
                problems.append(f"op {bad[0]} output differs from an earlier run with seed {seed}")
            if len(earlier["ops"]) > len(digests):
                digests = digests + earlier["ops"][len(digests):]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**key, "ops": digests}))
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, size: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    import resource

    import numpy as np
    from reference import REF_S, Reference, normalise
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    size = dict(size or {})
    run_failures: list[str] = []

    ref = Reference()
    # Set-up repeat j lies between reference times j and j + 1.
    setup_times, setup_refs, warm_digests = [], [ref.time()], []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = perf_counter()
        wl = cls(seed, **size)
        wl.setup()
        warm = wl.warmup()
        setup_times.append(perf_counter() - t0)
        setup_refs.append(ref.time())
        warm_digests.append(wl.digest(warm))
    if len(set(warm_digests)) != 1:
        run_failures.append("warm-up output differs between set-ups with the same seed")

    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "size": size}
    if trace:
        from spans import Tracer, overhead

        tracer = Tracer()
        traced, untraced, digests, failures, differ = run_traced(wl, tracer, seconds)
        n_ops = len(traced)
        if differ:
            run_failures.append("traced and untraced ops gave different outputs")
        metrics = {**tracer.per_layer(n_ops), **overhead(traced, untraced)}
        counts = {k: n_ops for k in metrics}
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.npz"
        tracer.save(spans_path)
        record.update({
            "missing_layers": tracer.missing,
            "spans": len(tracer.span_name),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "traced_s": sum(traced), "untraced_s": sum(untraced),
            "top_self_time_s_per_op": tracer.top_self_time(n_ops),
        })
    else:
        durations, op_refs, digests, failures, rows = run_ops(wl, seconds, ref)
        # Read before scoring quality, whose classifier runs are not part of an op.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n_ops = len(durations)
        f1, mcc, n_scored = wl.quality()
        # Reported times are normalised to the reference speed (reference.py);
        # the raw ones go to the run record. Import time has only the
        # reference time after it.
        op_s = [normalise(d, op_refs[i], op_refs[i + 1]) for i, d in enumerate(durations)]
        setup_s = (normalise(import_s, setup_refs[0], setup_refs[0])
                   + statistics.median(normalise(t, setup_refs[j], setup_refs[j + 1])
                                       for j, t in enumerate(setup_times)))
        values = {"setup_s": setup_s, **_timings(op_s, rows), "peak_rss_mb": peak_rss_mb,
                  "f1_mean": f1, "mcc_mean": mcc}
        above_p75 = sum(t > values["op_s.p75"] for t in op_s)
        if above_p75 < MIN_ABOVE_P75:
            run_failures.append(f"only {above_p75} op times above op_s.p75")
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        counts = {k: n_ops for k in metrics}
        counts.update(setup_s=len(setup_times), peak_rss_mb=1, f1_mean=n_scored, mcc_mean=n_scored)
        ref_times = setup_refs + op_refs
        record.update({
            "raw": {"setup_s": import_s + statistics.median(setup_times),
                    **_timings(durations, rows)},
            "reference": {"ref_s": REF_S, "median_s": statistics.median(ref_times),
                          "min_s": min(ref_times), "max_s": max(ref_times)},
            "import_s": import_s, "setup_runs_s": setup_times,
            "ops_above_p75": above_p75,
            "synthetic_rows": rows, "op_busy_s": sum(durations),
        })

    source = _sha256_of_tree(SRC / "simbal")
    run_failures += wl.run_checks()
    run_failures += _check_digests(name, seed, size, source, digests)
    other = cls(seed + 1, **size)
    if np.array_equal(wl.first_input().features, other.first_input().features):
        run_failures.append(f"seeds {seed} and {seed + 1} generate the same inputs")

    failed = len({i for i, _ in failures})
    correct = not failures and not run_failures
    record.update({
        "git_sha": _git_sha(), "source_sha256": source,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "ops": n_ops, "failed": failed, "fail_frac": failed / n_ops,
        "failures": [f"op {i}: {msg}" for i, msg in failures[:20]],
        "run_failures": run_failures,
        "warmup_digest": warm_digests[0],
        "run_digest": hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest(),
        "metrics": {k: {"value": v, "unit": u, "samples": counts[k]}
                    for k, (v, u) in metrics.items()},
    })
    result = {"correct": correct, "attempted": n_ops, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def _print_report(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['ops']} fail_frac={record['fail_frac']:.6g}")
    for name, m in record["metrics"].items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']:<14} (n={m['samples']})")
    for name, value in record.get("raw", {}).items():
        print(f"raw {name:<32} {value:>16.6g} (not normalised)")
    for key in ("missing_layers", "run_failures", "failures"):
        if record.get(key):
            print(f"{key}: {record[key]}")


def _run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        *report, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(report))
        if proc.returncode not in (0, EXIT_CHECKS_FAILED):  # the run broke; stderr says why
            return proc.returncode
        results[name] = json.loads(last)
        status = status or proc.returncode
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "simbal" / "__init__.py").is_file():
        print(f"error: simbal sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import simbal
    import_s = perf_counter() - t0
    if Path(simbal.__file__).resolve().parent != SRC / "simbal":
        print(f"error: imported simbal from {simbal.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  import_s=import_s)
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    _print_report(record)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_CHECKS_FAILED


if __name__ == "__main__":
    sys.exit(main())
