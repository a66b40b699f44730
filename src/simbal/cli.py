"""Command-line interface: oversample a CSV, run the benchmark, demo distances.

All numeric output uses ``repr`` formatting, the shortest decimal string that
round-trips the float, so files diff cleanly across platforms. Every command
honors --seed; when omitted, a random seed is drawn and logged to stderr so
the run stays reproducible after the fact.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from itertools import chain, repeat

import numpy as np

from .complexes import MAXIMAL
from .datasets import Dataset, MAJORITY, MINORITY, Shape
from .evaluation import (
    BENCHMARK_METHODS,
    CVConfig,
    IMBALANCED,
    parse_method,
    report_to_csv,
    report_to_text,
    synthetic_benchmark,
)
from .geometry import distance_to_simplex, mean_model_distance
from .graphs import MUTUAL, UNION
from .samplers import (
    INVERSE_SAFETY,
    Method,
    PLUS_ONE_SAFETY,
    SamplerConfig,
    oversample,
)


class CliError(ValueError):
    """User-facing input failure; message is printed without a traceback."""


def _parse_p(text: str):
    if text.lower() == "max":
        return MAXIMAL
    try:
        return int(text)
    except ValueError:
        raise CliError(f"-p must be an integer or 'max', got {text!r}") from None


def read_csv_dataset(path: str, label_column: str):
    """Parse a headered CSV into (Dataset, header, label strings, minority label).

    Exactly two distinct label values are required; the rarer one becomes the
    minority (+1) class. Feature cells must all be finite numbers.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise CliError(f"{path} is empty; a header row is required")
    header = rows[0]
    if label_column not in header:
        raise CliError(
            f"label column {label_column!r} not in header {header} (use --label-column)"
        )
    label_idx = header.index(label_column)
    feature_cols = [i for i in range(len(header)) if i != label_idx]
    if not feature_cols:
        raise CliError("no feature columns besides the label column")
    features = []
    label_strings = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CliError(f"row {r}: expected {len(header)} fields, got {len(row)}")
        vals = []
        for i in feature_cols:
            try:
                v = float(row[i])
            except ValueError:
                raise CliError(
                    f"row {r}, column {header[i]!r}: {row[i]!r} is not a number"
                ) from None
            if not np.isfinite(v):
                raise CliError(f"row {r}, column {header[i]!r}: non-finite value {row[i]!r}")
            vals.append(v)
        features.append(vals)
        label_strings.append(row[label_idx])
    if not features:
        raise CliError(f"{path} has no data rows")
    distinct = sorted(set(label_strings))
    if len(distinct) != 2:
        raise CliError(
            f"need exactly 2 label classes, found {len(distinct)}: {distinct[:6]}"
        )
    counts = {v: label_strings.count(v) for v in distinct}
    if counts[distinct[0]] == counts[distinct[1]]:
        raise CliError(
            "label classes are exactly balanced; the oversampling target is undefined"
        )
    minority_label = min(distinct, key=lambda v: (counts[v], v))
    labels = np.array([MINORITY if s == minority_label else MAJORITY for s in label_strings])
    ds = Dataset(np.array(features, dtype=float), labels)
    return ds, header, label_strings, minority_label


def _fmt(v: float) -> str:
    return repr(float(v))


def write_augmented_csv(path: str, header: list[str], label_column: str,
                        ds: Dataset, label_strings: list[str],
                        minority_label: str, synthetic_points: np.ndarray) -> None:
    label_idx = header.index(label_column)
    feature_cols = [i for i in range(len(header)) if i != label_idx]
    rows = chain(zip(ds.features, label_strings, repeat("0")),
                 zip(synthetic_points, repeat(minority_label), repeat("1")))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["synthetic"])
        for values, label, synthetic in rows:
            row = [""] * len(header)
            for j, col in enumerate(feature_cols):
                row[col] = _fmt(values[j])
            row[label_idx] = label
            writer.writerow(row + [synthetic])


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    print(f"seed: {seed} (drawn at random; pass --seed {seed} to reproduce)",
          file=sys.stderr)
    return seed


def cmd_oversample(args) -> int:
    method = parse_method(args.method)
    if method == IMBALANCED:
        raise CliError("'imbalanced' is a benchmark-only pseudo-method")
    seed = _resolve_seed(args)
    ds, header, label_strings, minority_label = read_csv_dataset(args.input, args.label_column)
    cfg = SamplerConfig(method=method, k=args.k, p=_parse_p(args.p), seed=seed,
                        target_count=args.target_count, symmetrize=args.symmetrize,
                        safelevel_formula=args.safelevel_formula)
    batch = oversample(ds, cfg)
    for w in batch.meta.get("warnings", ()):
        print(f"warning: {w}", file=sys.stderr)
    if batch.meta.get("k_clamped"):
        print(f"warning: k clamped from {batch.meta['k_requested']} to "
              f"{batch.meta['k_used']} (minority size limit)", file=sys.stderr)
    write_augmented_csv(args.output, header, args.label_column, ds,
                        label_strings, minority_label, batch.points)
    print(f"wrote {args.output}: {ds.n} original + {batch.m} synthetic rows",
          file=sys.stderr)
    return 0


def cmd_benchmark(args) -> int:
    seed = _resolve_seed(args)
    methods = [parse_method(name) for name in args.methods.split(",")]
    try:
        shapes = [Shape(name) for name in args.datasets.split(",")]
    except ValueError:
        valid = ", ".join(s.value for s in Shape)
        raise CliError(f"unknown dataset in {args.datasets!r}; choose from: {valid}") from None
    cv = CVConfig(folds=args.folds, repeats=args.repeats,
                  mode="nested" if args.nested else "outer")
    report = synthetic_benchmark(seed=seed, shapes=shapes, methods=methods, cv=cv,
                                 symmetrize=args.symmetrize,
                                 safelevel_formula=args.safelevel_formula)
    csv_text = report_to_csv(report)
    table_text = report_to_text(report)
    if args.output is not None:
        out_dir = os.path.dirname(args.output)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for suffix, content in ((".csv", csv_text), (".txt", table_text)):
            with open(args.output + suffix, "w", encoding="utf-8") as fh:
                fh.write(content)
        print(f"wrote {args.output}.csv and {args.output}.txt", file=sys.stderr)
    else:
        sys.stdout.write(csv_text if args.format == "csv" else table_text)
    return 0


def cmd_distance_demo(args) -> int:
    seed = 0 if args.seed is None else int(args.seed)
    origin = np.zeros(3)
    d1 = distance_to_simplex(origin, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    d2 = distance_to_simplex(origin, np.eye(3))
    print(f"d1 = {d1:.4f} (origin to the edge between two standard basis points)")
    print(f"d2 = {d2:.4f} (origin to the triangle spanned by all three)")
    rng = np.random.Generator(np.random.PCG64(seed))
    minority = rng.normal(0.0, 1.0, size=(12, 2))
    majority = rng.normal(0.0, 2.0, size=(30, 2))
    k = 4
    print(f"mean distance from a majority cloud to the minority model (k={k}, seed={seed}):")
    for p in (1, 2, 3, MAXIMAL):
        val = mean_model_distance(majority, minority, k=k, p=p)
        label = "max" if p is MAXIMAL else str(p)
        print(f"  p={label}: {val:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simbal",
        description="Balance binary datasets by synthesizing minority points "
                    "from neighborhood simplices.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by every command that runs a sampler
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--symmetrize", choices=[UNION, MUTUAL], default=UNION,
                          help="kNN edge symmetrization (default: union)")
    sampling.add_argument("--safelevel-formula", choices=[INVERSE_SAFETY, PLUS_ONE_SAFETY],
                          default=INVERSE_SAFETY,
                          help="safety-to-alpha mapping for safelevel methods")

    method_names = ", ".join(m.value for m in Method)
    over = sub.add_parser("oversample", parents=[sampling],
                          help="append synthetic minority rows to a CSV")
    over.add_argument("input", help="input CSV path (header row required)")
    over.add_argument("output", help="output CSV path")
    over.add_argument("--method", default=Method.SIMPLICIAL.value,
                      help=f"one of: {method_names} (default: simplicial)")
    over.add_argument("-k", type=int, default=5, help="neighborhood size (default: 5)")
    over.add_argument("-p", default="max",
                      help="max simplex dimension, integer or 'max' (default: max)")
    over.add_argument("--seed", type=int, default=None, help="RNG seed (default: random, logged)")
    over.add_argument("--label-column", default="label", help="label column name (default: label)")
    over.add_argument("--target-count", type=int, default=None,
                      help="synthetic row count (default: majority minus minority)")
    over.set_defaults(fn=cmd_oversample)

    bench = sub.add_parser("benchmark", parents=[sampling],
                           help="run the synthetic-shape benchmark")
    default_methods = ",".join(m.value for m in BENCHMARK_METHODS)
    bench.add_argument("--methods", default=default_methods,
                       help=f"comma-separated list from: {IMBALANCED}, {method_names} "
                            f"(default: {default_methods})")
    bench.add_argument("--datasets",
                       default=",".join(s.value for s in Shape),
                       help="comma-separated shape list")
    bench.add_argument("--folds", type=int, default=CVConfig.folds,
                       help=f"CV folds (default: {CVConfig.folds})")
    bench.add_argument("--repeats", type=int, default=CVConfig.repeats,
                       help=f"CV repeats (default: {CVConfig.repeats})")
    bench.add_argument("--nested", action="store_true",
                       help="select k and p per outer fold on an inner "
                            f"{CVConfig.inner_repeats}x{CVConfig.inner_folds}-fold CV "
                            "(much slower)")
    bench.add_argument("--seed", type=int, default=None, help="master seed (default: random, logged)")
    bench.add_argument("--format", choices=["csv", "text"], default="text",
                       help="stdout format when --output is not given")
    bench.add_argument("--output", default=None,
                       help="path prefix; writes <prefix>.csv and <prefix>.txt")
    bench.set_defaults(fn=cmd_benchmark)

    demo = sub.add_parser("distance-demo",
                          help="print simplex projection distances and the model-distance curve")
    demo.add_argument("--seed", type=int, default=None, help="cloud seed (default: 0)")
    demo.set_defaults(fn=cmd_distance_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
