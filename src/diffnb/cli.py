"""Command-line interface: train, evaluate, predict, search, benchmark, inspect.

Exit codes: 0 success, 1 runtime failure (bad data, missed tolerance,
failed rows), 2 usage errors including missing input files.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .boosting import TrainConfig, train_with_scores
from .dataset import (
    ParseError,
    ParseOptions,
    SchemaError,
    json_entry,
    json_keys,
    json_parse_options,
    json_value,
    load_schema,
    parse_table,
    split_dataset,
    split_fields,
)
from .density import resolve_topology
from .evaluation import (
    evaluate,
    format_percent,
    load_suite,
    render_report_machine,
    render_report_text,
    render_suite_machine,
    render_suite_text,
    run_benchmark,
    training_report,
)
from .inference import posterior
from .modelfile import load_model, save_model
from .topology import SearchSpec, coordinate_search


def _add_parse_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--delimiter", default=None, help="field separator (default: any whitespace)")
    cmd.add_argument("--label-col", type=int, default=-1, help="label field index (default: last)")
    cmd.add_argument("--ignore-cols", default="", help="comma-separated field indexes to drop")
    cmd.add_argument("--missing", default="?", help="missing-value token; rows holding it are dropped")


def _parse_options(args) -> ParseOptions:
    ignore = tuple(int(c) for c in args.ignore_cols.split(",") if c.strip() != "")
    return ParseOptions(args.delimiter, args.missing, args.label_col, ignore)


def _parse_bins(text: str | None):
    if text is None:
        return None
    if "=" in text:
        pairs = [item.split("=", 1) for item in text.split(",")]
        return {name.strip(): int(count) for name, count in pairs}
    if "," in text:
        return [int(b) for b in text.split(",")]
    return int(text)


def _require_files(*paths) -> str | None:
    for p in paths:
        if p is not None and not Path(p).exists():
            return f"no such file: {p}"
    return None


def cmd_train(args) -> int:
    missing = _require_files(args.data, args.schema)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    schema = load_schema(args.schema)
    data = parse_table(args.data, schema, _parse_options(args))
    if data.provenance.n_dropped:
        print(f"dropped {data.provenance.n_dropped} rows with missing values")
    holdout = None
    if args.train_count is not None:
        data, holdout = split_dataset(data, args.train_count, args.seed)
    config = TrainConfig(
        alpha=args.alpha,
        max_rounds=args.max_rounds,
        tag_gain=args.tag_gain,
        epsilon_floor=args.epsilon,
        topology=_parse_bins(args.bins),
    )
    model, trace, train_logs = train_with_scores(data, config)
    for epoch, count in enumerate(trace.miss_counts, start=1):
        print(f"epoch {epoch}: {count} misses")
    if trace.converged:
        print(f"converged after {trace.epochs} epochs")
    else:
        print(f"stopped at max_rounds={model.config.max_rounds} with {trace.miss_counts[-1]} misses")
    report = training_report(model, data, train_logs)
    print(f"train accuracy: {format_percent(report.accuracy)} % ({report.n_correct}/{report.n_examples})")
    if holdout is not None:
        held = evaluate(model, holdout)
        print(f"holdout accuracy: {format_percent(held.accuracy)} % ({held.n_correct}/{held.n_examples})")
    save_model(model, args.out)
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    missing = _require_files(args.model, args.data)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    model = load_model(args.model)
    data = parse_table(args.data, model.schema, _parse_options(args))
    report = evaluate(model, data)
    render = render_report_machine if args.format == "machine" else render_report_text
    print(render(report))
    return 0


def _predict_line(model, line: str, options: ParseOptions, line_no: int) -> str:
    fields = split_fields(line, options.delimiter)
    ignored = {c if c >= 0 else len(fields) + c for c in options.ignore_cols}
    tokens = [f for i, f in enumerate(fields) if i not in ignored]
    m = model.schema.n_attributes
    if len(tokens) != m:
        raise ParseError(f"line {line_no}: expected {m} values, got {len(tokens)}")
    if options.missing_token in tokens:
        raise ParseError(f"line {line_no}: missing value")
    try:
        values = tuple(model.schema.encode_value(i, tok) for i, tok in enumerate(tokens))
    except (ParseError, SchemaError) as err:
        raise ParseError(f"line {line_no}: {err}") from None
    post = posterior(model, values)
    probs = ",".join(f"{p:.6f}" for p in post.probabilities)
    return f"{model.schema.classes[post.winner]} p=[{probs}]"


def cmd_predict(args) -> int:
    missing = _require_files(args.model, args.data)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    model = load_model(args.model)
    options = _parse_options(args)
    source = open(args.data, "r", encoding="utf-8") if args.data else sys.stdin
    failures = 0
    try:
        for line_no, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                print(_predict_line(model, line, options, line_no))
            except (ParseError, SchemaError) as err:
                failures += 1
                print(f"ERROR: {err}")
    finally:
        if args.data:
            source.close()
    if failures:
        print(f"{failures} rows failed", file=sys.stderr)
        return 1
    return 0


def _search_ranges(schema, raw_ranges, baseline_bins: int) -> tuple[tuple[int, ...], ...]:
    """Candidate ranges per attribute; unlisted attributes stay pinned.

    Every candidate must be a JSON integer the schema accepts for its
    attribute, so a bad count fails here rather than after trials ran.
    """
    pinned = resolve_topology(schema, baseline_bins)
    if isinstance(raw_ranges, dict):
        names = [a.name for a in schema.attributes]
        unknown = set(raw_ranges) - set(names)
        if unknown:
            raise SchemaError(f"ranges for unknown attributes: {sorted(unknown)}")
        ranges = [raw_ranges.get(name, [pinned[i]]) for i, name in enumerate(names)]
    else:
        ranges = raw_ranges
        if len(ranges) != schema.n_attributes:
            raise SchemaError(f"got {len(ranges)} ranges for {schema.n_attributes} attributes")
    if not all(isinstance(r, list) for r in ranges):
        raise ValueError('search spec "ranges" must hold a JSON list of bin counts per attribute')
    for attr, candidates in zip(schema.attributes, ranges):
        for count in candidates:
            resolve_topology(schema, {attr.name: count})
    return tuple(tuple(r) for r in ranges)


_SPEC_KEYS = (
    "schema", "parse", "data", "train_count", "seed", "train", "validation", "ranges",
    "baseline_bins", "budget", "parallelism", "exhaustive", "alpha", "max_rounds",
)


def cmd_search(args) -> int:
    missing = _require_files(args.spec)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    spec_path = Path(args.spec)
    doc = "search spec"
    with open(spec_path, "r", encoding="utf-8") as fh:
        raw = json_value(doc, json.load(fh), "a JSON object")
    base = spec_path.parent

    schema_path = base / json_entry(doc, raw, "schema", "a string")
    missing = _require_files(schema_path)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    schema = load_schema(schema_path)
    options = json_parse_options(doc, raw)
    if "data" in raw:
        data_path = base / json_entry(doc, raw, "data", "a string")
        train_count = json_entry(doc, raw, "train_count", "an integer")
        seed = json_entry(doc, raw, "seed", "an integer", "null", default=None)
        missing = _require_files(data_path)
        if missing:
            print(missing, file=sys.stderr)
            return 2
        full = parse_table(data_path, schema, options)
        trainset, validation = split_dataset(full, train_count, seed)
    else:
        train_path = base / json_entry(doc, raw, "train", "a string")
        val_path = base / json_entry(doc, raw, "validation", "a string")
        missing = _require_files(train_path, val_path)
        if missing:
            print(missing, file=sys.stderr)
            return 2
        trainset = parse_table(train_path, schema, options)
        validation = parse_table(val_path, schema, options)

    baseline_bins = json_entry(doc, raw, "baseline_bins", "an integer", default=5)
    raw_ranges = json_entry(doc, raw, "ranges", "a JSON list", "a JSON object")
    spec = SearchSpec(
        ranges=_search_ranges(schema, raw_ranges, baseline_bins),
        budget=json_entry(doc, raw, "budget", "an integer", default=64),
        parallelism=(
            args.parallel
            if args.parallel is not None
            else json_entry(doc, raw, "parallelism", "an integer", default=1)
        ),
        baseline_bins=baseline_bins,
        exhaustive=json_entry(doc, raw, "exhaustive", "true or false", default=False),
    )
    config = TrainConfig(
        alpha=float(json_entry(doc, raw, "alpha", "a number", default=2.0)),
        max_rounds=json_entry(doc, raw, "max_rounds", "an integer", default=500),
    )
    json_keys(doc, raw, _SPEC_KEYS)

    def progress(trial):
        topo = "-".join(str(b) for b in trial.topology)
        print(
            f"trial {topo}: train {format_percent(trial.train_accuracy)} %"
            f" validation {format_percent(trial.val_accuracy)} %"
        )

    result = coordinate_search(trainset, validation, spec, config, on_trial=progress)
    best = "-".join(str(b) for b in result.best_topology)
    print(f"best topology: {best}")
    print(f"best validation accuracy: {format_percent(result.best_accuracy)} %")
    print(f"trials: {len(result.trials)}" + (" (budget exhausted)" if result.truncated else ""))
    if args.out:
        doc = {
            "best_topology": list(result.best_topology),
            "best_accuracy": result.best_accuracy,
            "truncated": result.truncated,
            "trials": [
                {
                    "topology": list(t.topology),
                    "train_accuracy": t.train_accuracy,
                    "val_accuracy": t.val_accuracy,
                }
                for t in result.trials
            ],
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def cmd_benchmark(args) -> int:
    missing = _require_files(args.suite)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    suite = load_suite(args.suite)
    report = run_benchmark(suite, data_dir=args.data_dir)
    render = render_suite_machine if args.format == "machine" else render_suite_text
    text = render(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0 if report.ok else 1


def cmd_inspect(args) -> int:
    missing = _require_files(args.model)
    if missing:
        print(missing, file=sys.stderr)
        return 2
    model = load_model(args.model)
    w = model.weights.weights
    boosted = int(np.count_nonzero(w > 1.0))
    lines = [
        f"classes: {', '.join(model.schema.classes)}",
        "attributes: "
        + ", ".join(f"{a.name}({a.kind})" for a in model.schema.attributes),
        "topology: " + "-".join(str(b) for b in model.topology),
        f"trained on: {model.density.joint.n_train} examples",
        f"config: alpha={model.config.alpha} max_rounds={model.config.max_rounds}"
        f" tag_gain={model.config.tag_gain} epsilon_floor={model.config.epsilon_floor:g}",
        f"epochs: {model.trace.epochs} ({'converged' if model.trace.converged else 'not converged'})",
        f"boosted cells: {boosted} of {sum(model.schema.n_classes * b for b in model.topology)}"
        f" (max weight {w.max():g})",
        f"populated bins: {int(np.count_nonzero(model.density.tags.populated))}",
    ]
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffnb",
        description="Difference-boosted naive Bayes classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write it to a file")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--bins", default=None, help="bin counts: N, or N,N,..., or name=N,...")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--max-rounds", type=int, default=500)
    p.add_argument("--tag-gain", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=None, help="floor for empty cells")
    p.add_argument("--train-count", type=int, default=None, help="train on the first N rows, hold out the rest")
    p.add_argument("--seed", type=int, default=None, help="shuffle before the --train-count split")
    p.add_argument("--out", required=True)
    _add_parse_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    _add_parse_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label unlabeled rows (file or stdin)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None, help="rows to label; stdin when omitted")
    _add_parse_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("search", help="search per-attribute bin counts")
    p.add_argument("--spec", required=True, help="search description (JSON)")
    p.add_argument("--parallel", type=int, default=None)
    p.add_argument("--out", default=None, help="write the trial log (JSON)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("benchmark", help="run a suite of pinned experiments")
    p.add_argument("--suite", required=True)
    p.add_argument("--data-dir", default=None, help="overrides DIFFNB_DATA and the suite's data_dir")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("inspect", help="summarize a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
