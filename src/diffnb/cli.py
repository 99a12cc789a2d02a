"""Command-line interface: train, evaluate, predict, search, benchmark, inspect.

Exit codes: 0 success, 1 runtime failure (bad data, missed tolerance,
failed rows, stdout closed by its reader), 2 usage errors including
missing input files.
"""

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .boosting import TrainConfig, train_with_scores
from .dataset import (
    ParseError,
    ParseOptions,
    SchemaError,
    compiled_block,
    json_data_files,
    json_entry,
    json_keys,
    json_parse_options,
    json_value,
    line_blocks,
    load_schema,
    parse_table,
    split_dataset,
    split_fields,
    token_codes,
)
from .density import resolve_topology
from .inference import posterior_batch
from .modelfile import load_model, save_model

# evaluation and topology are imported by the commands that run them, so
# predict and inspect do not load them


def _add_parse_flags(cmd: argparse.ArgumentParser, labeled: bool = True) -> None:
    """Parsing flags; ``--label-col`` only where the rows are ``labeled``."""
    cmd.add_argument(
        "--delimiter", default=ParseOptions.delimiter, help="field separator (default: any whitespace)"
    )
    if labeled:
        cmd.add_argument(
            "--label-col", type=int, default=ParseOptions.label_col, help="label field index (default: last)"
        )
    cmd.add_argument("--ignore-cols", default="", help="comma-separated field indexes to drop")
    cmd.add_argument(
        "--missing", default=ParseOptions.missing_token, help="missing-value token; rows holding it are dropped"
    )


def _parse_options(args) -> ParseOptions:
    try:
        ignore = tuple(int(c) for c in args.ignore_cols.split(",") if c.strip() != "")
    except ValueError:
        raise ValueError(f"--ignore-cols {args.ignore_cols!r}: expected comma-separated integers") from None
    # predict's rows carry no label, so its parser has no --label-col
    label_col = getattr(args, "label_col", ParseOptions.label_col)
    return ParseOptions(args.delimiter, args.missing, label_col, ignore)


def _parse_bins(text: str | None):
    if text is None:
        return None
    try:
        if "=" in text:
            pairs = [item.split("=", 1) for item in text.split(",")]
            return {name.strip(): int(count) for name, count in pairs}
        if "," in text:
            return [int(b) for b in text.split(",")]
        return int(text)
    except ValueError:
        raise ValueError(f"--bins {text!r}: expected N, N,N,... or name=N,...") from None


class MissingFile(Exception):
    """An input file named on the command line or in a spec does not exist."""


def _require_files(*paths) -> None:
    """Raise :class:`MissingFile` for the first of ``paths`` that does not exist; None is skipped."""
    for p in paths:
        if p is not None and not Path(p).exists():
            raise MissingFile(p)


def cmd_train(args) -> int:
    from .evaluation import evaluate, format_percent, scores_report

    if args.seed is not None and args.train_count is None:
        # the seed shuffles the rows before that split; alone it would do nothing
        args.usage_error("--seed needs --train-count")
    _require_files(args.data, args.schema)
    schema = load_schema(args.schema)
    data = parse_table(args.data, schema, _parse_options(args))
    if data.n_dropped:
        print(f"dropped {data.n_dropped} rows with missing values")
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
    report = scores_report(model, data, train_logs)
    print(f"train accuracy: {format_percent(report.accuracy)} % ({report.n_correct}/{report.n_examples})")
    if holdout is not None:
        held = evaluate(model, holdout)
        print(f"holdout accuracy: {format_percent(held.accuracy)} % ({held.n_correct}/{held.n_examples})")
    save_model(model, args.out)
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import evaluate, render_report_machine, render_report_text

    _require_files(args.model, args.data)
    model = load_model(args.model)
    data = parse_table(args.data, model.schema, _parse_options(args))
    report = evaluate(model, data)
    render = render_report_machine if args.format == "machine" else render_report_text
    print(render(report))
    return 0


def _predict_values(model, line: str, options: ParseOptions, line_no: int) -> tuple[float, ...]:
    """The encoded values of one stripped input line; raises :class:`ParseError` naming the line."""
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
    return values


def _predict_fields(n_fields: int, options: ParseOptions, m: int) -> tuple[int, ...] | None:
    """The value fields of an ``n_fields``-field input line; None if it has not ``m`` of them."""
    ignored = {c if c >= 0 else n_fields + c for c in options.ignore_cols}
    picked = tuple(i for i in range(n_fields) if i not in ignored)
    return picked if len(picked) == m else None


def _predict_block(model, n_before: int, lines: list[str], options: ParseOptions) -> int:
    """Print a label line or an ``ERROR`` line per non-blank line, in order; returns the failures.

    ``lines`` follow the first ``n_before`` lines of the input. The block
    goes through the compiled block parse, without a label field. Where
    that refuses it, or drops a row for a missing value, which is an
    ``ERROR`` line here, the lines are taken one by one.
    """
    layout = functools.partial(_predict_fields, options=options, m=model.schema.n_attributes)
    block = compiled_block(lines, options, token_codes(model.schema)[0], None, layout)
    if block is not None and block[2] == 0:
        good = block[0]
        parsed = [None] * len(good)
    else:
        parsed = []
        for line_no, line in enumerate(lines, start=n_before + 1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed.append(_predict_values(model, line, options, line_no))
            except (ParseError, SchemaError) as err:
                parsed.append(f"ERROR: {err}")
        good = [row for row in parsed if not isinstance(row, str)]
    if len(good):
        probabilities, winners = posterior_batch(model, good)
        classes = model.schema.classes
        labeled = iter([
            f"{classes[w]} p=[{','.join(f'{p:.6f}' for p in probs)}]"
            for w, probs in zip(winners.tolist(), probabilities.tolist())
        ])
        parsed = [row if isinstance(row, str) else next(labeled) for row in parsed]
    sys.stdout.write("".join(f"{line}\n" for line in parsed))
    return len(parsed) - len(good)


def cmd_predict(args) -> int:
    _require_files(args.model, args.data)
    model = load_model(args.model)
    options = _parse_options(args)
    failures = 0
    # stdin's bytes are read as a --data file's are, whatever the locale
    with open(args.data, "rb") if args.data else nullcontext(sys.stdin.buffer) as source:
        for n_before, lines in line_blocks(source):
            failures += _predict_block(model, n_before, lines, options)
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
    from .evaluation import format_percent
    from .topology import SearchSpec, coordinate_search

    _require_files(args.spec)
    spec_path = Path(args.spec)
    doc = "search spec"
    with open(spec_path, "r", encoding="utf-8") as fh:
        raw = json_value(doc, json.load(fh), "a JSON object")
    base = spec_path.parent

    schema_path = base / json_entry(doc, raw, "schema", "a string")
    options = json_parse_options(doc, raw)
    files = json_data_files(doc, raw, "validation")
    _require_files(schema_path, *files.paths(base))
    schema = load_schema(schema_path)
    trainset, validation = files.load(base, schema, options)

    baseline_bins = json_entry(doc, raw, "baseline_bins", "an integer", default=SearchSpec.baseline_bins)
    raw_ranges = json_entry(doc, raw, "ranges", "a JSON list", "a JSON object")
    spec = SearchSpec(
        ranges=_search_ranges(schema, raw_ranges, baseline_bins),
        budget=json_entry(doc, raw, "budget", "an integer", default=SearchSpec.budget),
        parallelism=json_entry(doc, raw, "parallelism", "an integer", default=SearchSpec.parallelism),
        baseline_bins=baseline_bins,
        exhaustive=json_entry(doc, raw, "exhaustive", "true or false", default=SearchSpec.exhaustive),
    )
    config = TrainConfig(
        alpha=float(json_entry(doc, raw, "alpha", "a number", default=TrainConfig.alpha)),
        max_rounds=json_entry(doc, raw, "max_rounds", "an integer", default=TrainConfig.max_rounds),
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
    from .evaluation import load_suite, render_suite_machine, render_suite_text, run_benchmark

    _require_files(args.suite)
    suite = load_suite(args.suite)
    report = run_benchmark(suite, data_dir=args.data_dir)
    render = render_suite_machine if args.format == "machine" else render_suite_text
    text = render(report)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0 if report.ok else 1


def cmd_inspect(args) -> int:
    _require_files(args.model)
    model = load_model(args.model)
    w = model.weights
    boosted = int(np.count_nonzero(w > 1.0))
    lines = [
        f"classes: {', '.join(model.schema.classes)}",
        "attributes: "
        + ", ".join(f"{a.name}({a.kind})" for a in model.schema.attributes),
        "topology: " + "-".join(str(b) for b in model.topology),
        f"trained on: {model.density.n_train} examples",
        f"config: alpha={model.config.alpha} max_rounds={model.config.max_rounds}"
        f" tag_gain={model.config.tag_gain} epsilon_floor={model.config.epsilon_floor:g}",
        f"epochs: {model.trace.epochs} ({'converged' if model.trace.converged else 'not converged'})",
        f"boosted cells: {boosted} of {sum(model.schema.n_classes * b for b in model.topology)}"
        f" (max weight {w.max():g})",
        f"populated bins: {int(np.count_nonzero(model.density.counts > 0))}",
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
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--max-rounds", type=int, default=TrainConfig.max_rounds)
    p.add_argument("--tag-gain", type=float, default=TrainConfig.tag_gain)
    p.add_argument("--epsilon", type=float, default=TrainConfig.epsilon_floor, help="floor for empty cells")
    p.add_argument("--train-count", type=int, default=None, help="train on the first N rows, hold out the rest")
    p.add_argument("--seed", type=int, default=None, help="shuffle before the --train-count split")
    p.add_argument("--out", required=True)
    _add_parse_flags(p)
    p.set_defaults(func=cmd_train, usage_error=p.error)

    p = sub.add_parser("evaluate", help="score a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    _add_parse_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label unlabeled rows (file or stdin)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", default=None, help="rows to label; stdin when omitted")
    _add_parse_flags(p, labeled=False)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("search", help="search per-attribute bin counts")
    p.add_argument("--spec", required=True, help="search description (JSON)")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly, and point stdout
        # at the null device so the flush at exit has nothing left to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MissingFile as err:
        print(f"no such file: {err}", file=sys.stderr)
        return 2
    except (ParseError, SchemaError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
