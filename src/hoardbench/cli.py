"""Command-line interface.

    hoardbench run --config experiment.json [--seeds N|a..b] [--out DIR] [--jobs N]
    hoardbench report --in DIR
    hoardbench validate --config experiment.json

`run` and `validate` print `warning: config key ...` on stderr for each env
key the config sets to no effect, and go on. `report --in` rewrites a
results directory's reports from its runs.jsonl and resolved_config.json; it
re-runs each listed cell that gets a trace window in failures.md, and writes
no window for a re-run whose record differs from the stored one. It warns on
stderr when the directory's timing.json names other source than the running
code's (`source_sha256`), and goes on.

Exit codes: 0 on success, 1 on a configuration error or unusable input (a
re-run that differs from its record included), 2 when at least one run cell
failed at runtime.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .core.state import ConfigurationError, InputError
from .envs import STATUS_FAILED
from .harness import (
    config_warnings,
    load_result_set,
    parse_config,
    resolved_document,
    run_grid,
    source_sha256,
    write_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hoardbench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config's ablation grid")
    run.add_argument("--config", required=True, help="path to a JSON experiment config")
    run.add_argument(
        "--seeds", default=None, help="override seeds: one, e.g. 3, or a range, e.g. 0..31")
    run.add_argument("--out", default=None, help="override output directory")
    run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    report = sub.add_parser(
        "report", help="rebuild reports from a results directory, re-running each listed "
        "cell that gets a trace window")
    report.add_argument("--in", dest="input_dir", required=True)

    validate = sub.add_parser("validate", help="validate a config and echo it resolved")
    validate.add_argument("--config", required=True)
    return parser


class _Unusable(Exception):
    """A command-line argument, such as a path, that cannot serve its purpose."""


def _read_config(path: str):
    """The experiment config in the UTF-8 JSON file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Unusable(f"cannot read config {path}: {exc}") from exc
    config = parse_config(text)
    for message in config_warnings(config):
        print(f"warning: {message}", file=sys.stderr)
    return config


def _flag_seeds(text: str) -> int | str:
    """The `--seeds` flag as a config's seeds value, an int or an 'a..b'
    string: a signed integer goes in as an int, anything else as text."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return int(text) if digits.isdecimal() else text


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            config = _read_config(args.config)
            print(json.dumps(resolved_document(config), indent=2, sort_keys=True))
            return 0

        if args.command == "run":
            if args.jobs < 1:
                raise _Unusable("--jobs must be at least 1")
            config = _read_config(args.config)
            if args.seeds is not None:
                document = resolved_document(config)
                document["seeds"] = _flag_seeds(args.seeds)
                config = parse_config(json.dumps(document))
            if args.out is not None:
                config = dataclasses.replace(config, output_dir=args.out)
            # Before the grid, so that an unusable path costs no run.
            try:
                Path(config.output_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise _Unusable(f"cannot use output directory {config.output_dir}: {exc}") from exc
            result = run_grid(config, jobs=args.jobs)
            out = write_report(result, config.output_dir)
            failed = sum(1 for c in result.cells if c.record.status == STATUS_FAILED)
            print(f"wrote {len(result.cells)} run cells to {out} ({failed} failed)")
            return 2 if failed else 0

        if args.command == "report":
            if not Path(args.input_dir).is_dir():
                raise _Unusable(f"{args.input_dir} is not a results directory")
            result = load_result_set(args.input_dir)
            running = source_sha256()
            if result.source_sha256 not in (None, running):
                print(f"warning: {args.input_dir} was written by other code: its timing.json "
                      f"names source_sha256 {result.source_sha256}, the running code's is "
                      f"{running}", file=sys.stderr)
            write_report(result, args.input_dir)
            print(f"rebuilt reports in {args.input_dir}")
            return 2 if result.any_failed() else 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, InputError, _Unusable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
