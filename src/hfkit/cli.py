"""Command-line surface: REPL, batch evaluation, mewo files, and suites."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import FormatError, HfkitError, ParseError
from .mewos import mewo_from_json, mewo_from_text
from .session import Session, render
from .suites import SUITE_NAMES, run_suite
from .universe import DEFAULT_NUMERAL_LIMIT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    `main` call in the process. Parsing does not change it, and help, usage and
    errors are written to the `sys.stdout`/`sys.stderr` of the moment."""
    parser = argparse.ArgumentParser(prog="hfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("repl", help="interactive statement evaluator")

    run = sub.add_parser("run", help="evaluate a statement file")
    run.add_argument("file")

    mewo = sub.add_parser("mewo", help="load a mewo file and re-emit it")
    mewo.add_argument("file")
    mewo.add_argument("--format", choices=("text", "json", "dot"), default="text")

    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("--suite", choices=SUITE_NAMES, required=True)
    check.add_argument("--seed", type=int, default=42)
    check.add_argument("--max-size", type=int, default=4)
    check.add_argument("--max-depth", type=int, default=4)
    check.add_argument("--format", choices=("text", "json"), default="json")
    return parser


def _repl(args) -> int:
    session = Session()
    prompt = "hfkit> " if sys.stdin.isatty() else ""  # none when stdin is not a terminal
    print(prompt, end="", file=sys.stderr, flush=True)
    for number, line in enumerate(sys.stdin, 1):
        try:
            for out in session.run_program(line):
                print(out)
        except HfkitError as exc:
            if isinstance(exc, ParseError):  # the parser numbers the one line it is given 1
                exc = ParseError(number + exc.line - 1, exc.col, exc.message, exc.expected)
            print(f"error: {exc}", file=sys.stderr)
            if not prompt:  # not a terminal: stop at the first error
                return 1
        print(prompt, end="", file=sys.stderr, flush=True)
    return 0


def _read(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read is an HfkitError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise HfkitError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _run_file(args) -> int:
    for out in Session().run_program(_read(args.file)):
        print(out)
    return 0


def _mewo_file(args) -> int:
    text = _read(args.file).strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting past the limit
            raise FormatError(str(exc)) from None
        X = mewo_from_json(doc)
    else:
        X = mewo_from_text(text)
    print(render(X, args.format))
    return 0


def _check(args) -> int:
    report = run_suite(
        args.suite, seed=args.seed, max_size=args.max_size, max_depth=args.max_depth
    )
    if args.format == "json":
        print(json.dumps(report, indent=2, default=str))
    else:
        print(f"suite {report['suite']}: {report['cases']} cases, "
              f"{len(report['failures'])} failures (seed {report['seed']})")
        for failure in report["failures"]:
            print(f"  FAIL {failure['name']} [{failure['input']}]: "
                  f"expected {failure['expected']}, got {failure['got']}")
    return 0 if not report["failures"] else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and args.max_size < 0:
        parser.error("argument --max-size: must not be negative")
    if args.command == "check" and not 0 <= args.max_depth <= DEFAULT_NUMERAL_LIMIT:
        parser.error(f"argument --max-depth: must be in 0..{DEFAULT_NUMERAL_LIMIT}, the numeral bound")
    try:
        return {"repl": _repl, "run": _run_file, "mewo": _mewo_file, "check": _check}[args.command](args)
    except HfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
