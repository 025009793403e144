"""Command line interface.

Three subcommands:

* ``filter``: run the lifted (or ground reference) filter over a trace and
  emit a JSON run report with per-step belief sizes and evidence.
* ``compare``: run both filters and report per-step total-variation distance
  between the expanded beliefs; exits 1 on divergence.
* ``gentrace``: simulate a domain policy and emit an annotation trace,
  optionally corrupting one step.

Exit codes: 0 success, 1 comparison divergence, 2 inconsistent trace,
3 parse error, 4 enumeration cap exceeded, 5 I/O error, 6 the domain's
dynamics break a model invariant (any other ``EngineError``, such as a
rule whose effect breaks conservation), 7 a ``--corrupt-at`` off the trace,
8 a usage error such as ``--length -3`` (``--help`` exits 0).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time

from .domain import (BUILTIN_DOMAINS, Domain, builtin_domain, format_trace,
                     generate_trace, parse_domain, parse_trace)
from .errors import (EngineError, EnumerationLimitError, ParseError,
                     TraceInconsistencyError)
from .filtering import filter_trace
from .oracle import compare as compare_filters
from .oracle import ground_filter_trace

EXIT_OK = 0
EXIT_DIVERGENT = 1
EXIT_INCONSISTENT = 2
EXIT_PARSE = 3
EXIT_ENUMERATION = 4
EXIT_IO = 5
EXIT_DYNAMICS = 6
EXIT_CORRUPT_AT = 7
EXIT_USAGE = 8

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhgfilter",
        description="Filtering over rewriting multi-hypergraph states.")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="logging verbosity (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", required=True, metavar="NAME_OR_PATH",
                       help="built-in domain name (%s) or JSON file"
                            % "|".join(BUILTIN_DOMAINS))
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write the result there instead of stdout")

    def tolerance(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(f"{text!r} is not finite and >= 0")
        return value

    def length(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{text!r} is negative")
        return value

    p_filter = sub.add_parser("filter", help="filter an annotation trace")
    common(p_filter)
    p_filter.add_argument("--trace", required=True, metavar="PATH")
    p_filter.add_argument("--mode", choices=["lifted", "ground"],
                          default="lifted")

    p_compare = sub.add_parser(
        "compare", help="check the lifted filter against ground enumeration")
    common(p_compare)
    p_compare.add_argument("--trace", required=True, metavar="PATH")
    p_compare.add_argument("--tolerance", type=tolerance, default=1e-9,
                           help="divergence threshold, finite and >= 0 "
                                "(default 1e-9)")

    p_gen = sub.add_parser("gentrace", help="simulate and emit a trace")
    common(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--length", type=length, default=20)
    p_gen.add_argument("--corrupt-at", type=int, default=None, metavar="STEP",
                       help="overwrite this step's held counts with an "
                            "impossible value")
    p_gen.add_argument("--policy", choices=["uniform", "install_heavy"],
                       default="uniform")
    return parser


def _load_domain(spec: str) -> Domain:
    if spec in BUILTIN_DOMAINS:
        return builtin_domain(spec)
    try:
        fh = open(spec, "r", encoding="utf-8")
    except FileNotFoundError:
        raise FileNotFoundError(f"{spec!r} is neither a built-in domain "
                                f"({', '.join(BUILTIN_DOMAINS)}) nor a file") from None
    with fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", spec, exc.lineno) from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, spec) from exc
    return parse_domain(data, source=spec)


def _load_trace(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, path) from exc
    return parse_trace(text, source=path)


def _not_utf8(exc: UnicodeDecodeError, source: str) -> ParseError:
    return ParseError(f"not UTF-8: byte {exc.object[exc.start]:#04x} "
                      f"at offset {exc.start}", source)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _cmd_filter(args) -> int:
    domain = _load_domain(args.domain)
    trace = _load_trace(args.trace)
    started = time.perf_counter()
    report: dict = {"domain": domain.name, "trace": args.trace,
                    "mode": args.mode, "format": "mhg-run-report/1"}
    try:
        if args.mode == "ground":
            result = ground_filter_trace(domain, trace)
        else:
            result = filter_trace(domain, trace)
    except TraceInconsistencyError as exc:
        report["consistent"] = False
        report["inconsistent_at"] = exc.step
        report["inconsistent_action"] = exc.action
        report["elapsed_seconds"] = round(time.perf_counter() - started, 6)
        _emit(_report_json(report), args.output)
        return EXIT_INCONSISTENT
    steps = [s.to_dict() for s in result.stats]
    max_lifted = max(s.lifted_count for s in result.stats)
    max_ground = max(s.ground_count for s in result.stats)
    report.update({
        "consistent": True,
        "steps": steps,
        "warnings": list(result.warnings),
        "totals": {
            "steps": len(trace),
            "log_likelihood": result.log_likelihood,
            "max_lifted": max_lifted,
            "max_ground_equivalent": max_ground,
            "compression_ratio": max_ground / max_lifted,
        },
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    })
    _emit(_report_json(report), args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    domain = _load_domain(args.domain)
    trace = _load_trace(args.trace)
    started = time.perf_counter()
    result = compare_filters(domain, trace, tolerance=args.tolerance)
    report = {
        "format": "mhg-compare-report/1",
        "domain": domain.name,
        "trace": args.trace,
        "tolerance": args.tolerance,
        "per_step_tv": list(result.per_step_tv),
        "max_tv": result.max_tv,
        "log_likelihood_lifted": result.log_likelihood_lifted,
        "log_likelihood_ground": result.log_likelihood_ground,
        "log_likelihood_gap": result.log_likelihood_gap,
        "divergent": result.divergent,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }
    _emit(_report_json(report), args.output)
    return EXIT_DIVERGENT if result.divergent else EXIT_OK


def _cmd_gentrace(args) -> int:
    domain = _load_domain(args.domain)
    try:
        trace, truncated = generate_trace(domain, seed=args.seed,
                                          length=args.length,
                                          corrupt_at=args.corrupt_at,
                                          policy=args.policy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT_AT
    if truncated:
        print(f"warning: trace truncated at {len(trace)} steps (dead end)",
              file=sys.stderr)
    _emit(format_trace(trace), args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        logging.basicConfig(level=getattr(logging, args.log_level.upper()))
        if args.command == "filter":
            return _cmd_filter(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_gentrace(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUMERATION
    except TraceInconsistencyError as exc:
        print(f"error: inconsistent trace at step {exc.step}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS


if __name__ == "__main__":
    sys.exit(main())
