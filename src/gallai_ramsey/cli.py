"""Command-line front end. Thin adapters over the library operations
with file/JSON output for scripted pipelines.

Exit codes: 0 definitive success, 1 definitive negative (target-free
coloring on `check`, no Gallai partition on `partition`, bad coloring on
`verify-upper`, failed construction on `verify-lower`, discrepancy on
`compute-gr`), 2 usage error, 3 budget exhausted, 4 internal error (any
other exception, its message on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .coloring import random_gallai, read_coloring, write_coloring
from .construction import build_lower_bound_coloring
from .formulas import (
    InvalidSpecError,
    classical_ramsey,
    known_gr,
    parse_spec_string,
    predicted_gr,
)
from .partition import gallai_partition
from .search import contains_required
from .verifier import (
    ALL_FORCED,
    BAD_COLORING,
    CONFIRMED,
    DEFAULT_BUDGET,
    INCONCLUSIVE,
    compute_gr,
    decide_upper,
    report_to_json,
    verify_lower,
)
from .targets import parse_target_list

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# every input error the library raises subclasses ValueError
_USAGE_ERRORS = (ValueError, OSError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallai",
        description="Gallai colorings of complete graphs: constructions, "
        "partitions, closed-form values and exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.set_defaults(run=run, usage=p.format_usage)
        return p

    p = cmd("construct", "build the layered lower-bound coloring for a spec", _cmd_construct)
    p.add_argument("--spec", required=True, help='e.g. "n=3 k=3 head=cycle i=2,2,2"')
    p.add_argument("-o", "--output", metavar="FILE", help="write the coloring here")

    p = cmd("check", "search a coloring for the required monochromatic targets", _cmd_check)
    p.add_argument("--coloring", required=True, metavar="FILE")
    p.add_argument("--targets", required=True, help='e.g. "C6,C6,P3", one per color')

    p = cmd("partition", "compute a Gallai partition of a coloring", _cmd_partition)
    p.add_argument("--coloring", required=True, metavar="FILE")

    p = cmd("formula", "evaluate closed-form (Gallai-)Ramsey values", _cmd_formula)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gr", metavar="SPEC", help="predicted value for a spec string")
    group.add_argument(
        "--classical", metavar="H1,H2", help="two-color Ramsey number, e.g. P5,C8"
    )
    group.add_argument(
        "--known", metavar="H", help="named family value, e.g. C6, P5, M3, K3"
    )
    p.add_argument("-k", "--colors", type=int, default=None, help="color count for --known")

    p = cmd(
        "verify-lower",
        "build a spec's construction and certify it avoids all targets",
        _cmd_verify_lower,
    )
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", metavar="FILE", help="write the witness coloring here")

    p = cmd("verify-upper", "exhaustively verify that K_N forces some target", _cmd_verify_upper)
    p.add_argument("-N", type=int, required=True, dest="n", help="vertex count")
    p.add_argument("--targets", required=True, help='e.g. "P5,P5", one per color')
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node limit")
    p.add_argument("--threads", type=int, default=1, help="parallel subtree workers")
    p.add_argument("-o", "--output", metavar="FILE", help="write a bad coloring here if found")

    p = cmd(
        "compute-gr",
        "lower construction plus upper search at the predicted value",
        _cmd_compute_gr,
    )
    p.add_argument("--spec", required=True, help='e.g. "n=3 k=3 head=cycle i=2,2,2"')
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node limit")
    p.add_argument("--threads", type=int, default=1, help="parallel subtree workers")
    p.add_argument("-o", "--output", metavar="FILE", help="write the lower witness here")

    p = cmd("random", "generate a random Gallai coloring", _cmd_random)
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("-k", type=int, required=True, help="palette size")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("-o", "--output", metavar="FILE", help="write the coloring here")

    return parser


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _write_coloring_output(coloring, output: Optional[str]) -> None:
    text = write_coloring(coloring)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_coloring(args, coloring) -> None:
    """--json prints the coloring as JSON; its text goes to the -o file,
    or to stdout without --json."""
    if args.json:
        print(json.dumps({"n": coloring.n, "k": coloring.k, "colors": list(coloring.colors)}))
    if args.output or not args.json:
        _write_coloring_output(coloring, args.output)


def _cmd_construct(args) -> int:
    coloring = build_lower_bound_coloring(parse_spec_string(args.spec))
    _emit_coloring(args, coloring)
    if args.output and not args.json:
        print(f"wrote {coloring.n}-vertex coloring to {args.output}")
    return EXIT_OK


def _cmd_check(args) -> int:
    with open(args.coloring) as fh:
        coloring = read_coloring(fh.read())
    targets = parse_target_list(args.targets)
    hit = contains_required(coloring, targets)
    if hit is None:
        _emit(args, {"hit": None}, "none")
        return EXIT_NEGATIVE
    color, emb = hit
    _emit(
        args,
        {"hit": emb.to_json()},
        f"monochromatic {emb.target.name} in color {color}: "
        + " ".join(map(str, emb.vertices)),
    )
    return EXIT_OK


def _cmd_partition(args) -> int:
    with open(args.coloring) as fh:
        coloring = read_coloring(fh.read())
    part = gallai_partition(coloring)
    if part is None:
        _emit(args, {"partition": None}, "none")
        return EXIT_NEGATIVE
    lines = [f"part {i}: {' '.join(map(str, block))}" for i, block in enumerate(part.parts)]
    lines.append(f"between colors: {' '.join(map(str, part.between_colors))}")
    _emit(args, part.to_json(), "\n".join(lines))
    return EXIT_OK


def _cmd_formula(args) -> int:
    if args.gr:
        value = predicted_gr(parse_spec_string(args.gr))
        _emit(args, {"value": value}, str(value))
        return EXIT_OK
    if args.classical:
        pair = parse_target_list(args.classical)
        if len(pair) != 2:
            raise InvalidSpecError("--classical needs exactly two targets")
        value = classical_ramsey(pair[0], pair[1])
        _emit(args, {"value": value}, str(value))
        return EXIT_OK
    if args.colors is None:
        raise InvalidSpecError("--known requires -k/--colors")
    result = known_gr(args.known, args.colors)
    if isinstance(result, tuple):
        _emit(
            args,
            {"lower": result[0], "upper": result[1]},
            f"between {result[0]} and {result[1]}",
        )
    else:
        _emit(args, {"value": result}, str(result))
    return EXIT_OK


def _cmd_verify_lower(args) -> int:
    spec = parse_spec_string(args.spec)
    result = verify_lower(spec)
    if args.output:
        _write_coloring_output(result.witness, args.output)
    payload = {
        "ok": result.ok,
        "vertices": result.witness.n,
        "predicted": predicted_gr(spec),
        "witness_file": args.output,
    }
    if result.ok:
        _emit(args, payload, f"ok: {result.witness.n}-vertex witness avoids all targets")
        return EXIT_OK
    detail = []
    if result.rainbow is not None:
        detail.append(f"rainbow triangle at {result.rainbow.vertices}")
    if result.hit is not None:
        color, emb = result.hit
        detail.append(f"monochromatic {emb.target.name} in color {color}")
    _emit(args, payload, "failed: " + "; ".join(detail))
    return EXIT_NEGATIVE


def _cmd_verify_upper(args) -> int:
    targets = parse_target_list(args.targets)
    verdict, stats = decide_upper(args.n, targets, args.budget, threads=args.threads)
    witness_file = None
    if verdict.witness is not None and args.output:
        _write_coloring_output(verdict.witness, args.output)
        witness_file = args.output
    human = f"verdict: {verdict.kind} (nodes={stats.nodes}, {stats.elapsed:.2f}s)"
    if verdict.witness is not None and not args.output:
        human += "\n" + write_coloring(verdict.witness).removesuffix("\n")
    _emit(args, report_to_json(args.n, targets, verdict, stats, witness_file), human)
    if verdict.kind == ALL_FORCED:
        return EXIT_OK
    if verdict.kind == BAD_COLORING:
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def _cmd_compute_gr(args) -> int:
    spec = parse_spec_string(args.spec)
    result = compute_gr(spec, args.budget, threads=args.threads)
    if args.output:
        _write_coloring_output(result.lower.witness, args.output)
    payload = {
        "predicted": result.predicted,
        "status": result.status,
        "value": result.value,
        "lower_ok": result.lower.ok,
        "upper_verdict": result.upper_verdict.kind,
        "stats": result.upper_stats.to_json(),
    }
    if result.status == CONFIRMED:
        _emit(args, payload, f"GR = {result.value} (lower witness on "
              f"{result.lower.witness.n} vertices, upper search all_forced)")
        return EXIT_OK
    if result.status == INCONCLUSIVE:
        _emit(args, payload, f"inconclusive: budget exhausted at N={result.predicted}")
        return EXIT_BUDGET
    _emit(
        args,
        payload,
        f"discrepancy: formula predicts {result.predicted} but "
        f"lower_ok={result.lower.ok}, upper={result.upper_verdict.kind}",
    )
    return EXIT_NEGATIVE


def _cmd_random(args) -> int:
    _emit_coloring(args, random_gallai(args.n, args.k, args.seed))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        sys.stderr.write(args.usage())
        return EXIT_USAGE
    except Exception as e:
        # not 1, which would read as a definitive negative
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
