"""Command-line surface: generation, analysis, exact bounds, check suites.

Text output is line-oriented, json is a single document, csv (table only)
carries a header row. Numbers are shown to 6 decimal places, decided in
integer arithmetic: upper bounds (the colouring bound and the coarse bound)
are rounded up, so a printed bound is never below the exact one; best-known
thresholds, exponents and other values are rounded to nearest. Exact values
are in the json forms. A horizon or length above SEQLAB_MAX_HORIZON (default
10^7) is a usage error, and so is a value of it that is not a positive integer.
Progress for long scans goes to standard error, and only when that is a
terminal, so standard output stays machine-parsable and identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import os
import sys
from dataclasses import asdict

from .analysis import (
    Text,
    bispecial_factors,
    derived_sequence,
    is_balanced,
    max_fractional_power,
    occurrences,
    return_words,
)
from .exponents import (
    EXPECTED_MARKERS,
    colouring_exponent_bound,
    repetitive_threshold_bound,
    threshold_table,
)
from .golden import GoldenNumber
from .verify import SUITES
from .words import (
    SequenceGenerator,
    Word,
    colouring,
    constant_gap,
    fibonacci_sequence,
    letter_to_json,
)

DEFAULT_MAX_HORIZON = 10**7
DEFAULT_HORIZON = 10**4  # analyze's snapshot of a sequence
DELTAS = range(1, 10)

Output = tuple[object, str, int]  # json document, text, exit code


def _guard_limit(parser: argparse.ArgumentParser) -> int:
    """SEQLAB_MAX_HORIZON (default 10^7); a usage error unless a positive integer."""
    raw = os.environ.get("SEQLAB_MAX_HORIZON", str(DEFAULT_MAX_HORIZON))
    if not raw.isdecimal() or int(raw) < 1:
        parser.error(f"SEQLAB_MAX_HORIZON must be a positive integer, got {raw!r}")
    return int(raw)


def _check_guard(parser: argparse.ArgumentParser, option: str, value: int) -> None:
    limit = _guard_limit(parser)
    if value > limit:
        parser.error(f"{option} exceeds the guard ({limit}); "
                     "set SEQLAB_MAX_HORIZON to raise it")


def _check_minimums(
    parser: argparse.ArgumentParser, minimums: dict[str, tuple[int | None, int]]
) -> None:
    """Usage error when an option that was given is below its minimum."""
    for option, (value, minimum) in minimums.items():
        if value is not None and value < minimum:
            parser.error(f"{option} must be >= {minimum}")


def _quote(word: Word) -> str:
    return '"' + word.to_text() + '"'


def _word_json(word: Word) -> dict[str, object]:
    return {"text": word.to_text(), "letters": word}


def _letters_list(word: Word, indent: str) -> str:
    """A Word as the indented JSON list of its letters, whose closing bracket
    sits at `indent`; each distinct letter is rendered once.
    """
    if not word:
        return "[]"
    inner = indent + "  "
    rendered = {t: json.dumps(letter_to_json(t), indent=2).replace("\n", "\n" + inner)
                for t in dict.fromkeys(word.letters())}
    return f"[\n{inner}" + f",\n{inner}".join(map(rendered.__getitem__, word)) + f"\n{indent}]"


def _dumps(doc: object) -> str:
    """json.dumps(doc, indent=2), with each Word written as the list of its letters.

    Words reach the encoder through `default` as one marker string each, and
    each marker is then replaced by the Word's list, indented to the marker's
    line. The marker carries a tag that moves on until the markers found in
    the output are exactly the Words marked, so a document string that
    equals a marker is written as it is.
    """
    for tag in itertools.count():
        marker = f"\0{tag}"
        words: list[Word] = []

        def mark(word: object) -> str:
            if not isinstance(word, Word):
                raise TypeError(f"Object of type {type(word).__name__} is not JSON serializable")
            words.append(word)
            return marker

        pieces = json.dumps(doc, indent=2, default=mark).split(json.dumps(marker))
        if len(pieces) == len(words) + 1:
            break
    out = [pieces[0]]
    for word, before, after in zip(words, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        out += [_letters_list(word, line[:len(line) - len(line.lstrip(" "))]), after]
    return "".join(out)


def _parse_span(text: str) -> tuple[int, int]:
    """Parse "A..B" into (A, B) and a bare scalar "B" into (1, B)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo, hi = 1, int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _progress_callback():
    if sys.stderr.isatty():

        def report(done: int, total: int) -> None:
            sys.stderr.write(f"\rscanning period {done}/{total}")
            sys.stderr.flush()
            if done == total:
                sys.stderr.write("\n")

        return report
    return None


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    if args.length < 0:
        parser.error("--length must be >= 0")
    _check_guard(parser, "--length", args.length)
    if args.hatted and args.sequence != "constant-gap":
        parser.error("--hatted only applies to --sequence constant-gap")
    if args.sequence == "fibonacci":
        if args.delta is not None:
            parser.error("--delta only applies to constant-gap and colouring")
        gen: SequenceGenerator = fibonacci_sequence()
    elif args.delta is None:
        parser.error(f"--delta is required for --sequence {args.sequence}")
    elif args.sequence == "constant-gap":
        gen = constant_gap(args.delta, hatted=args.hatted)
    else:
        gen = colouring(args.delta)
    word = gen.prefix(args.length)
    text = word.to_text()

    doc: dict[str, object] = {"sequence": args.sequence, "length": args.length}
    if args.delta is not None:
        doc["delta"] = args.delta
    if args.sequence == "constant-gap":
        doc["hatted"] = args.hatted
    doc.update(text=text, letters=word)
    return doc, text + "\n" if text else "", 0


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    kind = args.analysis
    needs_factor = kind in ("occurrences", "returns", "derived")
    if needs_factor and args.word is None:
        parser.error(f"analyze {kind} requires --word")
    for option, reader in {"--max-window": "balanced", "--min-period": "power",
                           "--max-period": "power", "--max-len": "bispecial"}.items():
        if getattr(args, option[2:].replace("-", "_")) is not None and kind != reader:
            parser.error(f"{option} only applies to analyze {reader}")
    # --max-len 0 is valid: the empty word is the only factor that short
    _check_minimums(parser, {"--horizon": (args.horizon, 1),
                             "--max-window": (args.max_window, 1),
                             "--min-period": (args.min_period, 1),
                             "--max-period": (args.max_period, 1),
                             "--max-len": (args.max_len, 0)})
    word = None
    if args.word is not None:
        try:
            word = Word.from_text(args.word)
        except ValueError as exc:
            parser.error(f"--word: {exc}")
        if not word:
            parser.error("--word must be nonempty")

    # a bare word is its own subject for balanced/power/bispecial
    standalone = word is not None and not needs_factor
    if standalone and (args.sequence is not None or args.delta is not None):
        parser.error(f"analyze {kind} --word is a standalone word; "
                     "it takes no --sequence or --delta")
    if standalone and args.horizon is not None:
        parser.error("--horizon does not apply to a standalone --word")
    if args.sequence == "fibonacci" and args.delta is not None:
        parser.error("--delta only applies to colouring")
    if args.sequence == "colouring" and args.delta is None:
        parser.error("--sequence colouring requires --delta")
    if standalone:
        text = Text(word)
    else:
        horizon = DEFAULT_HORIZON if args.horizon is None else args.horizon
        _check_guard(parser, "--horizon", horizon)
        text = Text(fibonacci_sequence() if args.delta is None else colouring(args.delta), horizon)

    if kind == "occurrences":
        occ = occurrences(word, text)
        shown = " ".join(str(p) for p in occ.positions[:20])
        if len(occ.positions) > 20:
            shown += " ..."
        doc = {
            "analysis": "occurrences",
            "factor": _word_json(occ.factor),
            "horizon": occ.horizon,
            "count": len(occ.positions),
            "positions": occ.positions,
        }
        return doc, (f"factor: {_quote(occ.factor)}\n"
                     f"horizon: {occ.horizon}\n"
                     f"count: {len(occ.positions)}\n"
                     f"positions: {shown}\n"), 0

    if kind == "returns":
        rws = return_words(word, text)
        doc = {
            "analysis": "returns",
            "factor": _word_json(rws.factor),
            "returns": [_word_json(w) for w in rws.returns],
            "complete": rws.complete,
        }
        listing = " ".join(_quote(w) for w in rws.returns)
        return doc, (f"factor: {_quote(rws.factor)}\n"
                     f"returns: {listing}\n"
                     f"complete: {str(rws.complete).lower()}\n"), 0

    if kind == "bispecial":
        max_len = 30 if args.max_len is None else args.max_len
        factors = bispecial_factors(text, max_len=max_len)
        doc = {
            "analysis": "bispecial",
            "horizon": len(text),
            "max_len": max_len,
            "count": len(factors),
            "factors": [{"length": len(w), "text": w.to_text()} for w in factors],
        }
        lines = [f"bispecial factors (horizon {len(text)}, max length "
                 f"{max_len}): {len(factors)}"]
        lines += [f"len {len(w)}: {_quote(w)}" for w in factors]
        return doc, "\n".join(lines) + "\n", 0

    if kind == "balanced":
        max_window = 200 if args.max_window is None else args.max_window
        report = is_balanced(text, max_window=max_window)
        w = report.witness
        doc = {
            "analysis": "balanced",
            "horizon": report.horizon,
            "max_window": report.max_window,
            "balanced": report.balanced,
            "witness": None if w is None else dict(asdict(w), letter=letter_to_json(w.letter)),
        }
        lines = [
            f"balanced: {str(report.balanced).lower()}",
            f"horizon: {report.horizon}",
            f"max window: {report.max_window}",
        ]
        if w is not None:
            lines += [
                f"witness: windows of length {w.window} differ by "
                f"{w.high_count - w.low_count} in letter \"{w.letter}\"",
                f"  position {w.high_position}: count {w.high_count}",
                f"  position {w.low_position}: count {w.low_count}",
            ]
        return doc, "\n".join(lines) + "\n", 0 if report.balanced else 1

    if kind == "derived":
        der = derived_sequence(word, text)
        alphabet_size = len(set(der.letters()))
        doc = {
            "analysis": "derived",
            "factor": _word_json(word),
            "horizon": len(text),
            "alphabet_size": alphabet_size,
            "length": len(der),
            "text": der.to_text(),
        }
        shown = der if len(der) <= 120 else der[:120]
        suffix = "" if len(der) <= 120 else " ..."
        return doc, (f"factor: \"{args.word}\"\n"
                     f"alphabet: {alphabet_size} return words\n"
                     f"length: {len(der)}\n"
                     f"derived: {shown.to_text()}{suffix}\n"), 0

    # power: by default every period of a standalone word, half the horizon
    # of a sequence
    min_period = 1 if args.min_period is None else args.min_period
    max_period = args.max_period
    if max_period is None:
        max_period = len(text) - 1 if standalone else max(len(text) // 2, 1)
    if max_period < min_period < len(text):
        # a window past the end of the snapshot fails below, as an analysis
        parser.error(f"--min-period {min_period} is above --max-period {max_period}")
    record = max_fractional_power(text, None, min_period, max_period,
                                  progress=_progress_callback())
    exponent = record.exponent
    exponent_decimal = GoldenNumber(exponent).decimal()
    doc = {
        "analysis": "power",
        "horizon": len(text),
        "root": _word_json(record.root),
        "period": record.period,
        "exponent": {"numerator": exponent.numerator, "denominator": exponent.denominator},
        "exponent_decimal": exponent_decimal,
        "position": record.position,
    }
    root = record.root if record.period <= 30 else record.root[:30]
    suffix = "" if record.period <= 30 else " ..."
    return doc, (f"root: {_quote(root)}{suffix}\n"
                 f"period: {record.period}\n"
                 f"exponent: {exponent} = {exponent_decimal}\n"
                 f"position: {record.position}\n"), 0


# ---------------------------------------------------------------------------
# bound


def _cmd_bound(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    delta = args.delta
    if delta is None:
        if args.d % 2 != 0 or not 2 <= args.d <= 18:
            parser.error("--d must be an even integer in 2..18")
        delta = args.d // 2
    result = colouring_exponent_bound(delta)
    doc = result.to_json_dict()
    lines = [
        f"delta: {result.delta}",
        f"alphabet: {result.d} letters",
        f"gap period: {result.period_length}",
        f"level: {result.level}",
        f"bound: {result.bound}",
        f"decimal: {result.bound_decimal()}",
    ]

    ok = True
    if args.check_coarse_bound:
        coarse = repetitive_threshold_bound(result.d)
        ok = (coarse - result.bound).sign() >= 0
        doc["coarse_bound_exact"] = coarse.to_json_dict()
        doc["coarse_bound_decimal"] = coarse.decimal(6, upward=True)
        doc["within_coarse_bound"] = ok
        lines += [
            f"coarse bound: {coarse} = {coarse.decimal(6, upward=True)}",
            f"within coarse bound: {str(ok).lower()}",
        ]
    return doc, "\n".join(lines) + "\n", 0 if ok else 1


# ---------------------------------------------------------------------------
# table


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    if args.d_max % 2 != 0 or not 2 <= args.d_max <= 10:
        parser.error("--d-max must be an even integer in 2..10")
    rows = threshold_table(args.d_max)
    ok = all(row.marker == EXPECTED_MARKERS[row.d] for row in rows)

    if args.format == "csv":
        lines = ["d,H,level,bound_decimal,rtb_star_decimal,marker"]
        lines += [
            f"{r.d},{r.period_length},{r.level},{r.bound_decimal},"
            f"{r.rtb_star_decimal},{r.marker}"
            for r in rows
        ]
    else:
        lines = [f"{'d':>3} {'H':>3} {'level':>6} {'bound':>9} "
                 f"{'best known':>11} {'vs':>3}"]
        lines += [
            f"{r.d:>3} {r.period_length:>3} {r.level:>6} {r.bound_decimal:>9} "
            f"{r.rtb_star_decimal:>11} {r.marker:>3}"
            for r in rows
        ]
    return [row.to_json_dict() for row in rows], "\n".join(lines) + "\n", 0 if ok else 1


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Output:
    """Run a suite with the options given; one it has no keyword for is a usage error."""
    suite = SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    _check_minimums(parser, {"--max": (args.max_coefficient, 1), "--horizon": (args.horizon, 1),
                             "--samples": (args.samples, 1), "--max-len": (args.max_len, 1),
                             "--letters": (args.letters, 1)})
    kwargs = {}
    for dest, option in args.suite_options:
        value = getattr(args, dest)
        if value is not None:
            if dest not in takes:
                parser.error(f"--suite {args.suite} does not take {option}")
            kwargs[dest] = value
    if "max_horizon" in takes:
        kwargs["max_horizon"] = _guard_limit(parser)
    try:
        if "levels" in kwargs:
            kwargs["levels"] = _parse_span(kwargs["levels"])
        checks = suite(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))

    failures = sum(1 for _, passed, _ in checks if not passed)
    doc = {
        "suite": args.suite,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
        "failures": failures,
        "passed": failures == 0,
    }
    lines = [f"suite: {args.suite}"]
    for name, passed, detail in checks:
        mark = "ok" if passed else "FAIL"
        lines.append(f"{mark}: {name}" + (f" -- {detail}" if detail else ""))
    if failures:
        lines.append(f"result: fail ({failures} of {len(checks)} checks failed)")
    else:
        lines.append(f"result: pass ({len(checks)} checks)")
    return doc, "\n".join(lines) + "\n", 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing and the
    handlers only read it, and SEQLAB_MAX_HORIZON is read per call.
    """
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="Balanced sequences from Fibonacci-word colourings: "
                    "generation, repetition analysis, exact golden-mean bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", metavar="PATH",
                        help="write to a file instead of standard output")

    p_gen = sub.add_parser("generate", parents=[common],
                           help="emit a prefix of one of the sequences")
    p_gen.add_argument("--sequence", required=True,
                       choices=("fibonacci", "constant-gap", "colouring"))
    p_gen.add_argument("--delta", type=int, choices=DELTAS, metavar="DELTA")
    p_gen.add_argument("--hatted", action="store_true",
                       help="hatted copy (constant-gap only)")
    p_gen.add_argument("--length", type=int, required=True)

    p_an = sub.add_parser("analyze", parents=[common],
                          help="inspect factors, repetitions, and balance")
    p_an.add_argument("analysis", choices=("occurrences", "returns", "bispecial",
                                           "balanced", "derived", "power"))
    p_an.add_argument("--word", help="factor to look up, or a standalone word "
                                     "to analyze when no sequence is selected")
    p_an.add_argument("--sequence", choices=("fibonacci", "colouring"))
    p_an.add_argument("--delta", type=int, choices=DELTAS, metavar="DELTA")
    p_an.add_argument("--horizon", type=int)
    p_an.add_argument("--max-window", type=int)
    p_an.add_argument("--min-period", type=int)
    p_an.add_argument("--max-period", type=int)
    p_an.add_argument("--max-len", type=int)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="exact repetition bound for a colouring")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=int, choices=DELTAS, metavar="DELTA",
                       help="number of gap letters (1..9)")
    group.add_argument("--d", type=int, help="alphabet size (even, 2..18)")
    p_bound.add_argument("--check-coarse-bound", action="store_true",
                         help="also verify against the coarse closed-form bound")

    p_table = sub.add_parser("table", parents=[common],
                             help="bounds next to the best known thresholds")
    p_table.add_argument("--d-max", type=int, default=10)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a named check suite")
    p_ver.add_argument("--suite", required=True, choices=list(SUITES))
    # each dest is the suite keyword the option sets; the defaults are the suites' own
    suite_options = [
        p_ver.add_argument("--n", dest="levels", metavar="N",
                           help="index range A..B (or a bare upper index)"),
        p_ver.add_argument("--max", type=int, dest="max_coefficient", metavar="MAX",
                           help="coefficient ceiling (parikh-membership)"),
        p_ver.add_argument("--delta", type=int, choices=DELTAS, action="append",
                           dest="deltas", metavar="DELTA"),
        p_ver.add_argument("--horizon", type=int),
        p_ver.add_argument("--samples", type=int),
        p_ver.add_argument("--seed", type=int),
        p_ver.add_argument("--max-len", type=int),
        p_ver.add_argument("--letters", type=int),
    ]
    p_ver.set_defaults(suite_options=tuple((a.dest, a.option_strings[0]) for a in suite_options))

    # a handler's usage errors print its subcommand's usage, as argparse's own do
    for command in sub.choices.values():
        command.set_defaults(command_parser=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command_parser
    if args.format == "csv" and args.command != "table":
        command.error("--format csv is only available for the table command")

    try:
        run = {"generate": _cmd_generate, "analyze": _cmd_analyze, "bound": _cmd_bound,
               "table": _cmd_table, "verify": _cmd_verify}[args.command]
        doc, text, code = run(args, command)
    except ValueError as exc:
        # the input was well formed but the analysis cannot be carried out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        text = _dumps(doc) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        command.error(f"--output: cannot write {args.output!r}: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
