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
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .analysis import (
    Text,
    bispecial_factors,
    derived_sequence,
    fibonacci_bispecial,
    fibonacci_bispecial_lengths,
    is_balanced,
    max_fractional_power,
    occurrences,
    parikh_is_fib_factor,
    return_words,
    sufficiently_coloured,
)
from .exponents import (
    EXPECTED_MARKERS,
    coefficient_lower_bounds,
    colouring_exponent_bound,
    repetitive_threshold_bound,
    shortest_return_lower_bound,
    threshold_table,
)
from .golden import GoldenNumber, fib, verify_fib_properties
from .words import (
    SequenceGenerator,
    Word,
    colouring,
    constant_gap,
    discolour_letter,
    fibonacci_sequence,
    letter_to_json,
)

DEFAULT_MAX_HORIZON = 10**7
# coefficient_lower_bounds(n) enumerates (F_{n+3} + 1)^2 pairs, about 2.6 times
# more per level; level 16 takes seconds, level 20 would take minutes
MAX_COEFFICIENT_LEVEL = 16


def _check_guard(parser: argparse.ArgumentParser, option: str, value: int) -> None:
    """Usage error when `value` exceeds SEQLAB_MAX_HORIZON (default 10^7) or
    when that variable is set to anything but a positive integer.
    """
    raw = os.environ.get("SEQLAB_MAX_HORIZON")
    limit = DEFAULT_MAX_HORIZON
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError:
            limit = 0
        if limit < 1:
            parser.error(f"SEQLAB_MAX_HORIZON must be a positive integer, got {raw!r}")
    if value > limit:
        parser.error(f"{option} exceeds the guard ({limit}); "
                     "set SEQLAB_MAX_HORIZON to raise it")


def _check_minimums(
    parser: argparse.ArgumentParser, args: argparse.Namespace, minimums: dict[str, int]
) -> None:
    """Usage error when an option that was given is below its minimum."""
    for option, minimum in minimums.items():
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None and value < minimum:
            parser.error(f"{option} must be >= {minimum}")


def _quote(word: Word) -> str:
    return '"' + word.to_text() + '"'


def _word_json(word: Word) -> dict[str, object]:
    return {
        "text": word.to_text(),
        "letters": [letter_to_json(t) for t in word],
    }


def _parse_span(text: str, fallback_lo: int = 1) -> tuple[int, int]:
    """Parse "A..B" into (A, B) and a bare scalar "B" into (fallback_lo, B)."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo, hi = fallback_lo, int(text)
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


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: object, output: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", output)


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.length < 0:
        parser.error("--length must be >= 0")
    _check_guard(parser, "--length", args.length)
    if args.sequence in ("constant-gap", "colouring"):
        if args.delta is None:
            parser.error(f"--delta is required for --sequence {args.sequence}")
        if not 1 <= args.delta <= 9:
            parser.error("--delta must be in 1..9")
    elif args.delta is not None:
        parser.error("--delta only applies to constant-gap and colouring")
    if args.hatted and args.sequence != "constant-gap":
        parser.error("--hatted only applies to --sequence constant-gap")

    if args.sequence == "fibonacci":
        gen: SequenceGenerator = fibonacci_sequence()
    elif args.sequence == "constant-gap":
        gen = constant_gap(args.delta, hatted=args.hatted)
    else:
        gen = colouring(args.delta)
    word = gen.prefix(args.length)

    if args.format == "json":
        doc: dict[str, object] = {"sequence": args.sequence, "length": args.length}
        if args.delta is not None:
            doc["delta"] = args.delta
        if args.sequence == "constant-gap":
            doc["hatted"] = args.hatted
        doc.update(_word_json(word))
        _emit_json(doc, args.output)
    else:
        text = word.to_text()
        _emit(text + "\n" if text else "", args.output)
    return 0


# ---------------------------------------------------------------------------
# analyze


def _resolve_subject(
    args: argparse.Namespace, parser: argparse.ArgumentParser, needs_factor: bool
) -> tuple[SequenceGenerator | Word, int]:
    """Pick the sequence (or standalone word) to analyze, and the horizon."""
    horizon = args.horizon
    _check_guard(parser, "--horizon", horizon)
    if args.delta is not None and not 1 <= args.delta <= 9:
        parser.error("--delta must be in 1..9")

    if args.sequence == "fibonacci":
        return fibonacci_sequence(), horizon
    if args.sequence == "colouring":
        if args.delta is None:
            parser.error("--sequence colouring requires --delta")
        return colouring(args.delta), horizon
    if args.delta is not None:
        return colouring(args.delta), horizon
    if not needs_factor and args.word is not None:
        # a bare word is its own subject for balanced/power/bispecial
        word = Word.from_text(args.word)
        return word, len(word)
    return fibonacci_sequence(), horizon


def _cmd_analyze(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kind = args.analysis
    needs_factor = kind in ("occurrences", "returns", "derived")
    if needs_factor and args.word is None:
        parser.error(f"analyze {kind} requires --word")
    if kind == "balanced" and args.max_window < 1:
        parser.error("--max-window must be >= 1")
    # --max-len 0 is valid: the empty word is the only factor that short
    _check_minimums(parser, args, {"--horizon": 1, "--min-period": 1,
                                   "--max-period": 1, "--max-len": 0})
    subject, horizon = _resolve_subject(args, parser, needs_factor)
    standalone = isinstance(subject, Word)

    try:
        if kind == "occurrences":
            occ = occurrences(Word.from_text(args.word), subject, horizon)
            if args.format == "json":
                _emit_json(
                    {
                        "analysis": "occurrences",
                        "factor": _word_json(occ.factor),
                        "horizon": occ.horizon,
                        "count": len(occ.positions),
                        "positions": list(occ.positions),
                    },
                    args.output,
                )
            else:
                shown = " ".join(str(p) for p in occ.positions[:20])
                if len(occ.positions) > 20:
                    shown += " ..."
                _emit(
                    f"factor: {_quote(occ.factor)}\n"
                    f"horizon: {occ.horizon}\n"
                    f"count: {len(occ.positions)}\n"
                    f"positions: {shown}\n",
                    args.output,
                )
            return 0

        if kind == "returns":
            rws = return_words(Word.from_text(args.word), subject, horizon)
            if args.format == "json":
                _emit_json(
                    {
                        "analysis": "returns",
                        "factor": _word_json(rws.factor),
                        "returns": [_word_json(w) for w in rws.returns],
                        "complete": rws.complete,
                    },
                    args.output,
                )
            else:
                listing = " ".join(_quote(w) for w in rws.returns)
                _emit(
                    f"factor: {_quote(rws.factor)}\n"
                    f"returns: {listing}\n"
                    f"complete: {str(rws.complete).lower()}\n",
                    args.output,
                )
            return 0

        if kind == "bispecial":
            factors = bispecial_factors(subject, horizon, args.max_len)
            if args.format == "json":
                _emit_json(
                    {
                        "analysis": "bispecial",
                        "horizon": horizon,
                        "max_len": args.max_len,
                        "count": len(factors),
                        "factors": [
                            {"length": len(w), "text": w.to_text()} for w in factors
                        ],
                    },
                    args.output,
                )
            else:
                lines = [f"bispecial factors (horizon {horizon}, max length "
                         f"{args.max_len}): {len(factors)}"]
                lines += [f"len {len(w)}: {_quote(w)}" for w in factors]
                _emit("\n".join(lines) + "\n", args.output)
            return 0

        if kind == "balanced":
            report = is_balanced(subject, None if standalone else horizon,
                                 max_window=args.max_window)
            if args.format == "json":
                witness = None
                if report.witness is not None:
                    w = report.witness
                    witness = {
                        "window": w.window,
                        "letter": letter_to_json(w.letter),
                        "low_position": w.low_position,
                        "low_count": w.low_count,
                        "high_position": w.high_position,
                        "high_count": w.high_count,
                    }
                _emit_json(
                    {
                        "analysis": "balanced",
                        "horizon": report.horizon,
                        "max_window": report.max_window,
                        "balanced": report.balanced,
                        "witness": witness,
                    },
                    args.output,
                )
            else:
                lines = [
                    f"balanced: {str(report.balanced).lower()}",
                    f"horizon: {report.horizon}",
                    f"max window: {report.max_window}",
                ]
                if report.witness is not None:
                    w = report.witness
                    lines += [
                        f"witness: windows of length {w.window} differ by "
                        f"{w.high_count - w.low_count} in letter \"{w.letter}\"",
                        f"  position {w.high_position}: count {w.high_count}",
                        f"  position {w.low_position}: count {w.low_count}",
                    ]
                _emit("\n".join(lines) + "\n", args.output)
            return 0 if report.balanced else 1

        if kind == "derived":
            der = derived_sequence(Word.from_text(args.word), subject, horizon)
            if args.format == "json":
                _emit_json(
                    {
                        "analysis": "derived",
                        "factor": _word_json(Word.from_text(args.word)),
                        "horizon": horizon,
                        "alphabet_size": len(set(der.letters())),
                        "length": len(der),
                        "text": der.to_text(),
                    },
                    args.output,
                )
            else:
                shown = der if len(der) <= 120 else der[:120]
                suffix = "" if len(der) <= 120 else " ..."
                _emit(
                    f"factor: \"{args.word}\"\n"
                    f"alphabet: {len(set(der.letters()))} return words\n"
                    f"length: {len(der)}\n"
                    f"derived: {shown.to_text()}{suffix}\n",
                    args.output,
                )
            return 0

        # power
        if standalone:
            max_period = len(subject) - 1 if args.max_period is None else args.max_period
            record = max_fractional_power(
                subject, None, args.min_period, max_period
            )
        else:
            record = max_fractional_power(
                subject, horizon, args.min_period, args.max_period,
                progress=_progress_callback(),
            )
        if args.format == "json":
            _emit_json(
                {
                    "analysis": "power",
                    "horizon": len(subject) if standalone else horizon,
                    "root": _word_json(record.root),
                    "period": record.period,
                    "exponent": {
                        "numerator": record.exponent.numerator,
                        "denominator": record.exponent.denominator,
                    },
                    "exponent_decimal": GoldenNumber(record.exponent).decimal(),
                    "position": record.position,
                },
                args.output,
            )
        else:
            root = record.root if record.period <= 30 else record.root[:30]
            suffix = "" if record.period <= 30 else " ..."
            _emit(
                f"root: {_quote(root)}{suffix}\n"
                f"period: {record.period}\n"
                f"exponent: {record.exponent} = {GoldenNumber(record.exponent).decimal()}\n"
                f"position: {record.position}\n",
                args.output,
            )
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# bound


def _cmd_bound(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.delta is not None:
        if not 1 <= args.delta <= 9:
            parser.error("--delta must be in 1..9")
        delta = args.delta
    else:
        if args.d % 2 != 0 or not 2 <= args.d <= 18:
            parser.error("--d must be an even integer in 2..18")
        delta = args.d // 2
    result = colouring_exponent_bound(delta)

    ok = True
    coarse: GoldenNumber | None = None
    if args.check_coarse_bound:
        coarse = repetitive_threshold_bound(result.d)
        ok = (coarse - result.bound).sign() >= 0

    if args.format == "json":
        doc = result.to_json_dict()
        if coarse is not None:
            doc["coarse_bound_exact"] = coarse.to_json_dict()
            doc["coarse_bound_decimal"] = coarse.decimal(6, upward=True)
            doc["within_coarse_bound"] = ok
        _emit_json(doc, args.output)
    else:
        lines = [
            f"delta: {result.delta}",
            f"alphabet: {result.d} letters",
            f"gap period: {result.period_length}",
            f"level: {result.level}",
            f"bound: {result.bound}",
            f"decimal: {result.bound_decimal()}",
        ]
        if coarse is not None:
            lines += [
                f"coarse bound: {coarse} = {coarse.decimal(6, upward=True)}",
                f"within coarse bound: {str(ok).lower()}",
            ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# table


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.d_max % 2 != 0 or not 2 <= args.d_max <= 10:
        parser.error("--d-max must be an even integer in 2..10")
    rows = threshold_table(args.d_max)
    ok = all(row.marker == EXPECTED_MARKERS[row.d] for row in rows)

    if args.format == "json":
        _emit_json([row.to_json_dict() for row in rows], args.output)
    elif args.format == "csv":
        lines = ["d,H,level,bound_decimal,rtb_star_decimal,marker"]
        lines += [
            f"{r.d},{r.period_length},{r.level},{r.bound_decimal},"
            f"{r.rtb_star_decimal},{r.marker}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = [f"{'d':>3} {'H':>3} {'level':>6} {'bound':>9} "
                 f"{'best known':>11} {'vs':>3}"]
        lines += [
            f"{r.d:>3} {r.period_length:>3} {r.level:>6} {r.bound_decimal:>9} "
            f"{r.rtb_star_decimal:>11} {r.marker:>3}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify suites: each returns (name, passed, detail) triples


def _suite_fib_properties(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    _, n_max = _parse_span(args.n or "200", fallback_lo=2)
    report = verify_fib_properties(n_max)
    return [
        (name, passed, "" if passed else report.failures.get(name, ""))
        for name, passed in sorted(report.results.items())
    ]


def _interval_sign(p: Fraction, q: Fraction) -> int:
    """Sign of p + q*sqrt(5) by integer interval arithmetic around sqrt(5)."""
    if q == 0:
        return (p > 0) - (p < 0)
    big_p = p.numerator * q.denominator
    big_q = q.numerator * p.denominator
    bits = 200
    while True:
        scale = 1 << bits
        root = math.isqrt(5 * scale * scale)  # floor(2^bits * sqrt5)
        if big_q > 0:
            lo = big_p * scale + big_q * root
            hi = big_p * scale + big_q * (root + 1)
        else:
            lo = big_p * scale + big_q * (root + 1)
            hi = big_p * scale + big_q * root
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def _suite_golden_sign(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    rng = random.Random(args.seed)
    checks: list[tuple[str, bool, str]] = []

    def agree(a: Fraction, b: Fraction) -> bool:
        # a + b*tau = (a + b/2) + (b/2)*sqrt5
        return GoldenNumber(a, b).sign() == _interval_sign(a + b / 2, b / 2)

    near = [(Fraction(s * fib(n + 1)), Fraction(-s * fib(n)))
            for n in range(1, 41) for s in (1, -1)]
    bad = [(a, b) for a, b in near if not agree(a, b)]
    checks.append((
        "near-zero golden combinations (80 cases)",
        not bad,
        "" if not bad else f"first mismatch at {bad[0]}",
    ))

    checks.append(("zero", GoldenNumber(0, 0).sign() == 0
                   and _interval_sign(Fraction(0), Fraction(0)) == 0, ""))

    mismatches = 0
    first = ""
    for _ in range(args.samples):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        if not agree(a, b):
            mismatches += 1
            if not first:
                first = f"a={a} b={b}"
    checks.append((
        f"random samples ({args.samples} cases, seed {args.seed})",
        mismatches == 0,
        "" if mismatches == 0 else f"{mismatches} mismatches, first {first}",
    ))
    return checks


def _suite_parikh_membership(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    bound = 60 if args.max is None else args.max
    horizon = 10**4 if args.horizon is None else args.horizon
    text = Text(fibonacci_sequence(), horizon)
    is_a = text.codes == text.alphabet.index("a")
    sums = np.concatenate([[0], np.cumsum(is_a, dtype=np.int64)])
    observed: dict[int, set[int]] = {}
    for length in range(1, 2 * bound + 1):
        window_counts = sums[length:] - sums[:-length]
        observed[length] = set(int(v) for v in np.unique(window_counts))
    mismatches = []
    total = 0
    for k in range(bound + 1):
        for ell in range(bound + 1):
            if k + ell == 0:
                continue
            total += 1
            predicted = parikh_is_fib_factor(k, ell)
            enumerated = k in observed[k + ell]
            if predicted != enumerated:
                mismatches.append((k, ell))
    return [(
        f"exact membership predicate vs enumeration over prefix({horizon})",
        not mismatches,
        f"{total} pairs checked"
        + ("" if not mismatches else f", first mismatch {mismatches[0]}"),
    )]


def _suite_coefficient_bounds(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    lo, hi = _parse_span(args.n or "1..10")
    if hi > MAX_COEFFICIENT_LEVEL:
        raise ValueError(f"--n level {hi} exceeds {MAX_COEFFICIENT_LEVEL}; the pair "
                         "enumeration grows about 2.6 times per level")
    checks = []
    for n in range(lo, hi + 1):
        cert = coefficient_lower_bounds(n)
        checks.append((
            f"n={n}",
            cert.passed,
            f"kappa>={cert.kappa_min} lambda>={cert.lambda_min} over "
            f"{cert.qualifying_pairs} qualifying pairs (limit {cert.search_limit})"
            + ("" if not cert.violations else f"; violations {cert.violations[:3]}"),
        ))
    return checks


def _suite_return_words(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    lo, hi = _parse_span(args.n or "1..15")
    horizon = 10**5 if args.horizon is None else args.horizon
    max_len = 50 if args.max_len is None else args.max_len
    snap = Text(fibonacci_sequence(), horizon)
    checks = []
    for n in range(lo, hi + 1):
        fb = fibonacci_bispecial(n)
        try:
            rws = return_words(fb.word, snap)
        except ValueError as exc:
            checks.append((f"closed form at level {n}", False, str(exc)))
            continue
        expected = (fb.prefix_return, fb.other_return)
        ok = rws.returns == expected
        ok = ok and all(g.parikh() == w.parikh()
                        for g, w in zip(rws.returns, expected))
        checks.append((
            f"closed form at level {n}",
            ok,
            f"|factor|={len(fb.word)} returns "
            f"{len(expected[0])},{len(expected[1])}"
            if ok else f"scan gave {[w.to_text()[:30] for w in rws.returns]}",
        ))

    string = snap.string
    bad: list[str] = []
    total = 0
    for length in range(1, max_len + 1):
        coded = {string[i:i + length] for i in range(len(string) - length + 1)}
        for fac in sorted((snap.decode(c) for c in coded), key=Word.to_text):
            total += 1
            if len(return_words(fac, snap).returns) != 2:
                bad.append(fac.to_text())
    checks.append((
        f"every factor of length <= {max_len} has exactly two return words",
        not bad,
        f"{total} factors checked"
        + ("" if not bad else f", first failure \"{bad[0]}\""),
    ))
    return checks


def _suite_divisibility(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    deltas = [args.delta] if args.delta is not None else [2, 3, 4]
    horizon = 2 * 10**5 if args.horizon is None else args.horizon
    max_len = 250 if args.max_len is None else args.max_len
    lengths = fibonacci_bispecial_lengths(max_len)
    checks = []
    for delta in deltas:
        period = 2 ** (delta - 1)
        snap = Text(colouring(delta), horizon)
        coloured = [w for w in bispecial_factors(snap, None, max_len)
                    if sufficiently_coloured(w, period)]
        bad_len = [len(w) for w in coloured if len(w) not in lengths]
        checks.append((
            f"delta={delta}: bispecial lengths in the closed-form family",
            not bad_len,
            f"{len(coloured)} factors"
            + ("" if not bad_len else f", stray lengths {sorted(set(bad_len))[:5]}"),
        ))
        divisible = True
        shortest_ok = True
        n_returns = 0
        detail = ""
        for w in coloured:
            rws = return_words(w, snap)
            n_returns += len(rws.returns)
            for v in rws.returns:
                plain = sum(1 for t in v if discolour_letter(t) == "a")
                if plain % period or (len(v) - plain) % period:
                    divisible = False
                    detail = f"counts ({plain},{len(v) - plain}) at \"{v.to_text()[:30]}\""
            floor = shortest_return_lower_bound(lengths[len(w)], delta)
            if min(len(v) for v in rws.returns) < floor:
                shortest_ok = False
        checks.append((
            f"delta={delta}: discoloured return counts divisible by {period}",
            divisible,
            f"{n_returns} return words" + ("" if divisible else f"; {detail}"),
        ))
        checks.append((
            f"delta={delta}: shortest returns meet the exact lower bound",
            shortest_ok,
            "",
        ))
    return checks


def _suite_self_similarity(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    lo, hi = _parse_span(args.n or "1..10")
    letters = args.letters
    want = ["1" if t == "a" else "2"
            for t in fibonacci_sequence().letters(letters)]
    checks = []
    for n in range(lo, hi + 1):
        fb = fibonacci_bispecial(n)
        horizon = letters * fib(n + 2) + len(fb.word) + fib(n + 3)
        der = derived_sequence(fb.word, fibonacci_sequence(), horizon)
        got = list(der.letters()[:letters])
        ok = len(got) == letters and got == want
        checks.append((
            f"derived sequence at level {n} reproduces the base word",
            ok,
            f"{letters} letters via horizon {horizon}",
        ))
    return checks


# in the order --help lists them
SUITES = {
    "fib-properties": _suite_fib_properties,
    "golden-sign": _suite_golden_sign,
    "parikh-membership": _suite_parikh_membership,
    "coefficient-bounds": _suite_coefficient_bounds,
    "return-words": _suite_return_words,
    "divisibility": _suite_divisibility,
    "self-similarity": _suite_self_similarity,
}


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_minimums(parser, args, {"--max": 1, "--horizon": 1, "--samples": 1,
                                   "--max-len": 1, "--letters": 1})
    try:
        checks = SUITES[args.suite](args)
    except ValueError as exc:
        parser.error(str(exc))

    failures = sum(1 for _, passed, _ in checks if not passed)
    if args.format == "json":
        _emit_json(
            {
                "suite": args.suite,
                "checks": [
                    {"name": name, "passed": passed, "detail": detail}
                    for name, passed, detail in checks
                ],
                "failures": failures,
                "passed": failures == 0,
            },
            args.output,
        )
    else:
        lines = [f"suite: {args.suite}"]
        for name, passed, detail in checks:
            mark = "ok" if passed else "FAIL"
            lines.append(f"{mark}: {name}" + (f" -- {detail}" if detail else ""))
        if failures:
            lines.append(f"result: fail ({failures} of {len(checks)} checks failed)")
        else:
            lines.append(f"result: pass ({len(checks)} checks)")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
    p_gen.add_argument("--delta", type=int)
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
    p_an.add_argument("--delta", type=int)
    p_an.add_argument("--horizon", type=int, default=10**4)
    p_an.add_argument("--max-window", type=int, default=200)
    p_an.add_argument("--min-period", type=int, default=1)
    p_an.add_argument("--max-period", type=int)
    p_an.add_argument("--max-len", type=int, default=30)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="exact repetition bound for a colouring")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=int, help="number of gap letters (1..9)")
    group.add_argument("--d", type=int, help="alphabet size (even, 2..18)")
    p_bound.add_argument("--check-coarse-bound", action="store_true",
                         help="also verify against the coarse closed-form bound")

    p_table = sub.add_parser("table", parents=[common],
                             help="bounds next to the best known thresholds")
    p_table.add_argument("--d-max", type=int, default=10)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run a named check suite")
    p_ver.add_argument("--suite", required=True, choices=list(SUITES))
    p_ver.add_argument("--n", help="index range A..B (or a bare upper index)")
    p_ver.add_argument("--max", type=int, help="coefficient ceiling "
                                               "(parikh-membership)")
    p_ver.add_argument("--delta", type=int)
    p_ver.add_argument("--horizon", type=int)
    p_ver.add_argument("--samples", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-len", type=int)
    p_ver.add_argument("--letters", type=int, default=100)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.format == "csv" and args.command != "table":
        parser.error("--format csv is only available for the table command")
    if args.command == "verify" and args.horizon is not None:
        _check_guard(parser, "--horizon", args.horizon)

    if args.command == "generate":
        return _cmd_generate(args, parser)
    if args.command == "analyze":
        return _cmd_analyze(args, parser)
    if args.command == "bound":
        return _cmd_bound(args, parser)
    if args.command == "table":
        return _cmd_table(args, parser)
    return _cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
