"""The benchmark's workloads: timed operations on seqlab, each with its checks.

A workload is a list of operations. Each operation has a timed `run` that
calls seqlab's public functions through their module attributes (so the
traced run can wrap them), an exact `digest` of its output, and an untimed
`check` that tests the output with the independent code in oracles.py. The
seed picks the inputs; seqlab sees only the inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracles as O
import seqlab.analysis as A
import seqlab.cli as CLI
import seqlab.exponents as E
import seqlab.words as W

Problems = list[tuple[str, str]]  # (layer, message)

SIZES = {
    "full": {
        "long-scan": {
            "letters": 10**6,
            "periods": 100,
            # criterion 8 scans delta 1, 2 from period 100 and delta 3, 4 from 500
            "first_period": {1: (100, 500), 2: (100, 500), 3: (500, 900), 4: (500, 900)},
            "balance_horizon": 10**5,
            "balance_window": 200,
            "deltas": (1, 2, 3, 4),
        },
        "factor-census": {
            "letters": 2 * 10**4,
            "offset": (0, 10**4),
            "max_len": 120,
            "deltas": (3, 4),
            "fib_letters": 10**5,
            "levels": 15,
            "window_letters": 2 * 10**4,
            "factor_len": 20,
            "derived_levels": 10,
        },
        "exact-cli": {
            "fib_n": 300,
            "cert_n": 12,
            "parikh_max": 60,
            "max_length": 10**4,
            "horizon": 10**4,
        },
    },
    "smoke": {
        "long-scan": {
            "letters": 2 * 10**4,
            "periods": 20,
            "first_period": {1: (100, 500), 2: (100, 500), 3: (500, 900), 4: (500, 900)},
            "balance_horizon": 5000,
            "balance_window": 50,
            "deltas": (1, 2, 3, 4),
        },
        "factor-census": {
            "letters": 8000,
            "offset": (0, 1000),
            "max_len": 40,
            "deltas": (3, 4),
            "fib_letters": 5000,
            "levels": 8,
            "window_letters": 2000,
            "factor_len": 8,
            "derived_levels": 5,
        },
        "exact-cli": {
            "fib_n": 40,
            "cert_n": 6,
            "parikh_max": 20,
            "max_length": 500,
            "horizon": 2000,
        },
    },
}


@dataclass
class Op:
    name: str
    layer: str  # blamed when the operation raises outside any traced call
    run: Callable[[dict], object]
    digest: Callable[[object], object]
    check: Callable[[object, dict], Problems]
    seeded: bool = False  # whether the output depends on the seed
    counts: Callable[[object], dict[str, int]] = field(default=lambda out: {})
    same: Callable[[object, object], Problems] | None = None  # reference comparison


@dataclass
class Workload:
    name: str
    sizes: dict
    ops: list[Op]


def _hash(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _keep(state: dict, key, value):
    state[key] = value
    return value


def _letters_digest(letters) -> dict:
    return {"length": len(letters), "hash": _hash(letters)}


def _expect(ok: bool, layer: str, message: str) -> Problems:
    return [] if ok else [(layer, message)]


def _check_letters(expected: Callable[[], Iterable[str]]) -> Callable[[object, dict], Problems]:
    """Compare letter by letter, so that the check adds no large buffer to the
    peak memory the run reports."""

    def check(out, state):
        want = iter(expected())
        ok = all(a == b for a, b in zip(out, want)) and next(want, None) is None
        return _expect(ok, "words", "letters differ from the definition")

    return check


def _encode(letters) -> tuple[str, dict[str, str]]:
    table: dict[str, str] = {}
    for tok in letters:
        if tok not in table:
            table[tok] = chr(0x41 + len(table))
    return "".join(table[t] for t in letters), table


def _codes(letters) -> np.ndarray:
    table: dict[str, int] = {}
    return np.fromiter((table.setdefault(t, len(table)) for t in letters), dtype=np.int32)


# ---------------------------------------------------------------------------
# long-scan: criterion 8's shape


def long_scan(seed: int, z: dict) -> list[Op]:
    rng = random.Random(seed)
    n = z["letters"]
    ops: list[Op] = []
    for d in z["deltas"]:
        lo = rng.randint(*z["first_period"][d])
        hi = lo + z["periods"] - 1
        probes = sorted(rng.sample(range(lo, hi + 1), 3))
        ops += [
            Op(
                f"generate.d{d}",
                "words",
                run=lambda s, d=d: _keep(s, "letters", W.colouring(d).letters(n)),
                digest=_letters_digest,
                check=_check_letters(lambda d=d: O.iter_colouring(d, n)),
            ),
            Op(
                f"bound.d{d}",
                "exponents",
                run=lambda s, d=d: E.colouring_exponent_bound(d),
                digest=_bound_digest,
                check=lambda out, s, d=d: _check_bound(out, d),
            ),
            Op(
                f"scan.d{d}",
                "analysis",
                run=lambda s, lo=lo, hi=hi: A.max_fractional_power(s["letters"], None, lo, hi),
                digest=lambda r: [r.exponent.numerator, r.exponent.denominator,
                                  r.period, r.position],
                check=lambda r, s, d=d, lo=lo, hi=hi, probes=probes: _check_scan(
                    r, s["letters"], d, lo, hi, probes
                ),
                seeded=True,
            ),
            Op(
                f"balance.d{d}",
                "analysis",
                run=lambda s, d=d: A.is_balanced(
                    W.colouring(d), z["balance_horizon"], max_window=z["balance_window"]
                ),
                digest=lambda r: [r.balanced, r.horizon, r.max_window, r.witness is None],
                check=lambda r, s, d=d: _check_balance(r, d, z, _balance_windows(seed, d)),
            ),
        ]
    return ops


def _balance_windows(seed: int, d: int) -> list[int]:
    return random.Random(seed * 31 + d).sample(range(1, 201), 3)


def _bound_digest(b) -> list:
    return [b.period_length, b.level, b.bound.a.numerator, b.bound.a.denominator,
            b.bound.b.numerator, b.bound.b.denominator]


def _check_bound(b, d: int) -> Problems:
    H, level, a, c = O.colouring_bound(d)
    return _expect(
        (b.period_length, b.level, b.bound.a, b.bound.b) == (H, level, a, c),
        "exponents",
        f"bound for delta={d} is not 1 + tau^(1-n0)/H",
    )


def _check_scan(r, letters, d, lo, hi, probes) -> Problems:
    p, i, e = r.period, r.position, r.exponent
    length = e * p
    if not lo <= p <= hi or length.denominator != 1:
        return [("analysis", f"delta={d}: period {p} or length {length} out of range")]
    length = int(length)
    n = len(letters)
    problems = _expect(
        list(r.root) == letters[i:i + p]
        and letters[i + p:i + length] == letters[i:i + length - p]
        and (i == 0 or letters[i - 1] != letters[i - 1 + p])
        and (i + length == n or letters[i + length] != letters[i + length - p]),
        "analysis",
        f"delta={d}: witness at {i} is not a maximal run of period {p}",
    )
    codes = _codes(letters)
    run, start = O.longest_run(codes, p)
    problems += _expect((Fraction(run + p, p), start) == (e, i), "analysis",
                        f"delta={d}: period {p} rescanned to run {run} at {start}")
    for q in probes:
        run, _ = O.longest_run(codes, q)
        other = Fraction(run + q, q)
        if other > e or (other == e and q < p):
            problems.append(("analysis", f"delta={d}: period {q} beats the reported maximum"))
    _, _, a, b = O.colouring_bound(d)
    problems += _expect(O.below_bound(e, (a, b)), "exponents",
                        f"delta={d}: estimate {e} above the exact bound")
    return problems


def _check_balance(r, d, z, windows) -> Problems:
    problems = _expect(
        r.balanced and r.witness is None and r.horizon == z["balance_horizon"]
        and r.max_window == min(z["balance_window"], z["balance_horizon"]),
        "analysis", f"delta={d}: colouring reported unbalanced",
    )
    codes = _codes(O.iter_colouring(d, z["balance_horizon"]))
    for k in range(int(codes.max()) + 1):
        sums = np.concatenate(([0], np.cumsum(codes == k)))
        for w in windows:
            w = min(w, z["balance_window"])
            counts = sums[w:] - sums[:-w]
            problems += _expect(int(counts.max() - counts.min()) <= 1, "analysis",
                                f"delta={d}: window {w} spreads by more than 1")
    return problems


# ---------------------------------------------------------------------------
# factor-census: the shape of criteria 5 and 6


def factor_census(seed: int, z: dict) -> list[Op]:
    rng = random.Random(seed)
    lengths = {O.fib(k + 3) - 2 for k in range(40)}
    ops: list[Op] = []
    for d in z["deltas"]:
        off = rng.randrange(*z["offset"])
        n = z["letters"]
        H = 2 ** (d - 1)

        def bispecials(s, d=d, H=H):
            found = A.bispecial_factors(s[("letters", d)], None, z["max_len"])
            s[("coloured", d)] = [w for w in found if A.sufficiently_coloured(w, H)]
            return found

        def returns(s, d=d):
            letters = s[("letters", d)]
            return [(w, A.return_words(w, letters)) for w in s[("coloured", d)]]

        ops += [
            Op(
                f"generate.d{d}",
                "words",
                run=lambda s, d=d, off=off, n=n: _keep(
                    s, ("letters", d), W.colouring(d).letters(off + n)[off:]
                ),
                digest=_letters_digest,
                check=_check_letters(lambda d=d, off=off, n=n: O.colouring_word(d, off + n)[off:]),
                seeded=True,
            ),
            Op(
                f"bispecial.d{d}",
                "analysis",
                run=bispecials,
                digest=lambda ws: {
                    "count": len(ws),
                    "lengths": sorted({len(w) for w in ws}),
                    "hash": _hash(w.to_text() for w in ws),
                },
                check=lambda ws, s, d=d, H=H: _check_bispecials(
                    ws, s[("letters", d)], s[("coloured", d)], H, lengths
                ),
                seeded=True,
            ),
            Op(
                f"returns.d{d}",
                "analysis",
                run=returns,
                digest=lambda rs: {
                    "calls": len(rs),
                    "returns": sum(len(r.returns) for _, r in rs),
                    "hash": _hash(v.to_text() for _, r in rs for v in r.returns),
                },
                check=lambda rs, s, H=H: _check_coloured_returns(rs, H),
                seeded=True,
            ),
        ]

    fib_n = z["fib_letters"]
    win_off = rng.randrange(0, 5 * z["window_letters"])
    win_n = z["window_letters"]
    sample_text = O.fibonacci_word(2000)
    factors = sorted({sample_text[i:i + k] for k in range(1, z["factor_len"] + 1)
                      for i in range(2000 - k + 1)}, key=lambda f: (len(f), f))
    brute = sorted(rng.sample(range(len(factors)), min(20, len(factors))))

    def closed_forms(s):
        letters = s["fib"]
        out = []
        for level in range(1, z["levels"] + 1):
            fb = A.fibonacci_bispecial(level)
            out.append((level, fb.word, A.return_words(fb.word, letters)))
        return out

    def two_returns(s):
        letters = s["window"]
        return [A.return_words(W.Word(f), letters) for f in factors]

    def derived(s):
        out = []
        for level in range(1, z["derived_levels"] + 1):
            fb = A.fibonacci_bispecial(level)
            horizon = 100 * O.fib(level + 2) + len(fb.word) + O.fib(level + 3)
            out.append(A.derived_sequence(fb.word, W.fibonacci_sequence(), horizon))
        return out

    ops += [
        Op(
            "generate.fib",
            "words",
            run=lambda s: _keep(s, "fib", W.fibonacci_sequence().letters(fib_n)),
            digest=_letters_digest,
            check=_check_letters(lambda: list(O.fibonacci_word(fib_n))),
        ),
        Op(
            "returns.closed_forms",
            "analysis",
            run=closed_forms,
            digest=lambda out: _hash(v.to_text() for _, _, r in out for v in r.returns),
            check=lambda out, s: _check_closed_forms(out),
        ),
        Op(
            "generate.window",
            "words",
            run=lambda s: _keep(
                s, "window", W.fibonacci_sequence().letters(win_off + win_n)[win_off:]
            ),
            digest=_letters_digest,
            check=_check_letters(lambda: list(O.fibonacci_word(win_off + win_n)[win_off:])),
            seeded=True,
        ),
        Op(
            "returns.two_each",
            "analysis",
            run=two_returns,
            digest=lambda rs: _hash(v.to_text() for r in rs for v in r.returns),
            check=lambda rs, s: _check_two_returns(rs, factors, s["window"], brute, z),
            seeded=True,
        ),
        Op(
            "derived.self_similar",
            "analysis",
            run=derived,
            digest=lambda ds: _hash(d.to_text() for d in ds),
            check=lambda ds, s: _check_derived(ds),
        ),
    ]
    return ops


def _check_bispecials(ws, letters, coloured, H, lengths) -> Problems:
    text, table = _encode(letters)
    problems: Problems = []
    keys = [(len(w), w.to_text()) for w in ws]
    problems += _expect(keys == sorted(keys), "analysis", "bispecials not sorted")
    for w in ws:
        pattern = "".join(table.get(t, "?") for t in w)
        lefts, rights = set(), set()
        pos = text.find(pattern)
        while pos != -1 and (len(lefts) < 2 or len(rights) < 2):
            if pos > 0:
                lefts.add(text[pos - 1])
            if pos + len(pattern) < len(text):
                rights.add(text[pos + len(pattern)])
            pos = text.find(pattern, pos + 1)
        if len(lefts) < 2 or len(rights) < 2:
            problems.append(("analysis", f"{w.to_text()[:30]!r} is not bispecial"))
            break
    expected = [w for w in ws
                if sum(not t.endswith("'") for t in w) >= H
                and sum(t.endswith("'") for t in w) >= H]
    problems += _expect(coloured == expected, "analysis", "sufficiently coloured set differs")
    stray = sorted({len(w) for w in coloured} - lengths)
    problems += _expect(not stray, "analysis", f"bispecial lengths {stray[:5]} not F_(n+3)-2")
    return problems


def _check_coloured_returns(rs, H) -> Problems:
    for w, r in rs:
        wt = list(w)
        if len(r.returns) < 2:
            return [("analysis", f"{w.to_text()[:30]!r} has fewer than two returns")]
        for v in r.returns:
            toks = list(v)
            plain = sum(not t.endswith("'") for t in toks)
            if plain % H or (len(toks) - plain) % H:
                return [("analysis", f"return counts ({plain},{len(toks) - plain}) "
                                     f"not divisible by {H}")]
            joined = toks + wt
            hits = [i for i in range(len(joined) - len(wt) + 1)
                    if joined[i:i + len(wt)] == wt]
            if hits != [0, len(toks)]:
                return [("analysis", f"{v.to_text()[:30]!r} is not a complete return")]
    return []


def _check_closed_forms(out) -> Problems:
    for level, word, r in out:
        want_word = O.fibonacci_word(O.fib(level + 3) - 2)
        want = (O.fibonacci_word(O.fib(level + 2)), O.fibonacci_word(O.fib(level + 1)))
        got = tuple(v.to_text() for v in r.returns)
        if word.to_text() != want_word or got != want:
            return [("analysis", f"level {level}: returns differ from the closed form")]
    return []


def _check_two_returns(rs, factors, window, brute, z) -> Problems:
    want = sum(k + 1 for k in range(1, z["factor_len"] + 1))
    problems = _expect(len(factors) == want, "analysis",
                       f"{len(factors)} factors, Fibonacci complexity says {want}")
    bad = [f for f, r in zip(factors, rs) if len(r.returns) != 2]
    problems += _expect(not bad, "analysis", f"factors {bad[:3]} lack exactly two returns")
    text = "".join(window)
    for k in brute:
        seen, _ = O.return_words_brute(text, factors[k])
        if seen != [v.to_text() for v in rs[k].returns]:
            problems.append(("analysis", f"returns of {factors[k]!r} differ from a direct scan"))
    return problems


def _check_derived(ds) -> Problems:
    want = ["1" if c == "a" else "2" for c in O.fibonacci_word(100)]
    bad = [k + 1 for k, d in enumerate(ds) if list(d.letters()[:100]) != want]
    return _expect(not bad, "analysis", f"derived sequences at levels {bad} differ")


# ---------------------------------------------------------------------------
# exact-cli: in-process CLI calls with stdout captured


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = CLI.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return {"code": code, "stdout": out.getvalue(), "stderr": bool(err.getvalue())}


def _cli_digest(out: dict) -> dict:
    """Long outputs (generated words, position lists) are kept as a hash; their
    content is checked in full against the definitions instead."""
    if len(out["stdout"]) <= 4096:
        return out
    return {"code": out["code"], "bytes": len(out["stdout"]), "hash": _hash([out["stdout"]]),
            "stderr": out["stderr"]}


def same_cli(ref: dict, got: dict) -> Problems:
    """Byte equality with the reference, except that each rendered decimal
    is checked against its exact value by the command's own check; JSON
    documents may carry extra keys."""
    if ref["code"] != got["code"]:
        return [("cli", f"exit code {got['code']}, reference {ref['code']}")]
    if "stdout" not in ref or "stdout" not in got:
        return []
    try:
        ref_doc, got_doc = json.loads(ref["stdout"]), json.loads(got["stdout"])
    except ValueError:
        ok = O.mask_decimals(ref["stdout"]) == O.mask_decimals(got["stdout"])
        return _expect(ok, "cli", "stdout differs from the reference")
    return _expect(_json_within(ref_doc, got_doc), "cli", "JSON differs from the reference")


def _json_within(ref, got) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and _json_within(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(
            _json_within(a, b) for a, b in zip(ref, got))
    if isinstance(ref, str) and isinstance(got, str):
        return O.mask_decimals(ref) == O.mask_decimals(got)
    return ref == got and type(ref) is type(got)


def _cli_op(name: str, argv: list[str], check, seeded: bool = False) -> Op:
    return Op(
        f"cli.{name}",
        "cli",
        run=lambda s: run_cli(argv),
        digest=_cli_digest,
        check=lambda out, s: check(out),
        seeded=seeded,
        counts=lambda out: {"cli.calls": 1, "cli.bytes_out": len(out["stdout"].encode())},
        same=same_cli,
    )


def _code(out, want: int) -> Problems:
    return _expect(out["code"] == want, "cli", f"exit code {out['code']}, expected {want}")


def _decimal(text: str, x: O.Surd, what: str) -> Problems:
    return _expect(O.decimal_ok(text, x), "golden", f"{what} renders as {text}")


def _golden_exact(doc: dict, a, b) -> bool:
    return (Fraction(doc["a_num"], doc["a_den"]), Fraction(doc["b_num"], doc["b_den"])) == (a, b)


def _check_table(out, fmt: str, d_max: int) -> Problems:
    problems = _code(out, 0)
    ds = list(range(2, d_max + 1, 2))
    if fmt == "json":
        rows = [(r["d"], r["H"], r["N0"], r["bound_decimal"], r["rtb_star_decimal"],
                 r["marker"], r) for r in json.loads(out["stdout"])]
    else:
        lines = out["stdout"].strip().splitlines()[1:]
        split = [ln.split(",") if fmt == "csv" else ln.split() for ln in lines]
        rows = [(int(r[0]), int(r[1]), int(r[2]), r[3], r[4], r[5], None) for r in split]
    if [r[0] for r in rows] != ds:
        return problems + [("cli", f"table rows {[r[0] for r in rows]}")]
    for d, H, level, bound_dec, known_dec, marker, doc in rows:
        want_H, want_level, a, b = O.colouring_bound(d // 2)
        known, want_marker = O.KNOWN_THRESHOLDS[d]
        problems += _expect((H, level, marker) == (want_H, want_level, want_marker), "exponents",
                            f"d={d}: H, level, marker {(H, level, marker)}")
        problems += _decimal(bound_dec, O.golden(a, b), f"d={d} bound")
        problems += _decimal(known_dec, known, f"d={d} best known")
        if doc is not None:
            problems += _expect(_golden_exact(doc["bound_exact"], a, b), "exponents",
                                f"d={d}: exact bound coefficients")
    return problems


def _check_bound_text(out, delta: int) -> Problems:
    problems = _code(out, 0)
    fields = dict(ln.split(": ", 1) for ln in out["stdout"].strip().splitlines())
    H, level, a, b = O.colouring_bound(delta)
    problems += _expect(
        (fields.get("delta"), fields.get("gap period"), fields.get("level"))
        == (str(delta), str(H), str(level)),
        "exponents", f"delta={delta}: header fields {fields}")
    return problems + _decimal(fields.get("decimal", ""), O.golden(a, b), f"delta={delta} bound")


def _check_bound_json(out, delta: int) -> Problems:
    problems = _code(out, 0)
    doc = json.loads(out["stdout"])
    H, level, a, b = O.colouring_bound(delta)
    ca, cb = O.coarse_bound(2 * delta)
    problems += _expect(
        (doc["H"], doc["N0"]) == (H, level) and _golden_exact(doc["bound_exact"], a, b)
        and _golden_exact(doc["coarse_bound_exact"], ca, cb) and doc["within_coarse_bound"],
        "exponents", f"delta={delta}: exact bound or coarse bound differs")
    problems += _decimal(doc["bound_decimal"], O.golden(a, b), f"delta={delta} bound")
    return problems + _decimal(doc["coarse_bound_decimal"], O.golden(ca, cb),
                               f"delta={delta} coarse bound")


def _check_verify(out) -> Problems:
    lines = out["stdout"].strip().splitlines()
    ok = (out["code"] == 0 and lines[-1].startswith("result: pass")
          and all(ln.startswith("ok: ") for ln in lines[1:-1]))
    return _expect(ok, "cli", f"suite did not pass: {lines[-1] if lines else ''}")


def _check_generate(out, kind: str, delta: int, hatted: bool, length: int, fmt: str) -> Problems:
    if kind == "fibonacci":
        want = list(O.fibonacci_word(length))
    elif kind == "colouring":
        want = O.colouring_word(delta, length)
    else:
        period = O.gap_period(delta, hatted)
        want = [period[i % len(period)] for i in range(length)]
    text = "".join(want) if all(len(t) == 1 for t in want) else " ".join(want)
    if fmt == "json":
        doc = json.loads(out["stdout"])
        got = doc["text"]
        tokens = [t if isinstance(t, str) else str(t["index"]) + ("'" if t["hat"] else "")
                  for t in doc["letters"]]
        ok = got == text and tokens == want and doc["length"] == length
    else:
        ok = out["stdout"] == text + "\n"
    return _code(out, 0) + _expect(ok, "words", f"generate {kind} differs from the definition")


def _check_power(out, word: str, fmt: str) -> Problems:
    exp, p, i = O.max_power_brute(list(word))
    if fmt == "json":
        doc = json.loads(out["stdout"])
        got = (Fraction(doc["exponent"]["numerator"], doc["exponent"]["denominator"]),
               doc["period"], doc["position"], doc["root"]["text"])
        dec = doc["exponent_decimal"]
    else:
        fields = dict(ln.split(": ", 1) for ln in out["stdout"].strip().splitlines())
        frac, dec = fields["exponent"].split(" = ")
        got = (Fraction(frac), int(fields["period"]), int(fields["position"]),
               fields["root"].strip('"'))
    problems = _code(out, 0) + _expect(got == (exp, p, i, word[i:i + p]), "analysis",
                                       f"power of {word!r}: {got}")
    return problems + _decimal(dec, O.surd(exp), f"exponent of {word!r}")


def _check_power_scan(out, delta: int, horizon: int, lo: int, hi: int) -> Problems:
    codes = _codes(O.iter_colouring(delta, horizon))
    best = max(((Fraction(run + q, q), -q, -start) for q in range(lo, hi + 1)
                for run, start in [O.longest_run(codes, q)]))
    exp, p, i = best[0], -best[1], -best[2]
    fields = dict(ln.split(": ", 1) for ln in out["stdout"].strip().splitlines())
    frac, dec = fields["exponent"].split(" = ")
    got = (Fraction(frac), int(fields["period"]), int(fields["position"]))
    problems = _code(out, 0) + _expect(got == (exp, p, i), "analysis",
                                       f"colouring({delta}) power scan: {got}")
    return problems + _decimal(dec, O.surd(exp), "scan exponent")


def _check_returns(out, factor: str, horizon: int) -> Problems:
    text = O.fibonacci_word(horizon)
    seen, positions = O.return_words_brute(text, factor)
    first_end = {}
    for start, end in zip(positions, positions[1:]):
        first_end.setdefault(text[start:end], end)
    complete = all(e <= horizon // 2 for e in first_end.values())
    want = (f'factor: "{factor}"\nreturns: ' + " ".join(f'"{v}"' for v in seen)
            + f"\ncomplete: {str(complete).lower()}\n")
    return _code(out, 0) + _expect(out["stdout"] == want, "analysis",
                                   f"returns of {factor!r} differ from a direct scan")


def _check_occurrences(out, factor: str, horizon: int) -> Problems:
    _, positions = O.return_words_brute(O.fibonacci_word(horizon), factor)
    doc = json.loads(out["stdout"])
    ok = doc["count"] == len(positions) and doc["positions"] == positions
    return _code(out, 0) + _expect(ok, "analysis", f"occurrences of {factor!r} differ")


def _check_derived_cli(out, factor: str, horizon: int) -> Problems:
    text = O.fibonacci_word(horizon)
    _, positions = O.return_words_brute(text, factor)
    names: dict[str, str] = {}
    walk = [names.setdefault(text[a:b], str(len(names) + 1))
            for a, b in zip(positions, positions[1:])]
    fields = dict(ln.split(": ", 1) for ln in out["stdout"].strip().splitlines())
    shown = "".join(walk[:120]) + (" ..." if len(walk) > 120 else "")
    ok = fields["length"] == str(len(walk)) and fields["derived"] == shown
    return _code(out, 0) + _expect(ok, "analysis", f"derived sequence of {factor!r} differs")


def _check_bispecial_cli(out, horizon_max_len: int) -> Problems:
    want = sorted({0} | {O.fib(k + 3) - 2 for k in range(20)} & set(range(horizon_max_len + 1)))
    lines = out["stdout"].strip().splitlines()[1:]
    text = O.fibonacci_word(horizon_max_len)
    got = [ln.split(": ", 1) for ln in lines]
    ok = [g[0] for g in got] == [f"len {k}" for k in want] and all(
        g[1] == f'"{text[:k]}"' for g, k in zip(got, want))
    return _code(out, 0) + _expect(ok, "analysis", "Fibonacci bispecials are not its "
                                                   "palindromic prefixes")


def _check_balanced(out, want: bool) -> Problems:
    return _code(out, 0 if want else 1) + _expect(
        out["stdout"].startswith(f"balanced: {str(want).lower()}\n"), "analysis",
        f"balance verdict differs from {want}")


def exact_cli(seed: int, z: dict) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for fmt in ("text", "csv", "json"):
        ops.append(_cli_op(f"table.{fmt}", ["table", "--format", fmt],
                           lambda o, fmt=fmt: _check_table(o, fmt, 10)))
    for d_max, fmt in ((rng.choice((2, 4, 6, 8)), "text"), (rng.choice((2, 4, 6, 8)), "csv")):
        ops.append(_cli_op(f"table.dmax.{fmt}", ["table", "--d-max", str(d_max), "--format", fmt],
                           lambda o, d_max=d_max, fmt=fmt: _check_table(o, fmt, d_max),
                           seeded=True))
    for delta in range(1, 10):
        ops.append(_cli_op(f"bound.delta{delta}", ["bound", "--delta", str(delta)],
                           lambda o, delta=delta: _check_bound_text(o, delta)))
        ops.append(_cli_op(f"bound.coarse{delta}",
                           ["bound", "--delta", str(delta), "--check-coarse-bound",
                            "--format", "json"],
                           lambda o, delta=delta: _check_bound_json(o, delta)))
        ops.append(_cli_op(f"bound.d{2 * delta}", ["bound", "--d", str(2 * delta)],
                           lambda o, delta=delta: _check_bound_text(o, delta)))
    odd = rng.choice(range(3, 18, 2))
    ops.append(_cli_op("bound.usage_error", ["bound", "--d", str(odd)],
                       lambda o: _code(o, 2) + _expect(o["stderr"] and not o["stdout"], "cli",
                                                       "usage error not reported"),
                       seeded=True))

    suites = [
        ("fib_properties", ["--suite", "fib-properties", "--n", str(z["fib_n"])], False),
        ("golden_sign", ["--suite", "golden-sign", "--seed", str(rng.randrange(10**6))], True),
        ("coefficient_bounds", ["--suite", "coefficient-bounds", "--n", f"1..{z['cert_n']}"],
         False),
        ("parikh_membership", ["--suite", "parikh-membership", "--max", str(z["parikh_max"])],
         False),
        ("self_similarity", ["--suite", "self-similarity"], False),
    ]
    for name, argv, seeded in suites:
        ops.append(_cli_op(f"verify.{name}", ["verify", *argv], _check_verify, seeded=seeded))

    horizon = z["horizon"]
    gens = [("fibonacci", None, False), ("colouring", rng.randint(1, 9), False),
            ("constant-gap", rng.randint(1, 9), rng.random() < 0.5)]
    for fmt in ("text", "json"):
        for kind, delta, hatted in gens:
            length = z["max_length"]
            argv = ["generate", "--sequence", kind, "--length", str(length), "--format", fmt]
            argv += ["--delta", str(delta)] if delta else []
            argv += ["--hatted"] if hatted else []
            ops.append(_cli_op(
                f"generate.{kind}.{fmt}", argv,
                lambda o, k=kind, d=delta, h=hatted, n=length, f=fmt: _check_generate(
                    o, k, d, h, n, f),
                seeded=True))

    for k in range(4):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(10, 14)))
        fmt = ("text", "json")[k % 2]
        ops.append(_cli_op(f"power.word{k}", ["analyze", "power", "--word", word,
                                              "--format", fmt],
                           lambda o, w=word, f=fmt: _check_power(o, w, f), seeded=True))
    delta, lo = rng.randint(1, 4), rng.randint(20, 200)
    ops.append(_cli_op("power.scan", ["analyze", "power", "--delta", str(delta), "--horizon",
                                      str(horizon), "--min-period", str(lo),
                                      "--max-period", str(lo + 30)],
                       lambda o, d=delta, lo=lo: _check_power_scan(o, d, horizon, lo, lo + 30),
                       seeded=True))

    fib_text = O.fibonacci_word(horizon)
    # fixed factor sizes keep the work equal across seeds; the seed picks the factors
    for k, size in enumerate((4, 7, 11, 3, 6)):
        start = rng.randrange(0, 1000)
        factor = fib_text[start:start + size]
        if k < 3:
            argv = ["analyze", "returns", "--word", factor, "--sequence", "fibonacci",
                    "--horizon", str(horizon)]
            check = (lambda o, f=factor: _check_returns(o, f, horizon))
            ops.append(_cli_op(f"returns.{k}", argv, check, seeded=True))
        else:
            argv = ["analyze", "occurrences", "--word", factor, "--sequence", "fibonacci",
                    "--horizon", str(horizon), "--format", "json"]
            check = (lambda o, f=factor: _check_occurrences(o, f, horizon))
            ops.append(_cli_op(f"occurrences.{k}", argv, check, seeded=True))
    for k in range(2):
        prefix = fib_text[:rng.randint(8, 13)]
        ops.append(_cli_op(f"derived.{k}", ["analyze", "derived", "--word", prefix,
                                            "--sequence", "fibonacci", "--horizon", str(horizon)],
                           lambda o, p=prefix: _check_derived_cli(o, p, horizon), seeded=True))
    for delta in (2, 5):
        ops.append(_cli_op(f"balanced.d{delta}", ["analyze", "balanced", "--delta", str(delta),
                                                  "--horizon", str(horizon), "--max-window", "200"],
                           lambda o: _check_balanced(o, True)))
    ops.append(_cli_op("balanced.witness", ["analyze", "balanced", "--word", "aabb"],
                       lambda o: _check_balanced(o, False)))
    ops.append(_cli_op("bispecial.fib", ["analyze", "bispecial", "--sequence", "fibonacci",
                                         "--horizon", "2000", "--max-len", "12"],
                       lambda o: _check_bispecial_cli(o, 12)))
    return ops


BUILDERS = {
    "long-scan": long_scan,
    "factor-census": factor_census,
    "exact-cli": exact_cli,
}


def build(name: str, seed: int, profile: str) -> Workload:
    sizes = SIZES[profile][name]
    return Workload(name, sizes, BUILDERS[name](seed, sizes))
