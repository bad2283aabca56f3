"""Check suites behind `seqlab verify`: keyword functions that hold their own
defaults and return (name, passed, detail) triples. Arguments are checked
before any work and a bad one raises ValueError: levels are (lo, hi) with
1 <= lo <= hi, counts and horizons are >= 1, and no horizon a suite builds
may exceed `max_horizon` (None: no limit).
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .analysis import (
    Text,
    bispecial_factors,
    derived_sequence,
    fibonacci_bispecial,
    fibonacci_bispecial_lengths,
    parikh_is_fib_factor,
    return_words,
    sufficiently_coloured,
)
from .exponents import coefficient_lower_bounds, shortest_return_lower_bound
from .golden import GoldenNumber, fib, verify_fib_properties
from .words import Word, colouring, discolour_letter, fibonacci_sequence

Check = tuple[str, bool, str]

# coefficient_lower_bounds(n) counts F_{n+3} + 1 rows, 1.6 times more per level (level
# 16: 0.01 s on a 2-CPU machine); the cap stays where the old pair grid set it, so the
# accepted levels hold
MAX_COEFFICIENT_LEVEL = 16

# verify_fib_properties(N) checks (N+1)(N+2)/2 pairs; on a 2-CPU machine N = 1000 takes
# 0.65 s and N = 2000 about 5 s
MAX_FIB_PROPERTIES_LEVEL = 1000

# parikh_membership_suite(MAX) checks (MAX+1)^2 - 1 pairs; on a 2-CPU machine MAX = 1000
# takes about 1.2 s and MAX = 2000 about 3.5 s
MAX_PARIKH_COEFFICIENT = 1000


def _levels(levels: tuple[int, int]) -> range:
    lo, hi = levels
    if not 1 <= lo <= hi:
        raise ValueError(f"levels must satisfy 1 <= lo <= hi, got {lo}..{hi}")
    return range(lo, hi + 1)


def _at_least_one(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _guard(letters: int, max_horizon: int | None) -> None:
    if max_horizon is not None and letters > max_horizon:
        raise ValueError(f"the suite would build {letters} letters, above the guard "
                         f"({max_horizon})")


def fib_properties_suite(*, levels: tuple[int, int] = (1, 200)) -> list[Check]:
    """The classical Fibonacci identities at every index from 1 to the top level."""
    top = _levels(levels)[-1]
    if levels[0] != 1:
        raise ValueError(f"fib-properties checks every index from 1 to N, not from {levels[0]}")
    if top > MAX_FIB_PROPERTIES_LEVEL:
        raise ValueError(f"level {top} exceeds {MAX_FIB_PROPERTIES_LEVEL}; index addition "
                         "is checked over (N+1)(N+2)/2 pairs")
    report = verify_fib_properties(top)
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


def golden_sign_suite(*, samples: int = 500, seed: int = 0) -> list[Check]:
    """GoldenNumber.sign against an independent interval bracket of sqrt(5)."""
    _at_least_one(samples=samples)
    rng = random.Random(seed)
    checks: list[Check] = []

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

    def draw() -> Fraction:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))

    pairs = ((draw(), draw()) for _ in range(samples))  # drawn as they are checked
    bad = (f"a={a} b={b}" for a, b in pairs if not agree(a, b))
    first = next(bad, "")
    mismatches = bool(first) + sum(1 for _ in bad)
    checks.append((
        f"random samples ({samples} cases, seed {seed})",
        not first,
        "" if not first else f"{mismatches} mismatches, first {first}",
    ))
    return checks


def _recurrence(n: int) -> int:
    """The Fibonacci word's recurrence function, n >= 1 (Morse and Hedlund 1940):
    R(n) = F_{k+2} + n - 1 for F_k <= n < F_{k+1}. Every factor of length R(n)
    holds every factor of length n, so a prefix of R(n) letters shows them all.
    """
    k = 2
    while fib(k + 1) <= n:
        k += 1
    return fib(k + 2) + n - 1


def _factors(prefix: str, length: int) -> list[Word]:
    """The factors of one length, sorted, read off the R(length) letters of `prefix`."""
    shown = prefix[:_recurrence(length)]
    windows = {shown[i:i + length] for i in range(len(shown) - length + 1)}
    return [Word(f) for f in sorted(windows)]


def _a_counts(max_len: int) -> dict[int, set[int]]:
    """Length L -> the numbers of a in the Fibonacci word's factors of length L,
    for 1 <= L <= max_len, read off the windows inside the first R(L) letters.
    """
    text = Text(fibonacci_sequence(), _recurrence(max_len))
    is_a = text.codes == text.alphabet.index("a")
    sums = np.concatenate([[0], np.cumsum(is_a, dtype=np.int64)])
    counts = {}
    for length in range(1, max_len + 1):
        shown = sums[: _recurrence(length) + 1]
        counts[length] = set(np.flatnonzero(np.bincount(shown[length:] - shown[:-length])).tolist())
    return counts


def parikh_membership_suite(
    *, max_coefficient: int = 60, horizon: int = 10**4, max_horizon: int | None = None
) -> list[Check]:
    """The exact Parikh predicate against a prefix, at 0 <= k, ell <= max_coefficient.
    The prefix must show every factor of length 2*max_coefficient; the counts
    are read off its first R(2*max_coefficient) letters (`_a_counts`), which
    show them all, so the cost does not grow with the horizon.
    """
    _at_least_one(max_coefficient=max_coefficient, horizon=horizon)
    if max_coefficient > MAX_PARIKH_COEFFICIENT:
        raise ValueError(f"max_coefficient {max_coefficient} exceeds {MAX_PARIKH_COEFFICIENT}; "
                         f"the suite would check {(max_coefficient + 1) ** 2 - 1} pairs")
    _guard(horizon, max_horizon)
    shows_all = _recurrence(2 * max_coefficient)
    if horizon < shows_all:
        raise ValueError(f"horizon {horizon} is below {shows_all}, the prefix length that "
                         f"shows every factor of length {2 * max_coefficient}")
    observed = _a_counts(2 * max_coefficient)
    pairs = [(k, ell) for k in range(max_coefficient + 1)
             for ell in range(max_coefficient + 1) if k + ell > 0]
    mismatches = [(k, ell) for k, ell in pairs
                  if parikh_is_fib_factor(k, ell) != (k in observed[k + ell])]
    return [(
        f"exact membership predicate vs enumeration over prefix({horizon})",
        not mismatches,
        f"{len(pairs)} pairs checked"
        + ("" if not mismatches else f", first mismatch {mismatches[0]}"),
    )]


def coefficient_bounds_suite(*, levels: tuple[int, int] = (1, 10)) -> list[Check]:
    """The coefficient-forcing certificate at every level, up to MAX_COEFFICIENT_LEVEL."""
    levels = _levels(levels)
    if levels[-1] > MAX_COEFFICIENT_LEVEL:
        raise ValueError(f"level {levels[-1]} exceeds {MAX_COEFFICIENT_LEVEL}; the "
                         "certificate counts F(n+3) + 1 rows, about 1.6 times more per level")
    checks = []
    for n in levels:
        cert = coefficient_lower_bounds(n)
        checks.append((
            f"n={n}",
            cert.passed,
            f"kappa>={cert.kappa_min} lambda>={cert.lambda_min} over "
            f"{cert.qualifying_pairs} qualifying pairs (limit {cert.search_limit})"
            + ("" if not cert.violations else f"; violations {cert.violations[:3]}"),
        ))
    return checks


def return_words_suite(
    *,
    levels: tuple[int, int] = (1, 15),
    horizon: int = 10**5,
    max_len: int = 50,
    max_horizon: int | None = None,
) -> list[Check]:
    """Closed-form returns at each level; two returns for every factor up to max_len.
    The prefix must show both returns of every factor it checks.
    """
    levels = _levels(levels)
    _at_least_one(horizon=horizon, max_len=max_len)
    # the closed-form factor at level n has F(n+3) - 2 letters
    longest = fib(levels[-1] + 3) - 2
    _guard(max(horizon, longest), max_horizon)
    if longest > horizon:
        raise ValueError(f"the closed-form factor at level {levels[-1]} has {longest} letters, "
                         f"more than the horizon {horizon}")
    # w_n occurs at 0, F(n+2) and F(n+3), so 2 F(n+3) - 2 letters show both its returns; a
    # factor of length L recurs within R(L) - L + 1 letters, so each complete return has at
    # most R(L) + 1 letters and R(R(max_len) + 1) letters show both returns of every factor
    need = max(2 * longest + 2, _recurrence(_recurrence(max_len) + 1))
    if horizon < need:
        raise ValueError(f"horizon {horizon} is below {need}, the prefix length that shows both "
                         f"returns of the closed-form factor at level {levels[-1]} and of every "
                         f"factor of length <= {max_len}")
    snap = Text(fibonacci_sequence(), horizon)
    checks = []
    for n in levels:
        fb = fibonacci_bispecial(n)
        rws = return_words(fb.word, snap)
        expected = (fb.prefix_return, fb.other_return)
        ok = rws.returns == expected
        checks.append((
            f"closed form at level {n}",
            ok,
            f"|factor|={len(fb.word)} returns "
            f"{len(expected[0])},{len(expected[1])}"
            if ok else f"scan gave {[w.to_text()[:30] for w in rws.returns]}",
        ))

    prefix = "".join(snap.letters[:_recurrence(max_len)])
    factors = [fac for length in range(1, max_len + 1) for fac in _factors(prefix, length)]
    bad = [fac.to_text() for fac in factors if len(return_words(fac, snap).returns) != 2]
    checks.append((
        f"every factor of length <= {max_len} has exactly two return words",
        not bad,
        f"{len(factors)} factors checked"
        + ("" if not bad else f", first failure \"{bad[0]}\""),
    ))
    return checks


def divisibility_suite(
    *,
    deltas: Sequence[int] = (2, 3, 4),
    horizon: int = 2 * 10**5,
    max_len: int = 250,
    max_horizon: int | None = None,
) -> list[Check]:
    """Lengths, discoloured return counts and shortest returns of the sufficiently
    coloured bispecial factors of each colouring; a check with no factor fails.
    """
    _at_least_one(horizon=horizon, max_len=max_len)
    if len(set(deltas)) < len(deltas):
        raise ValueError(f"deltas must not repeat, got {list(deltas)}")
    _guard(horizon, max_horizon)
    lengths = fibonacci_bispecial_lengths(max_len)
    none = f"no sufficiently coloured bispecial factor of length <= {max_len} at horizon {horizon}"
    checks = []
    for delta in deltas:
        period = 2 ** (delta - 1)
        snap = Text(colouring(delta), horizon)
        coloured = [w for w in bispecial_factors(snap, None, max_len)
                    if sufficiently_coloured(w, period)]
        bad_len = [len(w) for w in coloured if len(w) not in lengths]
        checks.append((
            f"delta={delta}: bispecial lengths in the closed-form family",
            bool(coloured) and not bad_len,
            (f"{len(coloured)} factors" if coloured else none)
            + ("" if not bad_len else f", stray lengths {sorted(set(bad_len))[:5]}"),
        ))
        count, bad, shortest = 0, "", []
        for w in coloured:  # one factor's returns at a time; all run to millions of letters
            returns = return_words(w, snap).returns
            count += len(returns)
            for v in returns:
                a = sum(c for t, c in v.parikh().items() if discolour_letter(t) == "a")
                if a % period or (len(v) - a) % period:
                    bad = f"counts ({a},{len(v) - a}) at \"{v.to_text()[:30]}\""
            # a stray length already fails the family check, so the bound reads the others
            if len(w) in lengths:
                shortest.append(min(map(len, returns))
                                >= shortest_return_lower_bound(lengths[len(w)], delta))
        checks.append((
            f"delta={delta}: discoloured return counts divisible by {period}",
            bool(coloured) and not bad,
            (f"{count} return words" if coloured else none)
            + ("" if not bad else f"; {bad}"),
        ))
        checks.append((
            f"delta={delta}: shortest returns meet the exact lower bound",
            bool(shortest) and all(shortest),
            "" if shortest else none if not coloured else "no factor in the closed-form family",
        ))
    return checks


def self_similarity_suite(
    *, levels: tuple[int, int] = (1, 10), letters: int = 100, max_horizon: int | None = None
) -> list[Check]:
    """Derived sequences at each level start like the Fibonacci word (a -> 1, b -> 2)."""
    levels = _levels(levels)
    _at_least_one(letters=letters)

    def horizon(n: int) -> int:
        # the factor (F(n+3) - 2 letters), `letters` returns of at most F(n+2)
        # letters each, and F(n+3) letters of margin
        return letters * fib(n + 2) + fib(n + 3) - 2 + fib(n + 3)

    _guard(horizon(levels[-1]), max_horizon)
    want = ["1" if t == "a" else "2"
            for t in fibonacci_sequence().letters(letters)]
    checks = []
    for n in levels:
        fb = fibonacci_bispecial(n)
        der = derived_sequence(fb.word, fibonacci_sequence(), horizon(n))
        checks.append((
            f"derived sequence at level {n} reproduces the base word",
            list(der.letters()[:letters]) == want,
            f"{letters} letters via horizon {horizon(n)}",
        ))
    return checks


# in the order `seqlab verify --help` lists them
SUITES = {
    "fib-properties": fib_properties_suite,
    "golden-sign": golden_sign_suite,
    "parikh-membership": parikh_membership_suite,
    "coefficient-bounds": coefficient_bounds_suite,
    "return-words": return_words_suite,
    "divisibility": divisibility_suite,
    "self-similarity": self_similarity_suite,
}
