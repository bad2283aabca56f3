"""The check suites of seqlab.verify, called directly with keyword arguments."""

import ast
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seqlab import verify
from seqlab.analysis import (
    Text,
    bispecial_factors,
    fibonacci_bispecial,
    return_words,
    sufficiently_coloured,
)
from seqlab.golden import fib
from seqlab.words import Word, colouring, fibonacci_sequence

SMALL = {
    "fib-properties": dict(levels=(1, 30)),
    "golden-sign": dict(samples=20, seed=3),
    "parikh-membership": dict(max_coefficient=10, horizon=500),
    "coefficient-bounds": dict(levels=(1, 5)),
    "return-words": dict(levels=(2, 5), horizon=2000, max_len=6),
    "divisibility": dict(deltas=(2, 3), horizon=3000, max_len=20),
    "self-similarity": dict(levels=(1, 4), letters=20),
}


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_every_check_passes_with_small_arguments(name):
    checks = verify.SUITES[name](**SMALL[name])
    assert checks
    assert all(passed for _, passed, _ in checks), checks


@pytest.mark.parametrize("name, kwargs, message", [
    ("fib-properties", dict(levels=(1, 1)), "n_max must be at least 2"),
    ("fib-properties", dict(levels=(0, 30)), "levels must satisfy"),
    ("fib-properties", dict(levels=(150, 200)), "checks every index from 1 to N"),
    ("fib-properties", dict(levels=(1, 1001)), "level 1001 exceeds 1000"),
    ("return-words", dict(levels=(28, 28), horizon=1000, max_len=1),
     "level 28 has 1346267 letters, more than the horizon 1000"),
    ("return-words", dict(levels=(0, 2), horizon=100, max_len=3), "levels must satisfy"),
    ("self-similarity", dict(levels=(3, 2)), "levels must satisfy"),
    ("coefficient-bounds", dict(levels=(1, 17)), "level 17 exceeds 16"),
    ("golden-sign", dict(samples=0), "samples must be >= 1"),
    ("parikh-membership", dict(max_coefficient=0), "max_coefficient must be >= 1"),
    ("parikh-membership", dict(horizon=-3), "horizon must be >= 1"),
    ("return-words", dict(max_len=0), "max_len must be >= 1"),
    ("divisibility", dict(horizon=0), "horizon must be >= 1"),
    ("divisibility", dict(deltas=(10,), horizon=100, max_len=5), "delta must be in 1..9"),
    ("divisibility", dict(deltas=(2, 3, 2), horizon=100, max_len=5),
     "deltas must not repeat, got [2, 3, 2]"),
    ("self-similarity", dict(letters=0), "letters must be >= 1"),
])
def test_out_of_range_arguments_raise(name, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify.SUITES[name](**kwargs)


@pytest.mark.parametrize("name, kwargs", [
    ("parikh-membership", {}),  # default horizon 10^4
    ("return-words", {}),  # default horizon 10^5
    ("divisibility", {}),  # default horizon 2*10^5
    ("return-words", dict(levels=(1, 40), horizon=100)),  # the level-40 factor itself
    ("self-similarity", dict(levels=(1, 40))),
])
def test_guard_refuses_before_any_work(name, kwargs):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the guard"):
        verify.SUITES[name](max_horizon=5000, **kwargs)
    assert time.perf_counter() - start < 1


def _largest_horizon(checks) -> int:
    return max(int(detail.rsplit(" ", 1)[1]) for _, _, detail in checks)


def test_self_similarity_guard_is_exact():
    checks = verify.self_similarity_suite(levels=(1, 5), letters=30)
    # the horizon the suite reports is the one the old code used
    for n, (_, _, detail) in enumerate(checks, start=1):
        want = 30 * fib(n + 2) + len(fibonacci_bispecial(n).word) + fib(n + 3)
        assert detail == f"30 letters via horizon {want}"
    largest = _largest_horizon(checks)
    assert verify.self_similarity_suite(levels=(1, 5), letters=30,
                                        max_horizon=largest) == checks
    with pytest.raises(ValueError, match=f"would build {largest} letters"):
        verify.self_similarity_suite(levels=(1, 5), letters=30, max_horizon=largest - 1)


def test_guard_admits_a_horizon_at_the_limit():
    kwargs = dict(max_coefficient=5, horizon=300)
    assert verify.parikh_membership_suite(max_horizon=300, **kwargs)[0][1]
    with pytest.raises(ValueError, match="above the guard"):
        verify.parikh_membership_suite(max_horizon=299, **kwargs)


def test_recurrence_prefix_shows_every_factor():
    # the Fibonacci word has n + 1 factors of length n, and R(n) letters show them all
    text = "".join(fibonacci_sequence().letters(verify._recurrence(400)))
    for n in range(1, 401):
        shown = text[:verify._recurrence(n)]
        assert len({shown[i:i + n] for i in range(len(shown) - n + 1)}) == n + 1, n


def test_recurrence_values():
    # R(n) = F_{k+2} + n - 1 for F_k <= n < F_{k+1}
    assert [verify._recurrence(n) for n in range(1, 9)] == [3, 6, 10, 11, 17, 18, 19, 28]
    assert verify._recurrence(20) == 53
    assert verify._recurrence(120) == 352


def test_parikh_membership_needs_a_prefix_that_shows_every_window():
    # at --max 10 the windows reach 20 letters, which R(20) = 53 letters show
    assert verify.parikh_membership_suite(max_coefficient=10, horizon=53)[0][1]
    with pytest.raises(ValueError, match="horizon 52 is below 53, the prefix length that "
                                         "shows every factor of length 20"):
        verify.parikh_membership_suite(max_coefficient=10, horizon=52)


@pytest.mark.oracle
@pytest.mark.parametrize("horizon", [10**4, 10**5])
def test_a_counts_equal_the_whole_horizon_enumeration(horizon):
    is_a = [tok == "a" for tok in fibonacci_sequence().letters(horizon)]
    sums = [0]
    for hit in is_a:
        sums.append(sums[-1] + hit)
    for max_coefficient in (1, 7, 60):
        counts = verify._a_counts(2 * max_coefficient)
        assert sorted(counts) == list(range(1, 2 * max_coefficient + 1))
        for length, seen in counts.items():
            assert seen == {sums[i + length] - sums[i] for i in range(horizon - length + 1)}


def test_divisibility_max_len_past_the_horizon():
    # no factor is longer than the horizon, and the suffix array's LCPs stay int32
    kwargs = dict(deltas=(2,), horizon=2000)
    want = verify.divisibility_suite(max_len=2000, **kwargs)
    assert verify.divisibility_suite(max_len=2**31 - 1, **kwargs) == want
    assert verify.divisibility_suite(max_len=2**40, **kwargs) == want


def test_divisibility_fails_a_check_that_examined_nothing():
    # at delta 7 no bispecial factor of length <= 30 is sufficiently coloured
    start = time.perf_counter()
    checks = verify.divisibility_suite(deltas=(7,), horizon=5000, max_len=30)
    assert time.perf_counter() - start < 1
    none = "no sufficiently coloured bispecial factor of length <= 30 at horizon 5000"
    assert [(passed, detail) for _, passed, detail in checks] == [(False, none)] * 3


def test_parikh_membership_refuses_a_coefficient_above_the_cap():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(
            "max_coefficient 1001 exceeds 1000; the suite would check 1004003 pairs")):
        verify.parikh_membership_suite(max_coefficient=1001)
    # 1000 passes the cap and meets the horizon check, still before any work
    with pytest.raises(ValueError, match="horizon 100 is below"):
        verify.parikh_membership_suite(max_coefficient=1000, horizon=100)
    assert time.perf_counter() - start < 1


def _complete_returns(text: str, factor: str) -> set[str]:
    """Brute force: each pair of consecutive occurrences of `factor` in `text`,
    from the first letter of one to the last letter of the next.
    """
    starts = [m.start() for m in re.finditer(f"(?={factor})", text)]
    return {text[i:j + len(factor)] for i, j in zip(starts, starts[1:])}


@pytest.mark.oracle
def test_recurrence_bounds_the_returns_of_every_factor():
    # a factor of length L recurs within R(L) - L + 1 letters, so its complete returns
    # have at most R(L) + 1 letters, and R(R(L) + 1) letters show both of them
    R = verify._recurrence
    text = "".join(fibonacci_sequence().letters(4 * R(R(60) + 1)))
    for length in range(1, 61):
        shown = text[:R(R(length) + 1)]
        for factor in {text[i:i + length] for i in range(R(length) - length + 1)}:
            assert len(_complete_returns(shown, factor)) == 2, factor
            assert max(map(len, _complete_returns(text, factor))) <= R(length) + 1, factor
    # R(2m + 2) letters are not enough: both returns of aabaa show only at 33
    assert R(2 * 5 + 2) == 32
    assert len(_complete_returns(text[:32], "aabaa")) == 1
    assert len(_complete_returns(text[:33], "aabaa")) == 2


@pytest.mark.oracle
def test_closed_form_returns_show_in_twice_the_next_fibonacci_number():
    # w_n occurs at 0, F(n+2) and F(n+3): 2 F(n+3) - 2 letters show both returns, one fewer not
    text = "".join(fibonacci_sequence().letters(2 * fib(16)))
    for n in range(1, 14):
        fb = fibonacci_bispecial(n)
        need = 2 * fib(n + 3) - 2
        want = {(r + fb.word).to_text() for r in (fb.prefix_return, fb.other_return)}
        assert _complete_returns(text[:need], fb.word.to_text()) == want, n
        assert len(_complete_returns(text[:need - 1], fb.word.to_text())) == 1, n


def _factors_over_the_whole_prefix(snap, length):
    """The enumeration over every window of the prefix, first occurrences in a dict."""
    string, letters = snap.string, snap.letters
    first = {string[i:i + length]: i for i in range(len(string) - length, -1, -1)}
    return sorted((Word(letters[i:i + length]) for i in first.values()), key=Word.to_text)


@pytest.mark.oracle
def test_factors_from_the_recurrence_prefix_match_the_whole_prefix():
    snap = Text(fibonacci_sequence(), 2000)
    prefix = "".join(snap.letters)
    for length in range(1, 61):
        assert verify._factors(prefix, length) == _factors_over_the_whole_prefix(snap, length)


def test_return_words_needs_twice_the_next_fibonacci_number_at_the_top_level():
    # level 10 needs 2 F(13) - 2 = 464 letters; max_len 1 needs R(R(1) + 1) = 11
    kwargs = dict(levels=(1, 10), max_len=1)
    assert all(passed for _, passed, _ in verify.return_words_suite(horizon=464, **kwargs))
    with pytest.raises(ValueError, match="horizon 463 is below 464, the prefix length that "
                                         "shows both returns of the closed-form factor at "
                                         "level 10 and of every factor of length <= 1"):
        verify.return_words_suite(horizon=463, **kwargs)


@pytest.mark.parametrize("horizon, largest", [(60, 7), (200, 20)])
def test_return_words_refuses_a_max_len_the_horizon_cannot_certify(horizon, largest):
    # the largest max_len with R(R(max_len) + 1) <= horizon is accepted and passes
    R = verify._recurrence
    assert R(R(largest) + 1) <= horizon < R(R(largest + 1) + 1)
    kwargs = dict(levels=(1, 2), horizon=horizon)
    checks = verify.return_words_suite(max_len=largest, **kwargs)
    assert checks[-1][0] == f"every factor of length <= {largest} has exactly two return words"
    assert all(passed for _, passed, _ in checks)
    for max_len in (largest + 1, horizon, 2**40):
        with pytest.raises(ValueError, match=f"horizon {horizon} is below "
                                             f"{R(R(max_len) + 1)}, the prefix length"):
            verify.return_words_suite(max_len=max_len, **kwargs)


def test_return_words_refuses_a_huge_max_len_before_any_work():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="of every factor of length <= 1099511627776"):
        verify.return_words_suite(levels=(1, 3), horizon=2000, max_len=2**40)
    assert time.perf_counter() - start < 1


def test_suites_do_not_depend_on_the_command_line():
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
    assert "argparse" not in imported
    assert not {"cli", "seqlab.cli"} & imported


def test_divisibility_reports_the_last_failing_return(monkeypatch):
    # only the letter 1 counts as plain, so some returns fail the law; the detail
    # names the last of them, factors in census order and returns in their order
    monkeypatch.setattr(verify, "discolour_letter", lambda t: "a" if t == "1" else "b")
    snap = Text(colouring(3), 3000)
    coloured = [w for w in bispecial_factors(snap, None, 20) if sufficiently_coloured(w, 4)]
    returns = [v for w in coloured for v in return_words(w, snap).returns]
    failing = [v for v in returns if v.count("1") % 4 or (len(v) - v.count("1")) % 4]
    assert 1 < len(failing) < len(returns)
    last = failing[-1]
    _, passed, detail = verify.divisibility_suite(deltas=(3,), horizon=3000, max_len=20)[1]
    assert not passed
    assert detail == (f"{len(returns)} return words; counts ({last.count('1')},"
                      f"{len(last) - last.count('1')}) at \"{last.to_text()[:30]}\"")


def test_golden_sign_counts_every_mismatch_and_names_the_first(monkeypatch):
    # every pair disagrees, so the detail counts all of them and names the first
    # drawn: the seed's first two draws
    monkeypatch.setattr(verify, "_interval_sign", lambda p, q: 2)
    rng = random.Random(7)
    a, b = (Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)) for _ in range(2))
    checks = verify.golden_sign_suite(samples=50, seed=7)
    assert checks[-1] == ("random samples (50 cases, seed 7)", False,
                          f"50 mismatches, first a={a} b={b}")
