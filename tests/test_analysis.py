import copy
import gc
import math
import pickle
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab import analysis, cli
from seqlab.analysis import (
    BalanceReport,
    BalanceWitness,
    Text,
    _longest_run,
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
from seqlab.golden import GoldenNumber, fib, tau_pow
from seqlab.verify import _interval_sign
from seqlab.words import (
    PeriodicGenerator,
    SequenceGenerator,
    Word,
    colouring,
    fibonacci_sequence,
)

from fibonacci_oracle import phi


def brute_force_max_exponent(text: str) -> Fraction:
    """Cubic reference scan: best length/period ratio over all repetitions."""
    best = Fraction(1)
    n = len(text)
    for period in range(1, n):
        for start in range(n - period + 1):
            length = period
            while (start + length < n
                   and text[start + length] == text[start + length - period]):
                length += 1
            best = max(best, Fraction(length, period))
    return best


def brute_force_power_witness(text, min_period, max_period):
    """Cubic reference scan: (exponent, period, position) of the highest power
    with period in [min_period, max_period]; ties go to the smaller period,
    then the earlier position.
    """
    n = len(text)
    candidates = []
    for period in range(min_period, max_period + 1):
        for start in range(n - period):
            run = 0
            while start + period + run < n and text[start + run] == text[start + period + run]:
                run += 1
            candidates.append((-Fraction(run + period, period), period, start))
    exponent, period, start = min(candidates)
    return -exponent, period, start


def longest_run_oracle(eq):
    """Length and start of the first longest run of True in `eq`, read off
    the gaps between its mismatches.
    """
    mismatches = np.flatnonzero(~eq)
    if mismatches.size == 0:
        return eq.size, 0
    runs = np.empty(mismatches.size + 1, dtype=np.int64)
    runs[0] = mismatches[0]
    runs[1:-1] = np.diff(mismatches) - 1
    runs[-1] = eq.size - mismatches[-1] - 1
    starts = np.empty(mismatches.size + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = mismatches + 1
    k = int(np.argmax(runs))  # first maximum: earliest position
    return int(runs[k]), int(starts[k])


def unpruned_max_power(letters, min_period, max_period, progress):
    """The period scan without pruning: the longest run of every period is
    located in full. Returns (exponent, period, position).
    """
    _, arr = np.unique(letters, return_inverse=True)
    best_exp, best_period, best_pos = Fraction(0), min_period, 0
    total = max_period - min_period + 1
    step = max(1, total // 20)
    for i, p in enumerate(range(min_period, max_period + 1)):
        if i % step == 0:
            progress(i, total)
        run, pos = longest_run_oracle(arr[p:] == arr[:-p])
        exponent = Fraction(run + p, p)
        if exponent > best_exp:
            best_exp, best_period, best_pos = exponent, p, pos
    progress(total, total)
    return best_exp, best_period, best_pos


def test_occurrences_against_naive_scan(fib_text):
    for factor in ("a", "b", "aba", "abaab"):
        naive = tuple(
            i for i in range(len(fib_text)) if fib_text.startswith(factor, i)
        )
        got = occurrences(Word.from_text(factor), fib_text)
        assert got.positions == naive
        assert got.horizon == len(fib_text)


def test_occurrences_requires_horizon_for_generators():
    with pytest.raises(ValueError):
        occurrences(Word.from_text("a"), fibonacci_sequence())


def test_return_words_to_aba(fib_snapshot):
    rws = return_words(Word.from_text("aba"), fib_snapshot)
    assert [w.to_text() for w in rws.returns] == ["aba", "ab"]
    assert rws.complete


def test_return_words_need_two_occurrences(fib_snapshot):
    with pytest.raises(ValueError):
        return_words(Word.from_text("bb"), fib_snapshot)


def brute_force_returns(letters, factor) -> tuple[Word, ...]:
    """Distinct gaps between consecutive occurrences, by first appearance."""
    k = len(factor)
    starts = [i for i in range(len(letters) - k + 1) if tuple(letters[i:i + k]) == tuple(factor)]
    gaps = [tuple(letters[i:j]) for i, j in zip(starts, starts[1:])]
    return tuple(Word(gap) for gap in dict.fromkeys(gaps))


@st.composite
def small_words(draw):
    """0 to 40 letters over 1-3 letters or coloured tokens, either random
    or periodic with a few letters changed, often the first or the last."""
    alphabet = draw(st.sampled_from([["a"], ["a", "b"], ["a", "b", "c"],
                                     ["1", "1'", "2", "2'"]]))
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    root = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=6))
    letters = (root * n)[:n]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        where = draw(st.sampled_from([0, n - 1, draw(st.integers(0, n - 1))]))
        letters[where] = draw(st.sampled_from(alphabet))
    return letters


@given(letters=small_words(), start=st.integers(0, 39), length=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_return_words_match_brute_force_in_order(letters, start, length):
    factor = Word(letters[start:start + length]) or Word(["a"])
    want = brute_force_returns(letters, factor)
    if not want:
        with pytest.raises(ValueError, match="need at least 2"):
            return_words(factor, letters)
    else:
        assert return_words(factor, letters).returns == want


def test_return_words_match_brute_force_on_coloured_bispecials():
    letters = colouring(3).letters(3000)
    for factor in bispecial_factors(letters, None, 40)[1:]:
        assert return_words(factor, letters).returns == brute_force_returns(letters, factor)


def test_return_words_error_cuts_a_long_factor():
    factor = fibonacci_bispecial(9).word  # 142 letters
    with pytest.raises(ValueError) as excinfo:
        return_words(factor, fibonacci_sequence(), 200)
    message = str(excinfo.value)
    assert message.startswith(f"factor of length 142 starting {factor[:30].to_text()!r} occurs 1 ")
    assert len(message) < 150


@st.composite
def span_cases(draw):
    """A word, binary, coloured or longer than 256 letters; a factor of it
    1-4 letters long at a drawn position; and the form it is queried in."""
    shape = draw(st.sampled_from(["binary", "coloured", "long"]))
    if shape == "binary":
        letters = draw(st.lists(st.sampled_from("ab"), min_size=2, max_size=60))
    elif shape == "coloured":
        letters = colouring(draw(st.integers(1, 4))).letters(draw(st.integers(2, 120)))
    else:
        letters = draw(st.sampled_from([fibonacci_sequence(), colouring(3)])).letters(
            draw(st.integers(257, 700)))
        for _ in range(draw(st.integers(0, 2))):
            letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from(["a", "1'"]))
    start = draw(st.integers(0, len(letters) - 1))
    factor = Word(letters[start:start + draw(st.integers(1, 4))])
    return letters, factor, draw(st.sampled_from(["list", "generator", "text"]))


def _assert_span_is_its_word(w, v):
    """The return word `w` behaves as `v`, the Word that owns its letters."""
    assert isinstance(w, Word) and type(v) is Word
    assert w == v and v == w and not w != v and hash(w) == hash(v)
    assert len(w) == len(v) and bool(w) == bool(v)
    assert list(iter(w)) == list(v) and w.letters() == v.letters()
    assert w.to_text() == v.to_text() and repr(w) == repr(v)
    assert w.parikh() == v.parikh()
    for letter in {*v, "a", "1'", "z"}:
        assert w.count(letter) == v.count(letter)
    for k in (0, 1, len(v) // 2, len(v), len(v) + 1):
        assert w.startswith(v[:k]) and v.startswith(w[:k])
    assert w.startswith(Word(["z"])) is v.startswith(Word(["z"]))
    assert w + v == v + v == v + w and w + w == v + v
    assert w * 3 == v * 3 and 2 * w == 2 * v and w * 0 == Word()
    n = len(v)
    for item in (slice(None), slice(1, None), slice(None, -1), slice(-3, None),
                 slice(None, None, -1), slice(1, n, 2), slice(n, None), slice(-n - 5, n + 5)):
        piece = w[item]
        assert type(piece) is Word and piece == v[item], item
    for i in range(-n, n):
        assert w[i] == v[i], i
    for i in (-n - 1, n, n + 5):
        with pytest.raises(IndexError):
            w[i]
    assert cli._dumps({"word": w, "pair": [w, v]}) == cli._dumps({"word": v, "pair": [v, v]})
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(twin) is Word and twin == v
    # a pickle holds the word's letters, not the snapshot it was cut from
    assert pickle.dumps(w) == pickle.dumps(Word(w.letters()))


@pytest.mark.oracle
@given(case=span_cases())
@example(case=(fibonacci_sequence().letters(300), Word.from_text("aba"), "list"))
@example(case=(colouring(4).letters(1000), Word.from_text("1 1'"), "generator"))
@example(case=(list("ab" * 200), Word.from_text("ab"), "text"))
@settings(max_examples=150, deadline=None)
def test_return_words_are_their_letters_as_words(case):
    letters, factor, form = case
    want = brute_force_returns(letters, factor)
    if len(want) == 0:
        return  # the factor occurs once; test_return_words_need_two_occurrences covers it
    source = {"list": lambda: list(letters),
              "generator": lambda: PeriodicGenerator(Word(letters)),
              "text": lambda: Text(letters)}[form]()
    got = return_words(factor, source, len(letters) if form == "generator" else None).returns
    assert len(got) == len(want)
    for w, v in zip(got, want):
        _assert_span_is_its_word(w, v)
    if form == "list":  # a return word reads the snapshot's own tuple, never the list
        source[:] = ["z"] * len(source)
        assert got == want and [w.to_text() for w in got] == [v.to_text() for v in want]


def test_return_words_hold_no_copy_of_their_letters():
    # the coloured bispecials of a factor-census window: 2,032 owned return words
    # held about 26 MB; spans of the held snapshot hold their own few bytes
    letters = colouring(4).letters(20000)
    factors = [f for f in bispecial_factors(letters, None, 120) if sufficiently_coloured(f, 8)]
    assert len(factors) == 192
    for factor in factors:  # builds every doubling level the queries need
        return_words(factor, letters)
    gc.collect()
    tracemalloc.start()
    try:
        held = [return_words(factor, letters) for factor in factors]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(r.returns) for r in held) == 2032
    assert size < 2 * 10**6, size


def _extension_sets(text: str, pattern: str) -> tuple[set[str], set[str]]:
    """Left/right extension letters of pattern; stops early once both are >= 2."""
    lefts: set[str] = set()
    rights: set[str] = set()
    n = len(text)
    plen = len(pattern)
    pos = text.find(pattern)
    while pos != -1:
        if pos > 0:
            lefts.add(text[pos - 1])
        end = pos + plen
        if end < n:
            rights.add(text[end])
        if len(lefts) >= 2 and len(rights) >= 2:
            break
        pos = text.find(pattern, pos + 1)
    return lefts, rights


def frontier_bispecials(letters, max_len: int) -> list[Word]:
    """Reference enumeration, length by length: a right-special factor's
    suffixes are right special too, so the candidates of length L+1 are
    one-letter left extensions of the right-special frontier at length L.
    """
    alphabet = list(dict.fromkeys(letters))
    string = "".join(chr(alphabet.index(tok)) for tok in letters)
    codes = [chr(k) for k in range(len(alphabet))]
    found: list[Word] = []
    frontier: list[str] = [""] if len(alphabet) >= 2 else []
    if frontier and len(string) >= 2:
        found.append(Word())
    for _ in range(max_len):
        nxt: list[str] = []
        for stem in frontier:
            for c in codes:
                cand = c + stem
                lefts, rights = _extension_sets(string, cand)
                if len(rights) >= 2:
                    nxt.append(cand)
                    if len(lefts) >= 2:
                        found.append(Word(alphabet[ord(ch)] for ch in cand))
        frontier = nxt
        if not frontier:
            break
    found.sort(key=lambda w: (len(w), w.to_text()))
    return found


def brute_force_bispecials(letters, max_len: int) -> list[Word]:
    """Every factor of length <= max_len with its left and right extension sets."""
    n = len(letters)
    found = []
    for length in range(min(max_len, n) + 1):
        extensions: dict[tuple[str, ...], tuple[set[str], set[str]]] = {}
        for i in range(n - length + 1):
            lefts, rights = extensions.setdefault(tuple(letters[i:i + length]), (set(), set()))
            if i > 0:
                lefts.add(letters[i - 1])
            if i + length < n:
                rights.add(letters[i + length])
        found += [Word(f) for f, (lefts, rights) in extensions.items()
                  if len(lefts) >= 2 and len(rights) >= 2]
    return sorted(found, key=lambda w: (len(w), w.to_text()))


@st.composite
def bispecial_cases(draw):
    """A small word and a max_len of 0, below its length or above it."""
    letters = draw(small_words())
    n = len(letters)
    max_len = draw(st.one_of(st.just(0), st.integers(0, max(n - 1, 0)), st.integers(n, n + 5)))
    return letters, max_len


@pytest.mark.oracle
@given(case=bispecial_cases())
@example(case=([], 3))
@example(case=(["a"], 1))
@example(case=(["a", "b"], 0))
@example(case=(list("aaaa"), 5))
@example(case=(list("abaab"), 1))  # "a" is followed by b, a and the end
@settings(max_examples=400, deadline=None)
def test_bispecial_factors_match_both_oracles(case):
    letters, max_len = case
    got = bispecial_factors(letters, None, max_len)
    assert got == frontier_bispecials(letters, max_len)
    assert got == brute_force_bispecials(letters, max_len)
    assert bispecial_factors(letters + ["b", "c"], len(letters), max_len) == got


@pytest.mark.parametrize("delta", [1, 2, 3, 4])
def test_bispecial_factors_match_frontier_on_colourings(delta):
    letters = colouring(delta).letters(5000)
    assert bispecial_factors(letters, None, 100) == frontier_bispecials(letters, 100)


@pytest.mark.parametrize("source", [colouring(2).letters(300), list("abaab")])
def test_bispecial_max_len_past_int32(source):
    # no factor is longer than the snapshot, so a larger max_len finds the same ones
    want = bispecial_factors(source, None, len(source))
    assert bispecial_factors(source, None, 2**31 - 1) == want
    assert bispecial_factors(source, None, 2**40) == want


def test_bispecial_scan_matches_closed_form(fib_snapshot):
    scanned = bispecial_factors(fib_snapshot, max_len=30)
    assert [len(w) for w in scanned] == [0, 1, 3, 6, 11, 19]
    for level, word in enumerate(scanned):
        assert word == fibonacci_bispecial(level).word


def test_fibonacci_bispecial_recurrences():
    prev = fibonacci_bispecial(0)
    assert prev.word == Word()
    for n in range(1, 26):
        cur = fibonacci_bispecial(n)
        assert len(cur.word) == fib(n + 3) - 2
        assert len(cur.prefix_return) == fib(n + 2)
        assert len(cur.other_return) == fib(n + 1)
        assert cur.word == phi(prev.word) + Word.from_text("a")
        assert cur.prefix_return == phi(prev.prefix_return)
        assert cur.other_return == phi(prev.other_return)
        # bispecial factors of the fixed point are palindromes
        letters = cur.word.letters()
        assert letters == letters[::-1]
        prev = cur
    for n in (-1, 33):
        with pytest.raises(ValueError):
            fibonacci_bispecial(n)


def test_bispecial_lengths_map():
    lengths = fibonacci_bispecial_lengths(250)
    assert lengths[1] == 1
    assert lengths[6] == 3
    assert lengths[231] == 10
    assert 232 not in lengths
    assert all(length == fib(level + 3) - 2 for length, level in lengths.items())


def test_is_balanced_fibonacci(fib_snapshot):
    report = is_balanced(fib_snapshot, max_window=200)
    assert report.balanced
    assert report.witness is None


def test_is_balanced_witness():
    report = is_balanced("aabb")
    assert not report.balanced
    w = report.witness
    assert w.window == 2
    assert w.letter == "a"
    assert (w.high_position, w.high_count) == (0, 2)
    assert (w.low_position, w.low_count) == (2, 0)


def test_is_balanced_witness_letter_in_sorted_order():
    # "b" appears first, but the witness names the letters in sorted order
    report = is_balanced("bbaa")
    assert report.witness.window == 2
    assert report.witness.letter == "a"


@pytest.mark.parametrize("window", [0, -1])
def test_is_balanced_rejects_empty_window(window):
    with pytest.raises(ValueError, match="max_window"):
        is_balanced("abaab", max_window=window)


def test_is_balanced_colouring_small():
    for delta in (2, 3):
        assert is_balanced(colouring(delta), 3000, max_window=80).balanced


def balance_oracle(letters, max_window):
    """is_balanced on int64 prefix sums, for a nonempty list of letters."""
    n = len(letters)
    max_window = min(max_window, n)
    arr = np.array(letters)
    prefix_sums = [(tok, np.concatenate(([0], np.cumsum(arr == tok, dtype=np.int64))))
                   for tok in sorted(set(letters))]
    for window in range(1, max_window + 1):
        for tok, sums in prefix_sums:
            counts = sums[window:] - sums[:-window]
            low, high = int(counts.min()), int(counts.max())
            if high - low > 1:
                witness = BalanceWitness(window, tok, int(np.argmin(counts)), low,
                                         int(np.argmax(counts)), high)
                return BalanceReport(False, witness, n, max_window)
    return BalanceReport(True, None, n, max_window)


@st.composite
def balance_cases(draw):
    """A colouring prefix, possibly with one letter changed far in (an
    imbalance that only long windows see), a run of a with a few b (window
    counts above 255), or a random word over 1-4 letters; and a window
    bound, often next to the uint8/uint16 boundary.
    """
    shape = draw(st.sampled_from(["colouring", "sparse", "random"]))
    if shape == "colouring":
        letters = colouring(draw(st.integers(1, 4))).letters(draw(st.integers(1, 700)))
        if draw(st.booleans()):
            letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from(["1", "1'"]))
    elif shape == "sparse":
        letters = ["a"] * draw(st.integers(1, 700))
        for _ in range(draw(st.integers(1, 3))):
            letters[draw(st.integers(0, len(letters) - 1))] = "b"
    else:
        letters = draw(st.lists(st.sampled_from("abcd"[:draw(st.integers(1, 4))]),
                                min_size=1, max_size=300))
    max_window = draw(st.one_of(st.integers(1, 300), st.sampled_from([255, 256, 257])))
    return letters, max_window


@pytest.mark.oracle
@given(case=balance_cases())
@example(case=(fibonacci_sequence().letters(600), 256))
# a b^L a b^(L+2) first spreads by 2 at window L + 2: here 255, then 256
@example(case=(["a"] + ["b"] * 253 + ["a"] + ["b"] * 255, 255))
@example(case=(["a"] + ["b"] * 254 + ["a"] + ["b"] * 256, 255))
@example(case=(["a"] + ["b"] * 254 + ["a"] + ["b"] * 256, 256))
# the same with the letters swapped: the witness counts 254 and 256 letters
@example(case=(["b"] + ["a"] * 254 + ["b"] + ["a"] * 256, 256))
@example(case=(["a"] * 300, 300))
@settings(max_examples=200, deadline=None)
def test_is_balanced_matches_int64_oracle(case):
    letters, max_window = case
    assert is_balanced(letters, max_window=max_window) == balance_oracle(letters, max_window)


# (letters, max_window, None when balanced, else the witness's (window, letter, low, high))
BALANCE_EXAMPLES = {
    "unary": (["a"] * 50, 50, None),
    "letters-once": (list("abcdefg"), 7, None),
    "one-b-in-a-run": (["a"] * 10 + ["b"] + ["a"] * 10, 21, None),
    "max-window-n": (fibonacci_sequence().letters(233), 233, None),
    "max-window-past-n": (list("abaab"), 10, None),
    # a b^3 a b^5: two a in 5 letters at 0, none in the b^5 from 5
    "fails-at-max-window": (list("abbbabbbbb"), 5, (5, "a", 5, 0)),
    "fails-past-max-window": (list("abbbabbbbb"), 4, None),
    # only the window at 0 holds no a, and only the window at n - 3 does here
    "fails-at-the-start": (list("bbbabab"), 7, (3, "a", 0, 3)),
    "fails-at-the-end": (list("bababbb"), 7, (3, "a", 4, 1)),
    # the first-appearing letter fails at the same window; the sorted token names it
    "bbaa": (list("bbaa"), 4, (2, "a", 0, 2)),
    "ccbbaa": (list("ccbbaa"), 6, (2, "a", 0, 4)),
    # a letter above half the snapshot is walked through the other letters' positions
    "dominant-letter": (["a"] * 10**5 + ["b"], 10**4, None),
    "dominant-letter-fails": (["a"] * 20 + ["b", "b"] + ["a"] * 20, 42, (2, "a", 20, 0)),
}


@pytest.mark.oracle
@pytest.mark.parametrize("name", BALANCE_EXAMPLES)
def test_is_balanced_examples_match_int64_oracle(name):
    letters, max_window, expected = BALANCE_EXAMPLES[name]
    report = is_balanced(letters, max_window=max_window)
    assert report == balance_oracle(letters, max_window)
    w = report.witness
    assert (w and (w.window, w.letter, w.low_position, w.high_position)) == expected


def test_derived_sequence_to_letter(fib_text):
    derived = derived_sequence(Word.from_text("a"), fib_text)
    renamed = "".join("1" if c == "a" else "2" for c in fib_text)
    assert derived.to_text() == renamed[: len(derived)]
    assert len(derived) > 0


@pytest.mark.parametrize("level", [1, 4, 8])
def test_returns_no_longer_than_the_factor_build_only_its_level(level):
    # both returns of a Fibonacci bispecial are shorter than it, so the walk
    # names them by length and reads no level past the occurrence search's
    fb = fibonacci_bispecial(level)
    text = Text(fibonacci_sequence(), 40 * fib(level + 3))
    walk = derived_sequence(fb.word, text)
    assert set(walk.to_text()) == {"1", "2"}
    assert len(text._levels) == len(fb.word).bit_length()


def test_derived_sequence_requires_prefix(fib_snapshot):
    with pytest.raises(ValueError):
        derived_sequence(Word.from_text("b"), fib_snapshot)


def test_parikh_membership_small_cases():
    # non-empty factors of the binary fixed point: "aa" yes, "aaa"/"bb" never
    assert parikh_is_fib_factor(1, 0)
    assert parikh_is_fib_factor(0, 1)
    assert parikh_is_fib_factor(2, 0)
    assert not parikh_is_fib_factor(3, 0)
    assert parikh_is_fib_factor(1, 1)
    assert not parikh_is_fib_factor(0, 2)
    assert parikh_is_fib_factor(fib(10), fib(9))
    assert not parikh_is_fib_factor(2 * fib(10), 2 * fib(9) + 5)


def golden_parikh_oracle(k: int, ell: int) -> bool:
    """Oracle: |k - tau*ell| < tau^2 in GoldenNumber arithmetic, each sign
    taken by the interval bracket of sqrt(5)."""
    g = GoldenNumber(k, -ell)
    return all(_interval_sign(x.a + x.b / 2, x.b / 2) > 0
               for x in (tau_pow(2) - g, tau_pow(2) + g))


@st.composite
def parikh_pairs(draw):
    """(k, ell) up to 10^6, mostly within three of the strip's centre ell*tau."""
    ell = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return draw(st.integers(0, 10**6)), ell
    centre = (ell + math.isqrt(5 * ell * ell)) // 2  # floor(ell*tau)
    return max(centre + draw(st.integers(-3, 3)), 0), ell


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(parikh_pairs())
@example((fib(30), fib(29)))
@example((fib(30) + 1, fib(29)))
@example((fib(29), fib(30)))
@example((10**6, 618034))
@example((0, 0))
def test_parikh_strip_matches_golden_oracle(pair):
    assert parikh_is_fib_factor(*pair) == golden_parikh_oracle(*pair)


def test_parikh_strip_edges_match_golden_oracle():
    # every k within three of floor(ell*tau), at small and large ell
    for ell in [*range(200), *range(10**6 - 50, 10**6 + 1)]:
        centre = (ell + math.isqrt(5 * ell * ell)) // 2
        for k in range(max(centre - 3, 0), centre + 4):
            assert parikh_is_fib_factor(k, ell) == golden_parikh_oracle(k, ell), (k, ell)


def test_max_power_kabelka():
    record = max_fractional_power("kabelka", min_period=1, max_period=6)
    assert record.root.to_text() == "kabel"
    assert record.exponent == Fraction(7, 5)
    assert record.position == 0
    assert record.length == 7


def test_max_power_fibonacci_prefix():
    record = max_fractional_power(fibonacci_sequence(), 1000, 1, 999)
    assert record.exponent == Fraction(173, 48)
    assert record.period == 144
    assert record.position == 233


def test_max_power_validation():
    with pytest.raises(ValueError):
        max_fractional_power("abc", min_period=0)
    with pytest.raises(ValueError):
        max_fractional_power("abc", min_period=2, max_period=1)
    with pytest.raises(ValueError):
        max_fractional_power("abc", min_period=1, max_period=3)


@given(text=st.text(alphabet="ab", min_size=2, max_size=25))
@settings(max_examples=300)
def test_max_power_matches_brute_force(text):
    record = max_fractional_power(text, min_period=1, max_period=len(text) - 1)
    assert record.exponent == brute_force_max_exponent(text)
    # the reported witness really has the reported period
    chunk = text[record.position : record.position + record.length]
    assert all(
        chunk[i] == chunk[i - record.period]
        for i in range(record.period, len(chunk))
    )


@st.composite
def masks(draw):
    """A boolean mask of 1-400 entries: coin flips at a random density, or
    alternating runs of random lengths.
    """
    if draw(st.booleans()):
        density = draw(st.floats(0, 1))
        flips = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=400))
        return np.array([u < density for u in flips])
    first = draw(st.booleans())
    lengths = draw(st.lists(st.integers(1, 80), min_size=1, max_size=10))
    return np.array([(k % 2 == 0) == first for k, size in enumerate(lengths)
                     for _ in range(size)])


@pytest.mark.oracle
@given(eq=masks())
@example(eq=np.ones(1, bool))
@example(eq=np.zeros(1, bool))
@example(eq=np.ones(300, bool))
@example(eq=np.zeros(300, bool))
@example(eq=np.array([True] * 5 + [False] + [True] * 5))
@settings(max_examples=400, deadline=None)
def test_longest_run_matches_flatnonzero_oracle(eq):
    assert _longest_run(eq) == longest_run_oracle(eq)


@st.composite
def scan_windows(draw):
    """A 2-40 letter text over 2-4 letters, either random or a periodic text
    with a few letters changed (long runs and ties), and a period window.
    """
    alphabet = draw(st.sampled_from(["ab", "abc", "abcd"]))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        letters = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    else:
        root = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
        letters = (root * n)[:n]
        for _ in range(draw(st.integers(0, 3))):
            letters[draw(st.integers(0, n - 1))] = draw(st.sampled_from(alphabet))
    lo = draw(st.integers(1, n - 1))
    hi = draw(st.integers(lo, n - 1))
    return "".join(letters), lo, hi


@given(window=scan_windows())
@settings(max_examples=400, deadline=None)
def test_pruned_scan_matches_brute_force_witness(window):
    text, lo, hi = window
    record = max_fractional_power(text, min_period=lo, max_period=hi)
    got = (record.exponent, record.period, record.position)
    assert got == brute_force_power_witness(text, lo, hi)


def test_pruned_scan_matches_unpruned_scan():
    # the best exponent is set early, so most of these periods are pruned
    letters = colouring(3).letters(5000)
    want_calls, got_calls = [], []
    want = unpruned_max_power(letters, 50, 400, lambda *call: want_calls.append(call))
    record = max_fractional_power(letters, None, 50, 400,
                                  progress=lambda *call: got_calls.append(call))
    assert (record.exponent, record.period, record.position) == want
    assert got_calls == want_calls


def test_block_pretest_leaves_few_full_masks():
    # the input above: without the block pre-test the scan runs `_has_run` on
    # all 351 full agreement masks; with it, most periods end on n/s-entry masks
    letters, lo, hi = colouring(3).letters(5000), 50, 400
    with mock.patch.object(analysis, "_has_run", wraps=analysis._has_run) as spy:
        max_fractional_power(letters, None, lo, hi)
    full = [call for call in spy.call_args_list if call.args[0].size >= len(letters) - hi]
    assert 1 <= len(full) <= 10


def tagged_fibonacci(modulus, horizon):
    """Letter i of the Fibonacci word tagged with i % modulus, so at least
    `modulus` letters: shifts that are multiples of the modulus agree where the
    Fibonacci word does, and other shifts nowhere.
    """
    return [f"{c}{i % modulus}" for i, c in enumerate(fibonacci_sequence().letters(horizon))]


def planted_runs(size):
    """`size` distinct letters, then 800 more whose copies of the first letters
    plant runs of 100, 200 and 50 agreements at shifts size, size + 3 and size + 6.
    """
    head = [f"x{i}" for i in range(size)]
    tail = [f"y{j}" for j in range(800)]
    tail[0:100], tail[303:503], tail[600:650] = head[0:100], head[300:500], head[594:644]
    return head + tail


@pytest.mark.parametrize(("letters", "window", "dtype"), [
    (tagged_fibonacci(150, 5000), (100, 1000), np.uint16),
    (planted_runs(65537), (65532, 65550), np.uint32),
], ids=["uint16", "uint32"])
def test_scan_over_wide_alphabet_matches_unpruned_scan(letters, window, dtype):
    assert Text(letters).codes.dtype == dtype
    record = max_fractional_power(letters, None, *window)
    want = unpruned_max_power(letters, *window, lambda *call: None)
    assert (record.exponent, record.period, record.position) == want


@st.composite
def block_cases(draw):
    """Codes of dtype uint8, uint16 or uint32 over 1-4 values spread across the
    dtype's range (so every byte of a block matters), random or periodic with a
    few codes changed, and a shift p and run length need with
    1 <= need <= len(codes) - p.
    """
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    top = int(np.iinfo(dtype).max)
    values = draw(st.lists(st.integers(0, top), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(2, 200))
    if draw(st.booleans()):
        codes = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    else:
        root = draw(st.lists(st.sampled_from(values), min_size=1, max_size=12))
        codes = (root * n)[:n]
        for _ in range(draw(st.integers(0, 4))):
            codes[draw(st.integers(0, n - 1))] = draw(st.sampled_from(values))
    p = draw(st.integers(1, n - 1))
    need = draw(st.integers(1, n - p))
    return np.array(codes, dtype), p, need


def _block_case(dtype, codes, p, need):
    return np.array(codes, dtype), p, need


@pytest.mark.oracle
@given(case=block_cases())
# p not a multiple of s, runs starting off a block boundary
@example(case=_block_case(np.uint8, [0, 1, 2, 3, 9, 9, 1, 2, 3, 8], 5, 3))
@example(case=_block_case(np.uint16, [7, 300, 300, 300, 300, 300, 300, 300, 5], 3, 5))
@example(case=_block_case(np.uint8, [5] * 9 + [6] + [5] * 9, 5, 7))
# need = 2s - 1 exactly, for s = 2, 4 and 8
@example(case=_block_case(np.uint32, [1, 2, 3, 4, 1, 2, 3, 9, 1, 2], 4, 3))
@example(case=_block_case(np.uint16, [4, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 0], 7, 7))
@example(case=_block_case(np.uint8, list(range(11)) * 3, 11, 15))
@example(case=_block_case(np.uint8, list(range(11)) * 3, 11, 16))
@settings(max_examples=400, deadline=None)
def test_block_pretest_rejects_only_periods_without_a_run(case):
    codes, p, need = case
    codes.flags.writeable = False  # as Text.codes
    eq = codes[p:] == codes[:-p]
    has_run = longest_run_oracle(eq)[0] >= need
    assert analysis._has_run(eq, need) == has_run
    assert analysis._blocks_may_run(codes, p, need) or not has_run


class CountingMask(np.ndarray):
    """A bool mask that counts the ANDs taken on it and on its slices."""

    ands = 0

    def __and__(self, other):
        CountingMask.ands += 1
        return super().__and__(other)


@pytest.mark.parametrize("need", [2, 7, 64])
def test_has_run_takes_no_step_on_too_few_trues(need):
    # True on every other entry, so no run of 2: need - 1 Trues end before the
    # AND ladder, need Trues climb it to find no run
    for trues in (need - 1, need):
        eq = np.zeros(2 * need + 1, bool)
        eq[: 2 * trues : 2] = True
        CountingMask.ands = 0
        assert not analysis._has_run(eq.view(CountingMask), need)
        assert (CountingMask.ands == 0) == (trues < need)


def test_sufficiently_coloured():
    assert not sufficiently_coloured(colouring(3).prefix(8), 4)
    assert sufficiently_coloured(colouring(3).prefix(19), 4)
    assert sufficiently_coloured(Word.from_text("abab"), 2)


def outcome(call):
    """The result of `call`, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return ("ValueError", str(exc))


QUERIES = (occurrences, return_words, derived_sequence)


def analyses(source, horizon, factor, n):
    return {
        "occurrences": outcome(lambda: occurrences(factor, source, horizon)),
        "returns": outcome(lambda: return_words(factor, source, horizon)),
        "derived": outcome(lambda: derived_sequence(factor, source, horizon)),
        "bispecial": outcome(lambda: bispecial_factors(source, horizon, max_len=6)),
        "balanced": outcome(lambda: is_balanced(source, horizon, max_window=8)),
        "power": outcome(lambda: max_fractional_power(source, horizon, 1, n - 1)),
    }


@given(
    text=st.text(alphabet="abc", min_size=1, max_size=30),
    factor_len=st.integers(1, 3),
    tail=st.text(alphabet="abcd", max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_every_source_form_gives_the_same_results(text, factor_len, tail):
    factor = Word(text[:factor_len])
    n = len(text)
    forms = [
        (text, None),
        (list(text), None),
        (Word(text), None),
        (text + tail, n),
        (PeriodicGenerator(Word(text + tail)), n),
        (Text(text), None),
        (Text(text + tail, n), None),
    ]
    results = [analyses(source, horizon, factor, n) for source, horizon in forms]
    assert all(r == results[0] for r in results[1:])
    got = results[0]
    naive = tuple(i for i in range(n) if text.startswith(factor.to_text(), i))
    assert got["occurrences"].positions == naive
    if n >= 2:
        assert got["power"].exponent == brute_force_max_exponent(text)


def test_text_is_reused_and_refuses_a_horizon():
    text = Text(fibonacci_sequence(), 50)
    assert Text(text) is text
    assert text.alphabet == ("a", "b")
    assert text.encode(Word.from_text("abaab")) == "\x00\x01\x00\x00\x01"
    assert text.encode(Word.from_text("ac")) is None
    with pytest.raises(ValueError):
        Text(text, 10)
    with pytest.raises(ValueError):
        occurrences(Word.from_text("a"), text, 50)


@pytest.mark.parametrize(
    "source", ["abaababa", list("abaababa"), Word.from_text("abaababa"), fibonacci_sequence()],
    ids=["str", "list", "word", "generator"],
)
def test_negative_horizon_is_refused_for_every_source(source):
    with pytest.raises(ValueError, match="prefix length must be >= 0, got -2"):
        Text(source, -2)
    factor = Word.from_text("a")
    for query in QUERIES:
        if not isinstance(source, SequenceGenerator):
            # the reused snapshot now holds exactly the letters a cut at -1 would give
            query(factor, source, len(source) - 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="prefix length must be >= 0, got -1"):
                query(factor, source, -1)
    assert len(Text(source, 0)) == 0


def query_outcomes(factor, source, horizon=None):
    return [outcome(lambda q=q: q(factor, source, horizon)) for q in QUERIES]


def clear_query_memo(monkeypatch):
    """Empty the query memo for one test; both of its globals are restored together."""
    monkeypatch.setattr(analysis, "_query_text", None)
    monkeypatch.setattr(analysis, "_query_list", None)


@pytest.mark.oracle
@given(
    letters=st.lists(st.sampled_from("abc"), max_size=60),
    # a length takes the factor from the letters' prefix, so derived_sequence has one
    factor=st.integers(1, 4) | st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
    horizons=st.tuples(st.integers(0, 70), st.integers(0, 70)),
    edit=st.tuples(st.integers(0, 59), st.sampled_from("abcd")),
)
# a factor whose letter no snapshot holds
@example(letters=list("abaababaab"), factor=["d"], horizons=(4, 10), edit=(3, "b"))
# an edit that writes the letter already there, and two equal horizons
@example(letters=list("abaababaab"), factor=3, horizons=(6, 6), edit=(2, "a"))
# an edit that adds the factor's only letter
@example(letters=list("ababab"), factor=["c"], horizons=(0, 3), edit=(5, "c"))
@settings(max_examples=200, deadline=None)
def test_query_snapshot_reuse_matches_a_fresh_text(letters, factor, horizons, edit):
    if isinstance(factor, int):
        factor = letters[:factor] or ["a"]
    factor = Word(factor)

    def check(source, horizon=None):
        got = query_outcomes(factor, source, horizon)
        assert got == query_outcomes(factor, Text(list(source), horizon))
        assert analysis._query_text.letters == tuple(source)[:horizon]

    check(letters)
    check(letters)  # the same object again
    check(list(letters))  # an equal list that is another object
    for form in (tuple, "".join, Word):
        check(form(letters))
    for horizon in horizons:
        check(letters, horizon)
    where, letter = edit
    if letters:
        letters[where % len(letters)] = letter
    else:
        letters.append(letter)
    check(letters)  # mutated in place since the last call


def test_scans_neither_read_nor_replace_the_query_snapshot(monkeypatch):
    built = []

    class CountedRanks(analysis._Ranks):
        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr(analysis, "_Ranks", CountedRanks)
    clear_query_memo(monkeypatch)
    snapshot = fibonacci_sequence().letters(3000)
    factor = Word.from_text("abaab")
    first = return_words(factor, snapshot)
    held = analysis._query_text
    assert held.letters == tuple(snapshot) and len(built) == 1
    scans = (max_fractional_power, is_balanced, bispecial_factors)
    # each scan encodes its own Text, even of the letters the queries hold
    for source in (list(snapshot), colouring(2).letters(500), list("abaabba")):
        for scan in scans:
            scan(source)
    assert len(built) == 1 + 3 * len(scans)
    assert analysis._query_text is held
    assert return_words(factor, snapshot) == first
    assert analysis._query_text is held and len(built) == 1 + 3 * len(scans)


def test_query_memo_keeps_every_level_it_builds(monkeypatch):
    rounds = []
    double = analysis._double
    monkeypatch.setattr(analysis, "_double", lambda *args: rounds.append(1) or double(*args))
    clear_query_memo(monkeypatch)
    letters = WIDE * 20
    factor = Word(WIDE[:3])  # gaps of 300 letters read the level-8 names
    full = Text(letters)
    want = [return_words(factor, full), derived_sequence(factor, full), occurrences(factor, full)]
    assert len(full._levels) == 9  # a prebuilt Text keeps every level
    # the first list builds the 8 rounds above level 0, an equal list none
    for source, built in ((letters, 8), (list(letters), 0)):
        rounds.clear()
        assert [return_words(factor, source), derived_sequence(factor, source),
                occurrences(factor, source)] == want
        assert len(rounds) == built
    held = analysis._query_text
    assert held.letters == tuple(letters) and len(held._levels) == 9
    assert all(np.array_equal(mine, fresh) for mine, fresh in zip(held._levels, full._levels))
    # a generator is cut to its horizon and reuses the held Text for the same letters
    fib_factor = Word.from_text("abaab")
    first = return_words(fib_factor, fibonacci_sequence(), 3000)
    held = analysis._query_text
    assert held.letters == tuple(fibonacci_sequence().letters(3000))
    rounds.clear()
    assert return_words(fib_factor, fibonacci_sequence(), 3000) == first
    assert occurrences(fib_factor, fibonacci_sequence(), 3000) == occurrences(fib_factor, held)
    assert analysis._query_text is held and not rounds


def test_an_equal_list_is_recognised_without_a_copy(monkeypatch):
    made = {"Text": 0, "cut": 0, "round": 0}

    class CountedRanks(analysis._Ranks):
        def __init__(self):
            made["Text"] += 1
            super().__init__()

    def counted(name, real):
        def call(*args):
            made[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(analysis, "_Ranks", CountedRanks)
    monkeypatch.setattr(analysis, "_cut", counted("cut", analysis._cut))
    monkeypatch.setattr(analysis, "_double", counted("round", analysis._double))
    clear_query_memo(monkeypatch)
    letters = colouring(3).letters(3000)
    factor = Word(letters[:5])
    want = query_outcomes(factor, letters)
    assert made["Text"] == 1 and made["cut"] >= 1 and made["round"] > 0
    # the same list, an equal copy and the same letters generated again: no
    # Text, no tuple cut from the source and no doubling round
    again = colouring(3).letters(3000)
    # the regenerated list holds the very letter objects of the first
    assert all(x is y for x, y in zip(again, letters))
    for source in (letters, list(letters), again):
        made.update(Text=0, cut=0, round=0)
        assert query_outcomes(factor, source) == want
        assert made == {"Text": 0, "cut": 0, "round": 0}
    # other sources are cut to a tuple, and the held Text still answers them
    made.update(Text=0, cut=0, round=0)
    assert query_outcomes(factor, tuple(letters)) == want
    assert query_outcomes(factor, letters, len(letters)) == want
    assert made == {"Text": 0, "cut": 6, "round": 0}
    # a list changed in place no longer matches the held copy
    letters[100] = "1'" if letters[100] != "1'" else "2'"
    made.update(Text=0)
    assert query_outcomes(factor, letters) == query_outcomes(factor, Text(list(letters)))
    assert made["Text"] == 2 and analysis._query_text.letters == tuple(letters)


def test_query_list_copy_never_outlives_its_text(monkeypatch):
    built = []

    class CountedRanks(analysis._Ranks):
        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr(analysis, "_Ranks", CountedRanks)
    letters = colouring(2).letters(400)
    factor = Word(letters[:4])
    want = query_outcomes(factor, Text(list(letters)))
    # a tuple and a generator over other letters, each holding the factor
    for other, horizon in ((tuple(letters[7:] + letters[:7]), None), (colouring(2), 500)):
        other_want = query_outcomes(factor, Text(other, horizon))
        assert query_outcomes(factor, letters) == want
        built.clear()
        assert query_outcomes(factor, other, horizon) == other_want
        assert len(built) == 1
        # the list again: the copy of it went with the Text it matched
        assert query_outcomes(factor, letters) == want
        assert len(built) == 2 and analysis._query_text.letters == tuple(letters)


def argsort_round(names, width, top):
    """One doubling round as an unstable argsort of the keys names[i] * (top + 1)
    + names[i + width] ranked it before the packed sort."""
    n, span = names.size - 1, top + 1
    key = names[:n].astype(np.int32 if span * span <= np.iinfo(np.int32).max else np.int64)
    key *= span
    key[: n - width] += names[width:n]
    order = np.argsort(key)
    key = key[order]
    fresh = np.ones(n, bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    doubled = np.zeros(n + 1, np.int32)
    doubled[order] = np.cumsum(fresh, dtype=np.int32)
    return doubled


@st.composite
def name_arrays(draw):
    """(names, width): n + 1 int32 names, 1..top on the first n and 0 past the end, and 1 <= width < n."""
    n = draw(st.integers(2, 300))
    top = draw(st.integers(1, n))
    names = np.zeros(n + 1, np.int32)
    names[:n] = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    return names, draw(st.integers(1, n - 1))


@pytest.mark.oracle
@given(case=name_arrays(), big=st.integers(32, 40))
@example(case=(np.array([1, 1, 0], np.int32), 1), big=32)
@example(case=(np.array([2, 1, 2, 1, 2, 0], np.int32), 2), big=40)
@settings(max_examples=200, deadline=None)
def test_packed_round_matches_the_argsort_round(case, big):
    names, width = case
    top = int(names.max())
    want = argsort_round(names, width, top)
    sorts = []
    real = analysis._sort_by_position

    def counted(*args):
        sorts.append(1)
        return real(*args)

    with mock.patch.object(analysis, "_sort_by_position", counted):
        # small keys take the packed sort; a top of 2^big leaves no room for
        # the positions in 63 bits and takes the argsort
        assert np.array_equal(analysis._double(names, width, top), want)
        assert len(sorts) == 1
        assert np.array_equal(analysis._double(names, width, 2**big), want)
        assert len(sorts) == 1


@pytest.mark.oracle
@given(
    letters=st.integers(1, 300).flatmap(
        lambda k: st.lists(st.integers(0, k - 1).map(str), min_size=1, max_size=400)),
    depth=st.integers(1, 450),
)
@example(letters=["0"] * 50, depth=8)
@example(letters=[str(k) for k in range(300)] * 2, depth=301)
@settings(max_examples=200, deadline=None)
def test_suffix_array_matches_a_stable_argsort_and_direct_lcps(letters, depth):
    text = Text(letters)
    n, depth = len(text), min(depth, len(text) + 1)
    order, lcp = analysis._suffix_array(text, depth)
    top = text._names((depth - 1).bit_length())
    assert order.tolist() == np.argsort(top[:n], kind="stable").tolist()
    codes = text.codes.tolist()
    for i in range(1, n):
        a, b, shared = order[i - 1], order[i], 0
        while (shared < depth and max(a, b) + shared < n
               and codes[a + shared] == codes[b + shared]):
            shared += 1
        assert lcp[i] == shared
    assert lcp[0] == 0


def names_oracle(codes, k):
    """Level-k names by brute force: the rank from 1 of each window of 2^k codes
    (shorter at the end) among the distinct ones in tuple order, then 0."""
    windows = [tuple(codes[i : i + (1 << k)]) for i in range(len(codes))]
    rank = {w: r for r, w in enumerate(sorted(set(windows)), 1)}
    return [rank[w] for w in windows] + [0]


@pytest.mark.oracle
@given(letters=st.integers(1, 300).flatmap(
    lambda k: st.lists(st.integers(0, k - 1).map(str), max_size=200)))
@example(letters=[])
@example(letters=["0"] * 33)
@example(letters=list("abaababaabaababaababa"))
@settings(max_examples=200, deadline=None)
def test_levels_of_a_fresh_text_match_brute_force(letters):
    text = Text(letters)
    codes = text.codes.tolist()
    for k in range(max(len(letters), 1).bit_length() + 2):
        assert text._names(k).tolist() == names_oracle(codes, k), k


def text_oracle(letters):
    """(alphabet, codes, string) ranked with dict.fromkeys and np.fromiter."""
    alphabet = tuple(dict.fromkeys(letters))
    rank = {tok: k for k, tok in enumerate(alphabet)}
    dtype = np.min_scalar_type(max(len(alphabet) - 1, 0))
    codes = np.fromiter(map(rank.__getitem__, letters), dtype, len(letters))
    string = codes.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
    return alphabet, codes, string


@pytest.mark.oracle
@given(letters=st.integers(1, 400).flatmap(
    lambda k: st.lists(st.integers(0, k - 1).map(str), max_size=1500)))
@example(letters=[])
@example(letters=[str(k) for k in range(300)] * 2)
# 256 letters are the most that are coded as latin-1 bytes, and 257 the fewest that are not
@example(letters=[str(k) for k in range(256)] * 2 + ["255", "0"])
@example(letters=[str(k) for k in range(257)] * 2 + ["256", "0"])
# ranks past 0xD800 are lone surrogates in the str
@example(letters=[str(k) for k in range(70000)])
@settings(max_examples=150, deadline=None)
def test_text_ranks_match_oracle(letters):
    alphabet, codes, string = text_oracle(letters)
    text = Text(letters)
    assert text.alphabet == alphabet
    assert text.codes.dtype == codes.dtype
    assert np.array_equal(text.codes, codes)
    assert text.string == string
    with pytest.raises(ValueError, match="read-only"):
        text.codes[...] = 0


def test_more_than_256_distinct_letters():
    period = [f"x{i}" for i in range(300)]
    letters = period * 2 + period[:10]
    text = Text(letters)
    assert len(text.alphabet) == 300 and text.codes.dtype.itemsize == 2
    found = occurrences(Word(["x256", "x257"]), letters)
    assert found.positions == (256, 556)
    record = max_fractional_power(letters, min_period=2)
    assert (record.exponent, record.period, record.position) == (Fraction(610, 300), 300, 0)


@pytest.mark.parametrize("width", [256, 65536])
@pytest.mark.parametrize("tail", [[-2], [-2, -1, 0, 1, -2, -1], [-1, 0, -2, -1, 0]])
def test_codes_at_the_top_of_their_dtype(width, tail):
    # the last letter's code is the largest its dtype holds, and its level-0 name
    # one more, so no window of it may share the name 0 of the past-the-end slot
    alphabet = [f"x{i}" for i in range(width)]
    letters = alphabet + [alphabet[k] for k in tail]
    text = Text(letters)
    assert text.codes.dtype.itemsize == (1 if width == 256 else 2)
    names = text._names(0)
    assert names[-1] == 0 and names[:-1].min() == 1 and names.max() == width
    want = brute_force_bispecials(letters, 4)
    assert bispecial_factors(letters, None, 4) == want and len(want) >= (len(tail) > 1) + 1
    if width == 256:
        assert want == frontier_bispecials(letters, 4)
    for factor in ([alphabet[-2]], [alphabet[-1]], alphabet[-2:], [alphabet[-1], alphabet[0]]):
        factor = Word(factor)
        count, firsts, walk = return_walk_oracle(factor, text)
        positions, got_firsts, got_walk = query_walk(factor, text)
        assert positions.tolist() == positions_oracle(factor, text) and positions.size == count
        assert [(positions[f], positions[f + 1]) for f in got_firsts.tolist()] == firsts
        assert got_walk.tolist() == walk
        assert occurrences(factor, letters).positions == tuple(positions.tolist())
        if count >= 2:
            assert return_words(factor, letters).returns == tuple(
                Word(letters[start:end]) for start, end in firsts)


def positions_oracle(factor, text):
    """Start positions of `factor` by the str.find loop the queries once ran."""
    pattern = text.encode(factor)
    positions = []
    if pattern is not None:
        find = text.string.find
        pos = find(pattern)
        while pos != -1:
            positions.append(pos)
            pos = find(pattern, pos + 1)
    return positions


def query_walk(factor, text):
    """(positions, first appearance of each distinct gap, gap number of every
    step) as `return_words` and `derived_sequence` read them."""
    positions, rows = analysis._gap_rows(factor, text)
    return positions, analysis._first_appearances(*rows), analysis._walk(*rows)


def return_walk_oracle(factor, text):
    """(count, (start, end) of each distinct gap's first appearance, gap number
    of every step) by the loop over occurrences the queries once ran."""
    positions = positions_oracle(factor, text)
    index, firsts, walk = {}, [], []
    for start, end in zip(positions, positions[1:]):
        gap = text.string[start:end]
        k = index.get(gap)
        if k is None:
            k = index[gap] = len(firsts)
            firsts.append((start, end))
        walk.append(k)
    return len(positions), firsts, walk


WIDE = [f"x{i}" for i in range(300)]


@st.composite
def walk_cases(draw):
    """(letters, factor, horizon): words over 1-4 letters, random or periodic
    with a few edits, runs a^n with a few other letters, or repeats of a root
    of 256-300 letters (the top uint8 code or uint16 codes, long gaps) with a
    few edits; the factor
    is a slice of the letters
    (occurring once or more) or any word over the letters and a letter no
    snapshot has, and the horizon cuts the letters or not."""
    kind = draw(st.sampled_from(["small", "periodic", "run", "wide"]))
    if kind == "small":
        alphabet = list("abcd"[: draw(st.integers(1, 4))])
        letters = draw(st.lists(st.sampled_from(alphabet), max_size=200))
    elif kind == "periodic":
        alphabet = list("abcd"[: draw(st.integers(1, 4))])
        root = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8))
        letters = (root * 50)[: draw(st.integers(0, 200))]
        for _ in range(draw(st.integers(0, 6)) if letters else 0):
            letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from(alphabet))
    elif kind == "run":
        alphabet = ["a", "b"]
        letters = ["a"] * draw(st.integers(0, 120))
        for _ in range(draw(st.integers(0, 3)) if letters else 0):
            letters[draw(st.integers(0, len(letters) - 1))] = "b"
    else:
        alphabet = WIDE[: draw(st.integers(256, 300))]
        letters = alphabet * draw(st.integers(1, 4)) + alphabet[: draw(st.integers(0, 299))]
        for _ in range(draw(st.integers(0, 4))):
            letters[draw(st.integers(0, len(letters) - 1))] = draw(st.sampled_from(alphabet))
    horizon = draw(st.none() | st.integers(0, len(letters)))
    if letters and draw(st.booleans()):
        start = draw(st.integers(0, len(letters) - 1))
        factor = letters[start : start + draw(st.integers(1, 40))]
    else:
        factor = draw(st.lists(st.sampled_from(alphabet + ["z"]), min_size=1, max_size=6))
    return letters, Word(factor), horizon


@pytest.mark.oracle
@given(case=walk_cases())
# overlapping occurrences in a run
@example(case=(["a"] * 40, Word(["a"] * 7), None))
# gaps one letter longer than the factor, equal but for that letter
@example(case=(list("abaca"), Word.from_text("a"), None))
# middles of 3 letters equal but for the first or the last, and of 2 and 3
# letters with equal ends
@example(case=(list("abcbabccaccba"), Word.from_text("a"), None))
@example(case=(list("baabaaab"), Word.from_text("b"), None))
# no occurrence, one occurrence, a letter the snapshot lacks
@example(case=(list("abaab"), Word.from_text("bb"), None))
@example(case=(list("abaab"), Word.from_text("baab"), None))
@example(case=(list("abaab"), Word.from_text("az"), None))
# uint16 codes and gaps longer than 256 letters, cut inside the third period
@example(case=(WIDE * 3, Word(WIDE[:3]), 700))
# exactly 256 letters: the last code is the top of uint8
@example(case=(WIDE[:256] * 2 + WIDE[254:256], Word(WIDE[254:256]), None))
@settings(max_examples=300, deadline=None)
def test_return_walk_matches_loop_oracle(case):
    letters, factor, horizon = case
    text = Text(letters, horizon)
    count, firsts, walk = return_walk_oracle(factor, text)
    positions, got_firsts, got_walk = query_walk(factor, text)
    assert positions.tolist() == positions_oracle(factor, text) and positions.size == count
    assert [(positions[f], positions[f + 1]) for f in got_firsts.tolist()] == firsts
    assert got_walk.tolist() == walk
    assert occurrences(factor, letters, horizon).positions == tuple(positions_oracle(factor, text))
    if tuple(factor) != text.letters[: len(factor)]:
        want = ("ValueError", f"factor {factor.to_text()!r} is not a prefix of the sequence")
    elif count < 2:
        want = ("ValueError", "need at least 2 occurrences to derive")
    else:
        want = Word(str(k + 1) for k in walk)
    assert outcome(lambda: derived_sequence(factor, letters, horizon)) == want


@pytest.mark.oracle
@given(case=walk_cases())
@example(case=(["a"] * 40, Word(["a"] * 7), None))
@example(case=(list("abcbabccaccba"), Word.from_text("a"), None))
@settings(max_examples=300, deadline=None)
def test_first_appearances_are_the_firsts_of_the_walk(case):
    letters, factor, horizon = case
    text = Text(letters, horizon)
    _, rows = analysis._gap_rows(factor, text)
    walk = analysis._walk(*rows).tolist()
    # the walk numbers its gaps 0, 1, ... in order of first appearance
    assert sorted(set(walk)) == list(range(len(set(walk))))
    firsts = analysis._first_appearances(*rows).tolist()
    assert firsts == [walk.index(k) for k in range(len(set(walk)))]
    want = brute_force_returns(text.letters, factor)
    got = outcome(lambda: return_words(factor, letters, horizon))
    assert got.returns == want if want else got[0] == "ValueError"


def test_first_appearances_are_exact_near_the_horizon_guard():
    # rows (L, a, b) of gap lengths and names up to 10^7 + 1: packing them into one
    # int64 as (L * N + a) * N + b wraps round and makes these two rows collide
    N = 10**7 + 1
    shift, rest = divmod(2**64, N * N)
    rows = [(1, 5, 7), (1 + shift, 5 + rest // N, 7 + rest % N), (1, 5, 7)]
    assert all(0 <= v <= N for row in rows for v in row)
    packed = np.array([(L * N + a) * N + b for L, a, b in rows], dtype=object) % 2**64
    assert packed[0] == packed[1]
    L, a, b = (np.array(column, np.int64) for column in zip(*rows))
    assert analysis._first_appearances(b, a, L).tolist() == [0, 1]
    assert analysis._walk(b, a, L).tolist() == [0, 1, 0]


class CountingLetters(Sequence):
    """A sequence of letters that counts how many are read."""

    def __init__(self, letters):
        self.letters, self.read = letters, 0

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        self.read += 1
        return self.letters[i]

    def __iter__(self):
        for tok in self.letters:
            self.read += 1
            yield tok


@pytest.mark.parametrize("horizon", [0, 1, 7, 40, 55, 60, None])
def test_cut_reads_no_letter_past_the_horizon(horizon):
    letters = fibonacci_sequence().letters(60)
    counted = CountingLetters(letters)
    assert Text(counted, horizon).letters == tuple(letters[:horizon])
    assert counted.read == len(letters[:horizon])
    factor = Word.from_text("aba")
    want = query_outcomes(factor, Text(letters[:horizon]))
    for form in (list, tuple, "".join, Word):
        assert query_outcomes(factor, form(letters), horizon) == want
        assert Text(form(letters), horizon).letters == tuple(letters[:horizon])
