"""Factor analysis for the sequences in this package.

Every function here works on a finite snapshot, a `Text`: a generator is
materialized to its prefix of length `horizon`, a Word, list or plain string
is taken as-is (cut at `horizon` when one is given), and a prebuilt Text is
used unchanged. Results therefore certify only what the snapshot shows;
horizons should be generous relative to the factor lengths involved
(return-word scans want the horizon to exceed the last used occurrence plus
twice the largest gap seen).

The per-factor queries (`occurrences`, `return_words`, `derived_sequence`)
reuse the Text of the last snapshot they encoded while the same letters come
back, and hold only that one, with every doubling level (below) it has built,
as a prebuilt Text keeps them. A list with no horizon is matched by one list
comparison with the memo's own copy of the list that built or last matched
the held Text, so a hit copies nothing; any other source is cut to a tuple
and compared with the held letters. The scans (`max_fractional_power`,
`is_balanced`, `bispecial_factors`) build a fresh Text per call and neither
read nor replace it, so a long scanned snapshot is freed on return. Pass a
prebuilt Text to share one encoding everywhere.

A Text codes each letter by its rank of first appearance, in one pass, both
as a str for C-speed substring search and as a read-only numpy array; its
letters are a tuple, so a factor is one slice of it and a return word a span
of it (`words._Span`), a Word that reads the tuple in place and keeps the
snapshot's letters alive, as a numpy view keeps its base. Exponents
and counts are exact (ints and Fractions); numpy holds the letter codes,
boolean mismatch masks, int32 doubling names and LCPs, occurrence gaps, and
prefix sums modulo the narrowest unsigned type that holds every window count.

A Text also keeps the doubling names of Karp, Miller and Rosenberg (1972),
built level by level on first use: two positions share a level-k name exactly
when the 2^k letters from there are equal. A round ranks the pairs of names
by one sort of int64 values, each pair's key in the high bits and its
position in the low bits, so equal keys sort by position and the low bits
give the order, with no argsort (several times slower than a sort); below
about 2^21 letters every key and position fit in 63 bits, and past that a
round falls back to an argsort. The per-factor queries read the names with
whole-array numpy work and no loop over occurrences: one str.find finds a
first occurrence and two name comparisons find the rest, and two gaps
between occurrences are the same return word exactly when their lengths and
the names of their two ends agree. `bispecial_factors` sorts the suffixes
with the same doubling rounds and one more packed sort, and reads the
bispecial factors off the suffix array and LCP array (Kasai et al. 2001) as
lcp-intervals (Abouelhoda, Kurtz and Ohlebusch 2004) with two right and two
left letters.

The period scan of `max_fractional_power` locates runs only on periods that
can beat the best exponent found so far: whether the agreement mask of a
period holds a long enough run is decided first, exactly, by a few shifted
ANDs, so skipped periods are exactly those that could not change the result.
Runs are then located by binary lifting on the same ANDs. Most periods are
ruled out before the agreement mask is built: the codes are read as unsigned
integers of s letters (at most 8 bytes), from offset 0 and from offset p, so
one integer compare tells whether an aligned block of s letters agrees at
shift p. A run of `need` agreements, with 2s - 1 <= need, covers at least
(need - s + 1) // s >= 1 whole aligned blocks, so a period whose n/s block
agreements hold no run that long has no run of `need` either and is skipped
exactly. This test builds no doubling level.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .golden import fib, sqrt5_sign
from .words import SequenceGenerator, Word, _Span, discolour_letter, fibonacci_sequence


class Text:
    """One encoded snapshot of a sequence, built once and shared.

    `letters` is the snapshot as a tuple, `alphabet` its letters in order of first
    appearance, `codes` each letter's rank in that alphabet (a read-only numpy
    array of the smallest unsigned dtype that holds every rank) and `string`
    the same ranks as a str of chr(rank), for str.find. Constructing a Text
    from a Text returns it unchanged; it is already cut, so a horizon is refused.
    """

    __slots__ = ("letters", "alphabet", "codes", "string", "_rank", "_levels")

    def __new__(cls, source: Source, horizon: int | None = None) -> Text:
        if isinstance(source, Text):
            if horizon is not None:
                raise ValueError("a Text is already a finite snapshot; pass no horizon with it")
            return source
        letters = _cut(source, horizon)
        self = super().__new__(cls)
        self.letters = letters
        self._rank = ranks = _Ranks()
        self.string = "".join(map(ranks.__getitem__, letters))
        self.alphabet = tuple(ranks)
        if len(ranks) <= 256:  # every chr(rank) is one latin-1 byte
            self.codes = np.frombuffer(self.string.encode("latin-1"), np.uint8)
        else:
            wide = np.frombuffer(self.string.encode("utf-32-le", "surrogatepass"), "<u4")
            self.codes = wide.astype(np.min_scalar_type(len(ranks) - 1))
        self.codes.flags.writeable = False
        self._levels: list[np.ndarray] = []
        return self

    def __len__(self) -> int:
        return len(self.letters)

    def encode(self, word: Word) -> str | None:
        """`word` in the coding of `string`; None when the snapshot lacks one of its letters."""
        # get, not [], which would rank a letter the snapshot lacks
        coded = list(map(self._rank.get, word))
        return None if None in coded else "".join(coded)

    def _names(self, k: int) -> np.ndarray:
        """Level-k doubling names (Karp, Miller and Rosenberg 1972): int32, n + 1
        long, equal at two positions exactly when the 2^k letters from there are
        equal, ranked from 1 in their lexicographic order, and 0 at the
        past-the-end index n, so a window running off the end equals no other.

        Levels are built on first use and kept. Once every position has its
        own name the next levels would repeat it, so that level answers for
        them.
        """
        levels, n = self._levels, len(self)
        if not levels:
            names = np.zeros(n + 1, np.int32)
            names[:n] = self.codes  # widen first: code 255 + 1 wraps to 0 in uint8
            names[:n] += 1
            levels.append(names)
        while len(levels) <= k:
            top = int(levels[-1].max())
            if top == n:
                break
            levels.append(_double(levels[-1], 1 << (len(levels) - 1), top))
        return levels[min(k, len(levels) - 1)]


def _double(names: np.ndarray, width: int, top: int) -> np.ndarray:
    """One doubling round, shared by the query names and the suffix array: the
    names of 2 * width letters, as the dense rank of the pairs (names[i],
    names[i + width]), with `top` the largest of `names`. A pair is packed as
    the key names[i] * (top + 1) + names[i + width], which keeps the order.
    When the key and the position i fit in 63 bits together, the keys are
    ranked by `_sort_by_position`, one sort; otherwise by an argsort, which
    need not be stable, since equal pairs get equal ranks however ties break.
    No key outlives its round; the caller keeps only the names.
    """
    n, span = names.size - 1, top + 1
    shift = n.bit_length()
    key = names[:n].astype(np.int64)
    key *= span
    key[: n - width] += names[width:n]
    if 2 * span.bit_length() + shift <= 63:
        key, order = _sort_by_position(key, shift)
    else:
        order = np.argsort(key)
        key = key[order]
    fresh = np.ones(n, bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    del key
    rank = np.cumsum(fresh, dtype=np.int32)
    doubled = np.zeros(n + 1, np.int32)
    doubled[order] = rank
    return doubled


def _sort_by_position(key: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """`key` (int64, >= 0, below 2^(63 - shift), with 2^shift > key.size)
    sorted, and the positions in that order, equal keys by position: one sort
    of key << shift | position, whose low bits are the order. `key` is
    overwritten.
    """
    key <<= shift
    key |= np.arange(key.size)
    key.sort()
    order = key & ((1 << shift) - 1)
    key >>= shift
    return key, order


class _Ranks(dict):
    """letter -> chr(its rank of first appearance); a new letter takes the next rank."""

    def __missing__(self, tok: str) -> str:
        code = self[tok] = chr(len(self))
        return code


Source = SequenceGenerator | Word | Text | Sequence[str] | str


def _cut(source: Source, horizon: int | None) -> tuple[str, ...]:
    """The letters of a snapshot: a generator's first `horizon`, any other source cut at it."""
    if horizon is not None and horizon < 0:
        raise ValueError(f"prefix length must be >= 0, got {horizon}")
    if isinstance(source, SequenceGenerator):
        if horizon is None:
            raise ValueError("horizon is required when analysing a generator")
        return tuple(source.letters(horizon))
    # islice reads no letter past the horizon
    return tuple(source if horizon is None else islice(source, horizon))


# the Text of the last snapshot a per-factor query encoded and, when a list
# built or last matched it, a copy of that list; set and cleared together
_query_text: Text | None = None
_query_list: list[str] | None = None


def _query_snapshot(source: Source, horizon: int | None) -> Text:
    """The Text for a per-factor query, reused while the same letters come back.

    Callers ask about many factors of one snapshot; comparing its letters with
    the last ones encoded is a C-level comparison, several times cheaper than
    ranking them again. A list with no horizon is compared, as it is, with
    `_query_list`: items that are the held objects (as every generator's
    letters are) pass by identity, and a hit copies nothing. Any other source,
    or a list that differs from that copy, is cut to a tuple and compared with
    the held letters, so a list changed in place is told apart like any other.
    The copy holds one more reference per letter, and only after a list
    source. The old Text is dropped before a new one is built, so at most one
    is held, with every doubling level its queries have built. The scans build
    their own Text and leave this one alone, so a long scanned snapshot is
    freed when its scan returns.
    """
    global _query_text, _query_list
    if isinstance(source, Text):
        return Text(source, horizon)
    listed = horizon is None and type(source) is list
    if listed and source == _query_list:
        return _query_text
    letters = _cut(source, horizon)
    if _query_text is None or _query_text.letters != letters:
        _query_text = _query_list = None  # free the old snapshot before building the new one
        _query_text = Text(letters)
    if listed:
        _query_list = list(letters)
    return _query_text


@dataclass(frozen=True)
class OccurrenceList:
    factor: Word
    positions: tuple[int, ...]
    horizon: int


@dataclass(frozen=True)
class ReturnWordSet:
    """Distinct return words in order of first appearance.

    When `factor` is a prefix of the sequence the first entry is the return
    word that starts at position 0. `complete` is a heuristic: it is set when
    no new return word appeared in the second half of the horizon.

    Each return word is a span of the snapshot's letter tuple: it equals,
    hashes, prints and pickles as the Word of its letters, and while it is
    held it keeps the whole snapshot's letters alive; copy it with
    Word(w.letters()) to keep it alone.
    """

    factor: Word
    returns: tuple[Word, ...]
    complete: bool


@dataclass(frozen=True)
class RepetitionRecord:
    """A fractional power: factor of length exponent*period with that period."""

    root: Word
    exponent: Fraction
    position: int

    @property
    def period(self) -> int:
        return len(self.root)

    @property
    def length(self) -> int:
        total = self.exponent * self.period
        return int(total)


@dataclass(frozen=True)
class BalanceWitness:
    window: int
    letter: str
    low_position: int
    low_count: int
    high_position: int
    high_count: int


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    witness: BalanceWitness | None
    horizon: int
    max_window: int


@dataclass(frozen=True)
class FibonacciBispecial:
    """Closed-form bispecial data for the Fibonacci word at level n.

    `word` is the n-th bispecial factor (a palindromic prefix), and the two
    return words are given with the prefix one first. Lengths follow
    |word| = F_{n+3} - 2, |prefix_return| = F_{n+2}, |other_return| = F_{n+1}.
    """

    word: Word
    prefix_return: Word
    other_return: Word


def _positions(factor: Word, text: Text) -> np.ndarray:
    """Start positions of `factor`, ascending. One str.find gives the first, p;
    with 2^k <= m = len(factor) < 2^(k + 1), the others are the positions i
    whose level-k names equal p's at offsets 0 and m - 2^k.
    """
    if len(factor) == 0:
        raise ValueError("factor must be nonempty")
    pattern = text.encode(factor)
    first = -1 if pattern is None else text.string.find(pattern)
    if first < 0:
        return np.empty(0, np.intp)
    m = len(factor)
    k = m.bit_length() - 1
    names, tail = text._names(k), m - (1 << k)
    hits = np.flatnonzero(names[: len(text) - m + 1] == names[first])
    if tail:
        hits = hits[names[hits + tail] == names[first + tail]]
    return hits


def _distinct_rows(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of equal-length integer columns, told apart exactly: the row
    indices in the rows' lexicographic order, equal rows by index, and whether
    each row in that order differs from the one before it. The columns are
    compared as they are, never packed.
    """
    order = np.lexsort(columns)  # stable, so equal rows keep their index order
    repeat = np.zeros(order.size, bool)  # a sorted row equal to the one before it
    repeat[1:] = True
    for column in columns:
        ranked = column[order]
        repeat[1:] &= ranked[1:] == ranked[:-1]
    return order, ~repeat


def _first_appearances(*columns: np.ndarray) -> np.ndarray:
    """The index of each distinct row's first appearance, ascending: the first
    row of each run of equal rows in `_distinct_rows`' order, sorted. No row
    is numbered; `_walk` does that for the callers that need every number.
    """
    order, fresh = _distinct_rows(columns)
    return np.sort(order[fresh])


def _walk(*columns: np.ndarray) -> np.ndarray:
    """Every row's number, the distinct rows numbered from 0 in order of first appearance."""
    order, fresh = _distinct_rows(columns)
    by_first = np.argsort(order[fresh])
    walk = np.empty_like(order)
    walk[order] = np.argsort(by_first)[np.cumsum(fresh) - 1]
    return walk


def _gap_rows(factor: Word, text: Text) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The positions of `factor`, ascending, and a row for each gap between
    consecutive ones: equal rows are the same return word. `return_words`
    reads the first appearance of each row, and `derived_sequence` numbers
    them all.

    A gap no longer than the factor is its prefix, so its length names it. A
    longer one is the factor followed by a middle of M letters, named by its
    length and, with 2^k <= M < 2^(k + 1), the level-k names at the middle's
    start and 2^k letters before its end.
    """
    positions = _positions(factor, text)
    m = len(factor)
    lengths = positions[1:] - positions[:-1]
    heads = np.zeros(lengths.size, np.int32)
    tails = np.zeros(lengths.size, np.int32)
    long = np.flatnonzero(lengths > m)
    starts, ends = positions[long] + m, positions[long + 1]
    levels = np.frexp(ends - starts)[1] - 1  # floor(log2 M), exact below 2^53
    for k in np.flatnonzero(np.bincount(levels)).tolist():
        names, at = text._names(k), levels == k
        heads[long[at]] = names[starts[at]]
        tails[long[at]] = names[ends[at] - (1 << k)]
    return positions, (tails, heads, lengths)


def occurrences(factor: Word, source: Source, horizon: int | None = None) -> OccurrenceList:
    """All start positions of `factor` inside the snapshot."""
    text = _query_snapshot(source, horizon)
    positions = _positions(factor, text)
    return OccurrenceList(factor, tuple(positions.tolist()), len(text))


def return_words(factor: Word, source: Source, horizon: int | None = None) -> ReturnWordSet:
    """Distinct words separating consecutive occurrences of `factor`."""
    text = _query_snapshot(source, horizon)
    positions, rows = _gap_rows(factor, text)
    count = positions.size
    if count < 2:
        name = (repr(factor.to_text()) if len(factor) <= 30
                else f"of length {len(factor)} starting {factor[:30].to_text()!r}")
        raise ValueError(
            f"factor {name} occurs {count} time(s) "
            "in the snapshot; need at least 2 to observe a return word"
        )
    firsts = _first_appearances(*rows)
    starts, ends = positions[firsts].tolist(), positions[firsts + 1].tolist()
    complete = max(ends) <= len(text) // 2
    returns = tuple(_Span(text.letters, start, end) for start, end in zip(starts, ends))
    return ReturnWordSet(factor, returns, complete)


def _suffix_array(text: Text, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Suffix order by the first `depth` letters (ties by position) and each
    suffix's LCP with the one before it in that order, capped at `depth`.

    The order sorts the names of the first 2^k >= depth letters (fewer once
    every suffix has its own name), ties by position, by `_sort_by_position`,
    and the LCP is binary lifting over the names of every level up to it:
    two suffixes that share lcp letters share 2^k more exactly when their
    level-k names at offset lcp are equal.
    """
    n, last = len(text), (depth - 1).bit_length()  # the least k with 2^k >= depth
    text._names(last)
    levels = text._levels[: last + 1]
    # names are <= n < 2^31, so a name and a position fit in 62 bits
    order = _sort_by_position(levels[-1][:n].astype(np.int64), n.bit_length())[1]
    order = order.astype(np.int32)
    lcp = np.zeros(n, np.int32)  # lcp[0] stays 0: no suffix before the first
    above, below = order[:-1], order[1:]
    for k in reversed(range(len(levels))):
        # the offsets stay <= n: distinct positions share names only on full windows
        level, shared = levels[k], lcp[1:]
        agree = level[above + shared] == level[below + shared]
        shared[agree] += 1 << k
    return order, np.minimum(lcp, depth, out=lcp)


def bispecial_factors(source: Source, horizon: int | None = None, max_len: int = 30) -> list[Word]:
    """Factors of length <= max_len with >= 2 left and >= 2 right extensions.

    A factor of length L is a group of suffixes, consecutive in suffix order,
    with LCPs >= L inside. Its right letters are the groups of length L + 1
    it splits into, less the suffix of length exactly L, which sorts first;
    it has two left letters when the letter before its suffixes changes
    inside it (the suffix at 0 has none). The empty word is included when
    the snapshot shows at least two letters.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    text = Text(source, horizon)
    if len(text.alphabet) < 2:
        return []
    n = len(text)
    # no factor is longer than n, and the LCPs stay int32
    order, lcp = _suffix_array(text, min(max_len, n) + 1)
    # left letters in suffix order and how often they change; the suffix at 0
    # has none and borrows the one before it, which is in its group unless it
    # starts the group, and then it is skipped
    first = int(np.argmin(order))
    left = text.codes[order - 1]
    left[first] = left[first - 1]
    turns = np.cumsum(np.diff(left, prepend=left[0]) != 0, dtype=np.int32)
    found = [Word()]
    starts = np.flatnonzero(lcp == 0)
    for length in range(1, min(max_len, int(lcp.max())) + 1):
        splits = np.flatnonzero(lcp == length)
        slots = np.searchsorted(starts, splits)
        # the split after the suffix of length exactly `length` adds no right letter;
        # slots ascend, so each group is kept once
        after = slots[order[splits - 1] != n - length]
        after = after[np.diff(after, prepend=0) > 0]
        begin, end = starts[after - 1], np.append(starts, n)[after]
        for i in order[begin[turns[end - 1] > turns[begin + (begin == first)]]]:
            found.append(Word(text.letters[i : i + length]))
        starts = np.insert(starts, slots, splits)
    found.sort(key=lambda w: (len(w), w.to_text()))
    return found


# the prefix of F_{n+3} letters is built in memory: at the cap, 9.2 million letters
_FIB_BISPECIAL_MAX = 32


def fibonacci_bispecial(n: int) -> FibonacciBispecial:
    """Closed-form bispecial factor of the Fibonacci word with both returns.

    The Fibonacci word f = phi^n(f) starts with ab, hence with the returns
    phi^n(a) phi^n(b); they and the factor are slices of one prefix of f.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if n > _FIB_BISPECIAL_MAX:
        raise ValueError(f"index {n} exceeds the in-memory cap {_FIB_BISPECIAL_MAX}")
    f = fibonacci_sequence().prefix(fib(n + 3))
    split = fib(n + 2)
    return FibonacciBispecial(f[:-2], f[:split], f[split:])


def is_balanced(
    source: Source,
    horizon: int | None = None,
    max_window: int = 200,
) -> BalanceReport:
    """Sliding-window balance check.

    For every window length L <= max_window and every letter, the counts of
    that letter over all length-L windows of the snapshot may spread by at
    most 1. On failure the witness names the least failing window length,
    the smallest letter (in token order) that fails there, and two window
    positions realising the spread. max_window is clipped to the snapshot
    length and must be at least 1.

    The windows are never slid. A letter with positions p_0 < ... < p_{m-1}
    in a snapshot of n letters has the gaps e_h = q[h:] - q[:-h] of
    q = (-1, p_0, ..., p_{m-1}, n). A window holds h + 1 of its occurrences
    exactly when its length is at least short_h = min(e_h[1:-1]) + 1 (the
    least span of h + 1 occurrences), and at most h - 1 exactly when its
    length is at most long_h = max(e_h) - 1 (the longest stretch between h
    steps, the snapshot's ends counted as occurrences). So a length L fails
    exactly when short_h <= L <= long_h for some h in 1..m-1. short_h grows
    strictly with h, so the letter first fails at short_h for the least h
    with short_h <= long_h, and the walk over h stops once short_h passes
    the longest length still worth checking. A letter that fills more than
    half the snapshot walks the positions of the other letters instead: a
    window's count of it is the window's length less their count, so both
    spread alike and first fail at the same length, and the walk takes at
    most n / 2 steps however close to 1 the letter's frequency. The
    witness's counts are then read off one prefix sum, of its letter, at
    its window length.
    """
    if max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")
    text = Text(source, horizon)
    n = len(text)
    if n == 0:
        raise ValueError("empty snapshot")
    max_window = min(max_window, n)
    codes = text.codes
    # one stable sort groups each letter's positions, in increasing order
    grouped = np.argsort(codes, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(codes, minlength=len(text.alphabet))).tolist()]
    # the narrowest signed type that holds n + 1, the widest gap (it holds -(n + 2))
    dtype = np.min_scalar_type(-(n + 2))
    window, code = max_window + 1, None
    # letters in sorted token order, so the witness does not depend on the coding;
    # a later letter counts only if it fails at a strictly shorter window
    for k in sorted(range(len(text.alphabet)), key=text.alphabet.__getitem__):
        positions = grouped[bounds[k] : bounds[k + 1]]
        if 2 * positions.size > n:
            positions = np.flatnonzero(codes != k)
        q = np.empty(positions.size + 2, dtype)
        q[0], q[-1] = -1, n
        q[1:-1] = positions
        buffer = np.empty_like(q)
        for h in range(1, len(q) - 2):
            gaps = np.subtract(q[h:], q[:-h], out=buffer[h:])
            short = int(gaps[1:-1].min()) + 1
            if short >= window:
                break
            if short <= int(gaps.max()) - 1:
                window, code = short, k
                break
    if code is None:
        return BalanceReport(balanced=True, witness=None, horizon=n, max_window=max_window)
    # a window holds at most `window` letters, so prefix sums modulo the width of
    # the narrowest type that holds it give exact counts on subtraction
    sums = np.zeros(n + 1, np.min_scalar_type(window))
    np.cumsum(codes == code, dtype=sums.dtype, out=sums[1:])
    counts = sums[window:] - sums[:-window]
    return BalanceReport(
        balanced=False,
        witness=BalanceWitness(
            window=window,
            letter=text.alphabet[code],
            low_position=int(np.argmin(counts)),
            low_count=int(counts.min()),
            high_position=int(np.argmax(counts)),
            high_count=int(counts.max()),
        ),
        horizon=n,
        max_window=max_window,
    )


def derived_sequence(factor: Word, source: Source, horizon: int | None = None) -> Word:
    """Recode the snapshot as its walk through the return words of `factor`.

    `factor` must be a prefix of the sequence. Return words are numbered by
    first appearance ("1", "2", ...), and the output covers every complete
    return word the horizon certifies.
    """
    text = _query_snapshot(source, horizon)
    if tuple(factor) != text.letters[: len(factor)]:
        raise ValueError(f"factor {factor.to_text()!r} is not a prefix of the sequence")
    positions, rows = _gap_rows(factor, text)
    if positions.size < 2:
        raise ValueError("need at least 2 occurrences to derive")
    return Word(map(str, (_walk(*rows) + 1).tolist()))


def parikh_is_fib_factor(k: int, ell: int) -> bool:
    """Whether (k, ell) is the Parikh vector of some factor of the Fibonacci
    word: true exactly when |k - tau*ell| < tau^2. Doubled, tau^2 -+ (k - ell*tau)
    is (3 -+ (2k - ell)) + (1 +- ell)*sqrt(5), so two integer signs decide it.
    """
    if k < 0 or ell < 0:
        raise ValueError("counts must be >= 0")
    return sqrt5_sign(3 - 2 * k + ell, 1 + ell) > 0 and sqrt5_sign(3 + 2 * k - ell, 1 - ell) > 0


def _longest_run(eq: np.ndarray) -> tuple[int, int]:
    """Length and start of the first longest run of True in `eq`: binary lifting
    over the levels all(eq[i : i + 2^k]) that `_has_run`'s shifted ANDs build.
    """
    if not eq.any():
        return 0, 0
    levels, span = [eq], 1
    while (w := levels[-1][:-span] & levels[-1][span:]).any():
        levels.append(w)
        span *= 2
    mask, length = levels.pop(), span
    for level in reversed(levels):
        span //= 2
        w = mask[:-span] & level[length:]  # starts of runs of length + span
        if w.any():
            mask, length = w, length + span
    return length, int(np.argmax(mask))  # the first start: earliest position


def _has_run(eq: np.ndarray, need: int) -> bool:
    """Whether `eq` holds `need` consecutive True values, 1 <= need <= eq.size.

    w[i] tells whether eq[i : i + span] is all True. Each step ANDs w with
    itself shifted by k <= span, which extends span by k, so span reaches
    `need` after about log2(need) steps. A run of `need` True values needs
    `need` of them, so a mask with fewer takes no step.
    """
    if np.count_nonzero(eq) < need:
        return False
    w, span = eq, 1
    while span < need:
        k = min(span, need - span)
        w = w[:-k] & w[k:]
        span += k
    return bool(w.any())


def _blocks_may_run(codes: np.ndarray, p: int, need: int) -> bool:
    """False only when `codes[p:] == codes[:-p]` holds no run of `need` True
    values, 1 <= need <= len(codes) - p: the block test that
    `max_fractional_power` describes, with each s-letter block [js, js + s)
    read as one unsigned integer. True whenever s < 2 leaves nothing to test.
    """
    s = min(8 // codes.itemsize, 1 << (((need + 1) // 2).bit_length() - 1))
    if s < 2:
        return True
    m = (len(codes) - p) // s
    block = np.dtype(f"u{s * codes.itemsize}")
    agree = codes[: m * s].view(block) == codes[p : p + m * s].view(block)
    return _has_run(agree, (need - s + 1) // s)


def max_fractional_power(
    source: Source,
    horizon: int | None = None,
    min_period: int = 1,
    max_period: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> RepetitionRecord:
    """Highest fractional power with period in [min_period, max_period].

    For each period p the snapshot is compared against its shift by p; a
    maximal run of r agreements starting at position i witnesses the factor
    snapshot[i : i+r+p] of period p and exponent (r+p)/p. Exponents are exact
    Fractions; ties go to the smaller period, then the smaller position. The
    witness is re-verified letter by letter before it is returned.

    Periods are pruned exactly. With best exponent e* so far, period p beats
    it only with a run r > (e* - 1)*p, that is r >= need = floor((e* - 1)*p) + 1
    in integers. A period with fewer than `need` comparisons is skipped
    unread. Next, with s the largest power of two with 2s - 1 <= need (capped
    so that s letters fit in 8 bytes), a run of `need` agreements covers at
    least (need - s + 1) // s whole aligned s-letter blocks, and a block agrees
    exactly when the codes read as one integer at its start and p further on
    are equal; a period whose block agreements hold no run that long is
    skipped. Otherwise about log2(need) shifted ANDs of the agreement mask
    decide whether such a run exists, and only then are the runs located.
    Every located period therefore raises e*, and skipped ones could not have,
    so the result equals that of scanning every period in full.
    """
    text = Text(source, horizon)
    letters, arr = text.letters, text.codes
    n = len(letters)
    if max_period is None:
        max_period = max(n // 2, 1)
    if not 1 <= min_period <= max_period <= n - 1:
        raise ValueError(
            f"need 1 <= min_period <= max_period <= {n - 1}, "
            f"got [{min_period}, {max_period}] at horizon {n}"
        )
    # exponent 1 at the first period and position 0 until some letter repeats
    best_period, best_pos, best_run = min_period, 0, 0
    total = max_period - min_period + 1
    step = max(1, total // 20)
    for i, p in enumerate(range(min_period, max_period + 1)):
        if progress is not None and i % step == 0:
            progress(i, total)
        need = best_run * p // best_period + 1
        if need > n - p or not _blocks_may_run(arr, p, need):
            continue
        eq = arr[p:] == arr[:-p]
        if _has_run(eq, need):
            best_run, best_pos = _longest_run(eq)
            best_period = p
    if progress is not None:
        progress(total, total)

    i, p, r = best_pos, best_period, best_run
    if letters[i + p : i + p + r] != letters[i : i + r]:
        raise ArithmeticError("repetition witness failed re-verification")
    return RepetitionRecord(
        root=Word(letters[i : i + p]),
        exponent=Fraction(r + p, p),
        position=i,
    )


def sufficiently_coloured(word: Word, period_length: int) -> bool:
    """True when the discoloured word has at least period_length of each of
    a and b; the divisibility law for return words applies from there on.
    """
    plain = sum(1 for tok in word if discolour_letter(tok) == "a")
    hatted = len(word) - plain
    return plain >= period_length and hatted >= period_length


def fibonacci_bispecial_lengths(max_len: int) -> dict[int, int]:
    """Map length -> level for the bispecial lengths F_{n+3} - 2 up to max_len."""
    table: dict[int, int] = {}
    n = 0
    while fib(n + 3) - 2 <= max_len:
        table[fib(n + 3) - 2] = n
        n += 1
    return table
