"""Finite words and lazily extended infinite sequences.

Letters are short string tokens. The binary alphabet is {"a", "b"}; the
coloured alphabet is COLOURED_LETTERS, built once, from each letter to its
(index, hat): the digits "1".."9" for plain letters and a digit with an
ASCII apostrophe ("3'") for their hatted twins. Every generator hands out
these objects, so equal letter lists compare by identity; in JSON they are
{"index", "hat"} and any other letter is its string. A word over
single-character letters serializes to the bare concatenation ("abaab");
anything else serializes space-separated ("1 1' 3 2 3'").
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np


COLOURED_LETTERS = {str(i) + "'" * hat: (i, hat) for i in range(1, 10) for hat in (False, True)}
_BY_COLOUR = {colour: letter for letter, colour in COLOURED_LETTERS.items()}


def coloured_letter(index: int, hatted: bool = False) -> str:
    letter = _BY_COLOUR.get((index, bool(hatted)))
    if letter is None:
        raise ValueError(f"colour index must be in 1..9, got {index}")
    return letter


class _Discoloured(dict):
    """Forget the colour: hatted letters map to "b", everything else to "a"."""

    def __missing__(self, letter: str) -> str:
        self[letter] = letter if letter in ("a", "b") else "b" if letter.endswith("'") else "a"
        return self[letter]


# one dict lookup per call; each distinct letter is discoloured once
discolour_letter = _Discoloured().__getitem__


def letter_to_json(letter: str) -> object:
    colour = COLOURED_LETTERS.get(letter)
    return letter if colour is None else {"index": colour[0], "hat": colour[1]}


class Word:
    """Immutable finite word; supports slicing, concatenation, Parikh counts."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[str] = ()) -> None:
        object.__setattr__(self, "_letters", tuple(letters))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    @classmethod
    def from_text(cls, text: str) -> Word:
        """Parse either serialization; apostrophes attach to the previous token."""
        text = text.strip()
        if not text:
            return cls()
        if any(ch.isspace() for ch in text):
            return cls(text.split())
        letters: list[str] = []
        for ch in text:
            if ch == "'":
                if not letters:
                    raise ValueError("word text starts with an apostrophe")
                letters[-1] += ch
            else:
                letters.append(ch)
        return cls(letters)

    def to_text(self) -> str:
        if all(len(tok) == 1 for tok in self._letters):
            return "".join(self._letters)
        return " ".join(self._letters)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)

    def __getitem__(self, item: int | slice) -> str | Word:
        if isinstance(item, slice):
            return Word(self._letters[item])
        return self._letters[item]

    def __add__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._letters + other._letters)

    def __mul__(self, times: int) -> Word:
        if not isinstance(times, int):
            return NotImplemented
        return Word(self._letters * times)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r})"

    def startswith(self, prefix: Word) -> bool:
        return self._letters[: len(prefix)] == prefix._letters

    def count(self, letter: str) -> int:
        return self._letters.count(letter)

    def parikh(self) -> Counter[str]:
        return Counter(self._letters)

    def letters(self) -> tuple[str, ...]:
        return self._letters


# letters per numpy pass: its temporaries (an index or an object array, 8
# bytes a letter) stay small, so a long prefix costs its codes and its list
_CHUNK = 1 << 16


class SequenceGenerator:
    """Lazy prefix provider for an infinite sequence.

    The prefix is held as codes: `_codes[:_filled]` is an unsigned integer
    array in which code k stands for the k-th letter of `_index`, which maps
    each distinct letter to its code. A letter gets its code from `_codes_of`
    when first met, and is handed out as the object it was first met as.
    Prefixes are memoized, so prefix(m) is always a prefix of prefix(n) for
    m <= n and repeated calls return identical content.

    A subclass implements `_extend(n)`, called with n > `_filled`: it codes
    every new letter with `_codes_of`, then takes the buffer from `_reserve(n)`
    (reallocated, at least doubled, only when too short or too narrow for the
    codes), writes codes `_filled .. n - 1` into it and sets `_filled` to at
    least n. A generator built on another calls that one's `_ensure(n)` and
    reads its `_codes` in place. Extension is single-writer (not
    thread-safe). letters(n) returns a fresh list of the shared letter
    objects, safe to keep and to change.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._table = np.empty(0, object)  # the letters of _index, for take
        self._codes = np.empty(0, np.uint8)
        self._filled = 0

    def _extend(self, n: int) -> None:
        raise NotImplementedError

    def _codes_of(self, letters: Iterable[str]) -> np.ndarray:
        index = self._index
        codes = [index.setdefault(letter, len(index)) for letter in letters]
        return np.array(codes, np.min_scalar_type(max(codes)))

    def _letter_table(self) -> np.ndarray:
        if len(self._table) < len(self._index):
            self._table = np.empty(len(self._index), object)
            self._table[:] = list(self._index)
        return self._table

    def _reserve(self, n: int) -> np.ndarray:
        codes = self._codes
        dtype = np.promote_types(codes.dtype, np.min_scalar_type(max(len(self._index) - 1, 0)))
        if len(codes) < n or dtype != codes.dtype:
            grown = np.empty(max(n, 2 * len(codes)), dtype)
            grown[: self._filled] = codes[: self._filled]
            self._codes = codes = grown
        return codes

    def _ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        if self._filled < n:
            self._extend(n)

    def prefix(self, n: int) -> Word:
        return Word(self.letters(n))

    def letters(self, n: int) -> list[str]:
        self._ensure(n)
        table = self._letter_table()
        letters: list[str] = []
        for i in range(0, n, _CHUNK):
            letters += table.take(self._codes[i : min(n, i + _CHUNK)]).tolist()
        return letters


def _cycle(period: np.ndarray, start: int, m: int) -> np.ndarray:
    """Letters start .. start + m - 1 of `period` repeated forever."""
    r = start % len(period)
    return np.tile(period, -(-(r + m) // len(period)))[r : r + m]


class _FibonacciGenerator(SequenceGenerator):
    """The Fibonacci word f, grown from its own prefixes.

    The prefix f_k has F_{k+2} letters and f_{k+1} = f_k f_{k-1}, with
    f_{k-1} a prefix of f_k: for consecutive Fibonacci numbers
    F_j <= i < F_{j+1}, letter i of f is letter i - F_j. The buffer keeps
    the pair (F_j, F_{j+1}) that brackets its length.
    """

    def __init__(self) -> None:
        super().__init__()
        self._codes = self._codes_of("ab")
        self._filled = 2
        self._pair = (2, 3)

    def _extend(self, n: int) -> None:
        codes = self._reserve(n)
        while self._filled < n:
            low, high = self._pair
            stop = min(n, high)
            # the copy ends at F_{j+1} - F_j <= F_j <= _filled, so it reads
            # only codes already filled and never the ones it writes
            codes[self._filled : stop] = codes[self._filled - low : stop - low]
            self._filled = stop
            if stop == high:
                self._pair = (high, low + high)


class PeriodicGenerator(SequenceGenerator):
    """Purely periodic sequence: its period tiled."""

    def __init__(self, period: Word) -> None:
        super().__init__()
        if len(period) == 0:
            raise ValueError("period must be nonempty")
        self.period = period
        self._period = self._codes_of(period)

    def _extend(self, n: int) -> None:
        codes = self._reserve(n)
        codes[self._filled : n] = _cycle(self._period, self._filled, n - self._filled)
        self._filled = n


def _gap_period(delta: int, hatted: bool) -> tuple[str, ...]:
    """The period of y_delta, 2^(delta-1) letters: letter 0 is 1 and letter
    i >= 1 is delta - nu_2(i), nu_2(i) the number of trailing zero bits of i.
    So 1 sits on the multiples of 2^(delta-1) and each k >= 2 on the residue
    class 2^(delta-k) modulo 2^(delta-k+1): every letter has a constant gap.
    """
    if not 1 <= delta <= 9:
        raise ValueError(f"delta must be in 1..9, got {delta}")
    # (i & -i).bit_length() is nu_2(i) + 1
    return tuple(coloured_letter(delta + 1 - (i & -i).bit_length() if i else 1, hatted)
                 for i in range(2 ** (delta - 1)))


def constant_gap(delta: int, hatted: bool = False) -> PeriodicGenerator:
    """y_delta, the constant gap sequence of period 2^(delta-1) over the
    letters 1..delta (hatted: 1'..delta')."""
    return PeriodicGenerator(Word(_gap_period(delta, hatted)))


class ColouringGenerator(SequenceGenerator):
    """Letter-wise recolouring of a base sequence.

    The k-th occurrence (k = 0, 1, ...) of letter c in `base` becomes
    periods(c)[k mod len(periods(c))]: each letter of the base is overwritten
    by the next letter of its own periodic stream. `colouring`, `discolour`
    and `exponents.split_letter` are this one operation with different
    periods. periods(c) is called once per distinct letter, when c first
    appears; an empty period is a ValueError.

    Extension recolours the base's new codes in bulk, _CHUNK letters at a
    time: one stable sort groups the occurrences of each base letter in
    order, and each group receives its period tiled from that letter's count
    so far.
    """

    def __init__(self, base: SequenceGenerator, periods: Callable[[str], Sequence[str]]) -> None:
        super().__init__()
        self.base = base
        self._periods = periods
        self._streams: dict[int, tuple[np.ndarray, int]] = {}  # base code -> (period, count)

    def _extend(self, n: int) -> None:
        self.base._ensure(n)
        for start in range(self._filled, n, _CHUNK):
            self._recolour(start, min(n, start + _CHUNK))

    def _recolour(self, start: int, stop: int) -> None:
        segment = self.base._codes[start:stop]
        order = np.argsort(segment, kind="stable")  # a radix sort on uint8 and uint16
        grouped = segment[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        firsts = [0, *cuts]
        groups = list(zip(grouped[firsts].tolist(), firsts, [*cuts, len(segment)]))
        # a letter new to the base first appears at order[first] of its group
        for _, b in sorted((order[first], b) for b, first, _ in groups if b not in self._streams):
            letter = self.base._letter_table()[b]
            period = tuple(self._periods(letter))
            if not period:
                raise ValueError(f"empty period for letter {letter!r}")
            self._streams[b] = (self._codes_of(period), 0)
        out = self._reserve(stop)[start:stop]
        for b, first, end in groups:
            period, count = self._streams[b]
            out[order[first:end]] = _cycle(period, count, end - first)
            self._streams[b] = (period, count + end - first)
        self._filled = stop


def fibonacci_sequence() -> SequenceGenerator:
    """The Fibonacci word, fixed point of a -> ab, b -> a."""
    return _FibonacciGenerator()


def colouring(delta: int) -> ColouringGenerator:
    """v_delta: the Fibonacci word with its k-th a replaced by letter k of
    y_delta and its k-th b by letter k of the hatted twin of y_delta.

    The result is over 2*delta letters and stays balanced; forgetting the
    colours (discolour) recovers the Fibonacci word exactly.
    """
    periods = {"a": _gap_period(delta, False), "b": _gap_period(delta, True)}
    return ColouringGenerator(fibonacci_sequence(), periods.__getitem__)


def discolour(source: Word | SequenceGenerator) -> Word | SequenceGenerator:
    """Project back onto {a, b}: plain letters to a, hatted letters to b.
    A generator is recoloured letter-wise with the one-letter periods
    (discolour_letter(c),).
    """
    if isinstance(source, Word):
        return Word(discolour_letter(tok) for tok in source)
    if isinstance(source, SequenceGenerator):
        return ColouringGenerator(source, lambda letter: (discolour_letter(letter),))
    raise TypeError(f"cannot discolour {type(source).__name__}")
