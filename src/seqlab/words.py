"""Finite words and infinite sequences read by prefix.

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

import operator
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

    def __reduce__(self) -> tuple[type[Word], tuple[tuple[str, ...]]]:
        # the constructor, not slot state, which __setattr__ refuses
        return Word, (self._letters,)


class _Span(Word):
    """Letters start .. stop - 1 of a tuple it shares, read as a Word.

    A span keeps the whole tuple alive, as a numpy view keeps its base. Its
    `_letters` is one transient slice, so every Word method reads the span
    as if it owned that slice; its length and an int index read no slice.
    Read it through that slice, never `itertools.islice` over the tuple,
    which walks the tuple from index 0 to reach `start`. It pickles and copies as a plain Word of its own letters.
    """

    __slots__ = ("_source", "_start", "_stop")

    def __init__(self, source: tuple[str, ...], start: int, stop: int) -> None:
        object.__setattr__(self, "_source", source)
        object.__setattr__(self, "_start", start)
        object.__setattr__(self, "_stop", stop)

    @property
    def _letters(self) -> tuple[str, ...]:
        return self._source[self._start : self._stop]

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, item: int | slice) -> str | Word:
        if isinstance(item, slice):
            return super().__getitem__(item)
        i = operator.index(item)
        if not -len(self) <= i < len(self):
            raise IndexError("Word index out of range")
        return self._source[(self._stop if i < 0 else self._start) + i]


# letters per numpy pass: its temporaries (an index or an object array, 8
# bytes a letter) stay small, so a long prefix costs its codes and its list
_CHUNK = 1 << 16


def _coded(words: Iterable[Sequence[str]]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Code the letters of `words` by first appearance: the object array of
    the distinct letters, each as first met, and each word as its codes."""
    index: dict[str, int] = {}
    coded = [[index.setdefault(letter, len(index)) for letter in word] for word in words]
    dtype = np.min_scalar_type(max(len(index) - 1, 0))
    return np.array(list(index), object), [np.array(codes, dtype) for codes in coded]


class SequenceGenerator:
    """An infinite sequence, read as any prefix of it.

    Each prefix is computed from its length alone: a generator holds its
    letters and rules, never a prefix, so a call costs the same whatever was
    asked before and prefix(m) is a prefix of prefix(n) for m <= n. A
    generator does not change once built.

    A subclass sets `_table` in its constructor, the object array of every
    letter it can emit, each once, and implements `_codes(n)`: the first n
    letters as an unsigned integer array in which code k stands for
    `_table[k]`. letters(n) returns a fresh list of the shared letter
    objects, safe to keep and to change.
    """

    def _codes(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def prefix(self, n: int) -> Word:
        return Word(self.letters(n))

    def letters(self, n: int) -> list[str]:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        codes = self._codes(n)
        letters: list[str] = []
        for i in range(0, n, _CHUNK):
            letters += self._table.take(codes[i : i + _CHUNK]).tolist()
        return letters


def _cycle(period: np.ndarray, start: int, m: int) -> np.ndarray:
    """Letters start .. start + m - 1 of `period` repeated forever."""
    r = start % len(period)
    return np.tile(period, -(-(r + m) // len(period)))[r : r + m]


class _FibonacciGenerator(SequenceGenerator):
    """The Fibonacci word f, grown from its own prefixes.

    The prefix f_k has F_{k+2} letters and f_{k+1} = f_k f_{k-1}, with
    f_{k-1} a prefix of f_k: for consecutive Fibonacci numbers
    F_j <= i < F_{j+1}, letter i of f is letter i - F_j.
    """

    def __init__(self) -> None:
        self._table = np.array(["a", "b"], object)

    def _codes(self, n: int) -> np.ndarray:
        codes = np.empty(max(n, 2), np.uint8)
        codes[:2] = 0, 1
        low, high = 1, 2  # consecutive Fibonacci numbers; codes[:high] are filled
        while high < n:
            stop = min(n, low + high)
            # stop - high <= low <= high: the copy reads only filled codes
            codes[high:stop] = codes[: stop - high]
            low, high = high, low + high
        return codes[:n]


class PeriodicGenerator(SequenceGenerator):
    """Purely periodic sequence: its period tiled."""

    def __init__(self, period: Word) -> None:
        if len(period) == 0:
            raise ValueError("period must be nonempty")
        self.period = period
        self._table, (self._period,) = _coded([period])

    def _codes(self, n: int) -> np.ndarray:
        return _cycle(self._period, 0, n)


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
    periods. The constructor asks periods(c) once per letter c of the base's
    table, in table order, and keeps only the coded answers; an empty period
    is a ValueError there, whatever prefixes are asked for later.

    A call recolours the base's codes _CHUNK letters at a time: one stable
    sort groups the occurrences of each base letter in order, and each group
    receives its period tiled from that letter's count so far in the call.
    """

    def __init__(self, base: SequenceGenerator, periods: Callable[[str], Sequence[str]]) -> None:
        self.base = base
        coloured = []
        for letter in base._table.tolist():
            coloured.append(tuple(periods(letter)))
            if not coloured[-1]:
                raise ValueError(f"empty period for letter {letter!r}")
        # base code -> its period's codes
        self._table, self._recode = _coded(coloured)

    def _codes(self, n: int) -> np.ndarray:
        base, recode = self.base._codes(n), self._recode
        out = np.empty(n, recode[0].dtype)
        counts = [0] * len(recode)
        for start in range(0, n, _CHUNK):
            segment = base[start : start + _CHUNK]
            order = np.argsort(segment, kind="stable")  # a radix sort on uint8 and uint16
            grouped = segment[order]
            cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
            firsts = [0, *cuts]
            piece = out[start : start + _CHUNK]
            for b, first, end in zip(grouped[firsts].tolist(), firsts, [*cuts, len(segment)]):
                piece[order[first:end]] = _cycle(recode[b], counts[b], end - first)
                counts[b] += end - first
        return out


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
