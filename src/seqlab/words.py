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
from itertools import cycle, islice


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


class SequenceGenerator:
    """Lazy prefix provider for an infinite sequence.

    Prefixes are memoized in one growing buffer, so prefix(m) is always a
    prefix of prefix(n) for m <= n and repeated calls return identical
    content. _extend(n) grows the buffer in place to at least n letters;
    a generator built on another reads that one's buffer after _ensure(n)
    instead of copying it. Extension is single-writer (not thread-safe);
    the lists handed out by letters() are copies and safe to share.
    """

    def __init__(self) -> None:
        self._buf: list[str] = []

    def _extend(self, n: int) -> None:
        raise NotImplementedError

    def _ensure(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        if len(self._buf) < n:
            self._extend(n)

    def prefix(self, n: int) -> Word:
        self._ensure(n)
        return Word(self._buf[:n])

    def letters(self, n: int) -> list[str]:
        self._ensure(n)
        return self._buf[:n]


class _FibonacciGenerator(SequenceGenerator):
    """The Fibonacci word f, grown from its own prefixes.

    The prefix f_k has F_{k+2} letters and f_{k+1} = f_k f_{k-1}, with
    f_{k-1} a prefix of f_k: for consecutive Fibonacci numbers
    F_j <= i < F_{j+1}, letter i of f is letter i - F_j. The buffer keeps
    the pair (F_j, F_{j+1}) that brackets its length.
    """

    def __init__(self) -> None:
        super().__init__()
        self._buf.extend("ab")
        self._pair = (2, 3)

    def _extend(self, n: int) -> None:
        buf = self._buf
        while len(buf) < n:
            low, high = self._pair
            # the copy stops at F_{j+1} - F_j <= F_j <= len(buf), so islice
            # reads only letters already in the buffer and the prefix is
            # never copied
            buf.extend(islice(buf, len(buf) - low, min(n, high) - low))
            if len(buf) == high:
                self._pair = (high, low + high)


class PeriodicGenerator(SequenceGenerator):
    """Purely periodic sequence, extended by whole periods."""

    def __init__(self, period: Word) -> None:
        super().__init__()
        if len(period) == 0:
            raise ValueError("period must be nonempty")
        self.period = period

    def _extend(self, n: int) -> None:
        rounds = -(-(n - len(self._buf)) // len(self.period))
        self._buf.extend(self.period.letters() * rounds)


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


class _Streams(dict):
    """letter -> endless cycle over its period, built when the letter first
    appears."""

    def __init__(self, periods: Callable[[str], Sequence[str]]) -> None:
        super().__init__()
        self._periods = periods

    def __missing__(self, letter: str) -> Iterator[str]:
        period = tuple(self._periods(letter))
        if not period:
            # next() on an empty cycle would end the map in _extend silently
            raise ValueError(f"empty period for letter {letter!r}")
        stream = self[letter] = cycle(period)
        return stream


class ColouringGenerator(SequenceGenerator):
    """Letter-wise recolouring of a base sequence.

    The k-th occurrence (k = 0, 1, ...) of letter c in `base` becomes
    periods(c)[k mod len(periods(c))]: each letter of the base is overwritten
    by the next letter of its own periodic stream. `colouring`, `discolour`
    and `exponents.split_letter` are this one operation with different
    periods. periods(c) is called once per distinct letter, when c first
    appears; an empty period is a ValueError.
    """

    def __init__(self, base: SequenceGenerator, periods: Callable[[str], Sequence[str]]) -> None:
        super().__init__()
        self.base = base
        self._streams = _Streams(periods)

    def _extend(self, n: int) -> None:
        # read the base's buffer in place; letters(n) would copy its prefix
        self.base._ensure(n)
        segment = self.base._buf[len(self._buf):n]
        self._buf.extend(map(next, map(self._streams.__getitem__, segment)))


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
