"""Finite words, morphisms, and lazily extended infinite sequences.

Letters are short string tokens. The binary alphabet is {"a", "b"}; the
gap-colouring alphabets use the digits "1".."9" for plain letters and a
digit with an ASCII apostrophe ("3'") for their hatted twins. A word over
single-character letters serializes to the bare concatenation ("abaab");
anything else serializes space-separated ("1 1' 3 2 3'").
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping


def coloured_letter(index: int, hatted: bool = False) -> str:
    if not 1 <= index <= 9:
        raise ValueError(f"colour index must be in 1..9, got {index}")
    return f"{index}'" if hatted else str(index)


def is_hatted(letter: str) -> bool:
    return letter.endswith("'")


def letter_index(letter: str) -> int:
    core = letter[:-1] if letter.endswith("'") else letter
    if not core.isdigit():
        raise ValueError(f"not a coloured letter: {letter!r}")
    return int(core)


def discolour_letter(letter: str) -> str:
    """Forget the colour: hatted letters map to "b", everything else to "a"."""
    if letter in ("a", "b"):
        return letter
    return "b" if is_hatted(letter) else "a"


def letter_to_json(letter: str) -> object:
    if letter[:1].isdigit():
        return {"index": letter_index(letter), "hat": is_hatted(letter)}
    return letter


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


class Morphism:
    """Letter-to-word substitution, applied homomorphically."""

    __slots__ = ("_images",)

    def __init__(self, images: Mapping[str, Word | str | Iterable[str]]) -> None:
        table: dict[str, tuple[str, ...]] = {}
        for letter, image in images.items():
            if isinstance(image, Word):
                toks = image.letters()
            elif isinstance(image, str):
                toks = Word.from_text(image).letters()
            else:
                toks = tuple(image)
            table[letter] = toks
        object.__setattr__(self, "_images", table)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Morphism is immutable")

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._images)

    def _image_letters(self, letter: str) -> tuple[str, ...]:
        try:
            return self._images[letter]
        except KeyError:
            raise KeyError(f"morphism has no image for letter {letter!r}") from None

    def __call__(self, word: Word) -> Word:
        out: list[str] = []
        for letter in word:
            out.extend(self._image_letters(letter))
        return Word(out)

    def is_prolongable(self, seed: str) -> bool:
        """True when the image of seed starts with seed and is longer than it."""
        img = self._image_letters(seed)
        return len(img) >= 2 and img[0] == seed

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {''.join(v)!r}" for k, v in sorted(self._images.items()))
        return f"Morphism({{{body}}})"


FIBONACCI_MORPHISM = Morphism({"a": "ab", "b": "a"})


class SequenceGenerator:
    """Lazy prefix provider for an infinite sequence.

    Prefixes are memoized in one growing buffer, so prefix(m) is always a
    prefix of prefix(n) for m <= n and repeated calls return identical
    content. Extension is single-writer (not thread-safe); the lists handed
    out by letters() are copies and safe to share.
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


class FixedPointGenerator(SequenceGenerator):
    """Fixed point of a morphism prolongable on its seed letter.

    The buffer doubles as the input tape: position i of the fixed point has
    already been produced by the time its image is needed, so extension is
    a single linear scan.
    """

    def __init__(self, morphism: Morphism, seed: str) -> None:
        super().__init__()
        if not morphism.is_prolongable(seed):
            raise ValueError(
                f"morphism is not prolongable on {seed!r}: "
                "the image must start with the seed and have length >= 2"
            )
        self.morphism = morphism
        self.seed = seed
        self._images = {letter: morphism._image_letters(letter) for letter in morphism.domain}
        self._buf.extend(self._images[seed])
        self._next = 1

    def _extend(self, n: int) -> None:
        buf = self._buf
        images = self._images
        while len(buf) < n:
            buf.extend(images[buf[self._next]])
            self._next += 1


class PeriodicGenerator(SequenceGenerator):
    """Purely periodic sequence, extended by whole periods."""

    def __init__(self, period: Word) -> None:
        super().__init__()
        if len(period) == 0:
            raise ValueError("period must be nonempty")
        self.period = period
        self._period_letters = period.letters()

    def _extend(self, n: int) -> None:
        rounds = -(-(n - len(self._buf)) // len(self._period_letters))
        self._buf.extend(self._period_letters * rounds)


class ConstantGapSequence(PeriodicGenerator):
    """y_delta: the canonical constant-gap sequence over delta letters."""

    def __init__(self, period: Word, delta: int, hatted: bool) -> None:
        super().__init__(period)
        self.delta = delta
        self.hatted = hatted

    @property
    def period_length(self) -> int:
        return len(self.period)


def constant_gap(delta: int, hatted: bool = False) -> ConstantGapSequence:
    """Build y_delta (period 2^(delta-1)): start from 1^w, then for each new
    letter k stretch the current sequence onto the even positions and put k
    on every odd position. Every letter ends up in an arithmetic progression.
    """
    if not 1 <= delta <= 9:
        raise ValueError(f"delta must be in 1..9, got {delta}")
    period = ["1"]
    for k in range(2, delta + 1):
        letter = str(k)
        stretched: list[str] = []
        for tok in period:
            stretched.append(tok)
            stretched.append(letter)
        period = stretched
    if hatted:
        period = [tok + "'" for tok in period]
    return ConstantGapSequence(Word(period), delta, hatted)


class ColouringGenerator(SequenceGenerator):
    """Recolour a binary sequence: the subsequence of a's is overwritten by
    one letter stream and the subsequence of b's by another, each consumed
    left to right with its own cursor.
    """

    def __init__(
        self,
        base: SequenceGenerator,
        plain: SequenceGenerator,
        hat: SequenceGenerator,
    ) -> None:
        super().__init__()
        self.base = base
        self.plain = plain
        self.hat = hat
        self._taken_plain = 0
        self._taken_hat = 0

    def _extend(self, n: int) -> None:
        start = len(self._buf)
        base_letters = self.base.letters(n)
        segment = base_letters[start:n]
        need_plain = self._taken_plain + segment.count("a")
        need_hat = self._taken_hat + segment.count("b")
        plain_letters = self.plain.letters(need_plain)
        hat_letters = self.hat.letters(need_hat)
        buf = self._buf
        i, j = self._taken_plain, self._taken_hat
        for c in segment:
            if c == "a":
                buf.append(plain_letters[i])
                i += 1
            elif c == "b":
                buf.append(hat_letters[j])
                j += 1
            else:
                raise ValueError(f"colouring expects letters 'a'/'b', got {c!r}")
        self._taken_plain, self._taken_hat = i, j


class MappedGenerator(SequenceGenerator):
    """Letter-by-letter image of another generator."""

    def __init__(self, base: SequenceGenerator, mapping: Callable[[str], str]) -> None:
        super().__init__()
        self.base = base
        self.mapping = mapping

    def _extend(self, n: int) -> None:
        start = len(self._buf)
        self._buf.extend(map(self.mapping, self.base.letters(n)[start:]))


def fixed_point(morphism: Morphism, seed: str) -> FixedPointGenerator:
    return FixedPointGenerator(morphism, seed)


def fibonacci_sequence() -> FixedPointGenerator:
    """The Fibonacci word, fixed point of a -> ab, b -> a."""
    return FixedPointGenerator(FIBONACCI_MORPHISM, "a")


def colouring(delta: int) -> ColouringGenerator:
    """v_delta: the Fibonacci word coloured by y_delta and its hatted twin.

    The result is over 2*delta letters and stays balanced; forgetting the
    colours (discolour) recovers the Fibonacci word exactly.
    """
    return ColouringGenerator(
        fibonacci_sequence(),
        constant_gap(delta),
        constant_gap(delta, hatted=True),
    )


def discolour(source: Word | SequenceGenerator) -> Word | SequenceGenerator:
    """Project back onto {a, b}: plain letters to a, hatted letters to b."""
    if isinstance(source, Word):
        return Word(discolour_letter(tok) for tok in source)
    if isinstance(source, SequenceGenerator):
        return MappedGenerator(source, discolour_letter)
    raise TypeError(f"cannot discolour {type(source).__name__}")
