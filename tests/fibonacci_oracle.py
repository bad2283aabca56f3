"""An independent Fibonacci word for the tests: iterate the morphism
phi: a -> ab, b -> a from "a", letter by letter."""

from seqlab.words import Word

_IMAGES = {"a": ("a", "b"), "b": ("a",)}


def phi(word: Word) -> Word:
    """The Fibonacci morphism a -> ab, b -> a, applied letter by letter."""
    return Word(letter for c in word for letter in _IMAGES[c])


def fibonacci_oracle(n: int) -> list[str]:
    """The first n letters of phi^k("a"), for k large enough."""
    word = Word("a")
    while len(word) < n:
        word = phi(word)
    return list(word.letters()[:n])
