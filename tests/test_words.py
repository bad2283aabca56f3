import copy
import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab.words import (
    COLOURED_LETTERS,
    ColouringGenerator,
    PeriodicGenerator,
    Word,
    coloured_letter,
    colouring,
    constant_gap,
    discolour,
    discolour_letter,
    fibonacci_sequence,
    letter_to_json,
)

from seqlab.exponents import split_letter

from fibonacci_oracle import fibonacci_oracle

letters = st.sampled_from(["a", "b", "1", "2'", "3"])
words = st.lists(letters, max_size=40).map(Word)


def test_letter_helpers():
    assert coloured_letter(3) == "3"
    assert coloured_letter(3, hatted=True) == "3'"
    assert discolour_letter("4") == "a"
    assert discolour_letter("4'") == "b"
    assert discolour_letter("a") == "a" and discolour_letter("b") == "b"
    assert letter_to_json("b") == "b"
    assert letter_to_json("2'") == {"index": 2, "hat": True}
    for index in (0, 10, 2.5):
        with pytest.raises(ValueError, match="colour index must be in 1..9"):
            coloured_letter(index)


@pytest.mark.parametrize("letter, rendered", [
    ("a", "a"),
    ("A", "A"),
    ("1", {"index": 1, "hat": False}),
    ("9'", {"index": 9, "hat": True}),
    # not letters of the coloured alphabet: written as they are
    ("12", "12"),
    ("1''", "1''"),
    ("1a", "1a"),
    ("10'", "10'"),
])
def test_letter_to_json_renders_exactly_the_coloured_letters(letter, rendered):
    assert letter_to_json(letter) == rendered


@pytest.mark.parametrize("delta", range(1, 10))
def test_every_generator_hands_out_the_same_letter_objects(delta):
    n = 3 * 2 ** delta
    for make in (colouring, lambda d: constant_gap(d, False), lambda d: constant_gap(d, True)):
        first, second = make(delta).letters(n), make(delta).letters(n)
        assert first == second
        assert all(x is y for x, y in zip(first, second))
    table = {id(t) for t in COLOURED_LETTERS}
    assert {id(t) for t in colouring(delta).letters(n)} <= table


def discolour_letter_oracle(letter: str) -> str:
    """The rule itself, decided afresh on every call."""
    if letter in ("a", "b"):
        return letter
    return "b" if letter.endswith("'") else "a"


COLOUR_LETTERS = ["a", "b"] + [coloured_letter(i, hat) for i in range(1, 10)
                               for hat in (False, True)]


def test_discolour_letter_matches_oracle_on_every_colour_letter():
    # the letters of every colouring (delta = 1..9), a and b
    assert [discolour_letter(tok) for tok in COLOUR_LETTERS] == [
        discolour_letter_oracle(tok) for tok in COLOUR_LETTERS]


@pytest.mark.oracle
@given(letter=st.text(max_size=4))
@example("'")
@example("a'")
@example("ab")
@settings(max_examples=300)
def test_discolour_letter_matches_oracle(letter):
    # twice: the first call decides the letter, the second reads it back
    assert discolour_letter(letter) == discolour_letter_oracle(letter)
    assert discolour_letter(letter) == discolour_letter_oracle(letter)


def test_word_text_round_trip():
    for text in ("abaab", "1 1' 3 2 3'", "", "a"):
        assert Word.from_text(text).to_text() == text
    # single-character letters join bare, mixed alphabets stay spaced
    assert Word(["a", "b", "a"]).to_text() == "aba"
    assert Word(["1", "2'"]).to_text() == "1 2'"


def test_word_operations():
    w = Word.from_text("abaab")
    assert len(w) == 5
    assert w[1] == "b"
    assert w[1:3] == Word.from_text("ba")
    assert w + Word.from_text("a") == Word.from_text("abaaba")
    assert Word.from_text("ab") * 3 == Word.from_text("ababab")
    assert w.startswith(Word.from_text("aba"))
    assert not w.startswith(Word.from_text("ab" * 3))
    assert w.count("a") == 3
    assert dict(w.parikh()) == {"a": 3, "b": 2}


@pytest.mark.parametrize("text", ["", "abaab", "1 1' 3 2 3'"])
def test_word_pickles_and_copies_through_its_constructor(text):
    w = Word.from_text(text)
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(twin) is Word and twin == w and twin.letters() == w.letters()


@given(u=words, v=words)
def test_parikh_additivity(u, v):
    combined = (u + v).parikh()
    separate = u.parikh() + v.parikh()
    assert combined == separate


def test_fibonacci_prefix():
    assert fibonacci_sequence().prefix(13).to_text() == "abaababaabaab"


def test_fibonacci_prefix_consistency():
    gen = fibonacci_sequence()
    long = gen.prefix(600)
    for n in (0, 1, 2, 3, 5, 89, 599):
        assert long.startswith(gen.prefix(n))


@pytest.mark.oracle
@given(st.lists(st.integers(0, 5000), min_size=1, max_size=8))
@example([0, 1, 2, 3, 4, 5, 13, 89, 600])
@example([600, 89, 13, 5, 4, 3, 2, 1, 0])
@example([4180, 4181, 4182, 6765])  # on and next to F_19 = 4181
def test_fibonacci_sequence_matches_phi_oracle(lengths):
    """One generator asked in any order matches phi^k("a")."""
    gen = fibonacci_sequence()
    oracle = fibonacci_oracle(max(lengths))
    for n in lengths:
        assert gen.letters(n) == oracle[:n]


def test_constant_gap_periods():
    assert constant_gap(1).prefix(4).to_text() == "1111"
    assert constant_gap(2).prefix(4).to_text() == "1212"
    assert constant_gap(3).prefix(8).to_text() == "13231323"
    assert constant_gap(4).prefix(8).to_text() == "14342434"
    for delta in range(1, 7):
        assert len(constant_gap(delta).period) == 2 ** (delta - 1)


def stretched_gap_period(delta, hatted):
    """y_delta by its construction: start from 1, then for each new letter k
    stretch the period onto the even positions and put k on every odd one."""
    period = ["1"]
    for k in range(2, delta + 1):
        period = [tok for old in period for tok in (old, str(k))]
    return [tok + "'" for tok in period] if hatted else period


@pytest.mark.parametrize("hatted", [False, True])
@pytest.mark.parametrize("delta", range(1, 10))
def test_constant_gap_matches_stretch_oracle(delta, hatted):
    assert constant_gap(delta, hatted).period.letters() == tuple(stretched_gap_period(delta, hatted))


@pytest.mark.parametrize("delta", range(1, 10))
def test_constant_gap_letters_sit_on_residue_classes(delta):
    # 1 exactly on the multiples of 2^(delta-1), and each k >= 2 exactly on
    # the class 2^(delta-k) modulo 2^(delta-k+1)
    period = 2 ** (delta - 1)
    for i, tok in enumerate(constant_gap(delta).letters(3 * period)):
        k = letter_to_json(tok)["index"]
        if k == 1:
            assert i % period == 0
        else:
            assert i % 2 ** (delta - k + 1) == 2 ** (delta - k)


def test_constant_gap_hatted_copy():
    hatted = constant_gap(3, hatted=True)
    assert hatted.prefix(4).to_text() == "1' 3' 2' 3'"
    assert all(t.endswith("'") for t in hatted.letters(32))


def test_constant_gap_positions_are_arithmetic():
    # each letter recurs at a constant distance within one full period window
    for delta in range(1, 7):
        period = 2 ** (delta - 1)
        snapshot = constant_gap(delta).letters(8 * period)
        for letter in {snapshot[i] for i in range(period)}:
            positions = [i for i, t in enumerate(snapshot) if t == letter]
            gaps = {b - a for a, b in zip(positions, positions[1:])}
            assert len(gaps) == 1, (delta, letter, sorted(gaps))


def test_colouring_prefix_examples():
    want_v3 = ("1 1' 3 2 3' 3 2' 1 3 3' 2 3 1' 1 3' 3 2 2' 3 3' "
               "1 3 1' 2 3 3' 1 2' 3 2 3'")
    assert colouring(3).prefix(31).to_text() == want_v3
    assert colouring(1).prefix(8).to_text() == "1 1' 1 1 1' 1 1' 1"
    assert colouring(2).prefix(8).to_text() == "1 1' 2 1 2' 2 1' 1"
    assert colouring(4).prefix(8).to_text() == "1 1' 4 3 4' 4 3' 2"


def test_colouring_alphabet_size():
    for delta in (1, 2, 3, 4):
        snapshot = colouring(delta).letters(4096)
        assert len(set(snapshot)) == 2 * delta


def test_colouring_rejects_bad_delta():
    with pytest.raises(ValueError):
        colouring(0)
    with pytest.raises(ValueError):
        colouring(10)


def test_discolour_round_trip_long():
    base = fibonacci_sequence().letters(10**5)
    assert discolour(colouring(3)).letters(10**5) == base


@pytest.mark.parametrize("delta", [1, 2, 4, 5])
def test_discolour_round_trip(delta):
    base = fibonacci_sequence().letters(10**4)
    assert discolour(colouring(delta)).letters(10**4) == base


def test_discolour_word_dispatch():
    word = colouring(3).prefix(8)
    assert discolour(word) == Word.from_text("abaababa")


@given(n=st.integers(0, 300), m=st.integers(0, 300))
@settings(max_examples=60)
def test_colouring_prefix_consistency(n, m):
    gen = colouring(2)
    small, large = sorted((n, m))
    assert gen.prefix(large).startswith(gen.prefix(small))


def recoloured(base: list[str], periods: dict[str, tuple[str, ...]]) -> list[str]:
    """The definition letter by letter: the k-th c becomes periods[c][k mod len]."""
    seen: Counter[str] = Counter()
    out = []
    for c in base:
        period = periods[c]
        out.append(period[seen[c] % len(period)])
        seen[c] += 1
    return out


@given(
    base=st.lists(st.sampled_from("abc"), min_size=1, max_size=12),
    periods=st.fixed_dictionaries({
        c: st.lists(st.sampled_from(["a", "1", "2'", "x"]), min_size=1, max_size=5).map(tuple)
        for c in "abc"
    }),
    growth=st.lists(st.tuples(st.booleans(), st.integers(0, 150)), max_size=8),
)
@settings(max_examples=150)
def test_colouring_generator_matches_definition(base, periods, growth):
    calls = []

    def period_of(c):
        calls.append(c)
        return periods[c]

    source = PeriodicGenerator(Word(base))
    gen = ColouringGenerator(source, period_of)
    want = recoloured(base * 160, periods)
    # grow the recolouring and, in between, its base ahead of it, in any order
    for grow_base, n in growth:
        if grow_base:
            source.letters(n)
        else:
            assert gen.letters(n) == want[:n]
    assert gen.prefix(150) == Word(want[:150])
    assert sorted(calls) == sorted(set(base))


@pytest.mark.parametrize("delta", range(1, 10))
def test_colouring_matches_definition(delta):
    periods = {
        "a": constant_gap(delta).period.letters(),
        "b": constant_gap(delta, hatted=True).period.letters(),
    }
    want = recoloured(fibonacci_sequence().letters(10**4), periods)
    assert colouring(delta).letters(10**4) == want


def test_colouring_generator_rejects_empty_period():
    with pytest.raises(ValueError, match="empty period for letter 'b'"):
        ColouringGenerator(fibonacci_sequence(), {"a": ("1",), "b": ()}.__getitem__)


def assert_table_is_the_alphabet(gen):
    table = gen._table.tolist()  # read before any letters() call
    assert len(table) == len(set(table))
    assert set(table) == set(gen.letters(10**4))


# every kind of generator the package builds, each before any letters() call
TABLE_CASES = {
    "fibonacci": fibonacci_sequence,
    **{f"colouring-{d}": lambda d=d: colouring(d) for d in range(1, 10)},
    **{f"gap-{d}-{h}": lambda d=d, h=h: constant_gap(d, h) for d in range(1, 10) for h in (0, 1)},
    **{f"discolour-{d}": lambda d=d: discolour(colouring(d)) for d in range(1, 10)},
    "split": lambda: split_letter(colouring(2), "2"),
}


@pytest.mark.oracle
@pytest.mark.parametrize("case", TABLE_CASES)
def test_letter_table_is_fixed_at_construction(case):
    assert_table_is_the_alphabet(TABLE_CASES[case]())


@pytest.mark.oracle
@given(period=st.lists(letters, min_size=1, max_size=40))
@settings(max_examples=60)
def test_periodic_letter_table_is_fixed_at_construction(period):
    assert_table_is_the_alphabet(PeriodicGenerator(Word(period)))


@pytest.fixture(scope="module")
def million_fibonacci():
    return fibonacci_oracle(10**6)


@pytest.mark.oracle
@pytest.mark.parametrize("delta", [1, 4, 9])
def test_colouring_matches_definition_at_a_million_letters(delta, million_fibonacci):
    periods = {"a": stretched_gap_period(delta, False), "b": stretched_gap_period(delta, True)}
    got = colouring(delta).letters(10**6)
    assert got == recoloured(million_fibonacci, periods)
    shared = {letter: letter for letter in COLOURED_LETTERS}
    assert all(letter is shared[letter] for letter in got)
    assert discolour(colouring(delta)).letters(10**6) == million_fibonacci


@pytest.mark.oracle
def test_colouring_generator_over_a_wide_base_matches_definition():
    base = [f"x{i}" for i in range(5000)]
    rng = random.Random(5000)
    periods = {c: tuple(rng.choice(["a", "1", "2'", c]) for _ in range(rng.randint(1, 4)))
               for c in base}
    source = PeriodicGenerator(Word(base))
    gen = ColouringGenerator(source, periods.__getitem__)
    want = recoloured(base * 4, periods)
    # steps that end inside a period of the base
    for n in (1, 4999, 5001, 12000, 3 * 5000 + 17):
        assert gen.letters(n) == want[:n]
    assert source._codes(n).dtype == np.uint16


@pytest.mark.parametrize("make", [fibonacci_sequence, lambda: colouring(3)],
                         ids=["fibonacci", "colouring"])
def test_growth_in_small_steps_matches_one_shot(make):
    n = 2 * 10**4
    rng = random.Random(n)
    steps = list(range(1, 2001))
    while steps[-1] < n:
        steps.append(min(n, steps[-1] + rng.randint(1, 40)))
    gen = make()
    for m in steps:
        assert len(gen.letters(m)) == m
    assert gen.letters(n) == make().letters(n)


def test_a_generator_keeps_no_prefix():
    gen = discolour(colouring(3))
    assert len(gen.letters(10**5)) == 10**5
    chain = [gen, gen.base, gen.base.base]
    held = [len(value) for g in chain for value in vars(g).values() if isinstance(value, np.ndarray)]
    held += [len(codes) for g in chain for codes in getattr(g, "_recode", None) or ()]
    # at most the 6 letters of v_3's alphabet or its period of 4, never a prefix
    assert held and max(held) <= 6
