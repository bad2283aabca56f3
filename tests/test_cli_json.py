"""JSON rendering of Words and the parser built once per process, each
checked against a plain reference: `json.dumps` with a per-letter `default`,
and a parser built fresh for every call.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab.cli import _dumps, build_parser, main
from seqlab.words import Word, letter_to_json


def letters_json(word: Word) -> list[object]:
    """Oracle: a Word's letters for json.dumps, one letter_to_json per letter."""
    return [letter_to_json(t) for t in word]


def reference(doc: object) -> str:
    return json.dumps(doc, indent=2, default=letters_json)


# the strings _dumps marks Words with on its first tries
MARKERS = ["\0" + str(tag) for tag in range(3)]

letters = st.sampled_from(["a", "b", "1", "2'", "9", "3'", "é", "ü'", "٣'", "☃", "x\"y", "\\"])
words = st.lists(letters, max_size=12).map(Word)
strings = st.text(max_size=6) | st.sampled_from(MARKERS)
leaves = words | strings | st.integers() | st.booleans() | st.none()
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=20,
)


@pytest.mark.oracle
@settings(max_examples=300)
@given(documents)
@example(Word())
@example({"letters": Word(["1", "1'", "3"]), "text": MARKERS[0]})
@example([MARKERS[0], [Word("ab"), {MARKERS[1]: Word()}], MARKERS[1], MARKERS[2]])
@example({"nested": [[{"deep": [Word(["é", "2'"])]}]]})
def test_dumps_matches_json_dumps_byte_for_byte(doc):
    assert _dumps(doc) == reference(doc)


def test_a_document_string_equal_to_a_marker_is_kept_verbatim():
    doc = {"s": MARKERS[0], "w": Word("ab"), "t": [MARKERS[1]]}
    out = _dumps(doc)
    assert out == reference(doc)
    assert json.loads(out) == {"s": MARKERS[0], "w": ["a", "b"], "t": [MARKERS[1]]}


def test_dumps_refuses_what_json_refuses():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        _dumps({"x": {"a"}})


def transcript(capsys, calls, fresh: bool) -> list[tuple[object, str, str]]:
    """Exit code, stdout and stderr of each call, with the cached parser or a
    fresh one per call."""
    outputs = []
    for argv in calls:
        if fresh:
            build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    return outputs


CALLS = [
    ["bound", "--d", "5"],  # usage error
    ["verify", "--suite", "parikh-membership", "--max", "10", "--horizon", "30"],
    ["verify", "--suite", "golden-sign", "--n", "5"],
    ["bound", "--delta", "3", "--format", "json"],
    ["verify", "--suite", "coefficient-bounds", "--n", "1..3"],
    ["generate", "--sequence", "colouring", "--delta", "2", "--length", "5", "--format", "csv"],
    ["generate", "--sequence", "colouring", "--delta", "2", "--length", "5", "--format", "json"],
    ["--help"],
    ["verify", "--help"],
    ["analyze", "--help"],
]


def test_cached_parser_prints_what_a_fresh_one_prints(capsys):
    build_parser.cache_clear()
    cached = transcript(capsys, CALLS, fresh=False)
    again = transcript(capsys, CALLS, fresh=False)
    fresh = transcript(capsys, CALLS, fresh=True)
    assert cached == again == fresh
    assert [code for code, _, _ in cached] == [2, 2, 2, 0, 0, 2, 0, 0, 0, 0]


def test_parser_is_built_once_and_its_defaults_stay_put(capsys):
    parser = build_parser()
    argv = ["verify", "--suite", "golden-sign"]
    before = vars(parser.parse_args(argv))
    transcript(capsys, CALLS, fresh=False)
    assert build_parser() is parser
    assert vars(parser.parse_args(argv)) == before
    assert isinstance(before["suite_options"], tuple)
