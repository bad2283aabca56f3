"""Hypothesis fuzzing of the command line.

Arguments are drawn from the option grammar of each command, with small,
zero and negative values, empty and malformed words and inverted windows,
under a horizon guard of 5000. Whatever the draw, `main` must exit with 0,
1 or 2, raise nothing but SystemExit, and write nothing to standard output
on a usage error (2).
"""

import contextlib
import inspect
import io
import os
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.cli import main
from seqlab.verify import SUITES

# mostly valid values, so that draws get past the usage checks often enough
SMALL = st.sampled_from([-1, 0, 1, 2, 3, 5, 8, 12])
DELTAS = st.sampled_from([0, 1, 2, 3, 4, 9, 10])
HORIZONS = st.sampled_from([-1, 0, 1, 2, 7, 60, 500, 500, 2000, 5001])
PERIODS = st.sampled_from([-1, 0, 1, 2, 3, 5, 40, 300])
WORDS = st.sampled_from(["", " ", "a", "ab", "aba", "abaab", "abaab", "bb", "abcab", "kabelka",
                         "'a", "1 1'", "1 2' 1"])
SPANS = st.sampled_from(["0..2", "1", "2", "4", "3..2", "1..3", "2..5", "x", "-1", "1..40"])


# option -> (values, odds against drawing it); the verify options are keyed
# by the suite keyword they set
GENERATE = {
    "--sequence": (st.sampled_from(["fibonacci", "constant-gap", "colouring"]), 0),
    "--delta": (DELTAS, 1),
    "--length": (st.sampled_from([-1, 0, 1, 5, 40, 5001]), 0),
}
ANALYZE = {
    "--word": (WORDS, 0),
    "--sequence": (st.sampled_from(["fibonacci", "colouring"]), 2),
    "--delta": (DELTAS, 2),
    "--horizon": (HORIZONS, 0),
    "--max-window": (SMALL, 3),
    "--min-period": (PERIODS, 2),
    "--max-period": (PERIODS, 2),
    "--max-len": (st.integers(-1, 8), 2),
}
# the one kind that reads each of these; any other kind refuses it
ANALYZE_READERS = {"--max-window": "balanced", "--min-period": "power",
                   "--max-period": "power", "--max-len": "bispecial"}
VERIFY = {
    "levels": ("--n", SPANS),
    "max_coefficient": ("--max", SMALL),
    "deltas": ("--delta", DELTAS),
    "horizon": ("--horizon", HORIZONS),
    "samples": ("--samples", SMALL),
    "seed": ("--seed", SMALL),
    "max_len": ("--max-len", SMALL),
    "letters": ("--letters", SMALL),
}


@st.composite
def argvs(draw) -> list[str]:
    def option(flag: str, values: st.SearchStrategy, odds: int) -> list[str]:
        if draw(st.sampled_from(range(odds + 1))) > 0:
            return []
        return [flag, str(draw(values))]

    command = draw(st.sampled_from(["generate", "analyze", "bound", "table", "verify"]))
    parts = [option("--format", st.sampled_from(["text", "json", "csv"]), 2)]
    if command == "generate":
        parts += [option(flag, *spec) for flag, spec in GENERATE.items()]
        parts.append(draw(st.sampled_from([[], ["--hatted"]])))
    elif command == "analyze":
        kind = draw(st.sampled_from(["occurrences", "returns", "bispecial",
                                     "balanced", "derived", "power"]))
        parts.append([kind])
        # an option the kind does not read is drawn rarely: it is always a usage error
        parts += [option(flag, values, odds if ANALYZE_READERS.get(flag, kind) == kind else 12)
                  for flag, (values, odds) in ANALYZE.items()]
    elif command == "bound":
        parts += [option("--delta", DELTAS, 1), option("--d", SMALL, 2),
                  draw(st.sampled_from([[], ["--check-coarse-bound"]]))]
    elif command == "table":
        parts.append(option("--d-max", SMALL, 1))
    else:
        suite = draw(st.sampled_from(sorted(SUITES)))
        takes = inspect.signature(SUITES[suite]).parameters
        parts.append(["--suite", suite])
        # an option the suite does not take is drawn rarely: it is always a usage error
        parts += [option(flag, values, 1 if keyword in takes else 12)
                  for keyword, (flag, values) in VERIFY.items()]
    order = draw(st.permutations(range(len(parts))))
    return [command] + [token for k in order for token in parts[k]]


def test_fuzzed_argv_exits_cleanly():
    start = time.perf_counter()

    @settings(max_examples=150, deadline=None, database=None)
    @given(argvs())
    def check(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out.getvalue() == "", argv

    with mock.patch.dict(os.environ, {"SEQLAB_MAX_HORIZON": "5000"}):
        check()
    assert time.perf_counter() - start < 5
