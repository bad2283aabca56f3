import io
import json
import sys
import time

import pytest

from seqlab import analysis, cli, verify
from seqlab.cli import main
from seqlab.golden import GoldenNumber


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    capsys.readouterr()
    return excinfo.value.code


def test_generate_fibonacci(capsys):
    code, out = run(capsys, "generate", "--sequence", "fibonacci", "--length", "13")
    assert code == 0
    assert out == "abaababaabaab\n"


def test_generate_colouring(capsys):
    code, out = run(capsys, "generate", "--sequence", "colouring",
                    "--delta", "3", "--length", "8")
    assert code == 0
    assert out == "1 1' 3 2 3' 3 2' 1\n"


def test_generate_zero_length(capsys):
    code, out = run(capsys, "generate", "--sequence", "fibonacci", "--length", "0")
    assert code == 0
    assert out == ""


def test_generate_constant_gap_hatted(capsys):
    code, out = run(capsys, "generate", "--sequence", "constant-gap",
                    "--delta", "3", "--hatted", "--length", "4")
    assert code == 0
    assert out == "1' 3' 2' 3'\n"


def test_generate_json_letters(capsys):
    code, out = run(capsys, "generate", "--sequence", "colouring",
                    "--delta", "2", "--length", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["text"] == "1 1' 2"
    assert doc["letters"] == [
        {"index": 1, "hat": False},
        {"index": 1, "hat": True},
        {"index": 2, "hat": False},
    ]


def test_generate_usage_errors(capsys):
    assert run_usage_error(capsys, "generate", "--sequence", "colouring",
                           "--length", "5") == 2
    assert run_usage_error(capsys, "generate", "--sequence", "colouring",
                           "--delta", "12", "--length", "5") == 2
    assert run_usage_error(capsys, "generate", "--sequence", "fibonacci",
                           "--hatted", "--length", "5") == 2
    assert run_usage_error(capsys, "generate", "--sequence", "fibonacci",
                           "--length", "-1") == 2


def test_analyze_returns(capsys):
    code, out = run(capsys, "analyze", "returns", "--word", "aba",
                    "--sequence", "fibonacci")
    assert code == 0
    assert 'returns: "aba" "ab"' in out
    assert "complete: true" in out


def test_analyze_returns_missing_factor(capsys):
    code = main(["analyze", "returns", "--word", "bb", "--sequence", "fibonacci"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_analyze_balanced_colouring(capsys):
    code, out = run(capsys, "analyze", "balanced", "--delta", "2",
                    "--horizon", "10000", "--max-window", "200")
    assert code == 0
    assert "balanced: true" in out


def test_analyze_balanced_word_witness(capsys):
    code, out = run(capsys, "analyze", "balanced", "--word", "aabb")
    assert code == 1
    assert "balanced: false" in out
    assert "windows of length 2" in out


@pytest.mark.parametrize("window", ["0", "-1"])
def test_analyze_balanced_rejects_empty_window(capsys, window):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "balanced", "--word", "abaab", "--max-window", window])
    assert excinfo.value.code == 2
    assert "--max-window must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["power", "--word", "abcab", "--min-period", "0"], "--min-period must be >= 1"),
    (["power", "--word", "abcab", "--max-period", "0"], "--max-period must be >= 1"),
    (["bispecial", "--word", "abaab", "--max-len", "-1"], "--max-len must be >= 0"),
])
def test_analyze_rejects_options_below_minimum(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bispecial", "--sequence", "fibonacci", "--delta", "3"],
     "--delta only applies to colouring"),
    (["power", "--word", "abcab", "--sequence", "fibonacci"], "takes no --sequence or --delta"),
    (["bispecial", "--word", "abaab", "--delta", "2"], "takes no --sequence or --delta"),
    (["balanced", "--word", "abaab", "--sequence", "colouring", "--delta", "2"],
     "takes no --sequence or --delta"),
    (["bispecial", "--word", "abaab", "--horizon", "3"],
     "--horizon does not apply to a standalone --word"),
    (["power", "--word", "abcab", "--horizon", "10000"],
     "--horizon does not apply to a standalone --word"),
])
def test_analyze_refuses_an_option_that_does_not_apply(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", *argv])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert message in captured.err
    assert captured.out == ""


# each of these options is read by one kind of analysis only
READERS = {"--max-window": "balanced", "--min-period": "power",
           "--max-period": "power", "--max-len": "bispecial"}


@pytest.mark.parametrize("kind, option", [
    (kind, option) for option, reader in READERS.items()
    for kind in ("occurrences", "returns", "bispecial", "balanced", "derived", "power")
    if kind != reader
])
def test_analyze_refuses_an_option_its_kind_does_not_read(capsys, kind, option):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", kind, "--word", "aba", option, "3"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert f"{option} only applies to analyze {READERS[option]}" in captured.err
    assert captured.out == ""


def test_analyze_power_word(capsys):
    code, out = run(capsys, "analyze", "power", "--word", "kabelka")
    assert code == 0
    assert 'root: "kabel"' in out
    assert "exponent: 7/5 = 1.400000" in out


def test_analyze_power_json(capsys):
    code, out = run(capsys, "analyze", "power", "--word", "kabelka",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent"] == {"numerator": 7, "denominator": 5}
    assert doc["root"]["text"] == "kabel"
    assert doc["period"] == 5


@pytest.mark.parametrize("word, other", [("1'' 2 1'' 2", "1''"), ("12 2 12 2", "12")])
def test_analyze_power_json_writes_other_letters_as_strings(capsys, word, other):
    # a letter outside the coloured alphabet is its string in JSON, not a
    # colour parsed from its digits
    code, out = run(capsys, "analyze", "power", "--word", word, "--format", "json")
    assert code == 0
    assert json.loads(out)["root"]["letters"] == [other, {"index": 2, "hat": False}]


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_analyze_power_reports_progress_on_a_terminal(capsys, monkeypatch):
    argv = ("analyze", "power", "--delta", "1", "--horizon", "2000",
            "--min-period", "20", "--max-period", "80")
    plain = run(capsys, *argv)
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    assert run(capsys, *argv) == plain
    # 61 periods, reported every 61 // 20 = 3 of them and once more at the end
    want = "".join(f"\rscanning period {done}/61" for done in range(0, 61, 3))
    assert terminal.getvalue() == want + "\rscanning period 61/61\n"


def test_analyze_occurrences_json(capsys):
    code, out = run(capsys, "analyze", "occurrences", "--word", "ab",
                    "--sequence", "fibonacci", "--horizon", "100",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["positions"][:4] == [0, 3, 5, 8]
    assert doc["count"] == len(doc["positions"])


def test_analyze_bispecial(capsys):
    code, out = run(capsys, "analyze", "bispecial", "--sequence", "fibonacci",
                    "--horizon", "2000", "--max-len", "12")
    assert code == 0
    assert 'len 3: "aba"' in out
    assert 'len 11: "abaababaaba"' in out


def test_analyze_bispecial_max_len_past_int32(capsys):
    def factors(max_len):
        code, out = run(capsys, "analyze", "bispecial", "--horizon", "100",
                        "--max-len", str(max_len), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_len"] == max_len
        return doc["factors"]

    assert factors(2**40) == factors(2**31 - 1) == factors(100)


def test_analyze_derived(capsys):
    code, out = run(capsys, "analyze", "derived", "--word", "a",
                    "--sequence", "fibonacci", "--horizon", "500")
    assert code == 0
    assert "alphabet: 2 return words" in out
    assert "derived: 12112121" in out


def test_bound_delta(capsys):
    code, out = run(capsys, "bound", "--delta", "4")
    assert code == 0
    assert "bound: 5/4 - 1/8*tau" in out
    assert "decimal: 1.047746" in out


def test_bound_d_even(capsys):
    code, out = run(capsys, "bound", "--d", "6")
    assert code == 0
    assert "decimal: 1.250000" in out


def test_bound_delta_one(capsys):
    code, out = run(capsys, "bound", "--delta", "1")
    assert code == 0
    assert "bound: 2 + tau" in out
    assert "decimal: 3.618034" in out


def test_bound_coarse_check(capsys):
    code, out = run(capsys, "bound", "--delta", "5", "--check-coarse-bound")
    assert code == 0
    assert "within coarse bound: true" in out
    # 1 + tau^3/256 = 1.0165472..., printed rounded up like every bound
    assert "coarse bound: 257/256 + 1/128*tau = 1.016548\n" in out


def test_bound_coarse_check_reports_a_bound_it_does_not_dominate(capsys, monkeypatch):
    # the command decides domination itself: a coarse bound below the colouring bound exits 1
    monkeypatch.setattr(cli, "repetitive_threshold_bound", lambda d: GoldenNumber(1))
    code, out = run(capsys, "bound", "--delta", "5", "--check-coarse-bound")
    assert code == 1
    assert "within coarse bound: false" in out


def test_bound_json(capsys):
    code, out = run(capsys, "bound", "--delta", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound_exact"] == {"a_num": 1, "a_den": 1, "b_num": 1, "b_den": 2}
    assert doc["H"] == 2
    assert doc["N0"] == 0


def test_bound_usage_errors(capsys):
    assert run_usage_error(capsys, "bound", "--d", "7") == 2
    assert run_usage_error(capsys, "bound", "--delta", "0") == 2
    assert run_usage_error(capsys, "bound", "--delta", "2", "--d", "4") == 2
    assert run_usage_error(capsys, "bound") == 2


def test_table_text_markers(capsys):
    code, out = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    markers = [line.split()[-1] for line in lines[1:]]
    assert markers == ["=", "=", "<", "=", "<"]


def test_table_csv_row_count(capsys):
    code, out = run(capsys, "table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,H,level,bound_decimal,rtb_star_decimal,marker"
    assert len(lines) == 6


def test_table_json_first_row_exact(capsys):
    code, out = run(capsys, "table", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["d"] == 2
    assert rows[0]["bound_exact"]["a_num"] == 2
    assert rows[0]["bound_exact"]["b_num"] == 1


def test_table_validation(capsys):
    assert run_usage_error(capsys, "table", "--d-max", "12") == 2
    assert run_usage_error(capsys, "table", "--d-max", "5") == 2


def test_csv_only_for_table(capsys):
    assert run_usage_error(capsys, "bound", "--delta", "1",
                           "--format", "csv") == 2


@pytest.mark.parametrize("argv, message", [
    (["generate", "--sequence", "fibonacci", "--length", "-1"], "--length must be >= 0"),
    (["generate", "--sequence", "fibonacci", "--length", "3", "--format", "csv"],
     "--format csv is only available for the table command"),
    (["analyze", "bispecial", "--sequence", "fibonacci", "--delta", "3"],
     "--delta only applies to colouring"),
    (["analyze", "power", "--word", "ab", "--format", "csv"],
     "--format csv is only available for the table command"),
    (["bound", "--d", "3"], "--d must be an even integer in 2..18"),
    (["bound", "--delta", "1", "--format", "csv"],
     "--format csv is only available for the table command"),
    (["table", "--d-max", "5"], "--d-max must be an even integer in 2..10"),
    (["verify", "--suite", "fib-properties", "--samples", "3"],
     "--suite fib-properties does not take --samples"),
    (["verify", "--suite", "fib-properties", "--format", "csv"],
     "--format csv is only available for the table command"),
])
def test_handler_usage_errors_name_their_subcommand(capsys, argv, message):
    # the same prefix and usage that argparse's own errors for the subcommand print
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: seqlab {argv[0]} [-h]")
    assert err.splitlines()[-1] == f"seqlab {argv[0]}: error: {message}"


def test_verify_fib_properties(capsys):
    code, out = run(capsys, "verify", "--suite", "fib-properties", "--n", "200")
    assert code == 0
    assert "result: pass" in out
    assert "ok: cassini" in out


def test_verify_coefficient_bounds(capsys):
    code, out = run(capsys, "verify", "--suite", "coefficient-bounds",
                    "--n", "1..10")
    assert code == 0
    assert "result: pass (10 checks)" in out


def test_verify_golden_sign_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--suite", "golden-sign",
                      "--samples", "200", "--seed", "7")
    code2, out2 = run(capsys, "verify", "--suite", "golden-sign",
                      "--samples", "200", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_parikh_membership_quick(capsys):
    code, out = run(capsys, "verify", "--suite", "parikh-membership",
                    "--max", "25", "--horizon", "3000")
    assert code == 0
    assert "result: pass" in out


def test_verify_parikh_membership_refuses_a_short_prefix(capsys):
    # 30 letters hold no 13-letter window with 9 a's, though the factor exists
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "parikh-membership", "--max", "10", "--horizon", "30"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert "horizon 30 is below 53" in captured.err
    assert captured.out == ""


def test_verify_parikh_membership_refuses_a_coefficient_above_the_cap(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "parikh-membership", "--max", "1001"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert excinfo.value.code == 2
    assert "max_coefficient 1001 exceeds 1000" in captured.err
    assert captured.out == ""


def test_verify_self_similarity_quick(capsys):
    code, out = run(capsys, "verify", "--suite", "self-similarity", "--n", "1..3")
    assert code == 0
    assert "result: pass (3 checks)" in out


def test_verify_return_words_quick(capsys):
    code, out = run(capsys, "verify", "--suite", "return-words",
                    "--n", "1..4", "--horizon", "2000", "--max-len", "8")
    assert code == 0
    assert "result: pass" in out


def test_verify_json_shape(capsys):
    code, out = run(capsys, "verify", "--suite", "fib-properties", "--n", "50",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "fib-properties"
    assert doc["passed"] is True
    assert doc["failures"] == 0
    assert all(check["passed"] for check in doc["checks"])


@pytest.mark.parametrize("argv", [
    ["--suite", "divisibility", "--delta", "2", "--max-len", "0"],
    ["--suite", "golden-sign", "--samples", "-1"],
    ["--suite", "parikh-membership", "--max", "-1"],
    ["--suite", "self-similarity", "--letters", "0"],
    ["--suite", "return-words", "--horizon", "0"],
])
def test_verify_rejects_nonpositive_options(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", *argv])
    assert excinfo.value.code == 2
    assert f"{argv[-2]} must be >= 1" in capsys.readouterr().err


def test_verify_coefficient_bounds_level_cap(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "coefficient-bounds", "--n", "40..40"])
    assert excinfo.value.code == 2
    assert "exceeds 16" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


def test_verify_fib_properties_level_cap(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "fib-properties", "--n", "1001"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds 1000" in captured.err
    assert time.perf_counter() - start < 1


def test_verify_unknown_suite(capsys):
    assert run_usage_error(capsys, "verify", "--suite", "nonsense") == 2


def test_generate_deterministic(capsys):
    _, first = run(capsys, "generate", "--sequence", "colouring",
                   "--delta", "4", "--length", "50")
    _, second = run(capsys, "generate", "--sequence", "colouring",
                    "--delta", "4", "--length", "50")
    assert first == second


def test_horizon_guard(capsys, monkeypatch):
    monkeypatch.setenv("SEQLAB_MAX_HORIZON", "100")
    assert run_usage_error(capsys, "analyze", "balanced", "--delta", "1",
                           "--horizon", "200") == 2
    monkeypatch.setenv("SEQLAB_MAX_HORIZON", "500")
    code, out = run(capsys, "analyze", "balanced", "--delta", "1",
                    "--horizon", "200")
    assert code == 0


@pytest.mark.parametrize("raw", ["1O", "10k", "-5", ""])
def test_malformed_guard_is_a_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("SEQLAB_MAX_HORIZON", raw)
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--sequence", "fibonacci", "--length", "20"])
    assert excinfo.value.code == 2
    assert "SEQLAB_MAX_HORIZON must be a positive integer" in capsys.readouterr().err


def test_default_guard_blocks_huge_horizon(capsys, monkeypatch):
    monkeypatch.delenv("SEQLAB_MAX_HORIZON", raising=False)
    assert run_usage_error(capsys, "analyze", "power", "--delta", "1",
                           "--horizon", str(2 * 10**7)) == 2


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "prefix.txt"
    code, out = run(capsys, "generate", "--sequence", "fibonacci",
                    "--length", "5", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "abaab\n"


@pytest.mark.parametrize("where, reason", [
    (lambda tmp: tmp / "missing" / "t.txt", "No such file or directory"),
    (lambda tmp: tmp, "Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_output_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, where, reason):
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "--output", str(where(tmp_path))])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--output" in errors[0] and reason in errors[0]
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, message", [
    (["--word", "abcab", "--min-period", "3", "--max-period", "2"],
     "--min-period 3 is above --max-period 2"),
    # the default --max-period of a sequence is horizon // 2 = 50
    (["--delta", "2", "--horizon", "100", "--min-period", "80"],
     "--min-period 80 is above --max-period 50"),
])
def test_analyze_power_inconsistent_window_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "power", *argv])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--word", "abcab", "--max-period", "10"],
    ["--word", "abc", "--min-period", "5"],
])
def test_analyze_power_window_past_the_word_fails_the_analysis(capsys, argv):
    code = main(["analyze", "power", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: need 1 <= min_period <= max_period")
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["occurrences", "returns", "derived"])
def test_analyze_rejects_empty_word(capsys, kind):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", kind, "--word", "", "--horizon", "10"])
    assert excinfo.value.code == 2
    assert "--word must be nonempty" in capsys.readouterr().err


def test_analyze_rejects_malformed_word(capsys):
    assert run_usage_error(capsys, "analyze", "power", "--word", "'ab") == 2


@pytest.mark.parametrize("env, argv", [
    # self-similarity at level 10 with 100 letters needs a horizon of 14,864
    ("1000", ["--suite", "self-similarity", "--n", "10"]),
    # the default horizons of 10^4, 10^5 and 2*10^5
    ("5000", ["--suite", "parikh-membership", "--max", "5"]),
    ("5000", ["--suite", "return-words", "--n", "1..2", "--max-len", "2"]),
    ("5000", ["--suite", "divisibility", "--delta", "2", "--max-len", "5"]),
    # under the default guard of 10^7: 1.25*10^7 letters, and far more at level 40
    (None, ["--suite", "self-similarity", "--n", "24"]),
    (None, ["--suite", "self-similarity", "--n", "40"]),
])
def test_verify_guard_covers_every_suite_horizon(capsys, monkeypatch, env, argv):
    if env is None:
        monkeypatch.delenv("SEQLAB_MAX_HORIZON", raising=False)
    else:
        monkeypatch.setenv("SEQLAB_MAX_HORIZON", env)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", *argv])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert "above the guard" in captured.err
    assert captured.out == ""
    assert time.perf_counter() - start < 1


def test_verify_levels_start_at_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "return-words", "--n", "0..2",
              "--horizon", "2000", "--max-len", "3"])
    assert excinfo.value.code == 2
    assert "levels must satisfy 1 <= lo <= hi, got 0..2" in capsys.readouterr().err


def test_verify_return_words_refuses_a_factor_longer_than_the_horizon(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "return-words", "--n", "28..28",
              "--horizon", "1000", "--max-len", "1"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert "level 28 has 1346267 letters, more than the horizon 1000" in captured.err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, need", [
    # both returns of every factor of length <= 40 show by R(R(40) + 1) = 361
    (["--n", "1..2", "--horizon", "200", "--max-len", "40"], 361),
    # both returns of the level-10 factor show by 2 F(13) - 2 = 464
    (["--n", "1..10", "--horizon", "300", "--max-len", "5"], 464),
])
def test_verify_return_words_refuses_a_horizon_too_short_for_both_returns(capsys, argv, need):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "return-words", *argv])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert f"is below {need}, the prefix length that shows both returns" in captured.err


def test_verify_fib_properties_refuses_a_lower_level(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "fib-properties", "--n", "150..200"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert "checks every index from 1 to N" in captured.err


def test_verify_fib_properties_names_its_lower_limit(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "fib-properties", "--n", "1"])
    assert excinfo.value.code == 2
    assert "n_max must be at least 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("suite, option, value", [
    ("golden-sign", "--n", "5"),
    ("fib-properties", "--horizon", "100"),
    ("coefficient-bounds", "--samples", "3"),
    ("self-similarity", "--delta", "2"),
    ("parikh-membership", "--letters", "4"),
    ("divisibility", "--seed", "1"),
    ("return-words", "--max", "3"),
])
def test_verify_rejects_an_option_the_suite_does_not_take(capsys, suite, option, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", suite, option, value])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert f"--suite {suite} does not take {option}" in captured.err
    assert captured.out == ""


def test_verify_divisibility_takes_repeated_deltas(capsys):
    code, out = run(capsys, "verify", "--suite", "divisibility", "--delta", "2",
                    "--delta", "3", "--horizon", "3000", "--max-len", "20")
    assert code == 0
    assert "ok: delta=2: " in out and "ok: delta=3: " in out
    assert "delta=4" not in out


def test_verify_divisibility_reports_a_stray_length_as_a_failure(capsys, monkeypatch):
    # without the longest closed-form length (53 at --max-len 60), its factors are stray
    def short_family(max_len):
        family = analysis.fibonacci_bispecial_lengths(max_len)
        del family[max(family)]
        return family

    monkeypatch.setattr(verify, "fibonacci_bispecial_lengths", short_family)
    checks = verify.divisibility_suite(deltas=(2,), horizon=20000, max_len=60)
    assert checks[0][:2] == ("delta=2: bispecial lengths in the closed-form family", False)
    assert checks[0][2].endswith("stray lengths [53]")
    code, out = run(capsys, "verify", "--suite", "divisibility", "--delta", "2",
                    "--horizon", "20000", "--max-len", "60")
    assert code == 1
    assert "FAIL: delta=2: bispecial lengths in the closed-form family" in out


def test_verify_divisibility_fails_when_no_factor_is_checked(capsys):
    code, out = run(capsys, "verify", "--suite", "divisibility", "--delta", "7",
                    "--horizon", "5000", "--max-len", "30")
    assert code == 1
    assert out.count("FAIL: delta=7: ") == 3
    assert "result: fail (3 of 3 checks failed)" in out


def test_verify_divisibility_refuses_a_repeated_delta(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "divisibility", "--delta", "2", "--delta", "2",
              "--horizon", "3000", "--max-len", "20"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert "deltas must not repeat, got [2, 2]" in captured.err
    assert captured.out == ""


def test_verify_json_to_file(capsys, tmp_path):
    target = tmp_path / "checks.json"
    code, out = run(capsys, "verify", "--suite", "fib-properties", "--n", "10",
                    "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True
