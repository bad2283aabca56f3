"""The benchmark's own tests: every workload at smoke sizes, plus its checkers.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles as O  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", "exact-cli", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rendered_decimals_pass_in_either_rounding_direction():
    _, _, a, b = O.colouring_bound(5)  # d = 10: 1.01475459...
    exact = O.golden(a, b)
    assert O.decimal_ok("1.014754", exact) and O.decimal_ok("1.014755", exact)
    assert not O.decimal_ok("1.014753", exact) and not O.decimal_ok("1.014756", exact)
    _, _, a, b = O.colouring_bound(3)  # d = 6: exactly 5/4
    assert O.decimal_ok("1.250000", O.golden(a, b))
    assert not O.decimal_ok("1.250001", O.golden(a, b))


def test_reference_comparison_masks_only_decimals():
    ref = {"code": 0, "stdout": "decimal: 1.014754\nlevel: 4\n", "stderr": False}
    assert workloads.same_cli(ref, dict(ref, stdout="decimal: 1.014755\nlevel: 4\n")) == []
    assert workloads.same_cli(ref, dict(ref, stdout="decimal: 1.014754\nlevel: 5\n"))
    assert workloads.same_cli(ref, dict(ref, code=1))
    doc = {"code": 0, "stdout": json.dumps({"d": 10, "bound_decimal": "1.014754"}),
           "stderr": False}
    extra = json.dumps({"d": 10, "bound_decimal": "1.014755", "horizon": 1})
    assert workloads.same_cli(doc, dict(doc, stdout=extra)) == []
    assert workloads.same_cli(doc, dict(doc, stdout=json.dumps({"d": 8, "bound_decimal": "1"})))


def test_checks_catch_a_wrong_scan_result():
    letters = O.colouring_word(2, 5000)
    record = workloads.A.max_fractional_power(letters, None, 100, 120)
    assert workloads._check_scan(record, letters, 2, 100, 120, [101, 110, 119]) == []
    shifted = workloads.A.RepetitionRecord(record.root, record.exponent, record.position + 1)
    assert workloads._check_scan(shifted, letters, 2, 100, 120, [101, 110, 119])
