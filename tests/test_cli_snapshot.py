"""CLI byte identity: replay recorded invocations and compare stdout digests.

tests/data/cli_stdout.json holds, for each argv, the sha256 of the standard
output of `seqlab.cli.main(argv)` and its exit code. After an intended
change of output, re-record with `PYTHONPATH=src python tests/test_cli_snapshot.py`
and say in the change which invocations moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from seqlab.cli import main

SNAPSHOT = Path(__file__).parent / "data" / "cli_stdout.json"


def replay(argv: list[str]) -> tuple[str, int]:
    """(sha256 of stdout, exit code) of one in-process invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def _entries() -> list[dict]:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _default_guard(monkeypatch):
    monkeypatch.delenv("SEQLAB_MAX_HORIZON", raising=False)


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["argv"]))
def test_cli_stdout_is_unchanged(entry):
    assert replay(entry["argv"]) == (entry["sha256"], entry["exit"])


if __name__ == "__main__":
    os.environ.pop("SEQLAB_MAX_HORIZON", None)
    recorded = []
    for entry in _entries():
        digest, code = replay(entry["argv"])
        recorded.append({"argv": entry["argv"], "sha256": digest, "exit": code})
    lines = ",\n".join(json.dumps(entry) for entry in recorded)
    SNAPSHOT.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
