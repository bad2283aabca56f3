import pytest
from hypothesis import settings

from seqlab import fibonacci_sequence

# the same examples on every run and Python version: --hypothesis-profile=derandomized
settings.register_profile("derandomized", derandomize=True)

ACCEPTANCE: list[tuple[int, bool, str]] = []


@pytest.fixture
def acceptance():
    """Record one acceptance-criterion outcome and assert it."""

    def record(number: int, ok: bool, detail: str) -> None:
        ACCEPTANCE.append((number, ok, detail))
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {number}: {detail}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.write_sep("=", "acceptance criteria")
        for number, ok, detail in sorted(ACCEPTANCE):
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"ACCEPTANCE {number}: {status} - {detail}")


@pytest.fixture(scope="session")
def fib_snapshot() -> list[str]:
    return fibonacci_sequence().letters(10**4)


@pytest.fixture(scope="session")
def fib_text(fib_snapshot) -> str:
    return "".join(fib_snapshot)
