"""Shared test plumbing: the acceptance-criteria summary printed after a run,
and a hypothesis strategy for JSON-like values."""

from hypothesis import strategies as st

_CRITERIA_LINES = {}

# null, bools, ints, floats (NaN and inf included), strings, lists and objects
json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=8)


def record_criterion(number: int, passed: bool, detail: str) -> None:
    """Collect one acceptance-criterion outcome for the end-of-run summary."""
    status = "PASS" if passed else "FAIL"
    _CRITERIA_LINES[number] = f"criterion {number:2d} {status}  {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA_LINES):
        terminalreporter.write_line(_CRITERIA_LINES[number])
