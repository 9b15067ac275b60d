import pytest

from leadindex.model import (
    InvestigatorProfile,
    JournalYearIF,
    PublicationRecord,
    validate_dataset,
)
from leadindex.toughness import DivisorMode, ToughnessTable


@pytest.fixture
def two_level_table():
    """Tiny hand-built table: IF >= 3 weighs 2, everything else 1."""
    return ToughnessTable(
        cutoffs=(3.0,),
        divisor_mode=DivisorMode.GEOMETRIC_SUM,
        level_sizes=(1, 2),
    )


@pytest.fixture
def small_dataset():
    """Two investigators, two journals, three corresponding papers."""
    publications = [
        PublicationRecord("p1", "P1", 2010, "JA", 2, 1),
        PublicationRecord("p2", "P1", 2010, "JB", 1, 1),
        PublicationRecord("p3", "P1", 2011, "JA", 3, 2, is_corresponding=False),
        PublicationRecord("p4", "P2", 2011, "JB", 4, 1),
    ]
    journals = [
        JournalYearIF("JA", 2010, 4.0),
        JournalYearIF("JA", 2011, 4.5),
        JournalYearIF("JB", 2010, 1.0),
        JournalYearIF("JB", 2011, 1.25),
    ]
    profiles = [
        InvestigatorProfile("P1", "CN", 1, total_funding=250000.0, currency="CNY"),
        InvestigatorProfile("P2", "CN", 2),
        InvestigatorProfile("P3", "US", 3),
    ]
    return validate_dataset(publications, journals, profiles)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid or report.when != "call":
                continue
            name = nodeid.split("::", 1)[1]
            lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in sorted(lines):
        terminalreporter.write_line(f"{status}  {name}")
