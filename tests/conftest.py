import pathlib
import sys
import time
from typing import NamedTuple

import pytest

try:
    import drsbound  # noqa: F401
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


class AuditRun(NamedTuple):
    report: object  # spectrum.AuditReport
    seconds: float  # wall time of the audit_table call


@pytest.fixture(scope="session")
def table_audits():
    """`audit_table(t)` of each bundled table, run once per test session.

    Maps the table id to an AuditRun.  Tests that read the bundled audits
    share these reports instead of recomputing them; none may modify them.
    """
    from drsbound.spectrum import audit_table

    runs = {}
    for table in (1, 2, 3, 4):
        start = time.monotonic()
        report = audit_table(table)
        runs[table] = AuditRun(report, time.monotonic() - start)
    return runs
