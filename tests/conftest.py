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


class InstrumentedAudit(NamedTuple):
    brackets: list  # (a, b, port outcome, scipy outcome) of each brentq call
    polishes: int  # calls of `_polish_branch_root`
    eliminants: list  # (spec, sigma_rhs) of each `_eliminant` build


@pytest.fixture(scope="session")
def table_audits():
    """`audit_table` of each bundled table's rows, run once per test session.

    Maps the table id to an AuditRun.  Tests that read the bundled audits
    share these reports instead of recomputing them; none may modify them.
    """
    from drsbound.spectrum import audit_table, load_table_data

    runs = {}
    for table in (1, 2, 3, 4):
        start = time.monotonic()
        report = audit_table(table, load_table_data(table), 1e-4, None)
        runs[table] = AuditRun(report, time.monotonic() - start)
    return runs


@pytest.fixture(scope="session")
def instrumented_audit():
    """One `audit_table(1..4)` pass, instrumented for the tests that count its work.

    Its brentq runs scipy's beside the package's port on every bracket
    (`test_brent._twin`); the `_polish_branch_root` calls are counted and
    the `_eliminant` builds recorded, each with the spec it built for, which
    keeps the spec alive so its id stays unique.  `table_audits` stays
    uninstrumented, because its wall times are read.
    """
    from drsbound import spectrum
    from test_brent import _twin

    brackets, polishes, eliminants = [], [], []
    polish, eliminant = spectrum._polish_branch_root, spectrum._eliminant

    def counted_polish(*args, **kwargs):
        polishes.append(None)
        return polish(*args, **kwargs)

    def recorded_eliminant(spec, sigma_rhs):
        eliminants.append((spec, sigma_rhs))
        return eliminant(spec, sigma_rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "brentq", _twin(brackets))
        mp.setattr(spectrum, "_polish_branch_root", counted_polish)
        mp.setattr(spectrum, "_eliminant", recorded_eliminant)
        for table in (1, 2, 3, 4):
            spectrum.audit_table(table, spectrum.load_table_data(table), 1e-4, None)
    return InstrumentedAudit(brackets, len(polishes), eliminants)
