"""Tests of the benchmark itself: inputs, checkers and tracer.

    python3 -m pytest -q perfbench/tests

Run from the repository root.  Nothing here times anything.
"""

import copy
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import items  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from drsbound import aim, cli, model, oracle, spectrum, wavefun  # noqa: E402


@pytest.fixture(scope="module")
def regen():
    return items.TableRegen()


@pytest.fixture(scope="module")
def audit():
    return items.TableAudit()


@pytest.fixture()
def validate():
    return items.Validate()


@pytest.mark.parametrize("name", sorted(items.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = items.shuffled(items.WORKLOADS[name]().items(), 7)
    again = items.shuffled(items.WORKLOADS[name]().items(), 7)
    other = items.shuffled(items.WORKLOADS[name]().items(), 8)
    assert first == again
    assert first != other


def test_regen_order_covers_every_row_once(regen):
    order = items.shuffled(regen.items(), 3)
    expected = {(t, i) for t in items.TABLES for i in range(len(spectrum.load_table_data(t)))}
    assert len(order) == len(set(order)) == len(expected) == 240
    assert set(order) == expected


def test_audit_order_covers_every_value_once(audit):
    order = items.shuffled(audit.items(), 3)
    expected = {
        (t, i, j)
        for t in items.TABLES
        for i, row in enumerate(spectrum.load_table_data(t))
        for j in range(len(row[5]))
    }
    assert len(order) == len(set(order)) == len(expected) == 342
    assert set(order) == expected


def test_validate_pool_is_the_blind_draw(validate):
    drawn = items.pool_draws()
    stored = [{k: v for k, v in d.items() if k != "reference"} for d in validate.pool]
    assert stored == drawn
    assert sorted(items.shuffled(validate.items(), 5)) == list(range(items.POOL_SIZE))


def _reference_output(regen, item):
    return [list(f) for f in regen.reference.get(regen.key(item), [])]


def test_regen_checker_accepts_reference_and_residual_noise(regen):
    item = next(i for i in regen.items() if _reference_output(regen, i))
    output = _reference_output(regen, item)
    assert regen.check(item, output) is None
    output[0][regen.RESIDUAL] = "3.1e-16"
    assert regen.check(item, output) is None


def test_regen_checker_flags_altered_row(regen):
    item = next(i for i in regen.items() if _reference_output(regen, i))
    output = _reference_output(regen, item)
    output[0][7] = cli.fmt(float(output[0][7]) + 1e-9)
    assert regen.check(item, output) is not None
    output = _reference_output(regen, item)
    output[0][regen.RESIDUAL] = "2e-10"
    assert regen.check(item, output) is not None
    assert regen.check(item, _reference_output(regen, item)[1:]) is not None


def test_audit_checker_flags_altered_class(audit):
    item = audit.items()[0]
    entry = copy.deepcopy(audit.reference[item])
    assert audit.check(item, entry) is None
    entry["class"] = "A" if entry["class"] != "A" else "B"
    assert audit.check(item, entry) is not None


def test_audit_checker_numeric_tolerance(audit):
    item = next(i for i in audit.items() if audit.reference[i]["deviation"] is not None)
    entry = copy.deepcopy(audit.reference[item])
    entry["deviation"] += 1e-12
    assert audit.check(item, entry) is None
    entry["deviation"] += 1e-6
    assert audit.check(item, entry) is not None


def test_audit_anchor_counts(audit):
    results = [(i, audit.reference[i]) for i in audit.items()]
    assert audit.finish(results) == []
    item, entry = results[0]
    altered = dict(entry, **{"class": "A" if entry["class"] != "A" else "B"})
    assert len(audit.finish([(item, altered)] + results[1:])) == 1


class _Raising:
    def run(self, item):
        raise oracle.DivergenceError("bracketed point is not a consistent energy")

    def check(self, item, output):
        return None

    def finish(self, results):
        return []


def test_raising_item_is_a_failure():
    latencies, failures = run.run_pass(_Raising(), [0, 1])
    assert len(latencies) == 2
    assert len(failures) == 2 and "DivergenceError" in failures[0]


def test_latency_drops_samples_inside_and_scales_by_neighbours():
    speed = run.HostSpeed(("scalar", "tridiagonal"))
    ref = run.KERNEL_REF_S["scalar"] + run.KERNEL_REF_S["tridiagonal"]
    # samples at CPU times 0, 1, 2 and 5; the kernel took 1, 2, 3, 4 times the reference
    speed.starts = [0.0, 1.0, 2.0, 5.0]
    speed.spent = [0.1, 0.2, 0.3, 0.4]
    speed.seconds = [ref * k for k in (1, 2, 3, 4)]
    # an item from 0.5 to 2.5 held the samples at 1 and 2; neighbours 0 and 5
    assert speed.latency(0.5, 2.5) == pytest.approx((2.0 - 0.5) / 2.5)
    # an item from 3 to 4 held none; its neighbours are the samples at 2 and 5
    assert speed.latency(3.0, 4.0) == pytest.approx(1.0 / 3.5)


@pytest.mark.parametrize("name", sorted(items.WORKLOADS))
def test_every_workload_has_kernel_parts(name):
    parts = run.KERNEL_PARTS[name]
    assert parts and set(parts) <= set(run.HostSpeed.PARTS)
    speed = run.HostSpeed(parts)
    speed.sample()
    assert len(speed.seconds) == 1 and 0 < speed.seconds[0] <= speed.spent[0]


def test_pass_disarms_the_sampling_timer():
    latencies, failures = run.run_pass(_Raising(), [0, 1])
    assert all(lat >= 0 for lat in latencies)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def _outcome(reference, **changes):
    out = {k: v for k, v in reference.items() if k != "missed"}
    out.update(changes)
    return out


def test_validate_flags_new_divergence(validate):
    item = next(i for i, d in enumerate(validate.pool) if not d["reference"]["missed"])
    ref = validate.pool[item]["reference"]
    assert validate.check(item, _outcome(ref)) is None
    diverged = _outcome(ref, oracle=None, oracle_error="bracketed point is not a consistent energy")
    assert "oracle" in validate.check(item, diverged)
    assert validate.defects == {}


def test_validate_lists_known_defect(validate):
    item = next(i for i, d in enumerate(validate.pool) if d["reference"]["missed"])
    ref = validate.pool[item]["reference"]
    assert validate.check(item, _outcome(ref)) is None
    assert item in validate.defects
    wrong_root = _outcome(ref, root=ref["root"] + 1e-6)
    assert validate.check(item, wrong_root) is not None


def test_import_seconds_parses_importtime():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        400 |     numpy.core",
        "import time:       200 |        600 |   numpy",
        "import time:       300 |        300 |   scipy.optimize",
        "import time:        50 |       1000 | drsbound",
        "import time:        20 |         20 | drsbound.cli",
    ])
    got = run.import_seconds(report)
    assert got["import.numpy_s"] == pytest.approx(300e-6)
    assert got["import.scipy_s"] == pytest.approx(300e-6)
    assert got["import.drsbound_s"] == pytest.approx(1020e-6)


def test_tracer_patches_every_binding_and_restores():
    original, derive = spectrum.find_roots, wavefun.derive_coefficients
    tracer = Tracer()
    tracer.install()
    try:
        assert spectrum.find_roots is not original
        assert cli.find_roots is spectrum.find_roots
        assert wavefun.derive_coefficients is not derive
        assert wavefun.derive_coefficients is model.derive_coefficients
        assert spectrum.brentq is not aim.brentq
    finally:
        tracer.uninstall()
    assert spectrum.find_roots is original and cli.find_roots is original
    assert wavefun.derive_coefficients is derive


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["item", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 4.0, 5.5, 1],
        ["a", 7.0, 8.0, 0],
    ]
    total, own = tracer.times()
    assert total["a"] == pytest.approx(6.0) and own["a"] == pytest.approx(3.5)
    assert total["b"] == pytest.approx(2.5) and own["b"] == pytest.approx(2.5)
    assert own["item"] == pytest.approx(4.0)
