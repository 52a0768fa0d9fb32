"""drsbound benchmark: one workload, one seed, one JSON result on the last line.

    python3 perfbench/run.py --workload table-regen --seed 1 --seconds 32 --trace 0

Run from the repository root.  The package is imported from ./src.

--trace 0 measures the end-to-end metrics with no tracing: set-up time of a
fresh interpreter (median of several), then whole passes over the
workload's items until --seconds is used up (at least one).  Latencies are
CPU seconds scaled to a reference host speed (see HostSpeed), an item's
median over the passes.
--trace 1 makes one untraced and one traced pass, in plain CPU seconds, and
reports the per-layer metrics; the spans are kept in memory and written to
perfbench/out/ at exit.
See METRICS.md for what each metric means and which end-to-end metric each
per-layer metric should move.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: BLAS/OpenMP pools pinned to one thread, before numpy is imported.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
SETUP_REPEATS = 5
#: Host-speed sampling (see HostSpeed): CPU time between samples, reference
#: time of each kernel part (its median on a 2-core Xeon VM) and the parts
#: that track each workload best: the audit's polish is scalar root finding,
#: validate's oracle is tridiagonal eigensolves, table regeneration (array
#: scan, polynomial roots, scalar complex search) mixes them all.
SAMPLE_EVERY_S = 0.05
KERNEL_REF_S = {"scalar": 1.4e-4, "roots": 1.7e-4, "arrays": 6e-4, "tridiagonal": 7e-4}
KERNEL_PARTS = {
    "table-regen": ("scalar", "roots", "arrays", "tridiagonal"),
    "table-audit": ("scalar",),
    "validate": ("tridiagonal",),
}
SETUP_CODE = (
    "import drsbound, drsbound.cli\n"
    "from drsbound.spectrum import load_table_data\n"
    "for t in (1, 2, 3, 4):\n"
    "    load_table_data(t)\n"
)


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(importtime):
    """CPU time (user + system) of a fresh interpreter importing the package,
    and its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    start = children_cpu()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = children_cpu() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def import_seconds(stderr):
    """import.* metrics from one `python -X importtime` report.

    drsbound_s: cumulative time of `import drsbound, drsbound.cli`, numpy
    and scipy included; numpy_s and scipy_s: summed self time of every
    numpy.* and scipy.* module.
    """
    out = {"import.drsbound_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        top = fields[2][1:2] != " "  # depth 0 is printed with a single space
        if top and name in ("drsbound", "drsbound.cli"):
            out["import.drsbound_s"] += cumulative * 1e-6
        for pkg in ("numpy", "scipy"):
            if name == pkg or name.startswith(pkg + "."):
                out[f"import.{pkg}_s"] += own * 1e-6
    return out


def cpu_now():
    """CPU time of the calling thread.

    Unlike wall time it leaves out the time the thread waits: for another
    process of the guest, or for the hypervisor while another tenant's
    virtual CPU runs on the physical core (steal time; the kernel takes it
    out of task time when it has paravirtual time accounting).
    """
    return thread_time()


@dataclass(frozen=True)
class _Ring:
    a: float
    b: float


@dataclass(frozen=True)
class _Spec:
    mass: float
    k: float
    ring: _Ring
    n: int
    m: int


def _condition(e, spec):
    """A spectral condition shaped like drsbound's residuals, in no way its code."""
    if not isinstance(spec.ring, _Ring):
        raise TypeError("not a ring")
    g = complex(e) * spec.mass
    sq = lambda z: cmath.sqrt(complex(z))  # noqa: E731
    d = sq(spec.ring.a * g + 0.25) + sq(spec.ring.b * g + spec.m**2) + 2 * spec.n + 2
    return ((spec.mass + e) * sq(e - spec.mass + 3.0) - spec.k * d).real


class HostSpeed:
    """How fast this host runs, sampled while the items run.

    CPU time leaves out steal, but other tenants still slow the CPU itself
    (shared caches and cores, clock speed), by up to 2x over seconds to
    minutes on a 2-core Xeon VM, and not every kind of code alike.  A
    profiling timer interrupts the run every SAMPLE_EVERY_S of CPU time and
    times a fixed kernel that uses no drsbound code, made of the parts that
    do the kind of work the workload's items do (KERNEL_PARTS).  Each
    sample runs the kernel twice and times the second run, so that what the
    interrupted item left in the caches does not count.  An item's latency
    is its CPU time less the samples taken inside it, scaled by the
    kernel's reference time over its mean time from the last sample before
    the item to the first after it: seconds on a host where each part takes
    its KERNEL_REF_S.  Use it as a context manager around a pass.
    """

    PARTS = tuple(KERNEL_REF_S)

    def __init__(self, parts=PARTS):
        import numpy as np
        from scipy.linalg import eigh_tridiagonal
        from scipy.optimize import brentq

        self._np, self._brentq, self._eigh = np, brentq, eigh_tridiagonal
        self._specs = [
            _Spec(1.0, 0.5 + 0.2 * i, _Ring(0.2 * i, 0.2), i % 3, i % 2) for i in range(3)
        ]
        self._grid = np.linspace(0.1, 3.0, 20000)
        self._diag, self._off = 2.0 + np.linspace(0.0, 1.0, 400), -np.ones(399)
        self._parts = [getattr(self, "_" + part) for part in parts]
        self._ref = sum(KERNEL_REF_S[part] for part in parts)
        self.starts, self.spent, self.seconds = [], [], []
        self._busy = False

    def _scalar(self):
        """Scalar root finding on a dataclass-shaped spectral condition."""
        for spec in self._specs:
            self._brentq(_condition, -0.99, 20.0, args=(spec,), xtol=1e-14)

    def _roots(self):
        for i in range(2):
            self._np.roots([1.0, -0.5 * i, 0.3, -2.0])

    def _arrays(self):
        np, x = self._np, self._grid
        for _ in range(2):
            x = np.sqrt(x * 1.0001 + 0.5) - np.sign(np.sin(x)) * 1e-3

    def _tridiagonal(self):
        self._eigh(self._diag, self._off, select="i", select_range=(0, 2))

    def _kernel(self):
        for part in self._parts:
            part()

    def sample(self, *_signal):
        if self._busy:
            return
        self._busy = True
        start = cpu_now()
        self._kernel()  # warm-up, so the timed run does not pay for the item's cache footprint
        timed = cpu_now()
        self._kernel()
        end = cpu_now()
        self.starts.append(start)
        self.spent.append(end - start)
        self.seconds.append(end - timed)
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def latency(self, start, end):
        """Scaled seconds of the code run between CPU times `start` and `end`."""
        first, last = bisect_left(self.starts, start), bisect_left(self.starts, end)
        own = end - start - sum(self.spent[first:last])
        near = self.seconds[max(first - 1, 0):last + 1]
        return own * self._ref / statistics.mean(near)


def run_pass(workload, items, tracer=None, kernel=HostSpeed.PARTS):
    """Run every item once.

    Returns per-item latencies in seconds and the failures.  With a
    `kernel` (parts of the HostSpeed kernel) the pass samples the host
    speed and scales the latencies; with none it returns plain CPU seconds,
    as a traced pass must, because samples would land inside the spans.
    """
    spans, results, failures = [], [], []
    speed = HostSpeed(kernel) if kernel else None
    with speed or nullcontext():
        for item in items:
            if tracer:
                tracer.open("item")
            start = cpu_now()
            try:
                output, error = workload.run(item), None
            except Exception as exc:  # a raising item is a failed item, never a crash
                output, error = None, f"{type(exc).__name__}: {exc}"
            spans.append((start, cpu_now()))
            if tracer:
                tracer.close()
            if error is None:
                error = workload.check(item, output)
            results.append((item, output))
            if error is not None:
                failures.append(f"{item}: {error}")
    failures.extend(workload.finish(results))
    if speed is None:
        return [end - start for start, end in spans], failures
    return [speed.latency(start, end) for start, end in spans], failures


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, items, seconds):
    time_setup(False)  # byte-compile the package before timing
    setups = [time_setup(False)[0] for _ in range(SETUP_REPEATS)]
    passes, failures = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        lat, fail = run_pass(workload, items, kernel=KERNEL_PARTS[workload.name])
        passes.append(lat)
        failures.extend(fail)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    latency = [statistics.median(run) for run in zip(*passes)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(latency) / sum(latency), "1/s"),
        "item_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "item_p95_ms": (percentile(latency, 95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": len(passes),
            "item_latency_s": dict(zip(map(str, items), latency)),
            "setup_runs_s": setups}
    return metrics, len(passes) * len(items), failures, info


def per_layer(workload, items):
    from tracer import COUNTERS, SPANS, Tracer

    imports = [import_seconds(time_setup(True)[1]) for _ in range(SETUP_REPEATS)]
    metrics = {
        name: (statistics.median(run[name] for run in imports), "s") for name in imports[0]
    }
    plain, failures = run_pass(workload, items, kernel=None)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures = run_pass(workload, items, tracer, kernel=None)
    finally:
        tracer.uninstall()
    failures.extend(traced_failures)
    wall = sum(traced)
    total, own = tracer.times()
    calls = tracer.counts
    for name, (_module, _attr, size) in SPANS.items():
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_frac"] = (own[name] / wall, "ratio")
        metrics[f"{name}.total_frac"] = (total[name] / wall, "ratio")
        if size:
            metrics[f"{name}.{size}"] = (tracer.sizes[name], "count")
    for name in COUNTERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["oracle.self_consistent_energy.failed"] = (
        tracer.failed["oracle.self_consistent_energy"], "count")
    metrics["spectrum.residual.calls_per_item"] = (calls["spectrum.residual"] / len(items), "count")
    evals = calls["spectrum.squared_form"]
    zeros = tracer.sizes["spectrum.complex_zeros_drso"]
    metrics["spectrum.complex_zeros_drso.zeros_per_kilo_eval"] = (
        1e3 * zeros / evals if evals else 0.0, "ratio")
    metrics["oracle.defects"] = (len(getattr(workload, "defects", {})), "count")
    metrics["trace.traced_s"] = (wall, "s")
    metrics["trace.overhead_frac"] = (
        sum(traced) / sum(plain) - 1.0, "ratio")
    info = {
        "items": len(items),
        "untraced_s": sum(plain),
        "span_seconds": {name: {"total": total[name], "self": own[name]} for name in total},
        "spans": tracer.spans,
    }
    return metrics, 2 * len(items), failures, info


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "drsbound").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": THREAD_ENV,
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table-regen", "table-audit", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drsbound" / "__init__.py").is_file():
        print(f"error: no drsbound package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from items import WORKLOADS, shuffled

    info_stamp = stamp(args)
    workload = WORKLOADS[args.workload]()
    items = shuffled(workload.items(), args.seed)
    if args.trace:
        metrics, attempted, failures, info = per_layer(workload, items)
    else:
        metrics, attempted, failures, info = end_to_end(workload, items, args.seconds)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    defects = list(getattr(workload, "defects", {}).values())
    for line in defects:
        print(f"known defect: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{'failed_frac':55s} {len(failures) / attempted:14.6g} ratio "
          f"({len(failures)} of {attempted})", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(stamp=info_stamp, metrics=metrics, failures=failures,
                  defects=defects, **info)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print("stamp " + json.dumps(info_stamp))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
