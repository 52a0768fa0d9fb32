"""Workload inputs, the per-item calls into drsbound and their correctness checks.

A workload is a fixed list of items, put in an order drawn from the seed.
`run(item)` makes exactly the calls a user of the package would make;
`check(item, output)` returns None when the output matches the reference
captured from the package's own CLI (see make_reference.py) or a string
saying what differs.  Every reference file lives in `reference/`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Calls go through the module attributes, so the traced run sees them.
from drsbound import aim, cli, nonrel, oracle, spectrum, wavefun

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TABLES = (1, 2, 3, 4)

#: find_roots' default residual tolerance; regenerated residuals must stay below it.
ROOT_TOL = 1e-10
#: Relative agreement required of every numeric field of an audit entry.
AUDIT_TOL = 1e-9
#: Per-table A/B/C/D counts of the audit, the regression anchor of the roadmap.
AUDIT_ANCHOR = {
    1: {"A": 15, "B": 1, "C": 14, "D": 44},
    2: {"A": 1, "B": 0, "C": 59, "D": 0},
    3: {"A": 60, "B": 73, "C": 0, "D": 0},
    4: {"A": 15, "B": 0, "C": 60, "D": 0},
}

#: Acceptance tolerances of the validation cross-checks (tests/test_acceptance.py).
ORACLE_TOL = 1e-4
NORM_TOL = 1e-6
AIM_TOL = 1e-8
NONREL_REL_TOL = 1e-4
#: Agreement required between a strict-mode ground root and its reference.
VALIDATE_ROOT_TOL = 1e-9

#: The validation pool: blind draws of real-sector spin-Kratzer specs.
POOL_SEED = 1
POOL_SIZE = 12
RING_STRENGTHS = (0.0, 0.5, 1.0, 2.0)


def shuffled(items, seed):
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def csv_fields(table, row, root):
    """One `drsbound table` CSV line, split at its commas (the branch label has one)."""
    n, n_prime, m, a, b, _values = row
    sym_kind, pot_kind = spectrum.TABLE_KINDS[table]
    fmt = cli.fmt
    return (
        f"{n},{n_prime},{m},{fmt(a)},{fmt(b)},{sym_kind},{pot_kind},"
        f"{fmt(root.energy.real)},{fmt(root.energy.imag)},{root.root_class.value},"
        f"{fmt(root.residual_norm)},{root.branch.label()}"
    ).split(",")


class TableRegen:
    """Every row of the four bundled tables through find_roots(paper-compat)."""

    name = "table-regen"
    RESIDUAL = 10  # index of the residual field in a CSV line

    def __init__(self):
        self.rows = {t: spectrum.load_table_data(t) for t in TABLES}
        self.reference = {}
        for t in TABLES:
            lines = (REFERENCE_DIR / f"table{t}.csv").read_text().splitlines()[1:]
            for fields in (line.split(",") for line in lines):
                self.reference.setdefault((t, tuple(fields[:5])), []).append(fields)

    def items(self):
        return [(t, i) for t in TABLES for i in range(len(self.rows[t]))]

    def run(self, item):
        t, i = item
        row = self.rows[t]
        n, n_prime, m, a, b, _values = row[i]
        spec = spectrum.table_spec(t, n, n_prime, m, a, b)
        roots = spectrum.find_roots(spec, mode="paper-compat")
        return [csv_fields(t, row[i], r) for r in roots]

    def key(self, item):
        t, i = item
        n, n_prime, m, a, b, _values = self.rows[t][i]
        return t, (str(n), str(n_prime), str(m), cli.fmt(a), cli.fmt(b))

    def check(self, item, output):
        expected = self.reference.get(self.key(item), [])
        if len(output) != len(expected):
            return f"{len(output)} roots, reference has {len(expected)}"
        for got, want in zip(output, expected):
            if float(got[self.RESIDUAL]) > ROOT_TOL:
                return f"residual {got[self.RESIDUAL]} above {ROOT_TOL}"
            r = self.RESIDUAL
            if got[:r] + got[r + 1:] != want[:r] + want[r + 1:]:
                return f"row {','.join(got)} differs from reference {','.join(want)}"
        return None

    def finish(self, results):
        return []


def _close(got, want, tol):
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_close(got[k], want[k], tol) for k in want)
        )
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= tol * (1.0 + abs(want))
    return got == want


class TableAudit:
    """Every published value of the four tables through classify_value."""

    name = "table-audit"

    def __init__(self):
        self.rows = {t: spectrum.load_table_data(t) for t in TABLES}
        self.reference = {}
        for t in TABLES:
            with open(REFERENCE_DIR / f"audit{t}.json") as fh:
                entries = json.load(fh)["entries"]
            flat = [(i, j) for i, row in enumerate(self.rows[t]) for j in range(len(row[5]))]
            if len(flat) != len(entries):
                raise ValueError(f"audit{t}.json does not cover table {t}")
            for key, entry in zip(flat, entries):
                self.reference[(t, *key)] = entry

    def items(self):
        return sorted(self.reference)

    def run(self, item):
        t, i, j = item
        n, n_prime, m, a, b, values = self.rows[t][i]
        v = values[j]
        spec = spectrum.table_spec(t, n, n_prime, m, a, b)
        klass, dev, br, res, diag = spectrum.classify_value(spec, v, 1e-4)
        return spectrum.AuditEntry(n, n_prime, m, a, b, v, klass, dev, br, res, diag).to_json()

    def check(self, item, output):
        want = self.reference[item]
        for field in ("class", "branch"):
            if output[field] != want[field]:
                return f"{field} {output[field]!r}, reference {want[field]!r}"
        if not _close(output, want, AUDIT_TOL):
            return f"entry {output} differs from reference {want} beyond {AUDIT_TOL}"
        return None

    def finish(self, results):
        """Per-table class counts against the anchor, for a pass over every value."""
        counts = {t: {c: 0 for c in "ABCD"} for t in TABLES}
        for item, output in results:
            if output is not None:
                counts[item[0]][output["class"]] += 1
        return [
            f"table {t} audit counts {counts[t]}, anchor {AUDIT_ANCHOR[t]}"
            for t in TABLES
            if counts[t] != AUDIT_ANCHOR[t]
        ]


def pool_draws(seed=POOL_SEED, size=POOL_SIZE):
    """Blind draws: n <= 2, n' <= 1, |m| <= 2, a, b in RING_STRENGTHS, oracle start offset
    within +-0.3, and one AIM oscillator level (l <= 1, n <= 3) per draw."""
    rng = random.Random(seed)
    draws = []
    for _ in range(size):
        draws.append({
            "qn": [rng.randint(0, 2), rng.randint(0, 1), rng.randint(-2, 2)],
            "ring": [rng.choice(RING_STRENGTHS), rng.choice(RING_STRENGTHS)],
            "offset": rng.uniform(-0.3, 0.3),
            "aim": [rng.randint(0, 1), rng.randint(0, 3)],
        })
    return draws


def validate_draw(draw):
    """Strict ground root of a spin-Kratzer spec, cross-checked three ways."""
    n, n_prime, m = draw["qn"]
    spec = spectrum.table_spec(3, n, n_prime, m, *draw["ring"])
    roots = spectrum.find_roots(spec, mode="strict")
    if not roots:
        return {"root": None}
    e = roots[0].energy.real
    out = {"root": e, "oracle": None, "oracle_error": None}
    try:
        out["oracle"] = oracle.self_consistent_energy(spec, e + draw["offset"])
    except oracle.DivergenceError as exc:
        out["oracle_error"] = str(exc)
    out["norm_deviation"] = wavefun.verify_normalization(spec, e)
    ell, level = draw["aim"]
    out["aim_target"] = 2 * level + ell + 1.5
    window = (out["aim_target"] - 0.5, out["aim_target"] + 0.5)
    out["aim"] = aim.find_eigenvalue(aim.oscillator_radial_problem(ell, k_max=40), window)
    params = nonrel.NonRelParams(mu=spec.mass, potential=spec.potential, ring=spec.ring)
    out["nonrel_closed"] = nonrel.energy_kratzer_nr(params, spec.qn)
    out["nonrel_fd"] = oracle.nonrel_energy_fd(params, spec.qn)
    return out


def missed_checks(out):
    """Names of the cross-checks whose acceptance tolerance this outcome misses."""
    if out["root"] is None:
        return []
    missed = []
    if out["oracle"] is None or abs(out["oracle"] - out["root"]) > ORACLE_TOL:
        missed.append("oracle")
    if not out["norm_deviation"] < NORM_TOL:
        missed.append("normalization")
    if not abs(out["aim"] - out["aim_target"]) < AIM_TOL:
        missed.append("aim")
    if not abs(out["nonrel_fd"] - out["nonrel_closed"]) < NONREL_REL_TOL * abs(out["nonrel_closed"]):
        missed.append("nonrel")
    return missed


class Validate:
    """The validation pool: ground roots cross-checked by FD, AIM and quadrature.

    A cross-check that misses its acceptance tolerance on a draw where it
    also missed in the reference is a known defect of the package: it is
    listed in `defects`, not counted as a failure.  Missing where the
    reference met the tolerance is a failure.
    """

    name = "validate"

    def __init__(self):
        with open(REFERENCE_DIR / "validate.json") as fh:
            self.pool = json.load(fh)["draws"]
        self.defects = {}

    def items(self):
        return list(range(len(self.pool)))

    def run(self, item):
        return validate_draw(self.pool[item])

    def describe(self, item):
        d = self.pool[item]
        return f"draw {item} (n, n', m, a, b) = {(*d['qn'], *d['ring'])} offset {d['offset']:+.4f}"

    def check(self, item, output):
        want = self.pool[item]["reference"]
        if (output["root"] is None) != (want["root"] is None) or (
            want["root"] is not None and abs(output["root"] - want["root"]) > VALIDATE_ROOT_TOL
        ):
            return f"ground root {output['root']}, reference {want['root']}"
        missed = missed_checks(output)
        new = [c for c in missed if c not in want["missed"]]
        if new:
            return f"{self.describe(item)}: {', '.join(new)} missed the acceptance tolerance"
        if missed:
            self.defects[item] = f"{self.describe(item)}: {', '.join(missed)} ({_detail(output)})"
        return None

    def finish(self, results):
        return []


def _detail(out):
    if out["oracle_error"]:
        return f"oracle raised DivergenceError: {out['oracle_error']}"
    parts = [f"root {out['root']:.10g}"]
    if out["oracle"] is not None:
        parts.append(f"oracle {out['oracle']:.10g}")
    rel = abs(out["nonrel_fd"] - out["nonrel_closed"]) / abs(out["nonrel_closed"])
    parts.append(f"nonrel rel gap {rel:.2e}")
    return ", ".join(parts)


WORKLOADS = {w.name: w for w in (TableRegen, TableAudit, Validate)}
