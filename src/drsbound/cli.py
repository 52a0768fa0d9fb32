"""Command-line front end.

Subcommands: solve (classified roots of one spec), table (regenerate a
bundled table as CSV), audit (classify every published value of a table),
wavefunction (sample a normalized component), potential-grid (export the
potential surface on a tensor grid).

Parameter precedence, highest first: command-line flags, DRSBOUND_*
environment variables, `key = value` lines of a --config file, built-in
defaults (mass 5, c_s 5, c_ps -5, d_e 15, r_e 0.4, k 1, all fm powers).
Exit codes: 0 success, 1 no result, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .model import Kratzer, Oscillator, ProblemSpec, RingParams, SpecError, potential_value
from .spectrum import (
    DEFAULT_PARAMS,
    TABLE_KINDS,
    audit_table,
    find_roots,
    load_table_data,
    table_spec,
)
from .wavefun import (
    ComplexSectorError,
    NonNormalizableError,
    assemble_component,
    normalization_constant,
)

ENV_PREFIX = "DRSBOUND_"
CONFIG_KEYS = tuple(DEFAULT_PARAMS)


class UsageError(Exception):
    pass


def fmt(x: float) -> str:
    """Fixed 10-significant-digit formatting for deterministic output."""
    return f"{x:.10g}"


def _write_output(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _number(text, where):
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"bad value for {where}: {text!r}") from exc


def parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _number(val.strip(), f"{path}:{lineno}: {key}")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: cannot decode config file: {exc}") from exc
    return values


def resolve_config(args) -> dict:
    """The physical parameters: DEFAULT_PARAMS overridden by file, environment, flags."""
    cfg = dict(DEFAULT_PARAMS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            cfg[key] = _number(env, ENV_PREFIX + key.upper())
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def build_spec(args, cfg: dict) -> ProblemSpec:
    # QuantumNumbers and RingParams reject negative n, n', a and b (SpecError)
    table = next(t for t, k in TABLE_KINDS.items() if k == (args.symmetry, args.potential))
    return table_spec(table, args.n, args.nprime, args.m, args.a, args.b, cfg)


def _root_row(root):
    return {
        "energy_re": root.energy.real,
        "energy_im": root.energy.imag,
        "class": root.root_class.value,
        "residual": root.residual_norm,
        "branch": root.branch.label(),
    }


def _root_csv(root):
    """energy_re,energy_im,class,residual,branch of one root, as one CSV line."""
    e_re, e_im, klass, res, branch = _root_row(root).values()
    return f"{fmt(e_re)},{fmt(e_im)},{klass},{fmt(res)},{branch}"


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(args, cfg)
    roots = find_roots(spec, mode=args.mode)
    if args.format == "json":
        print(json.dumps([_root_row(r) for r in roots], indent=2))
    else:
        print("energy_re,energy_im,class,residual,branch")
        for r in roots:
            print(_root_csv(r))
    return 0 if roots else 1


def cmd_table(args) -> int:
    cfg = resolve_config(args)
    rows = load_table_data(args.table)
    sym_kind, pot_kind = TABLE_KINDS[args.table]
    lines = ["n,n_prime,m,a,b,symmetry,potential,energy_re,energy_im,class,residual,branch"]
    for n, n_prime, m, a, b, _values in rows:
        spec = table_spec(args.table, n, n_prime, m, a, b, cfg)
        for r in find_roots(spec, mode=args.mode):
            lines.append(
                f"{n},{n_prime},{m},{fmt(a)},{fmt(b)},{sym_kind},{pot_kind},{_root_csv(r)}"
            )
    _write_output(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {args.output}")
    return 0


def cmd_audit(args) -> int:
    cfg = resolve_config(args)
    try:
        rows = load_table_data(args.table, path=args.data)
    except OSError as exc:
        raise UsageError(f"cannot read data file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{args.data}: {exc}") from exc
    report = audit_table(args.table, rows, args.tolerance, cfg)
    print(report.to_text())
    if args.output:
        _write_output(args.output, json.dumps(report.to_json(), indent=2))
        print(f"wrote JSON report to {args.output}")
    return 0


def cmd_wavefunction(args) -> int:
    cfg = resolve_config(args)
    spec = build_spec(args, cfg)
    if args.state < 0:
        raise UsageError("--state must be nonnegative")
    roots = find_roots(spec, mode="strict")
    if args.state >= len(roots):
        print(
            f"no class-A root with index {args.state} for this spec: {len(roots)} found",
            file=sys.stderr,
        )
        return 1
    energy = roots[args.state].energy.real
    try:
        normalization = normalization_constant(spec, energy)
    except (ComplexSectorError, NonNormalizableError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"the closed-form norm overflows a float: {exc}", file=sys.stderr)
        return 1
    r = np.linspace(args.r_max / args.r_samples, args.r_max, args.r_samples)
    theta = (np.arange(args.theta_samples) + 0.5) * math.pi / args.theta_samples
    phi = np.linspace(0.0, 2.0 * math.pi, args.phi_samples, endpoint=False)
    lines = [
        f"# symmetry={args.symmetry} potential={args.potential} "
        f"n={args.n} nprime={args.nprime} m={args.m} a={fmt(args.a)} b={fmt(args.b)}",
        f"# energy={fmt(energy)} normalization={fmt(normalization)}",
        "# r theta phi re im",
    ]
    rr, tt, pp = np.meshgrid(r, theta, phi, indexing="ij")
    vals = assemble_component(spec, energy, rr, tt, pp, normalization)
    for rv, tv, pv, val in zip(rr.ravel(), tt.ravel(), pp.ravel(), vals.ravel()):
        lines.append(f"{fmt(rv)} {fmt(tv)} {fmt(pv)} {fmt(val.real)} {fmt(val.imag)}")
    _write_output(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 3} samples to {args.output}")
    return 0


def cmd_potential_grid(args) -> int:
    cfg = resolve_config(args)
    if args.potential == "kratzer":
        pot = Kratzer(cfg["d_e"], cfg["r_e"])
    else:
        pot = Oscillator(cfg["k"])
    ring = RingParams(args.a, args.b)
    if (args.theta_min is None) != (args.theta_max is None):
        raise UsageError("--theta-min and --theta-max must be given together")
    r = np.linspace(args.r_min, args.r_max, args.r_samples)
    if args.theta_min is None:
        theta = (np.arange(args.theta_samples) + 0.5) * math.pi / args.theta_samples
    elif not (math.isfinite(args.theta_min) and math.isfinite(args.theta_max)):
        raise UsageError("--theta-min and --theta-max must be finite")
    else:
        theta = np.linspace(args.theta_min, args.theta_max, args.theta_samples)
    for t in theta:
        if min(abs(math.sin(t)), abs(math.cos(t))) < 1e-12:
            raise UsageError(f"theta = {t} hits a singular ray of the angular term")
    lines = [f"# potential={args.potential} a={fmt(args.a)} b={fmt(args.b)}", "# r theta V"]
    for rv in r:
        for tv in theta:
            with np.errstate(all="ignore"):
                v = potential_value(pot, ring, rv, tv)
            if not math.isfinite(v):
                raise SpecError(
                    f"V(r, theta) is no finite float at r = {fmt(rv)}, theta = {fmt(tv)}"
                )
            lines.append(f"{fmt(rv)} {fmt(tv)} {fmt(v)}")
    _write_output(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 2} grid points to {args.output}")
    return 0


def _sample_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _positive(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _add_param_flags(p):
    p.add_argument("--config", help="key = value parameter file")
    p.add_argument("--mass", type=float, help="particle mass (fm^-1)")
    p.add_argument("--cs", dest="c_s", type=float, help="spin symmetry constant C_s")
    p.add_argument("--cps", dest="c_ps", type=float, help="pseudospin constant C_ps")
    p.add_argument("--de", dest="d_e", type=float, help="Kratzer dissociation energy")
    p.add_argument("--re", dest="r_e", type=float, help="Kratzer equilibrium distance")
    p.add_argument("--k", type=float, help="oscillator elastic coefficient")


def _add_spec_flags(p):
    p.add_argument("--symmetry", required=True, choices=("spin", "pseudospin"))
    p.add_argument("--potential", required=True, choices=("kratzer", "oscillator"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nprime", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="drsbound",
        description="Bound states and table audits for double ring-shaped potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="classified roots of one spec")
    _add_spec_flags(p)
    _add_param_flags(p)
    p.add_argument("--mode", choices=("strict", "paper-compat"), default="strict")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="regenerate one bundled table as CSV")
    p.add_argument("table", type=int, choices=sorted(TABLE_KINDS))
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("strict", "paper-compat"), default="paper-compat")
    _add_param_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("audit", help="classify every published value of a table")
    p.add_argument("table", type=int, choices=sorted(TABLE_KINDS))
    p.add_argument("--tolerance", type=_positive, default=1e-4)
    p.add_argument("--data", help="columnar table file overriding the bundled one")
    p.add_argument("--output", help="write the JSON report here")
    _add_param_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("wavefunction", help="sample a normalized component")
    _add_spec_flags(p)
    _add_param_flags(p)
    p.add_argument("--state", type=int, default=0, help="index into the class-A roots")
    p.add_argument("--r-max", dest="r_max", type=_positive, default=6.0)
    p.add_argument("--r-samples", dest="r_samples", type=_sample_count, default=40)
    p.add_argument("--theta-samples", dest="theta_samples", type=_sample_count, default=20)
    p.add_argument("--phi-samples", dest="phi_samples", type=_sample_count, default=8)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("potential-grid", help="export V(r, theta) on a tensor grid")
    p.add_argument("--potential", required=True, choices=("kratzer", "oscillator"))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.0)
    _add_param_flags(p)
    p.add_argument("--r-min", dest="r_min", type=_positive, default=0.1)
    p.add_argument("--r-max", dest="r_max", type=_positive, default=4.0)
    p.add_argument("--r-samples", dest="r_samples", type=_sample_count, default=40)
    p.add_argument("--theta-min", dest="theta_min", type=float, default=None)
    p.add_argument("--theta-max", dest="theta_max", type=float, default=None)
    p.add_argument("--theta-samples", dest="theta_samples", type=_sample_count, default=40)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_potential_grid)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
