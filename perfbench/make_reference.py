"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the repository root, on the commit whose outputs are the
reference.  Writes reference/table{1..4}.csv and reference/audit{1..4}.json
from the package's own CLI (`drsbound table N`, `drsbound audit N`), and
reference/validate.json: the validation pool drawn by items.pool_draws with
each draw's outcome and the cross-checks it misses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import items  # noqa: E402  (needs src on the path)


def cli(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "drsbound.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main():
    ref = items.REFERENCE_DIR
    ref.mkdir(exist_ok=True)
    for t in items.TABLES:
        cli("table", str(t), "--output", str(ref / f"table{t}.csv"))
        cli("audit", str(t), "--output", str(ref / f"audit{t}.json"))
    draws = items.pool_draws()
    for draw in draws:
        out = items.validate_draw(draw)
        draw["reference"] = {**out, "missed": items.missed_checks(out)}
        print(draw, file=sys.stderr)
    doc = {"pool_seed": items.POOL_SEED, "draws": draws}
    (ref / "validate.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
