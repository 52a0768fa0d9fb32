"""numpy is the only runtime dependency: every command runs without scipy.

Each test runs a fresh interpreter whose import system refuses every scipy
module, as on an install without the `test` or `validate` extra.
"""

import os
import pathlib
import subprocess
import sys

import drsbound

REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"

#: Prepended to each child script: a meta path finder that refuses scipy.
BLOCK_SCIPY = '''
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, _NoScipy())
'''


def run_without_scipy(script, *args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRSBOUND_")}
    src = str(pathlib.Path(drsbound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_blocker_refuses_scipy():
    proc = run_without_scipy("import scipy")
    assert proc.returncode != 0
    assert "No module named 'scipy'" in proc.stderr


def test_cli_commands_run_and_reproduce_references(tmp_path):
    script = """
from drsbound import cli
out = sys.argv[1]
assert cli.main(["table", "1", "--output", out + "/table1.csv"]) == 0
assert cli.main(["audit", "1", "--output", out + "/audit1.json"]) == 0
assert cli.main(
    ["solve", "--symmetry", "spin", "--potential", "kratzer",
     "--n", "0", "--nprime", "0", "--m", "0", "--a", "1", "--b", "1"]
) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = run_without_scipy(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for name in ("table1.csv", "audit1.json"):
        assert (tmp_path / name).read_bytes() == (REFERENCE_DIR / name).read_bytes()


def test_oracle_names_the_validate_extra():
    proc = run_without_scipy("import drsbound.oracle")
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert "pip install drsbound[validate]" in proc.stderr
