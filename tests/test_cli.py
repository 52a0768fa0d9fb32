import json
import math
import pathlib
import warnings

import pytest

from drsbound import cli
from drsbound.cli import main
from drsbound.spectrum import load_table_data, audit_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPIN_KRATZER_GROUND = [
    "solve", "--symmetry", "spin", "--potential", "kratzer", "--n", "0", "--nprime", "0", "--m", "0",
]


class TestSolve:
    def test_ring_dressed_spin_kratzer_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "1", "--b", "1",
            "--mode", "paper-compat",
        )
        assert code == 0
        assert "2.072188142" in out
        assert "9.060994524" in out or "9.060994522" in out
        rows = [l for l in out.splitlines() if l and not l.startswith("energy_re")]
        classes = {r.split(",")[2] for r in rows}
        assert {"A", "B"} <= classes

    def test_pseudospin_oscillator_paper_compat(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "pseudospin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "0", "--b", "0",
            "--mode", "paper-compat",
        )
        assert code == 0
        assert "-0.665243" in out

    def test_strict_spin_oscillator_single_root(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "0", "--b", "0",
            "--mode", "strict",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("energy_re")]
        assert len(rows) == 1
        assert rows[0].startswith("-0.424764518")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert any(abs(r["energy_re"] + 0.424764518) < 1e-6 for r in data)

    def test_no_roots_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "pseudospin", "--potential", "oscillator",
            "--n", "2", "--nprime", "2", "--m", "1", "--mode", "strict",
        )
        assert code == 1

    def test_invalid_enum_exits_two(self, capsys):
        code, _, _ = run(
            capsys,
            "solve", "--symmetry", "sideways", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0",
        )
        assert code == 2

    def test_negative_quantum_number_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "-1", "--nprime", "0", "--m", "0",
        )
        assert code == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize("flag", ["--nprime", "--a", "--b"])
    def test_negative_nprime_or_ring_strength_exits_two(self, capsys, flag):
        # QuantumNumbers and RingParams reject these; main maps the SpecError to 2
        argv = [*SPIN_KRATZER_GROUND, flag, "-1"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "nonnegative" in err and "Traceback" not in err

    def test_nonpositive_mass_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--mass", "-1",
        )
        assert code == 2
        assert "mass" in err

    @pytest.mark.parametrize("flag, value", [("--a", "nan"), ("--mass", "inf"), ("--re", "nan")])
    def test_non_finite_parameter_exits_two(self, capsys, flag, value):
        code, out, err = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", flag, value,
        )
        assert code == 2
        assert "must be finite" in err and not out

    @pytest.mark.parametrize(
        "argv",
        [
            [*SPIN_KRATZER_GROUND, "--a", "1e308"],
            [*SPIN_KRATZER_GROUND, "--mass", "1e300"],
            [*SPIN_KRATZER_GROUND, "--de", "1e300"],
            ["table", "3", "--de", "1e300"],
            ["table", "2", "--k", "1e300"],
            ["audit", "3", "--mass", "1e300"],
            ["audit", "3", "--de", "1e300"],
            ["audit", "1", "--re", "1e200"],
        ],
        ids=[
            "solve-a", "solve-mass", "solve-de", "table3-de", "table2-k", "audit3-mass",
            "audit3-de", "audit1-re",
        ],
    )
    def test_overflowing_parameter_exits_two(self, capsys, tmp_path, argv):
        # finite parameters whose eliminant overflows used to die with a
        # LinAlgError or OverflowError traceback; the audit polish formed an
        # overflowing Kratzer product before any eliminant was built
        out = tmp_path / "out.txt"
        if argv[0] != "solve":
            argv = [*argv, "--output", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "overflow" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, product",
        [("--re", "1e-300", "d_e * r_e**2"), ("--de", "1e-300", "(d_e * r_e)**2")],
    )
    def test_underflowing_kratzer_term_exits_two(self, capsys, flag, value, product):
        # the Kratzer term rounded to 0 left the continuum edge E = M,
        # reported as a class-A root
        code, out, err = run(capsys, *SPIN_KRATZER_GROUND, flag, value)
        assert code == 2
        assert err.startswith("error:") and f"{product} underflows" in err
        assert not out

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--m", 10**200, "QuantumNumbers.m is"),
            ("--n", 10**400, "QuantumNumbers.n is"),
            ("--nprime", 10**400, "QuantumNumbers.n_prime is"),
        ],
        ids=["m", "n", "nprime"],
    )
    def test_quantum_number_beyond_float_range_exits_two(self, capsys, flag, value, field):
        # m^2, 2 n and 2 n' beyond the float range used to end in an
        # OverflowError traceback wherever a spectral form first added them
        code, out, err = run(capsys, *SPIN_KRATZER_GROUND, flag, str(value))
        assert code == 2
        assert err.startswith("error:") and field in err and "overflows a float" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out

    def test_internal_fault_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "find_roots", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main([
                "solve", "--symmetry", "spin", "--potential", "kratzer",
                "--n", "0", "--nprime", "0", "--m", "0",
            ])


class TestConfigPrecedence:
    def test_flags_env_config_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("mass = 6.0\nk = 1.0\n")
        # config only: cubic (6+E)^2 E + 2*(2.5)^2 = 0
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "pseudospin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0",
            "--mode", "paper-compat", "--format", "json", "--config", str(cfg),
        )
        assert code == 0
        import numpy as np

        def cubic_roots(mass):
            # (M+E)^2 (E - M - C_ps) + 2 k d^2 with C_ps = -5, d = 5/2
            poly = np.polyadd(
                np.polymul(np.polymul([1.0, mass], [1.0, mass]), [1.0, -mass + 5.0]),
                [12.5],
            )
            return np.roots(poly)

        def matches(data, mass):
            roots = cubic_roots(mass)
            return all(
                min(abs(r["energy_re"] - z.real) for z in roots) < 1e-6 for r in data
            ) and len(data) > 0

        data = json.loads(out)
        assert matches(data, 6.0)
        assert not matches(data, 5.0)
        # env overrides config
        monkeypatch.setenv("DRSBOUND_MASS", "7.0")
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "pseudospin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0",
            "--mode", "paper-compat", "--format", "json", "--config", str(cfg),
        )
        data = json.loads(out)
        assert matches(data, 7.0)
        # flag overrides env
        code, out, _ = run(
            capsys,
            "solve", "--symmetry", "pseudospin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0",
            "--mode", "paper-compat", "--format", "json", "--config", str(cfg),
            "--mass", "5.0",
        )
        data = json.loads(out)
        assert any(abs(r["energy_re"] + 0.6652434115) < 1e-6 for r in data)

    def test_bad_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 3\n")
        code, _, err = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--config", str(cfg),
        )
        assert code == 2
        assert "unknown config key" in err

    def test_non_numeric_config_value_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mass = abc\n")
        code, _, err = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--config", str(cfg),
        )
        assert code == 2
        assert "'abc'" in err and ":1:" in err

    def test_undecodable_config_exits_two(self, capsys, tmp_path):
        # bytes that decode to no text used to end in a UnicodeDecodeError
        # traceback; the same bytes given to `audit --data` exit 2
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"mass = 5\n\xff\xfe\n")
        code, out, err = run(capsys, *SPIN_KRATZER_GROUND, "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and str(cfg) in err
        assert len(err.splitlines()) == 1 and not out

    def test_non_numeric_environment_value_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("DRSBOUND_K", "one")
        code, _, err = run(
            capsys,
            "solve", "--symmetry", "spin", "--potential", "oscillator",
            "--n", "0", "--nprime", "0", "--m", "0",
        )
        assert code == 2
        assert "DRSBOUND_K" in err


REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"
DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


class TestTableReference:
    @pytest.mark.parametrize("table", [1, 2, 3, 4])
    def test_table_csv_byte_identical_to_reference(self, capsys, monkeypatch, tmp_path, table):
        # the benchmark's reference CSVs were written by `drsbound table N`
        # at the default parameters; any moved digit shows up here
        for key in cli.CONFIG_KEYS:
            monkeypatch.delenv(cli.ENV_PREFIX + key.upper(), raising=False)
        out = tmp_path / f"table{table}.csv"
        assert run(capsys, "table", str(table), "--output", str(out))[0] == 0
        assert out.read_bytes() == (REFERENCE_DIR / f"table{table}.csv").read_bytes()


class TestAuditReference:
    @pytest.mark.parametrize("table", [1, 2, 3, 4])
    def test_audit_json_byte_identical_to_reference(self, capsys, monkeypatch, tmp_path, table):
        # the reference JSON was written by `drsbound audit N` at the default
        # parameters; it pins every deviation, residual and diagnostic digit,
        # not only the per-class counts
        for key in cli.CONFIG_KEYS:
            monkeypatch.delenv(cli.ENV_PREFIX + key.upper(), raising=False)
        out = tmp_path / f"audit{table}.json"
        assert run(capsys, "audit", str(table), "--output", str(out))[0] == 0
        assert out.read_bytes() == (REFERENCE_DIR / f"audit{table}.json").read_bytes()


    def test_bundled_rows_through_data_flag(self, capsys, monkeypatch, tmp_path):
        # the bundled rows and `--data` rows take one load path, so table 2's
        # own file given as --data reproduces the reference audit
        for key in cli.CONFIG_KEYS:
            monkeypatch.delenv(cli.ENV_PREFIX + key.upper(), raising=False)
        data = pathlib.Path(cli.__file__).parent / "data" / "table2.txt"
        out = tmp_path / "audit2.json"
        assert run(capsys, "audit", "2", "--data", str(data), "--output", str(out))[0] == 0
        assert out.read_bytes() == (REFERENCE_DIR / "audit2.json").read_bytes()


class TestTable:
    def test_table4_rows_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "t4a.csv"
        out2 = tmp_path / "t4b.csv"
        assert run(capsys, "table", "4", "--output", str(out1))[0] == 0
        assert run(capsys, "table", "4", "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [
            line.split(",")
            for line in out1.read_text().splitlines()[1:]
        ]
        cell = [
            r for r in rows if r[:5] == ["0", "0", "0", "0", "0"]
        ]
        got = {(float(r[7]), r[9]) for r in cell}
        assert any(abs(e + 0.424764518) < 1e-6 and c == "A" for e, c in got)
        assert any(abs(e - 5.212382260) < 1e-6 and c == "C" for e, c in got)

    def test_table2_degenerate_rows_identical(self, capsys, tmp_path):
        out = tmp_path / "t2.csv"
        assert run(capsys, "table", "2", "--output", str(out))[0] == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]

        def energies(n, npr):
            return sorted(
                (float(r[7]), float(r[8]))
                for r in rows
                if r[:5] == [str(n), str(npr), "0", "0", "0"]
            )

        e_a, e_b = energies(1, 1), energies(2, 0)
        assert len(e_a) == len(e_b) > 0
        for u, v in zip(e_a, e_b):
            assert u == pytest.approx(v, abs=1e-9)

    def test_table1_ground_row(self, capsys, tmp_path):
        out = tmp_path / "t1.csv"
        assert run(capsys, "table", "1", "--output", str(out))[0] == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cell = {
            (float(r[7]), r[9]) for r in rows if r[:5] == ["0", "0", "0", "0", "0"]
        }
        assert any(abs(e + 0.361711704) < 1e-6 and c == "A" for e, c in cell)
        assert any(abs(e - 1.666666667) < 1e-6 and c == "B" for e, c in cell)

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "table", "4", "--output", str(tmp_path / "no" / "dir" / "x.csv")
        )
        assert code == 2

    def test_round_trip_audit(self, capsys, tmp_path):
        out = tmp_path / "t4.csv"
        assert run(capsys, "table", "4", "--output", str(out))[0] == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_cell = {}
        expected = {}
        for r in rows:
            key = (int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]))
            by_cell.setdefault(key, []).append(float(r[7]))
            expected[(key, round(float(r[7]), 9))] = r[9]
        published = [(*key, vals) for key, vals in by_cell.items()]
        report = audit_table(4, published, 1e-4, None)
        for entry in report.entries:
            key = (entry.n, entry.n_prime, entry.m, entry.a, entry.b)
            assert entry.root_class.value == expected[(key, round(entry.value, 9))]
            assert entry.deviation is not None and entry.deviation < 1e-9


class TestAudit:
    def test_audit_all_tables_exit_zero(self, capsys, tmp_path):
        for table in ("3", "4"):
            report_path = tmp_path / f"audit{table}.json"
            code, out, _ = run(capsys, "audit", table, "--output", str(report_path))
            assert code == 0
            assert "summary" in out
            data = json.loads(report_path.read_text())
            assert data["table"] == int(table)
            assert len(data["entries"]) == sum(
                len(vals) for *_k, vals in load_table_data(int(table))
            )

    def test_audit_exits_zero_with_class_d(self, capsys):
        code, out, _ = run(capsys, "audit", "1")
        assert code == 0
        assert "D=" in out

    def test_missing_data_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "audit", "1", "--data", str(tmp_path / "nope.txt"))
        assert code == 2

    @pytest.mark.parametrize("row", ["0 0 0 0 -0.6652434115", "0 0 x 0 0 -0.6652434115"])
    def test_malformed_data_row_exits_two(self, capsys, tmp_path, row):
        data = tmp_path / "bad.txt"
        data.write_text(row + "\n")
        code, _, err = run(capsys, "audit", "2", "--data", str(data))
        assert code == 2
        assert str(data) in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0 0 0 0 0 nan", "malformed table row"),
            ("0 0 0 0 0 -0.6652434115 inf", "malformed table row"),
            ("0 0 0 inf 0 1.0", "RingParams.a must be finite"),
            ("0 0 0 0 nan 1.0", "RingParams.b must be finite"),
        ],
    )
    def test_non_finite_data_exits_two(self, capsys, tmp_path, row, message):
        data = tmp_path / "bad.txt"
        data.write_text(row + "\n")
        report = tmp_path / "report.json"
        code, _, err = run(capsys, "audit", "2", "--data", str(data), "--output", str(report))
        assert code == 2
        assert message in err
        assert not report.exists()

    def test_quantum_number_beyond_float_range_exits_two(self, capsys, tmp_path):
        # the row's m^2 used to overflow in `_radical_term` with a traceback
        data = tmp_path / "big.txt"
        data.write_text(f"0 0 {10**200} 0 0 1.0\n")
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "audit", "3", "--data", str(data), "--output", str(report))
        assert code == 2
        assert err.startswith("error:") and "QuantumNumbers.m is too large" in err
        assert len(err.splitlines()) == 1 and not out
        assert not report.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_bad_tolerance_exits_two(self, capsys, tmp_path, value):
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "audit", "2", "--tolerance", value, "--output", str(report))
        assert code == 2
        assert "--tolerance" in err
        assert out == ""
        assert not report.exists()

    def test_audit_honors_parameter_overrides(self, capsys, tmp_path):
        # auditing the bundled values against a different mass must fail to
        # match them (classes drift toward D / away from tight deviations)
        data = tmp_path / "one.txt"
        data.write_text("0 0 0 0 0 -0.6652434115\n")
        code, out_default, _ = run(capsys, "audit", "2", "--data", str(data))
        assert code == 0
        assert "class=A" in out_default
        code, out_shifted, _ = run(
            capsys, "audit", "2", "--data", str(data), "--mass", "4.0"
        )
        assert code == 0
        assert "class=A" not in out_shifted


class TestWavefunction:
    def test_spin_kratzer_sampling(self, capsys, tmp_path):
        out = tmp_path / "wf.txt"
        code, _, _ = run(
            capsys,
            "wavefunction", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "1", "--b", "1",
            "--r-samples", "6", "--theta-samples", "4", "--phi-samples", "2",
            "--output", str(out),
        )
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines
        assert all(len(l.split()) == 5 for l in lines)

    def test_state_beyond_root_count_exits_one(self, capsys, tmp_path):
        out = tmp_path / "wf.txt"
        code, _, err = run(
            capsys,
            "wavefunction", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "1", "--b", "1",
            "--state", "7", "--output", str(out),
        )
        assert code == 1
        assert "1 found" in err
        assert not out.exists()

    def test_negative_state_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "wf.txt"
        code, _, err = run(
            capsys,
            "wavefunction", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "1", "--b", "1",
            "--state", "-1", "--output", str(out),
        )
        assert code == 2
        assert "--state" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--r-samples", "0"), ("--theta-samples", "0"), ("--phi-samples", "-2"),
                        ("--r-max", "0"), ("--r-max", "inf"), ("--r-max", "nan")]
    )
    def test_bad_sampling_is_usage_error(self, capsys, tmp_path, flag, value):
        out = tmp_path / "wf.txt"
        code, _, err = run(
            capsys,
            "wavefunction", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", flag, value, "--output", str(out),
        )
        assert code == 2
        assert flag in err
        assert not out.exists()

    def test_complex_sector_exits_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "wavefunction", "--symmetry", "pseudospin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", "0", "--a", "1", "--b", "1",
            "--output", str(tmp_path / "wf.txt"),
        )
        assert code == 1
        assert "complex angular sector" in err or "no class-A root" in err

    @pytest.mark.parametrize("m", [48, 90])
    def test_norm_overflow_exits_one(self, capsys, tmp_path, m):
        # solve finds a class-A root, but the closed-form norm leaves the
        # float range: at m = 48 in Gamma(2 zeta)^2, at m = 90 in Gamma itself
        out = tmp_path / "wf.txt"
        code, _, err = run(
            capsys,
            "wavefunction", "--symmetry", "spin", "--potential", "kratzer",
            "--n", "0", "--nprime", "0", "--m", str(m), "--output", str(out),
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and "overflows a float" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("spin_kratzer", ["spin", "kratzer", "1", "1", "1", "--a", "1", "--b", "1"]),
            ("spin_oscillator", ["spin", "oscillator", "1", "1", "1"]),
            ("pseudospin_kratzer", ["pseudospin", "kratzer", "1", "1", "0"]),
            ("pseudospin_oscillator", ["pseudospin", "oscillator", "0", "0", "0"]),
        ],
    )
    def test_output_bytes_pinned(self, capsys, tmp_path, name, spec):
        # golden files written by `drsbound wavefunction` with these flags
        symmetry, potential, n, n_prime, m, *ring = spec
        out = tmp_path / "wf.txt"
        code, _, _ = run(
            capsys,
            "wavefunction", "--symmetry", symmetry, "--potential", potential,
            "--n", n, "--nprime", n_prime, "--m", m, *ring,
            "--r-samples", "5", "--theta-samples", "4", "--phi-samples", "2",
            "--output", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / f"wavefunction_{name}.txt").read_bytes()


class TestPotentialGrid:
    @pytest.mark.parametrize(
        "potential, ring", [("kratzer", ("0.5", "2")), ("oscillator", ("3", "0.25"))]
    )
    def test_output_bytes_pinned(self, capsys, tmp_path, potential, ring):
        # golden files written by `drsbound potential-grid` with these flags
        out = tmp_path / "grid.txt"
        code, _, _ = run(
            capsys,
            "potential-grid", "--potential", potential, "--a", ring[0], "--b", ring[1],
            "--r-samples", "5", "--theta-samples", "4", "--output", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / f"potential_grid_{potential}.txt").read_bytes()

    @pytest.mark.parametrize(
        "flags, where",
        [
            (["--r-min", "1e-300"], "r = 1e-300, theta = 0.7853981634"),
            (["--r-min", "1e-100", "--re", "1e200"], "r = 1e-100, theta = 0.7853981634"),
        ],
        ids=["v-overflows", "float-power-overflows"],
    )
    def test_non_finite_potential_exits_two(self, capsys, tmp_path, flags, where):
        # used to write inf/-inf, exit 0 and leak numpy RuntimeWarnings
        out = tmp_path / "grid.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                capsys,
                "potential-grid", "--potential", "kratzer", "--de", "1e308", *flags,
                "--r-samples", "2", "--theta-samples", "2", "--output", str(out),
            )
        assert code == 2
        assert err.startswith("error:") and f"no finite float at {where}" in err
        assert not out.exists()

    def test_large_finite_kratzer_potential(self, capsys, tmp_path):
        # -2 * d_e overflowed before the bracket shrank it: V(4) = -1.9e307
        out = tmp_path / "grid.txt"
        code, _, _ = run(
            capsys,
            "potential-grid", "--potential", "kratzer", "--de", "1e308", "--a", "0", "--b", "0",
            "--r-min", "4", "--r-max", "4", "--r-samples", "1",
            "--theta-min", str(math.pi / 4), "--theta-max", str(math.pi / 4),
            "--theta-samples", "1", "--output", str(out),
        )
        assert code == 0
        line = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert float(line.split()[2]) == pytest.approx(-1.9e307, rel=1e-9)

    def test_large_equilibrium_distance(self, capsys, tmp_path):
        # r_e**2 raised OverflowError for r_e above ~1.3e154; V(r_e) = -d_e is finite
        out = tmp_path / "grid.txt"
        code, _, _ = run(
            capsys,
            "potential-grid", "--potential", "kratzer", "--re", "1e200", "--a", "0", "--b", "0",
            "--r-min", "1e200", "--r-max", "1e200", "--r-samples", "1",
            "--theta-min", "0.7", "--theta-max", "0.7", "--theta-samples", "1",
            "--output", str(out),
        )
        assert code == 0
        line = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert float(line.split()[2]) == -12.0

    def test_kratzer_point_value(self, capsys, tmp_path):
        out = tmp_path / "grid.txt"
        code, _, _ = run(
            capsys,
            "potential-grid", "--potential", "kratzer",
            "--r-min", "1", "--r-max", "1", "--r-samples", "1",
            "--theta-min", str(math.pi / 4), "--theta-max", str(math.pi / 4),
            "--theta-samples", "1", "--output", str(out),
        )
        assert code == 0
        line = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert float(line.split()[2]) == pytest.approx(-3.68, abs=1e-9)

    def test_oscillator_point_value(self, capsys, tmp_path):
        out = tmp_path / "grid.txt"
        code, _, _ = run(
            capsys,
            "potential-grid", "--potential", "oscillator",
            "--r-min", "2", "--r-max", "2", "--r-samples", "1",
            "--theta-min", str(math.pi / 4), "--theta-max", str(math.pi / 4),
            "--theta-samples", "1", "--output", str(out),
        )
        assert code == 0
        line = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert float(line.split()[2]) == pytest.approx(3.0, abs=1e-12)

    def test_reflection_symmetry(self, capsys, tmp_path):
        out = tmp_path / "grid.txt"
        code, _, _ = run(
            capsys,
            "potential-grid", "--potential", "oscillator",
            "--r-min", "0.5", "--r-max", "2", "--r-samples", "4",
            "--theta-samples", "8", "--output", str(out),
        )
        assert code == 0
        lines = [l.split() for l in out.read_text().splitlines() if not l.startswith("#")]
        by_r = {}
        for r, t, v in lines:
            by_r.setdefault(float(r), []).append((float(t), float(v)))
        for r, samples in by_r.items():
            samples.sort()
            for j in range(len(samples)):
                t, v = samples[j]
                t_mirror, v_mirror = samples[len(samples) - 1 - j]
                assert t_mirror == pytest.approx(math.pi - t, abs=1e-8)
                assert v_mirror == pytest.approx(v, rel=1e-9)

    def test_singular_ray_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "potential-grid", "--potential", "kratzer",
            "--theta-min", "0.0", "--theta-max", "1.0", "--theta-samples", "3",
            "--output", str(tmp_path / "g.txt"),
        )
        assert code == 2
        assert "singular" in err

    def test_zero_theta_samples_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "potential-grid", "--potential", "oscillator", "--theta-samples", "0",
            "--output", str(tmp_path / "g.txt"),
        )
        assert code == 2
        assert "--theta-samples" in err

    @pytest.mark.parametrize("flag", ["--r-min", "--r-max", "--theta-min", "--theta-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_range_is_usage_error(self, capsys, tmp_path, flag, value):
        out = tmp_path / "g.txt"
        other = {"--theta-min": ["--theta-max", "1.0"], "--theta-max": ["--theta-min", "0.5"]}
        code, _, err = run(
            capsys,
            "potential-grid", "--potential", "oscillator", flag, value,
            *other.get(flag, []), "--output", str(out),
        )
        assert code == 2
        assert "error:" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
    def test_nonpositive_radius_is_usage_error(self, capsys, tmp_path, flag):
        # a grid from r = 0.1 to r = -1 would pass through the singular r = 0
        out = tmp_path / "g.txt"
        code, _, err = run(
            capsys, "potential-grid", "--potential", "oscillator", flag, "-1", "--output", str(out)
        )
        assert code == 2
        assert "error:" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--theta-min", "--theta-max"])
    def test_lone_theta_bound_is_usage_error(self, capsys, tmp_path, flag):
        out = tmp_path / "g.txt"
        code, _, err = run(
            capsys, "potential-grid", "--potential", "oscillator", flag, "0.5", "--output", str(out)
        )
        assert code == 2
        assert "error:" in err and "--theta-min and --theta-max" in err
        assert not out.exists()
