"""Acceptance criteria, one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else: 1e-6 on reproduced table
values, 1e-4 audit match, 1e-9 oscillator degeneracy, 1e-8 AIM agreement,
1e-4/1e-7 finite-difference cross-checks, 1e-6 quadrature normalization,
1e-11/1e-8 special-function identities.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

from drsbound.aim import aim_delta, aim_exact_kratzer, kratzer_radial_problem, oscillator_radial_problem
from drsbound.model import Kratzer, QuantumNumbers, RingParams, coefficients_at_gamma
from drsbound.nonrel import NonRelParams, energy_kratzer_nr
from drsbound.oracle import fd_angular_eigs, nonrel_energy_fd
from drsbound.specfun import (
    gamma_fn,
    hyp1f1_terminating,
    hyp2f1_terminating,
    jacobi,
    jacobi_norm_integral,
    laguerre,
    laguerre_norm_integrals,
    pochhammer,
)
from drsbound.spectrum import (
    RootClass,
    find_roots,
    load_table_data,
    table_spec,
)
from drsbound.wavefun import verify_normalization


def contains(roots, value, klass, tol=1e-6):
    return any(
        abs(r.energy.real - value) < tol and r.root_class.value == klass for r in roots
    )


class TestCriterion1TableReproduction:
    """Verified table subset at 1e-6, under 1 second per cell."""

    @pytest.mark.parametrize(
        "table,n,npr,m,a,b,expected",
        [
            (1, 0, 0, 0, 0.0, 0.0, [(-0.361711704, "A"), (1.666666667, "B")]),
            (2, 0, 0, 0, 0.0, 0.0, [(-0.6652434115, "A")]),
            (2, 1, 0, 0, 0.0, 0.0, [(-1.3261285500, "C")]),
            (3, 0, 0, 0, 1.0, 1.0, [(2.072188142, "A"), (9.060994522, "B")]),
            # the -0.653238514 entry belongs to the pseudospin Kratzer table
            # row (1,0,0); the criterion asserts it reproduces as class A
            (1, 1, 0, 0, 0.0, 0.0, [(-0.653238514, "A")]),
            (4, 0, 0, 0, 0.0, 0.0, [(-0.424764518, "A"), (5.212382260, "C")]),
        ],
    )
    def test_cells(self, table, n, npr, m, a, b, expected):
        start = time.monotonic()
        roots = find_roots(table_spec(table, n, npr, m, a, b), mode="paper-compat")
        elapsed = time.monotonic() - start
        for value, klass in expected:
            assert contains(roots, value, klass, tol=1e-6), (value, klass, roots)
        assert elapsed < 1.0
        print(
            f"PASS criterion 1: table {table} ({n},{npr},{m}) a={a} b={b} "
            f"reproduced at 1e-6 in {elapsed:.2f}s"
        )

    def test_class_c_cubic_identity(self):
        # the advertised class-C value is the real part of the complex pair
        # of E^3 + 10 E^2 + 25 E + 40.5, checked through Vieta sums
        zs = np.roots([1.0, 10.0, 25.0, 40.5])
        pair = zs[zs.imag > 1e-9][0]
        real = zs[np.abs(zs.imag) < 1e-9][0].real
        assert 2 * pair.real + real == pytest.approx(-10.0, abs=1e-9)
        assert pair.real == pytest.approx(-1.3261285500, abs=1e-6)
        print("PASS criterion 1: class-C cubic identities verified by Vieta sums")


class TestCriterion2AuditCompleteness:
    def test_full_audit(self, table_audits):
        # the session's one audit of each table; elapsed is what those took
        reports = {t: run.report for t, run in table_audits.items()}
        elapsed = sum(run.seconds for run in table_audits.values())
        total = 0
        d_entries = []
        for table, report in reports.items():
            expected = sum(len(vals) for *_k, vals in load_table_data(table))
            assert len(report.entries) == expected
            total += expected
            for e in report.entries:
                if e.root_class is RootClass.D:
                    d_entries.append((table, e))
        assert elapsed < 30.0
        assert d_entries, "expected unexplained entries in the ring-dressed columns"
        for table, e in d_entries:
            assert table in (1, 2) and (e.a != 0 or e.b != 0), (table, e)
        # regression anchor: per-table A/B/C/D counts
        anchor = {
            1: {"A": 15, "B": 1, "C": 14, "D": 44},
            2: {"A": 1, "B": 0, "C": 59, "D": 0},
            3: {"A": 60, "B": 73, "C": 0, "D": 0},
            4: {"A": 15, "B": 0, "C": 60, "D": 0},
        }
        assert {t: r.summary for t, r in reports.items()} == anchor
        # every class-D entry sits on the real part of a complex pair of the
        # squared form; the diagnostic search must keep finding it
        for table, e in d_entries:
            pair_re = e.diagnostics["nearest_pair_re"]
            assert pair_re is not None and abs(pair_re - e.value) < 1e-6, (table, e)
        print(
            f"PASS criterion 2: {total} entries audited in {elapsed:.1f}s; "
            f"{len(d_entries)} class-D, all in tables 1-2 with ring terms"
        )


class TestCriterion3OscillatorDegeneracy:
    def test_root_sets_depend_on_n_plus_nprime(self):
        checked = 0
        for table in (2, 4):
            for n in range(0, 4):
                for npr in range(1, 5 - n):
                    first = find_roots(table_spec(table, n, npr, 0, 0.0, 0.0), mode="paper-compat")
                    second = find_roots(
                        table_spec(table, n + 1, npr - 1, 0, 0.0, 0.0), mode="paper-compat"
                    )
                    ea = sorted((r.energy.real, abs(r.energy.imag)) for r in first)
                    eb = sorted((r.energy.real, abs(r.energy.imag)) for r in second)
                    assert len(ea) == len(eb)
                    for u, v in zip(ea, eb):
                        assert abs(u[0] - v[0]) < 1e-9 and abs(u[1] - v[1]) < 1e-9
                    checked += 1
        print(f"PASS criterion 3: {checked} degenerate (n, n') pairs identical to 1e-9")


class TestCriterion4AimOracle:
    def test_harmonic_oscillator_levels(self):
        for ell in (0, 1):
            problem = oscillator_radial_problem(ell, k_max=40)
            for n in range(4):
                target = 2 * n + ell + 1.5
                fn = lambda e: aim_delta(problem, e, 2 * n + 6).real
                root = brentq(fn, target - 0.5, target + 0.5, xtol=1e-12)
                assert abs(root - target) < 1e-8
        print("PASS criterion 4: AIM matches 2n + l + 3/2 to 1e-8 for l <= 1, n <= 3")

    def test_exact_kratzer_termination_random(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            zeta = rng.uniform(1.5, 4.0)
            g_d_r = rng.uniform(-8.0, -2.0)
            n = int(rng.integers(0, 4))
            exact = aim_exact_kratzer(zeta, g_d_r, n).real
            gap = abs(exact - (-g_d_r) / (zeta + n + 1))
            problem = kratzer_radial_problem(zeta, g_d_r, k_max=n + 3)
            fn = lambda u: aim_delta(problem, u, n + 1).real
            root = brentq(fn, exact - 0.35 * gap, exact + 0.35 * gap, xtol=1e-13)
            assert abs(root - exact) < 1e-8
        print("PASS criterion 4: closed-form terminations match numeric AIM on 20 draws")


class TestCriterion5FdOracle:
    def test_kratzer_ground_state(self):
        params = NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams(0.0, 0.0))
        closed = energy_kratzer_nr(params, QuantumNumbers(0, 0, 0))
        fd = nonrel_energy_fd(params, QuantumNumbers(0, 0, 0))
        rel = abs(fd - closed) / abs(closed)
        assert rel < 1e-4
        assert closed == pytest.approx(-7.2324, abs=1e-3)
        print(f"PASS criterion 5: FD Kratzer ground state within {rel:.1e} relative")

    def test_angular_spectrum_grid(self):
        worst = 0.0
        for gamma in (0.0, 0.9, 2.072188142):
            for a, b in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
                for m in (0, 2):
                    ring = RingParams(a, b)
                    for npr in range(2):
                        qn = QuantumNumbers(n=0, n_prime=npr, m=m)
                        terms = coefficients_at_gamma(gamma, None, None, ring, qn)
                        expected = terms.ell_eff.real ** 2
                        eig = fd_angular_eigs(gamma, ring, m, npr)
                        worst = max(worst, abs(eig - expected) / expected)
        assert worst < 1e-7
        print(f"PASS criterion 5: FD angular spectrum within {worst:.1e} of quantization rule")


class TestCriterion6Normalization:
    def test_spin_kratzer_ground_state_norm(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        energy = find_roots(spec, mode="strict")[0].energy.real
        deviation = verify_normalization(spec, energy)
        assert deviation < 1e-6
        print(f"PASS criterion 6: quadrature norm deviates by {deviation:.1e}")


class TestCriterion7SpecialFunctionSuite:
    def test_conversion_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(0, 9))
            alpha = rng.uniform(-0.4, 3.0)
            beta = rng.uniform(-0.4, 3.0)
            z = rng.uniform(-1.0, 1.0)
            lhs = hyp2f1_terminating(n, 1 + alpha + beta + n, alpha + 1.0, 0.5 * (1 - z))
            rhs = math.factorial(n) / pochhammer(alpha + 1.0, n) * jacobi(n, alpha, beta, z)
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))
            c = rng.uniform(0.5, 4.0)
            x = rng.uniform(0.0, 5.0)
            lhs = hyp1f1_terminating(n, c, x)
            rhs = (
                math.factorial(n) * gamma_fn(c) / gamma_fn(n + c) * laguerre(n, c - 1.0, x)
            )
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))
        print("PASS criterion 7: hypergeometric conversions hold at 1e-11 for n <= 8")

    def test_jacobi_symmetry(self):
        for n in range(9):
            for x in np.linspace(-1, 1, 21):
                lhs = jacobi(n, 1.3, 0.4, x)
                rhs = (-1) ** n * jacobi(n, 0.4, 1.3, -x)
                assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))
        print("PASS criterion 7: Jacobi symmetry relation holds for n <= 8")

    def test_norm_integrals_vs_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(0, 4))
            a = rng.uniform(0.4, 3.0)
            b = rng.uniform(-0.4, 3.0)
            quad_j, _ = integrate.quad(
                lambda x: (1 - x) ** (a - 1) * (1 + x) ** b * jacobi(n, a, b, x) ** 2, -1, 1
            )
            assert quad_j == pytest.approx(jacobi_norm_integral(a, b, n), rel=1e-8)
            weighted, unweighted = laguerre_norm_integrals(a + 1.0, n)
            quad_w, _ = integrate.quad(
                lambda x: math.exp(-x) * x ** (a + 1.0) * laguerre(n, a, x) ** 2, 0, np.inf
            )
            quad_u, _ = integrate.quad(
                lambda x: math.exp(-x) * x ** (a + 1.0) * laguerre(n, a + 1.0, x) ** 2,
                0,
                np.inf,
            )
            assert quad_w == pytest.approx(weighted, rel=1e-8)
            assert quad_u == pytest.approx(unweighted, rel=1e-8)
        print("PASS criterion 7: closed-form norm integrals match quadrature at 1e-8")


class TestCriterion8FullReproduction:
    def test_blind_regeneration_recovers_all_matched_values(self, table_audits):
        # every published value outside the flagged class-D set must come
        # back from an unguided find_roots run at the original table scale
        checked = 0
        for table in (1, 2, 3, 4):
            report = table_audits[table].report
            classes = {
                (e.n, e.n_prime, e.m, e.a, e.b, round(e.value, 9)): e.root_class
                for e in report.entries
            }
            for n, npr, m, a, b, values in load_table_data(table):
                roots = find_roots(table_spec(table, n, npr, m, a, b), mode="paper-compat")
                for v in values:
                    if classes[(n, npr, m, a, b, round(v, 9))] is RootClass.D:
                        continue
                    checked += 1
                    assert any(
                        abs(r.energy.real - v) < 1e-6 for r in roots
                    ), (table, n, npr, m, a, b, v)
        assert checked == 298
        print(f"PASS criterion 8: blind regeneration recovered all {checked} matched values")

    def test_every_entry_verified_or_flagged(self, table_audits):
        for table in (1, 2, 3, 4):
            report = table_audits[table].report
            for e in report.entries:
                if e.root_class is RootClass.D:
                    # never a silent unverified match: flagged entries carry
                    # the diagnostics of how close the search came
                    assert e.deviation is None
                    assert e.diagnostics is not None
                    assert "branch_residuals" in e.diagnostics
                else:
                    assert e.deviation is not None and e.deviation < 1e-4
                    assert e.branch is not None and e.residual is not None
        print("PASS criterion 8: all table entries verified (A/B/C) or flagged (D)")
