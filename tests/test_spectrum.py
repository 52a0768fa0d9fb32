import math
from dataclasses import replace

import numpy as np
import pytest

from drsbound.model import RingParams
from drsbound.spectrum import (
    CANONICAL,
    BranchStrategy,
    RootClass,
    all_branches,
    angular_quantization,
    audit_table,
    classify_value,
    find_roots,
    load_table_data,
    residual,
    residual_drsk,
    residual_drso,
    spin_pseudospin_map,
    squared_polynomial_drsk,
    squared_polynomial_drso,
    table_spec,
)

SIGMA_MINUS = BranchStrategy(-1, 1, "principal")


def classes_of(roots):
    return {(round(r.energy.real, 6), r.root_class.value) for r in roots}


def has_root(roots, value, klass, tol=1e-6):
    return any(
        abs(r.energy.real - value) < tol and r.root_class.value == klass for r in roots
    )


class TestAngularQuantization:
    def test_pure_central_ground(self):
        for gamma in (0.0, 1.7, -0.4 + 0.2j):
            val = angular_quantization(gamma, RingParams(0, 0), 0, 0)
            assert val == pytest.approx(1.5, abs=1e-14)

    def test_ring_dressed_value(self):
        g = 2.072188142
        expected = math.sqrt(g + 0.25) + math.sqrt(g) + 1.0
        val = angular_quantization(g, RingParams(1, 1), 0, 0)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_m_and_nprime_offsets(self):
        val = angular_quantization(0.7, RingParams(0, 0), 1, 1)
        assert val == pytest.approx(4.5, abs=1e-14)


class TestKratzerResidual:
    def test_pseudospin_ground_canonical(self):
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        # the printed table value carries ~1e-9 rounding which the steep
        # residual amplifies to ~5e-5; the polished root is 9.6e-7 away
        assert abs(residual_drsk(-0.361711704, spec)) < 1e-4
        roots = find_roots(spec, mode="strict")
        assert abs(residual_drsk(roots[0].energy.real, spec)) < 1e-10

    def test_pseudospin_flip_root(self):
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        assert abs(residual_drsk(1.666666667, spec, SIGMA_MINUS)) < 1e-6

    def test_spin_ring_dressed_canonical(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        assert abs(residual_drsk(2.072188142, spec)) < 1e-6

    def test_pole_reported(self):
        from drsbound.spectrum import SpectralPoleError

        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        with pytest.raises(SpectralPoleError):
            residual_drsk(0.0, spec)  # M - E + C_ps = 0 at E = 0 here


class TestOscillatorResidual:
    def test_pseudospin_ground(self):
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        assert abs(residual_drso(-0.6652434115, spec)) < 1e-6

    def test_spin_ground(self):
        spec = table_spec(4, 0, 0, 0, 0.0, 0.0)
        assert abs(residual_drso(-0.424764518, spec)) < 1e-6

    def test_second_real_root_of_cubic(self):
        # oracle: the squared cubic (M+E)^2 E + 12.5 built by hand
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        roots = sorted(np.roots([1.0, 10.0, 25.0, 12.5]).real)
        middle = roots[1]
        assert abs(residual_drso(middle, spec)) < 1e-5

    def test_wrong_potential_rejected(self):
        with pytest.raises(TypeError):
            residual_drso(1.0, table_spec(1, 0, 0, 0, 0.0, 0.0))
        with pytest.raises(TypeError):
            residual_drsk(1.0, table_spec(2, 0, 0, 0, 0.0, 0.0))


class TestSquaredPolynomials:
    def test_pseudospin_oscillator_ground_cubic(self):
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        np.testing.assert_allclose(
            squared_polynomial_drso(spec), [1.0, 10.0, 25.0, 12.5], atol=1e-12
        )
        roots = np.sort(np.roots([1.0, 10.0, 25.0, 12.5]).real)
        assert roots[-1] == pytest.approx(-0.6652434115, abs=1e-9)

    def test_pseudospin_oscillator_excited_cubic(self):
        spec = table_spec(2, 1, 0, 0, 0.0, 0.0)
        poly = squared_polynomial_drso(spec)
        np.testing.assert_allclose(poly, [1.0, 10.0, 25.0, 40.5], atol=1e-12)
        zs = np.roots(poly)
        # sum-of-roots check and the published complex-pair real part
        assert zs.sum() == pytest.approx(-10.0, abs=1e-9)
        pair = zs[np.abs(zs.imag) > 1e-9]
        assert pair[0].real == pytest.approx(-1.3261285500, abs=1e-9)
        real = zs[np.abs(zs.imag) < 1e-9]
        assert real[0].real == pytest.approx(-7.3477429, abs=1e-6)

    def test_spin_oscillator_cubic(self):
        spec = table_spec(4, 0, 0, 0, 0.0, 0.0)
        poly = squared_polynomial_drso(spec)
        np.testing.assert_allclose(poly, [1.0, -10.0, 25.0, 12.5], atol=1e-12)
        zs = np.roots(poly)
        real = zs[np.abs(zs.imag) < 1e-9]
        pair = zs[zs.imag > 1e-9]
        # published values are rounded at the 1e-9 digit; the exact pair
        # real part also satisfies 2 Re + (real root) = 10 by Vieta
        assert real[0].real == pytest.approx(-0.424764518, abs=1e-6)
        assert pair[0].real == pytest.approx(5.212382260, abs=1e-6)
        assert 2 * pair[0].real + real[0].real == pytest.approx(10.0, abs=1e-9)

    def test_ring_terms_rejected(self):
        with pytest.raises(ValueError):
            squared_polynomial_drso(table_spec(2, 0, 0, 0, 1.0, 0.0))
        with pytest.raises(ValueError):
            squared_polynomial_drsk(table_spec(1, 0, 0, 0, 0.0, 1.0))

    def test_real_cubic_roots_satisfy_some_branch(self):
        for table in (2, 4):
            for n, npr in ((0, 0), (1, 0), (2, 1)):
                spec = table_spec(table, n, npr, 0, 0.0, 0.0)
                for z in np.roots(squared_polynomial_drso(spec)):
                    if abs(z.imag) > 1e-9:
                        continue
                    res = min(
                        abs(residual_drso(z.real, spec, BranchStrategy(s, 1, "principal")))
                        for s in (1, -1)
                    )
                    assert res < 1e-6

    def test_kratzer_quartic_contains_published_pair(self):
        spec = table_spec(1, 1, 0, 0, 0.0, 0.0)
        zs = np.roots(squared_polynomial_drsk(spec, -1))
        pair = zs[zs.imag > 1e-9]
        assert pair[0].real == pytest.approx(0.772422545, abs=1e-6)


class TestFindRoots:
    def test_pseudospin_kratzer_ground_set(self):
        roots = find_roots(table_spec(1, 0, 0, 0, 0.0, 0.0), mode="paper-compat")
        assert has_root(roots, -0.361711704, "A")
        assert has_root(roots, 1.666666667, "B")

    def test_spin_kratzer_ring_set(self):
        roots = find_roots(table_spec(3, 0, 0, 0, 1.0, 1.0), mode="paper-compat")
        assert has_root(roots, 2.072188142, "A")
        assert has_root(roots, 9.060994522, "B")

    def test_spin_oscillator_set(self):
        roots = find_roots(table_spec(4, 0, 0, 0, 0.0, 0.0), mode="paper-compat")
        assert has_root(roots, -0.424764518, "A")
        assert has_root(roots, 5.212382260, "C")

    def test_strict_mode_only_class_a(self):
        roots = find_roots(table_spec(4, 0, 0, 0, 0.0, 0.0), mode="strict")
        assert len(roots) == 1
        assert roots[0].root_class is RootClass.A
        assert roots[0].energy.real == pytest.approx(-0.424764518, abs=1e-6)

    def test_sorted_and_deduplicated(self):
        roots = find_roots(table_spec(1, 0, 0, 0, 0.0, 0.0), mode="paper-compat")
        res = [r.energy.real for r in roots]
        assert res == sorted(res)
        for i in range(len(roots) - 1):
            close = (
                abs(roots[i].energy.real - roots[i + 1].energy.real) < 1e-8
                and abs(abs(roots[i].energy.imag) - abs(roots[i + 1].energy.imag)) < 1e-8
            )
            assert not close

    def test_residual_zero_invariant(self):
        for table, (a, b) in ((1, (0.0, 0.0)), (3, (1.0, 1.0)), (4, (0.0, 0.0))):
            spec = table_spec(table, 0, 0, 0, a, b)
            for r in find_roots(spec, mode="paper-compat"):
                if r.root_class in (RootClass.A, RootClass.B):
                    assert abs(residual(r.energy.real, spec, r.branch)) < 1e-9

    def test_monotone_root_count(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        loose = find_roots(spec, mode="paper-compat", tolerance=1e-6)
        tight = find_roots(spec, mode="paper-compat", tolerance=1e-12)
        assert len(tight) <= len(loose)

    def test_degeneracy_in_n_plus_nprime(self):
        for table in (2, 4):
            a = find_roots(table_spec(table, 1, 1, 0, 0.0, 0.0), mode="paper-compat")
            b = find_roots(table_spec(table, 2, 0, 0, 0.0, 0.0), mode="paper-compat")
            ea = sorted((r.energy.real, abs(r.energy.imag)) for r in a)
            eb = sorted((r.energy.real, abs(r.energy.imag)) for r in b)
            assert len(ea) == len(eb)
            for u, v in zip(ea, eb):
                assert u == pytest.approx(v, abs=1e-9)

    def test_empty_result_is_ordinary(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        assert find_roots(spec, interval=(4.0, 5.0), mode="strict") == []

    @pytest.mark.parametrize(
        "interval",
        [(10.0, -10.0), (3.0, 3.0), (float("nan"), 5.0), (-5.0, float("inf"))],
    )
    def test_bad_interval_rejected(self, interval):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="interval"):
            find_roots(spec, interval=interval)

    @pytest.mark.parametrize("panels", [0, -5, float("nan")])
    def test_nonpositive_panels_rejected(self, panels):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="panels_per_unit"):
            find_roots(spec, panels_per_unit=panels)

    def test_max_roots_caps_output(self):
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        roots = find_roots(spec, mode="paper-compat", max_roots=2)
        assert len(roots) == 2

    def test_explicit_modulus_branch_reports_mirror_roots(self):
        # the modulus reading mirrors the partner symmetry's spectrum into
        # the window; such roots are outside the A/B/C taxonomy and only
        # appear when the strategy is requested explicitly
        spec = table_spec(4, 0, 0, 0, 0.0, 0.0)
        modulus = BranchStrategy(1, 1, "modulus")
        roots = find_roots(spec, mode="paper-compat", branches=[modulus])
        mirrored = [r for r in roots if r.root_class is RootClass.D]
        assert any(abs(r.energy.real - 0.6652434115) < 1e-6 for r in mirrored)
        default = find_roots(spec, mode="paper-compat")
        assert not any(abs(r.energy.real - 0.6652434115) < 1e-6 for r in default)


class TestVectorizedScanPath:
    def test_array_residual_matches_scalar(self):
        # the vectorized scan path must agree with the scalar definition on
        # every branch, potential and symmetry
        from drsbound.spectrum import SpectralPoleError, _residual_array

        rng = np.random.default_rng(37)
        es = rng.uniform(-12.0, 12.0, size=64)
        for table in (1, 2, 3, 4):
            spec = table_spec(table, 1, 1, 1, 1.0, 0.0)
            for br in all_branches():
                vals, ok = _residual_array(spec, es, br)
                for e, v, good in zip(es, vals, ok):
                    try:
                        ref = residual(e, spec, br)
                    except SpectralPoleError:
                        continue
                    if good:
                        assert v == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_pole_masked_in_array_path(self):
        from drsbound.spectrum import _residual_array

        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)  # pole at E = M + C_ps = 0
        vals, ok = _residual_array(spec, np.array([0.0, 1.0]), CANONICAL)
        assert not ok[0] and ok[1]


def _scan_one_branch(spec, branch, interval, panels_per_unit):
    """Unblocked single-branch sign-change scan: the oracle for the stacked scan."""
    from scipy.optimize import brentq

    from drsbound.spectrum import SpectralPoleError, _residual_array

    lo, hi = interval
    n = max(16, int(round((hi - lo) * panels_per_unit)))
    es = np.linspace(lo, hi, n + 1)
    vals, ok = _residual_array(spec, es, branch)
    ok &= np.abs(vals) < 1e8
    roots = []
    for comp in ("real", "imag"):
        main = getattr(vals, comp)
        other = vals.imag if comp == "real" else vals.real
        good = ok & (np.abs(other) < 1e-9 * (1.0 + np.abs(main)))
        cand = np.where(good[:-1] & good[1:] & (np.sign(main[:-1]) != np.sign(main[1:])))[0]
        fn = lambda x: getattr(residual(x, spec, branch), comp)
        for i in cand:
            try:
                roots.append(brentq(fn, es[i], es[i + 1], xtol=1e-14))
            except (ValueError, SpectralPoleError):
                continue
    return roots


SCAN_SPECS = {
    "kratzer": table_spec(3, 1, 0, 1, 1.0, 0.5),
    "oscillator": table_spec(2, 0, 1, 1, 0.5, 1.0),
    "central": table_spec(1, 0, 0, 0, 0.0, 0.0),
}


class TestBlockedScan:
    @pytest.mark.parametrize("name", sorted(SCAN_SPECS))
    def test_stacked_scan_equals_per_branch_scan(self, name):
        from drsbound.spectrum import _scan_branches

        spec = SCAN_SPECS[name]
        interval = (-25.0, 25.0)
        got = _scan_branches(spec, all_branches(), interval, 400)
        want = [_scan_one_branch(spec, br, interval, 400) for br in all_branches()]
        assert got == want
        assert any(got)

    @pytest.mark.parametrize("name", sorted(SCAN_SPECS))
    @pytest.mark.parametrize("block", [7, 64, 10**7])
    def test_block_size_does_not_change_roots(self, monkeypatch, name, block):
        from drsbound import spectrum

        spec = SCAN_SPECS[name]
        want = find_roots(spec, mode="paper-compat", panels_per_unit=200)
        explicit = find_roots(spec, mode="paper-compat", panels_per_unit=200, branches=all_branches())
        monkeypatch.setattr(spectrum, "SCAN_BLOCK", block)
        assert find_roots(spec, mode="paper-compat", panels_per_unit=200) == want
        assert (
            find_roots(spec, mode="paper-compat", panels_per_unit=200, branches=all_branches())
            == explicit
        )
        assert want


def _complex_zeros_oracle(spec, interval, imag_starts=(0.5, 2.0, 6.0), re_step=1.0):
    """One scalar multistart per start, in (re, im) order: the batch's oracle."""
    from drsbound.spectrum import _complex_multistart

    lo, hi = interval
    zeros = []
    for re in np.arange(lo, hi + re_step / 2, re_step):
        for z in _complex_multistart(spec, re, imag_starts):
            if lo - 1e-9 <= z.real <= hi + 1e-9 and all(
                abs(z - w) > 1e-7 * (1 + abs(z)) for w in zeros
            ):
                zeros.append(z)
    return sorted(zeros, key=lambda z: (z.real, z.imag))


class TestBatchedComplexSearch:
    @pytest.mark.parametrize(
        "table, n, npr, m, a, b, params",
        [
            (4, 0, 0, 0, 1.0, 1.0, None),
            (4, 1, 2, -1, 0.5, 2.0, None),
            (4, 2, 0, 2, 3.0, 0.25, None),
            (2, 0, 0, 0, 1.0, 1.0, None),
            (2, 1, 1, 1, 2.0, 0.5, None),
            (2, 0, 1, -2, 0.75, 1.5, {"k": 2.5, "mass": 4.0, "c_ps": -3.0}),
        ],
    )
    def test_bit_identical_to_scalar_multistart(self, table, n, npr, m, a, b, params):
        from drsbound.spectrum import complex_zeros_drso

        spec = table_spec(table, n, npr, m, a, b, params)
        interval = (-abs(spec.mass) - 20.0, abs(spec.mass) + 20.0)
        got = complex_zeros_drso(spec, interval)
        want = _complex_zeros_oracle(spec, interval)
        assert [(z.real, z.imag) for z in got] == [(z.real, z.imag) for z in want]
        assert want


class TestTableDataFormat:
    def test_malformed_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 0 1\n")
        with pytest.raises(ValueError):
            load_table_data(1, path=str(bad))

    def test_comments_and_blanks_ignored(self, tmp_path):
        ok = tmp_path / "ok.txt"
        ok.write_text("# comment\n\n0 0 0 0 0 -0.5 1.25  # trailing\n")
        rows = load_table_data(1, path=str(ok))
        assert rows == [(0, 0, 0, 0.0, 0.0, [-0.5, 1.25])]


class TestBranchStrategies:
    def test_eight_strategies(self):
        assert len(all_branches()) == 8
        assert all_branches()[0] == CANONICAL

    def test_flip_involution_pointwise(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        flipped_twice = replace(
            replace(CANONICAL, sigma_rhs=-CANONICAL.sigma_rhs), sigma_rhs=CANONICAL.sigma_rhs
        )
        for e in np.linspace(0.3, 4.7, 100):
            assert residual(e, spec, flipped_twice) == residual(e, spec, CANONICAL)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            BranchStrategy(0, 1, "principal")
        with pytest.raises(ValueError):
            BranchStrategy(1, 1, "other")


class TestSymmetryMap:
    def test_constants_swap(self):
        ps = table_spec(1, 0, 0, 0, 0.0, 0.0)
        sp = spin_pseudospin_map(ps)
        assert sp.is_spin and sp.symmetry.constant == 5.0
        assert sp.potential == ps.potential and sp.ring == ps.ring

    def test_involution(self):
        spec = table_spec(3, 1, 1, 1, 1.0, 0.0)
        assert spin_pseudospin_map(spin_pseudospin_map(spec)) == spec

    def test_kappa_shift_consistency(self):
        spec = replace(
            table_spec(3, 0, 0, 0, 0.0, 0.0),
            qn=replace(table_spec(3, 0, 0, 0, 0.0, 0.0).qn, kappa=2),
        )
        mapped = spin_pseudospin_map(spec)
        assert mapped.qn.kappa == 3
        assert spin_pseudospin_map(mapped).qn.kappa == 2

    def test_formula_level_identity(self):
        # With the full substitution behind the printed forms (E -> -E,
        # C_ps -> -C_s, and V -> -V flipping d_e and ring strengths), the
        # pseudospin-form residual is exactly minus the spin residual.
        spec = table_spec(3, 1, 0, 1, 1.0, 1.0)
        m_, c_s = spec.mass, spec.symmetry.constant
        d_e, r_e = spec.potential.d_e, spec.potential.r_e
        a, b, mm = spec.ring.a, spec.ring.b, spec.qn.m
        nu = spec.qn.n + 0.5

        def mapped_pseudospin_form(e_spin, sigma):
            e = -complex(e_spin)
            c_ps, d_flip, a_flip, b_flip = -c_s, -d_e, -a, -b
            g = e - m_ - c_ps
            omega = np.sqrt(complex(a_flip * g + 0.25)) + np.sqrt(
                complex(b_flip * g + mm * mm)
            )
            big = np.sqrt(
                complex((omega + 2 * spec.qn.n_prime + 1) ** 2 + g * d_flip * r_e**2)
            )
            t_sq = (d_flip * r_e) ** 2
            return (e + m_) / (m_ - e + c_ps) - sigma * t_sq / (nu + big) ** 2

        for e in np.linspace(0.4, 4.6, 40):
            for sigma in (1, -1):
                lhs = residual_drsk(e, spec, BranchStrategy(sigma, 1, "principal"))
                rhs = -mapped_pseudospin_form(e, sigma)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_roots_correspond_under_full_substitution(self):
        # spin roots of the printed condition coincide with the mapped
        # pseudospin-form roots at negated energy, pointwise over a grid
        spec = table_spec(3, 0, 0, 0, 0.0, 0.0)
        roots = find_roots(spec, mode="paper-compat")
        assert has_root(roots, 0.744179704, "A")


class TestAudit:
    def test_oscillator_pure_central_entries(self):
        report = audit_table(2)
        entries = {
            (e.n, e.n_prime, e.m): e
            for e in report.entries
            if e.a == 0 and e.b == 0 and e.n <= 1 and e.n_prime == 0
        }
        assert entries[(0, 0, 0)].root_class is RootClass.A
        assert entries[(0, 0, 0)].deviation < 1e-6
        assert entries[(1, 0, 0)].root_class is RootClass.C
        assert entries[(1, 0, 0)].deviation < 1e-6

    def test_ring_dressed_pseudospin_kratzer_is_unexplained(self):
        report = audit_table(1)
        entry = next(
            e for e in report.entries if (e.n, e.n_prime, e.m, e.a, e.b) == (0, 0, 0, 1.0, 1.0)
        )
        assert entry.root_class is RootClass.D
        residuals = entry.diagnostics["branch_residuals"]
        # no strategy comes close to vanishing at the published value; the
        # smallest magnitude (~1.04, on the modulus reading) matches the
        # hand-checked figure of about 1.1
        assert all(r is None or r > 0.5 for r in residuals.values())
        assert residuals["rhs+inner+,modulus"] == pytest.approx(1.1, abs=0.2)

    def test_spin_oscillator_central_entries_match_tightly(self):
        report = audit_table(4)
        for e in report.entries:
            if e.a == 0 and e.b == 0:
                assert e.root_class in (RootClass.A, RootClass.C)
                assert e.deviation < 1e-6

    def test_spin_kratzer_ground_entries_classes(self):
        report = audit_table(3)
        cell = [
            e for e in report.entries if (e.n, e.n_prime, e.m, e.a, e.b) == (0, 0, 0, 1.0, 1.0)
        ]
        assert {e.root_class for e in cell} == {RootClass.A, RootClass.B}

    def test_spin_oscillator_ring_dressed_classified(self):
        report = audit_table(4)
        entry = next(
            e for e in report.entries if (e.n, e.n_prime, e.m, e.a, e.b) == (0, 0, 0, 1.0, 1.0)
        )
        # the tool decides the class; nothing is asserted in advance beyond
        # the fact that a verified classification was produced
        assert entry.root_class in set(RootClass)
        if entry.root_class is not RootClass.D:
            assert entry.deviation is not None and entry.deviation < 1e-4

    def test_branch_point_hugging_value_matches(self):
        spec = table_spec(3, 3, 0, 1, 0.0, 0.0)
        klass, dev, _, _, _ = classify_value(spec, -2.604114296)
        assert klass is RootClass.B
        assert dev < 1e-4

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            audit_table(5)

    def test_bundled_data_complete(self):
        counts = {1: 74, 2: 60, 3: 133, 4: 75}
        for table, expected in counts.items():
            rows = load_table_data(table)
            assert sum(len(vals) for *_ignored, vals in rows) == expected
