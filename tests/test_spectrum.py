import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from drsbound.model import (
    Oscillator,
    QuantumNumbers,
    RingParams,
    SpecError,
    coefficients_at_gamma,
)
from drsbound.spectrum import (
    CANONICAL,
    BranchStrategy,
    RootClass,
    audit_table,
    classify_value,
    find_roots,
    load_table_data,
    principal_branches,
    residual,
    spin_pseudospin_map,
    squared_form,
    squared_polynomial_drsk,
    squared_polynomial_drso,
    table_spec,
)

SIGMA_MINUS = BranchStrategy(-1, 1)


def classes_of(roots):
    return {(round(r.energy.real, 6), r.root_class.value) for r in roots}


def has_root(roots, value, klass, tol=1e-6):
    return any(
        abs(r.energy.real - value) < tol and r.root_class.value == klass for r in roots
    )


def ell_eff(gamma, ring, m, n_prime):
    """The quantized ell + 1/2 at gamma, read off the coefficient set."""
    qn = QuantumNumbers(n=0, n_prime=n_prime, m=m)
    return coefficients_at_gamma(gamma, None, None, ring, qn).ell_eff


class TestAngularQuantization:
    def test_pure_central_ground(self):
        for gamma in (0.0, 1.7, -0.4 + 0.2j):
            val = ell_eff(gamma, RingParams(0, 0), 0, 0)
            assert val == pytest.approx(1.5, abs=1e-14)

    def test_ring_dressed_value(self):
        g = 2.072188142
        expected = math.sqrt(g + 0.25) + math.sqrt(g) + 1.0
        val = ell_eff(g, RingParams(1, 1), 0, 0)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_m_and_nprime_offsets(self):
        val = ell_eff(0.7, RingParams(0, 0), 1, 1)
        assert val == pytest.approx(4.5, abs=1e-14)


class TestKratzerResidual:
    def test_pseudospin_ground_canonical(self):
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        # the printed table value carries ~1e-9 rounding which the steep
        # residual amplifies to ~5e-5; the polished root is 9.6e-7 away
        assert abs(residual(-0.361711704, spec, CANONICAL)) < 1e-4
        roots = find_roots(spec, mode="strict")
        assert abs(residual(roots[0].energy.real, spec, CANONICAL)) < 1e-10

    def test_pseudospin_flip_root(self):
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        assert abs(residual(1.666666667, spec, SIGMA_MINUS)) < 1e-6

    def test_spin_ring_dressed_canonical(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        assert abs(residual(2.072188142, spec, CANONICAL)) < 1e-6

    def test_pole_reported(self):
        from drsbound.spectrum import SpectralPoleError

        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        with pytest.raises(SpectralPoleError):
            residual(0.0, spec, CANONICAL)  # M - E + C_ps = 0 at E = 0 here


class TestOscillatorResidual:
    def test_pseudospin_ground(self):
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        assert abs(residual(-0.6652434115, spec, CANONICAL)) < 1e-6

    def test_spin_ground(self):
        spec = table_spec(4, 0, 0, 0, 0.0, 0.0)
        assert abs(residual(-0.424764518, spec, CANONICAL)) < 1e-6

    def test_second_real_root_of_cubic(self):
        # oracle: the squared cubic (M+E)^2 E + 12.5 built by hand
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        roots = sorted(np.roots([1.0, 10.0, 25.0, 12.5]).real)
        middle = roots[1]
        assert abs(residual(middle, spec, CANONICAL)) < 1e-5


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
            squared_polynomial_drsk(table_spec(1, 0, 0, 0, 0.0, 1.0), 1)

    def test_real_cubic_roots_satisfy_some_branch(self):
        for table in (2, 4):
            for n, npr in ((0, 0), (1, 0), (2, 1)):
                spec = table_spec(table, n, npr, 0, 0.0, 0.0)
                for z in np.roots(squared_polynomial_drso(spec)):
                    if abs(z.imag) > 1e-9:
                        continue
                    res = min(
                        abs(residual(z.real, spec, BranchStrategy(s, 1)))
                        for s in (1, -1)
                    )
                    assert res < 1e-6

    def test_kratzer_quartic_contains_published_pair(self):
        spec = table_spec(1, 1, 0, 0, 0.0, 0.0)
        zs = np.roots(squared_polynomial_drsk(spec, -1))
        pair = zs[zs.imag > 1e-9]
        assert pair[0].real == pytest.approx(0.772422545, abs=1e-6)


def _squared_polynomial_oracle(spec, sigma_rhs=1):
    """The hand-expanded monic cubic (oscillator) or quartic (Kratzer) at a = b = 0.

    The reference for `squared_polynomial_drso` / `_drsk`, which return the
    eliminant made monic: its sums and products are associated as here, so
    the two must agree bit for bit.  a = b = 0 is assumed.
    """
    if isinstance(spec.potential, Oscillator):
        m_, c, k = spec.mass, spec.symmetry.constant, spec.potential.k
        d = 0.5 + abs(spec.qn.m) + 2 * spec.qn.n_prime + 2 + 2 * spec.qn.n
        if spec.is_spin:
            poly = np.polysub(
                np.polymul(np.polymul([-1.0, m_], [-1.0, m_]), [-1.0, c - m_]),
                [2.0 * k * d * d],
            )
        else:
            poly = np.polyadd(
                np.polymul(np.polymul([1.0, m_], [1.0, m_]), [1.0, -m_ - c]),
                [2.0 * k * d * d],
            )
        return poly / poly[0]
    m_, c0 = spec.mass, spec.symmetry.constant
    t = spec.potential.d_e * spec.potential.r_e**2
    t_sq = (spec.potential.d_e * spec.potential.r_e) ** 2
    nu = spec.qn.n + 0.5
    cc = 0.5 + abs(spec.qn.m) + 2 * spec.qn.n_prime + 1
    q = nu * nu + cc * cc
    if spec.is_spin:
        bracket = np.polyadd(
            np.polymul([1.0, -m_], [t, q + t * (m_ - c0)]),
            sigma_rhs * t_sq * np.array([1.0, m_ - c0]),
        )
        rad = np.polymul(np.polymul([1.0, -m_], [1.0, -m_]), [t, cc * cc + t * (m_ - c0)])
    else:
        bracket = np.polysub(
            np.polymul([1.0, m_], [t, q - t * (m_ + c0)]),
            sigma_rhs * t_sq * np.array([-1.0, m_ + c0]),
        )
        rad = np.polymul(np.polymul([1.0, m_], [1.0, m_]), [t, cc * cc - t * (m_ + c0)])
    poly = np.polysub(np.polymul(bracket, bracket), 4.0 * nu * nu * rad)
    return poly / poly[0]


def _public_squared_polynomial(spec, sigma_rhs):
    """The public squared polynomial of a central spec, for either potential."""
    if isinstance(spec.potential, Oscillator):
        return squared_polynomial_drso(spec)
    return squared_polynomial_drsk(spec, sigma_rhs)


def _central_table_polynomials():
    """(spec, sigma_rhs) of every bundled central squared polynomial."""
    out = []
    for table in (1, 2, 3, 4):
        for n, npr, m, a, b, _ in load_table_data(table):
            if a == 0 and b == 0:
                spec = table_spec(table, n, npr, m, a, b)
                out += [(spec, s) for s in ((1,) if table in (2, 4) else (1, -1))]
    return out


class TestSquaredPolynomialFold:
    """The public squared polynomials are the eliminant, bit for bit the closed forms."""

    def test_bundled_central_polynomials_equal_closed_forms(self):
        cases = _central_table_polynomials()
        assert len(cases) == 90
        for spec, s in cases:
            got = _public_squared_polynomial(spec, s)
            assert list(map(_bits, got)) == list(map(_bits, _squared_polynomial_oracle(spec, s)))

    @pytest.mark.parametrize("sigma_rhs", [0, 2.5, float("nan")])
    def test_squared_polynomial_drsk_rejects_bad_sigma_rhs(self, sigma_rhs):
        with pytest.raises(ValueError, match="sigma_rhs"):
            squared_polynomial_drsk(table_spec(1, 0, 0, 0, 0.0, 0.0), sigma_rhs)

    @pytest.mark.parametrize("sigma_rhs", [0, 2.5, float("nan")])
    def test_squared_form_rejects_bad_sigma_rhs(self, sigma_rhs):
        with pytest.raises(ValueError, match="sigma_rhs"):
            squared_form(1.0, table_spec(1, 0, 0, 0, 0.0, 0.0), sigma_rhs)


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

    def test_monotone_root_count(self, monkeypatch):
        from drsbound import spectrum

        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        monkeypatch.setattr(spectrum, "ROOT_TOL", 1e-6)
        loose = find_roots(spec, mode="paper-compat")
        monkeypatch.setattr(spectrum, "ROOT_TOL", 1e-12)
        tight = find_roots(spec, mode="paper-compat")
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
        spec = table_spec(2, 0, 1, 1, 0.5, 1.0)
        assert find_roots(spec, mode="strict") == []

    # The window, panel count and residual tolerance are module constants and
    # the output is never truncated: find_roots takes none of them, at any value.
    @pytest.mark.parametrize(
        "interval",
        [(10.0, -10.0), (3.0, 3.0), (float("nan"), 5.0), (-5.0, float("inf"))],
    )
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(TypeError, match="interval"):
            find_roots(table_spec(3, 0, 0, 0, 1.0, 1.0), interval=interval)

    @pytest.mark.parametrize("panels", [0, -5, float("nan")])
    def test_nonpositive_panels_rejected(self, panels):
        with pytest.raises(TypeError, match="panels_per_unit"):
            find_roots(table_spec(3, 0, 0, 0, 1.0, 1.0), panels_per_unit=panels)

    def test_infinite_panels_rejected(self):
        with pytest.raises(TypeError, match="panels_per_unit"):
            find_roots(table_spec(3, 0, 0, 0, 1.0, 1.0), panels_per_unit=float("inf"))

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-10])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(TypeError, match="tolerance"):
            find_roots(table_spec(3, 0, 0, 0, 0.0, 0.0), tolerance=tolerance)

    def test_negative_max_roots_rejected(self):
        with pytest.raises(TypeError, match="max_roots"):
            find_roots(table_spec(1, 0, 0, 0, 0.0, 0.0), mode="paper-compat", max_roots=-1)

    def test_fractional_max_roots_rejected(self):
        with pytest.raises(TypeError, match="max_roots"):
            find_roots(table_spec(1, 0, 0, 0, 0.0, 0.0), mode="paper-compat", max_roots=1.5)


class TestVectorizedScanPath:
    def test_array_residual_matches_scalar(self):
        # the vectorized scan path must agree with the scalar definition on
        # every principal branch, potential and symmetry
        from drsbound.spectrum import SpectralPoleError, _residual_array

        rng = np.random.default_rng(37)
        es = rng.uniform(-12.0, 12.0, size=64)
        for table in (1, 2, 3, 4):
            spec = table_spec(table, 1, 1, 1, 1.0, 0.0)
            for br in principal_branches():
                vals, ok = _residual_array(spec, es, br.sigma_rhs, br.sigma_inner)
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
        vals, ok = _residual_array(spec, np.array([0.0, 1.0]), 1, 1)
        assert not ok[0] and ok[1]

    def test_masked_pole_overflow_is_silent(self):
        # at the subnormal C_s the spin lhs denominator M + E - C_s is
        # -C_s on the scan's grid point E = -1, and (E - M) / it overflows;
        # the pole mask drops that point, and no warning leaks
        from drsbound.model import Kratzer, PhysicalParams, ProblemSpec, Spin
        from drsbound.spectrum import _residual_array

        spec = ProblemSpec(
            Spin(2.225073858507203e-309), Kratzer(1.0, 1.0), RingParams(0.0, 1.0),
            PhysicalParams(1.0), QuantumNumbers(0, 0, 1),
        )
        vals, ok = _residual_array(spec, np.array([-1.0, 0.5]), 1, 1)
        assert not ok[0] and ok[1]
        roots = find_roots(spec, mode="strict")
        assert [round(r.energy.real, 9) for r in roots] == [0.881191209]


def _scan_one_branch(spec, branch, interval, panels_per_unit):
    """Unblocked single-branch sign-change scan: the oracle for the stacked scan."""
    from scipy.optimize import brentq

    from drsbound.spectrum import SpectralPoleError, _residual_array

    lo, hi = interval
    n = max(16, int(round((hi - lo) * panels_per_unit)))
    es = np.linspace(lo, hi, n + 1)
    vals, ok = _residual_array(spec, es, branch.sigma_rhs, branch.sigma_inner)
    ok &= np.abs(vals) < 1e8
    roots = []
    for comp in ("real", "imag"):
        main = getattr(vals, comp)
        other = vals.imag if comp == "real" else vals.real
        good = ok & (np.abs(other) < 1e-9 * (1.0 + np.abs(main)))
        sign = np.sign(main)
        # a zero on a grid point is bracketed by the panel it ends, as in the scan
        cand = np.where(good[:-1] & good[1:] & (sign[:-1] != sign[1:]) & (sign[:-1] != 0))[0]
        fn = lambda x: getattr(residual(x, spec, branch), comp)
        for i in cand:
            try:
                roots.append(brentq(fn, es[i], es[i + 1], xtol=1e-14))
            except (ValueError, SpectralPoleError):
                continue
    return roots


SCAN_SPECS = {
    "kratzer": table_spec(3, 1, 0, 1, 1.0, 0.5),
    # a spin spec: at the bundled parameters the ring-dressed pseudospin
    # oscillator has no real root on a principal branch
    "oscillator": table_spec(4, 0, 0, 1, 0.5, 1.0),
    "central": table_spec(1, 0, 0, 0, 0.0, 0.0),
}


class TestBlockedScan:
    @pytest.mark.parametrize("name", sorted(SCAN_SPECS))
    def test_stacked_scan_equals_per_branch_scan(self, monkeypatch, name):
        from drsbound import spectrum

        spec = SCAN_SPECS[name]
        interval = (-25.0, 25.0)
        monkeypatch.setattr(spectrum, "PANELS_PER_UNIT", 400)
        got = spectrum._scan_branches(spec, interval)
        search = spectrum._search_branches(spec)
        want = [_scan_one_branch(spec, br, interval, 400) for br in search]
        assert got == want
        assert any(got)

    @pytest.mark.parametrize("name", sorted(SCAN_SPECS))
    @pytest.mark.parametrize("block", [7, 64, 10**7])
    def test_block_size_does_not_change_roots(self, monkeypatch, name, block):
        # the block of panels each candidate marks: at 10**7 every panel of
        # the grid is tested, which is the full sign-change scan
        from drsbound import spectrum

        spec = SCAN_SPECS[name]
        monkeypatch.setattr(spectrum, "PANELS_PER_UNIT", 200)
        want = find_roots(spec, mode="paper-compat")
        monkeypatch.setattr(spectrum, "SEED_PANELS", block)
        assert find_roots(spec, mode="paper-compat") == want
        assert want


def _random_scan_specs(seed, count):
    """Seeded specs of tables 1-4, one in five central, the rest a, b in [0, 3]."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        table = int(rng.integers(1, 5))
        a, b = (0.0, 0.0) if i % 5 == 0 else (float(x) for x in rng.uniform(0.0, 3.0, size=2))
        c = rng.uniform(2.0, 6.0)
        params = {
            "mass": rng.uniform(3.0, 7.0),
            "c_s": c,
            "c_ps": -c,
            "d_e": rng.uniform(5.0, 20.0),
            "r_e": rng.uniform(0.2, 0.8),
            "k": rng.uniform(0.5, 3.0),
        }
        n, npr = (int(x) for x in rng.integers(0, 3, size=2))
        m = int(rng.integers(-2, 3))
        specs.append(table_spec(table, n, npr, m, a, b, params))
    return specs


#: Table rows with a root on a grid point of the default scan: the full scan
#: brackets it on both sides, so the panels next to a candidate's must be tested.
GRID_POINT_ROWS = [(1, 3, 0, 1, 1.0, 0.0), (1, 3, 1, 0, 0.0, 0.0), (3, 2, 0, 1, 0.0, 0.0)]

#: A random spec whose canonical root, 2.9186, lies 0.0017 from the nearest
#: eliminant zero, beyond the SEED_PANELS margin: only that zero's inclusion
#: disk, of radius 0.016, reaches it.
OFF_ZERO_ROOT = _random_scan_specs(14, 12)[8]

#: A spin Kratzer spec whose float eliminant coefficients put a complex pair
#: of zeros at 0.9964 +- 0.0032i where the eliminant has the real root
#: 0.99582: disks from those coefficients' own values miss the axis there.
FLOAT_PAIR_OFF_AXIS = table_spec(
    3, 0, 0, 2, 1.0, 1.0, {"mass": 1.0, "c_s": 0.0, "d_e": 1.0, "r_e": 0.25}
)


class TestSeededScan:
    """The eliminant-seeded scan finds exactly the brackets of the full grid scan."""

    @pytest.mark.parametrize(
        "spec",
        _random_scan_specs(5, 12) + [table_spec(*row) for row in GRID_POINT_ROWS] + [OFF_ZERO_ROOT],
        ids=[f"random{i}" for i in range(12)]
        + ["table{}-{}{}{}-a{:g}-b{:g}".format(*r) for r in GRID_POINT_ROWS]
        + ["off-zero-root"],
    )
    def test_equals_full_scan_on_all_strategies(self, spec):
        # all strategies the search covers: the four principal ones, or the
        # oscillator's two inner+ ones (its inner- ones repeat them)
        from drsbound.spectrum import PANELS_PER_UNIT, _scan_branches, _search_branches

        interval = (-spec.mass - 20.0, spec.mass + 20.0)
        got = _scan_branches(spec, interval)
        search = _search_branches(spec)
        assert got == [_scan_one_branch(spec, br, interval, PANELS_PER_UNIT) for br in search]

    @pytest.mark.parametrize(
        "row", GRID_POINT_ROWS, ids=["table{}-{}{}{}-a{:g}-b{:g}".format(*r) for r in GRID_POINT_ROWS]
    )
    def test_grid_point_root_bracketed_once(self, row):
        # a root exactly on a grid point (-2.5 on table 1's central (3, 1, 0),
        # 2.5 on table 3's central (2, 0, 1)) is bracketed by the panel it
        # ends only, so brentq polishes it once and no branch lists it twice
        from drsbound.spectrum import _scan_branches

        spec = table_spec(*row)
        roots = _scan_branches(spec, (-spec.mass - 20.0, spec.mass + 20.0))
        assert any(roots)
        assert all(len(set(branch)) == len(branch) for branch in roots)

    @pytest.mark.parametrize("panels_per_unit", [200, 2000])
    def test_disks_reach_roots_the_float_coefficients_lose(self, monkeypatch, panels_per_unit):
        # the corrections evaluate the eliminant directly (`_eliminant_at`)
        from drsbound import spectrum

        spec, interval = FLOAT_PAIR_OFF_AXIS, (-21.0, 21.0)
        monkeypatch.setattr(spectrum, "PANELS_PER_UNIT", panels_per_unit)
        got = spectrum._scan_branches(spec, interval)
        search = spectrum._search_branches(spec)
        want = [_scan_one_branch(spec, br, interval, panels_per_unit) for br in search]
        assert got == want and want[0]

    def test_disks_hold_clustered_zeros(self, monkeypatch):
        # np.roots splits the fourfold zero at 1 by about 1e-4; the zero
        # coefficients at both ends are trimmed, and the trailing ones give
        # np.roots's exact zeros.  The polynomial is evaluated from its own
        # coefficients, which are exact here
        from types import SimpleNamespace

        from drsbound import spectrum

        poly = np.concatenate([[0.0], np.poly([1.0, 1.0, 1.0, 1.0, -2.0]), [0.0, 0.0]])
        zeros = np.roots(poly)
        spec = SimpleNamespace(_eliminant_coefficients=((1, poly),), _eliminant_zeros=((1, zeros),))
        monkeypatch.setattr(spectrum, "_eliminant_at", lambda e, spec, s: np.polyval(poly, e))
        x, r = spectrum._seeds(spec, -5.0, 5.0)
        assert np.abs(zeros[:5] - 1.0).min() > 1e-5 and r.max() < 1e-3
        for root in (1.0, -2.0, 0.0):
            assert (np.abs(root - x) <= r).any()
        assert list(x[-2:]) == [0.0, 0.0] and list(r[-2:]) == [0.0, 0.0]

    @pytest.mark.parametrize(
        "row",
        [(1, 1, 0, 1, 1.0, 0.5), (2, 1, 1, 1, 1.0, 0.5), (3, 0, 1, 1, 0.0, 2.0), (4, 2, 0, 0, 0, 0)],
    )
    def test_eliminant_at_is_the_eliminant(self, row):
        # the product of the conjugate squared forms is the expanded polynomial
        from drsbound.spectrum import _eliminant_at

        spec = table_spec(*row)
        e = np.array([0.3 + 0.2j, -1.7 + 0.5j, 2.2, -30.0 + 4.0j])
        for sigma_rhs, poly in spec._eliminant_coefficients:
            want = np.polyval(poly, e)
            assert _eliminant_at(e, spec, sigma_rhs) == pytest.approx(want, rel=1e-11)

    def test_exact_zeros_get_radius_zero(self):
        # at m = 0 and b != 0 both eliminants end in two zero coefficients:
        # E = 0 is a double exact zero of each, where the corrections divide
        # by zero
        from drsbound.spectrum import _seeds

        spec = table_spec(1, 0, 0, 0, 1.0, 1.0)
        assert [list(z[-2:]) for _, z in spec._eliminant_zeros] == [[0.0, 0.0], [0.0, 0.0]]
        x, r = _seeds(spec, -spec.mass - 20.0, spec.mass + 20.0)
        assert list(r[x == 0.0]) == [0.0] * 4
        assert np.isfinite(r).all()

    def test_table_scan_cost(self, monkeypatch):
        # the disks mark no more panels than the raw eliminant roots did (4992
        # points over the 240 rows); an infinite radius marks the whole grid
        from drsbound import spectrum

        counts = []
        array = spectrum._residual_array
        counted = lambda spec, es, *signs: counts.append(len(es)) or array(spec, es, *signs)
        monkeypatch.setattr(spectrum, "_residual_array", counted)
        for table in (1, 2, 3, 4):
            for row in load_table_data(table):
                spec = table_spec(table, *row[:5])
                lo, hi = -spec.mass - 20.0, spec.mass + 20.0
                spectrum._scan_branches(spec, (lo, hi))
                assert counts[-1] <= 0.01 * (hi - lo) * 2000
        assert len(counts) == 240 and sum(counts) <= 4992

    @pytest.mark.parametrize("table", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, npr, m", [(0, 0, 0), (1, 2, -1), (2, 0, 2)])
    def test_central_eliminant_is_squared_polynomial(self, table, n, npr, m):
        # at a = b = 0 no radical is left to eliminate but the Kratzer's w
        from drsbound.spectrum import _eliminant

        spec = table_spec(table, n, npr, m, 0.0, 0.0)
        if table in (2, 4):
            pairs = [(_eliminant(spec, 1), squared_polynomial_drso(spec))]
        else:
            pairs = [(_eliminant(spec, s), squared_polynomial_drsk(spec, s)) for s in (1, -1)]
        for got, want in pairs:
            assert got / got[0] == pytest.approx(want, rel=1e-12, abs=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("table", [1, 2, 3, 4])
    def test_ring_eliminant_degree(self, table):
        from drsbound.spectrum import _eliminant

        spec = table_spec(table, 1, 1, 1, 1.0, 0.5)
        degree = 12 if table in (2, 4) else 16
        assert len(_eliminant(spec, 1)) == degree + 1
        ring_a = table_spec(table, 1, 1, 1, 1.0, 0.0)
        assert len(_eliminant(ring_a, 1)) == degree // 2 + 1

    @pytest.mark.parametrize("table", [1, 2, 3, 4])
    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (1.0, 0.5)])
    def test_find_roots_builds_each_eliminant_once(self, monkeypatch, table, a, b):
        # the polynomial paths and the seeds share one np.roots per eliminant
        from drsbound import spectrum

        built = []
        eliminant = spectrum._eliminant
        monkeypatch.setattr(
            spectrum, "_eliminant", lambda spec, s: built.append(s) or eliminant(spec, s)
        )
        find_roots(table_spec(table, 0, 0, 1, a, b), mode="paper-compat")
        assert built == ([1] if table in (2, 4) else [1, -1])


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


def _polish_oracle(spec, branch, value, span=2e-3, grow=8):
    """`_polish_branch_root` with the plain scalar halving ladder per endpoint."""
    from scipy.optimize import brentq

    from drsbound.spectrum import SpectralPoleError

    pole = spec._condition_terms.lhs_pole
    if abs(value - pole) < 1e-12:
        return None
    try:
        r0 = residual(value, spec, branch)
    except SpectralPoleError:
        return None
    comp = "imag" if abs(r0.imag) > abs(r0.real) else "real"
    fn = lambda e: getattr(residual(e, spec, branch), comp)

    def usable(e):
        try:
            r = residual(e, spec, branch)
        except SpectralPoleError:
            return None
        if not (np.isfinite(r.real) and np.isfinite(r.imag)):
            return None
        main = getattr(r, comp)
        other = r.imag if comp == "real" else r.real
        if abs(other) > 1e-9 * (1.0 + abs(main)):
            return None
        return main

    def shrink_to_usable(e):
        for _ in range(60):
            val = usable(e)
            if val is not None:
                return e, val
            e = value + 0.5 * (e - value)
            if abs(e - value) < 1e-15 * (1.0 + abs(value)):
                return None, None
        return None, None

    width = span
    for _ in range(grow):
        lo, hi = value - width, value + width
        if lo < pole < hi:
            if value > pole:
                lo = pole + 1e-9
            else:
                hi = pole - 1e-9
        lo, flo = shrink_to_usable(lo)
        hi, fhi = shrink_to_usable(hi)
        if lo is not None and hi is not None and hi > lo and np.sign(flo) != np.sign(fhi):
            try:
                return brentq(fn, lo, hi, xtol=1e-14)
            except (ValueError, SpectralPoleError):
                return None
        width *= 2.0
    return None


def _bits(x):
    return None if x is None else float(x).hex()


def _random_table_specs(seed, per_table=3):
    """Seeded specs for tables 1-4: one central and per_table - 1 ring-dressed each."""
    rng = np.random.default_rng(seed)
    specs = []
    for table in (1, 2, 3, 4):
        for i in range(per_table):
            a, b = (0.0, 0.0) if i == 0 else rng.uniform(0.1, 3.0, size=2)
            c = rng.uniform(2.0, 6.0)
            params = {
                "mass": rng.uniform(3.0, 7.0),
                "c_s": c,
                "c_ps": -c,
                "d_e": rng.uniform(5.0, 20.0),
                "r_e": rng.uniform(0.2, 0.8),
                "k": rng.uniform(0.5, 3.0),
            }
            n, npr = (int(x) for x in rng.integers(0, 3, size=2))
            m = int(rng.integers(-2, 3))
            specs.append(table_spec(table, n, npr, m, float(a), float(b), params))
    return specs


def _special_values(spec):
    """The lhs pole, the radical branch points and their neighbours at +-1e-9.

    The pole is also the branch point of the oscillator's lhs radical; the
    others sit where a gamma + 1/4, b gamma + m^2 or, for the central
    Kratzer, the big radicand vanishes.
    """
    from drsbound.model import Kratzer

    m_, c = spec.mass, spec.symmetry.constant
    to_e = (lambda g: g - m_ + c) if spec.is_spin else (lambda g: g + m_ + c)
    gs = []
    if spec.ring.a > 0:
        gs.append(-0.25 / spec.ring.a)
    if spec.ring.b > 0:
        gs.append(-spec.qn.m**2 / spec.ring.b)
    pot = spec.potential
    if isinstance(pot, Kratzer) and spec.ring.a == 0 and spec.ring.b == 0:
        gs.append(-((abs(spec.qn.m) + 2 * spec.qn.n_prime + 1.5) ** 2) / (pot.d_e * pot.r_e**2))
    centres = [spec._condition_terms.lhs_pole] + [to_e(g) for g in gs]
    return [x + d for x in centres for d in (0.0, -1e-9, 1e-9)]


@pytest.fixture
def ladder_calls(monkeypatch):
    """Counts the batched ladder evaluations made through `_ladder_candidates`."""
    from drsbound import spectrum

    calls = []
    inner = spectrum._ladder_candidates

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(spectrum, "_ladder_candidates", counted)
    return calls


#: Orders of the principal branches polished at one value, as indices into
#: principal_branches() (A, B, C, D), and whether another value is polished
#: before each branch: A, D, B, C and its reverse share the value's ladder
#: record, the third evicts it every time.
POLISH_ORDERS = (((0, 3, 1, 2), False), ((2, 1, 3, 0), False), ((0, 3, 1, 2), True))


def _polish_orders_bits(cases, spans=(2e-3, 0.05)):
    """(got, want) bits of every POLISH_ORDERS polish of each value of each (spec, values).

    want is the scalar-ladder oracle's result for the same branch and span.
    The value polished to evict the record is the next one of the list,
    or for the last the first plus 1.
    """
    from drsbound.spectrum import _polish_branch_root

    branches = principal_branches()
    got, want = [], []
    for spec, values in cases:
        for v, other in zip(values, values[1:] + [values[0] + 1.0]):
            for span in spans:
                oracle = [_bits(_polish_oracle(spec, br, v, span=span)) for br in branches]
                for order, evict in POLISH_ORDERS:
                    for j in order:
                        if evict:
                            _polish_branch_root(spec, branches[j], other, span)
                        got.append(_bits(_polish_branch_root(spec, branches[j], v, span)))
                        want.append(oracle[j])
    return got, want


class TestBatchedPolishLadder:
    """`_polish_branch_root` batches its halving ladders; results stay those of the scalar ladder.

    The bit-identity tests polish all four principal branches, in orders
    that share one value's ladder record and in one that evicts it, at
    classify_value's span and a wider one.
    """

    def test_published_values_bit_identical(self, ladder_calls):
        # every polish classify_value makes (span 2e-3) on all 342 values,
        # on all four branches, and the same at span 0.05
        from drsbound.spectrum import _ladder_record

        cases = []
        for table in (1, 2, 3, 4):
            for n, npr, m, a, b, values in load_table_data(table):
                cases.append((table_spec(table, n, npr, m, a, b), list(values)))
        built = _ladder_record.cache_info().misses
        got, want = _polish_orders_bits(cases)
        assert got == want
        assert ladder_calls and any(w is not None for w in want)
        # the sharing orders do share: fewer records built than polishes read
        assert _ladder_record.cache_info().misses - built < len(ladder_calls)

    def test_class_d_diagnostic_bit_identical(self, table_audits, ladder_calls):
        # a property of the polish at a span wider than classify_value's:
        # on every class-D entry the batched ladder matches the scalar one
        from drsbound.spectrum import _polish_branch_root, _search_branches

        got, want = [], []
        for table, run in table_audits.items():
            for e in run.report.entries:
                if e.root_class is not RootClass.D:
                    continue
                spec = table_spec(table, e.n, e.n_prime, e.m, e.a, e.b)
                for br in _search_branches(spec):
                    got.append(_bits(_polish_branch_root(spec, br, e.value, span=0.05)))
                    want.append(_bits(_polish_oracle(spec, br, e.value, span=0.05)))
        assert len(got) >= 44 and got == want
        assert ladder_calls  # these all end without a bracket

    def test_random_specs_bit_identical(self, ladder_calls):
        rng = np.random.default_rng(103)
        cases = []
        for spec in _random_table_specs(3):
            width = abs(spec.mass) + 12.0
            cases.append((spec, rng.uniform(-width, width, size=4).tolist()))
        got, want = _polish_orders_bits(cases)
        assert got == want
        assert ladder_calls and any(w is not None for w in want)

    def test_poles_and_branch_points_bit_identical(self, ladder_calls):
        specs = [table_spec(t, 0, 0, 0, 0.0, 0.0) for t in (1, 2, 3, 4)]
        specs += [table_spec(t, 1, 0, 1, 1.0, 0.5) for t in (1, 2, 3, 4)]
        got, want = _polish_orders_bits([(spec, _special_values(spec)) for spec in specs])
        assert got == want
        assert ladder_calls and any(w is not None for w in want)

    @pytest.mark.parametrize("perturb", ["mask every lane", "accept every lane as zero"])
    def test_batch_only_locates(self, perturb, monkeypatch, ladder_calls):
        # the endpoints and their signs come from the scalar test: a batch
        # that sends every lane to it, or one that accepts every lane with a
        # wrong value, must not move a single result.  The kept ladder
        # record is cleared first, so every record read here is perturbed,
        # and last, so none outlives the test
        from drsbound import spectrum

        exact = spectrum._residual_array

        def perturbed(spec, es, *signs):
            vals, ok = exact(spec, es, *signs)
            if perturb == "mask every lane":
                return vals, np.zeros_like(ok)
            return np.zeros_like(vals), np.ones_like(ok)

        spectrum._ladder_record.cache_clear()
        monkeypatch.setattr(spectrum, "_residual_array", perturbed)
        got, want = [], []
        try:
            for table in (1, 3):
                for n, npr, m, a, b, values in load_table_data(table)[:12]:
                    spec = table_spec(table, n, npr, m, a, b)
                    for v in values:
                        for br in spectrum._search_branches(spec):
                            got.append(_bits(spectrum._polish_branch_root(spec, br, v)))
                            want.append(_bits(_polish_oracle(spec, br, v)))
        finally:
            spectrum._ladder_record.cache_clear()
        assert got == want
        assert ladder_calls and any(w is not None for w in want)


#: match_tol values of the near-value polynomial path tests.
MATCH_TOLS = (1e-8, 1e-4, 1e-2, 1.0)


def _root_bits(roots):
    return [(_hex_pair(r.energy), r.branch, r.residual_norm.hex(), r.root_class) for r in roots]


def _within(roots, value, match_tol):
    return [r for r in roots if abs(r.energy.real - value) <= match_tol]


def _full_polynomial_roots(spec):
    """The oracle: the polynomial path on every eliminant zero of the spec."""
    from drsbound.spectrum import _polynomial_roots

    return _polynomial_roots(spec, spec._eliminant_zeros, False)


def _taken_polynomial_roots(spec, value, match_tol):
    """(roots, zeros passed) of classify_value's one `_polynomial_roots` call.

    roots are the call's roots within match_tol of the value, the
    candidates classify_value takes from it.
    """
    from drsbound import spectrum

    polynomial_roots, seen = spectrum._polynomial_roots, []

    def recorded(spec_, zeros, paper_compat):
        seen.append((polynomial_roots(spec_, zeros, paper_compat), zeros))
        return seen[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_polynomial_roots", recorded)
        classify_value(spec, value, match_tol)
    ((roots, zeros),) = seen
    return _within(roots, value, match_tol), zeros


class TestNearValuePolynomialPath:
    """classify_value polishes only the eliminant zeros that can match the value."""

    @pytest.mark.parametrize("match_tol", MATCH_TOLS)
    def test_central_table_values(self, match_tol):
        matched = passed = total = 0
        for table in (1, 2, 3, 4):
            for n, npr, m, a, b, values in load_table_data(table):
                if a or b:
                    continue
                spec = table_spec(table, n, npr, m, a, b)
                full = _full_polynomial_roots(spec)
                for v in values:
                    taken, zeros = _taken_polynomial_roots(spec, v, match_tol)
                    want = _within(full, v, match_tol)
                    assert _root_bits(taken) == _root_bits(want), (table, n, npr, m, v)
                    matched += bool(want)
                    passed += sum(z.size for _, z in zeros)
                    total += sum(z.size for _, z in spec._eliminant_zeros)
        # 117 central values; the filter is not vacuous and leaves zeros out
        assert matched >= 50 and passed < total

    def test_audit_polish_count(self, instrumented_audit):
        # one audit pass polishes 901 times, stopping at the first class
        # that has a candidate; polishing every branch of every value would
        # make it 1,230, and each central value's whole real spectrum 2,221
        assert instrumented_audit.polishes == 901

    def test_audit_ladder_record_count(self, instrumented_audit):
        # the 404 polishes of one audit pass that meet an unusable endpoint
        # read 156 ladder records: one per value and span, shared by the
        # branches polished there
        assert instrumented_audit.ladder_records == 156


def _classify_oracle(spec, value, match_tol):
    """`classify_value` gathering every candidate before it ranks them.

    Every search branch is polished, the polynomial path and the complex
    pairs are read, and the winner is the first of the candidates sorted by
    (class order, deviation).
    """
    from drsbound import spectrum as sp

    search = sp._search_branches(spec)
    candidates = []
    nearest = None
    for br in search:
        root = sp._polish_branch_root(spec, br, value)
        if root is not None and (nearest is None or abs(root - value) < abs(nearest - value)):
            nearest = root
        if root is None or abs(root - value) > match_tol:
            continue
        hit = sp._best_branch(spec, root, [br], tol=1e-8)
        if hit is not None:
            candidates.append((sp._class_for_branch(br), abs(root - value), br.label(), hit[1]))
    t = spec._condition_terms
    central = t.a == 0 and t.b == 0
    pair_zeros = []
    if central:
        zeros = spec._eliminant_zeros
        reach = 1e-6 * 2.0 ** (sp.POLISH_GROW_STEPS - 1)
        near = lambda x: np.maximum(x - reach - value, value - (x + reach)) <= match_tol
        zeros_near = [(srhs, zs[near(zs.real)]) for srhs, zs in zeros]
        for r in sp._polynomial_roots(spec, zeros_near, paper_compat=False):
            if abs(r.energy.real - value) <= match_tol:
                candidates.append(
                    (r.root_class, abs(r.energy.real - value), r.branch.label(), r.residual_norm)
                )
        pair_zeros = [z for _, zs in zeros for z in zs if z.imag > 1e-7]
    elif t.oscillator:
        pair_zeros = sp._complex_multistart(spec, value, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
    for z in pair_zeros:
        dev = abs(z.real - value)
        best = sp._best_branch(spec, z, search) if dev <= match_tol else None
        if best is not None:
            candidates.append((RootClass.C, dev, best[0].label(), best[1]))
    if candidates:
        order = {RootClass.A: 0, RootClass.B: 1, RootClass.C: 2, RootClass.D: 3}
        candidates.sort(key=lambda c: (order[c[0]], c[1]))
        klass, dev, br, res = candidates[0]
        return klass, dev, br, res, None
    diag = {"branch_residuals": {}, "nearest_root": nearest, "nearest_pair_re": None}
    for reading, sq in (("principal", sp.branch_sqrt), ("modulus", sp._modulus_sqrt)):
        for br in principal_branches():
            signs = br.sigma_rhs, br.sigma_inner
            try:
                lhs, rhs, _ = sp._condition(complex(value), spec, *signs, sq, sp._raise_at_pole)
                res = abs(lhs - rhs)
            except sp.SpectralPoleError:
                res = None
            diag["branch_residuals"][f"{sp._sign_text(br)},{reading}"] = res
    near_pairs = []
    if not t.oscillator and not central:
        for srhs in (1, -1):
            near_pairs.extend(sp._complex_multistart(spec, value, (0.5, 1.0, 2.0, 4.0), srhs))
    near_pairs.extend(pair_zeros)
    if near_pairs:
        diag["nearest_pair_re"] = min(near_pairs, key=lambda z: abs(z.real - value)).real
    return RootClass.D, None, None, None, diag


def _hex_tree(x):
    """x with every float replaced by its float.hex, through dicts and tuples."""
    if isinstance(x, dict):
        return {k: _hex_tree(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_hex_tree(v) for v in x)
    return float(x).hex() if isinstance(x, float) else x


def _oracle_values(seed):
    """(spec, value) pairs around `_random_table_specs(seed)`.

    Per spec: each paper-compat root, shifted by 0, +3e-5, -7e-5 and +2e-3;
    three uniform values; and `_special_values(spec)`.
    """
    rng = np.random.default_rng(seed + 1000)
    out = []
    for spec in _random_table_specs(seed):
        roots = [r.energy.real for r in find_roots(spec, mode="paper-compat")]
        width = abs(spec.mass) + 12.0
        values = [x + d for x in roots for d in (0.0, 3e-5, -7e-5, 2e-3)]
        values += rng.uniform(-width, width, size=3).tolist() + _special_values(spec)
        out += [(spec, v) for v in values]
    return out


class TestClassOrderedAudit:
    """classify_value stops at the first class with a candidate; its result is the eager one."""

    def test_published_values(self, table_audits):
        got, want = [], []
        for table, run in table_audits.items():
            for e in run.report.entries:
                spec = table_spec(table, e.n, e.n_prime, e.m, e.a, e.b)
                entry = e.root_class, e.deviation, e.branch, e.residual, e.diagnostics
                got.append(_hex_tree(entry))
                want.append(_hex_tree(_classify_oracle(spec, e.value, 1e-4)))
        assert len(got) == 342 and got == want
        assert {klass for klass, *_ in got} == set(RootClass)

    def test_random_specs(self):
        cases = [case for seed in (3, 11, 29, 47) for case in _oracle_values(seed)]
        got = [_hex_tree(classify_value(spec, v, 1e-4)) for spec, v in cases]
        want = [_hex_tree(_classify_oracle(spec, v, 1e-4)) for spec, v in cases]
        assert len(got) > 800 and got == want
        assert {klass for klass, *_ in got} == set(RootClass)


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
    def test_four_strategies(self):
        assert len(set(principal_branches())) == 4
        assert principal_branches()[0] == CANONICAL

    def test_flip_involution_pointwise(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        flipped_twice = replace(
            replace(CANONICAL, sigma_rhs=-CANONICAL.sigma_rhs), sigma_rhs=CANONICAL.sigma_rhs
        )
        for e in np.linspace(0.3, 4.7, 100):
            assert residual(e, spec, flipped_twice) == residual(e, spec, CANONICAL)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            BranchStrategy(0, 1)
        with pytest.raises(ValueError):
            BranchStrategy(1, -2)


class TestConditionRecord:
    """A spec turns into the numbers of its spectral forms once, in its record."""

    @pytest.mark.parametrize(
        "table, params", [(3, {"d_e": 1e300}), (1, {"r_e": 1e200})], ids=["spin-de", "pseudospin-re"]
    )
    def test_overflowing_kratzer_product_raises_spec_error(self, table, params):
        # (d_e r_e)^2 or r_e^2 overflows a float while the polish forms it
        spec = table_spec(table, 0, 0, 0, 0.0, 0.0, params)
        with pytest.raises(SpecError, match="overflow"):
            residual(1.0, spec, CANONICAL)

    def test_eliminant_zeros_are_shared_and_read_only(self):
        spec = table_spec(3, 0, 0, 1, 0.0, 0.0)
        zeros = spec._eliminant_zeros
        assert spec._eliminant_zeros is zeros and [s for s, _ in zeros] == [1, -1]
        for _, z in zeros:
            assert not z.flags.writeable
            with pytest.raises(ValueError):
                z[0] = 0.0
        assert replace(spec)._eliminant_zeros is not zeros

    def test_audit_builds_each_central_spec_eliminant_once(self, instrumented_audit):
        # the audit read the eliminant roots of a central spec once per
        # published value: 117 builds for 60 distinct specs
        built = instrumented_audit.eliminants
        assert len({id(spec) for spec, _ in built}) == 60
        assert len({(id(spec), sigma_rhs) for spec, sigma_rhs in built}) == len(built)


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

    @pytest.mark.parametrize("table, kappa", [(3, -1), (1, 1)])
    def test_kappa_without_partner_rejected(self, table, kappa):
        # spin kappa = -1 and pseudospin kappa = 1 would map to kappa = 0,
        # which no spec can carry; no partner means no round trip either
        spec = table_spec(table, 0, 0, 0, 0.0, 0.0)
        spec = replace(spec, qn=replace(spec.qn, kappa=kappa))
        with pytest.raises(SpecError, match=f"kappa = {kappa}"):
            spin_pseudospin_map(spec)

    def test_roots_correspond_under_full_substitution(self):
        # spin roots of the printed condition coincide with the mapped
        # pseudospin-form roots at negated energy, pointwise over a grid
        spec = table_spec(3, 0, 0, 0, 0.0, 0.0)
        roots = find_roots(spec, mode="paper-compat")
        assert has_root(roots, 0.744179704, "A")


class TestAudit:
    def test_oscillator_pure_central_entries(self, table_audits):
        report = table_audits[2].report
        entries = {
            (e.n, e.n_prime, e.m): e
            for e in report.entries
            if e.a == 0 and e.b == 0 and e.n <= 1 and e.n_prime == 0
        }
        assert entries[(0, 0, 0)].root_class is RootClass.A
        assert entries[(0, 0, 0)].deviation < 1e-6
        assert entries[(1, 0, 0)].root_class is RootClass.C
        assert entries[(1, 0, 0)].deviation < 1e-6

    def test_ring_dressed_pseudospin_kratzer_is_unexplained(self, table_audits):
        report = table_audits[1].report
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

    def test_spin_oscillator_central_entries_match_tightly(self, table_audits):
        report = table_audits[4].report
        for e in report.entries:
            if e.a == 0 and e.b == 0:
                assert e.root_class in (RootClass.A, RootClass.C)
                assert e.deviation < 1e-6

    def test_spin_kratzer_ground_entries_classes(self, table_audits):
        report = table_audits[3].report
        cell = [
            e for e in report.entries if (e.n, e.n_prime, e.m, e.a, e.b) == (0, 0, 0, 1.0, 1.0)
        ]
        assert {e.root_class for e in cell} == {RootClass.A, RootClass.B}

    def test_spin_oscillator_ring_dressed_classified(self, table_audits):
        report = table_audits[4].report
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
        klass, dev, _, _, _ = classify_value(spec, -2.604114296, 1e-4)
        assert klass is RootClass.B
        assert dev < 1e-4

    @pytest.mark.parametrize(
        "cell, value",
        [((1, 0, 0, 0, 1.0, 1.0), -1.470943351), ((2, 0, 0, 0, 0.0, 0.0), 3.3)],
        ids=["ring-dressed", "central"],
    )
    def test_class_d_polishes_once_per_branch(self, monkeypatch, cell, value):
        # a class-D value polishes every search branch once, in class
        # order, besides the polishes of the central polynomial path
        from drsbound import spectrum

        spec = table_spec(*cell)
        calls, inside = [], []
        polish, polynomial = spectrum._polish_branch_root, spectrum._polynomial_roots

        def counted_polish(*args, **kwargs):
            if not inside:
                calls.append(args[1])
            return polish(*args, **kwargs)

        def marked_polynomial(*args, **kwargs):
            inside.append(True)
            try:
                return polynomial(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(spectrum, "_polish_branch_root", counted_polish)
        monkeypatch.setattr(spectrum, "_polynomial_roots", marked_polynomial)
        klass, *_ = classify_value(spec, value, 1e-4)
        assert klass is RootClass.D
        # class order: A (canonical), B (sigma_rhs = -1), D (rhs+inner-)
        order = {RootClass.A: 0, RootClass.B: 1, RootClass.D: 2}
        search = spectrum._search_branches(spec)
        assert calls == sorted(search, key=lambda br: order[spectrum._class_for_branch(br)])

    def test_nearest_root_is_the_deciding_polish_root(self):
        spec = table_spec(3, 1, 0, 1, 1.0, 0.5)
        (root,) = [r.energy.real for r in find_roots(spec, mode="strict")]
        assert root == pytest.approx(2.6764728302, abs=1e-10)
        klass, _, _, _, diag = classify_value(spec, root + 0.1, 1e-4)
        assert klass is RootClass.D
        assert abs(diag["nearest_root"] - root) < 1e-12

    def test_nearest_root_null_beyond_polish_reach(self):
        # 1.0 lies beyond the deciding polish's widest bracket, 128 x 2e-3
        spec = table_spec(3, 1, 0, 1, 1.0, 0.5)
        klass, _, _, _, diag = classify_value(spec, 2.6764728302 + 1.0, 1e-4)
        assert klass is RootClass.D
        assert diag["nearest_root"] is None

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            audit_table(5, [], 1e-4, None)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_tolerance_rejected(self, tolerance):
        # a NaN tolerance used to turn table 2's class-C entries into class D,
        # an infinite one to match values 10 units away
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        with pytest.raises(ValueError, match="tolerance"):
            classify_value(spec, -0.6652434115, tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            audit_table(2, [], tolerance, None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, value):
        # a NaN value used to come back as class D with NaN diagnostics
        spec = table_spec(2, 0, 0, 0, 0.0, 0.0)
        with pytest.raises(ValueError, match="value"):
            classify_value(spec, value, 1e-4)
        with pytest.raises(ValueError, match="value"):
            audit_table(2, [(0, 0, 0, 0.0, 0.0, [-0.6652434115, value])], 1e-4, None)

    def test_bundled_data_complete(self):
        counts = {1: 74, 2: 60, 3: 133, 4: 75}
        for table, expected in counts.items():
            rows = load_table_data(table)
            assert sum(len(vals) for *_ignored, vals in rows) == expected


#: The class-D `branch_residuals` of classify_value, as float.hex, for
#: entries outside table 1's audit reference: (table, n, n', m, a, b), the
#: value, then the four principal strategies' residual norms followed by the
#: four on the modulus reading (sqrt(|x|) of a real radicand), each in
#: rhs+inner+, rhs+inner-, rhs-inner+, rhs-inner- order.  The two central
#: Kratzer values at E = 0 sit on the lhs pole, where every entry is None.
CLASS_D_BRANCH_RESIDUALS = [
    ((2, 0, 0, 1, 1.0, 0.5), -7.3, [
        "0x1.5c48f9767843bp+3", "0x1.5c48f9767843bp+3",
        "0x1.bc1ca08072a35p+2", "0x1.bc1ca08072a35p+2",
        "0x1.e3320206dfbc2p+3", "0x1.e3320206dfbc2p+3",
        "0x1.55ee6eb943422p+1", "0x1.55ee6eb943422p+1",
    ]),
    ((3, 1, 0, 1, 1.0, 1.0), -3.1, [
        "0x1.1c7d31541c752p+1", "0x1.f82ae45fb4b58p-1",
        "0x1.e0329d7dfd642p+1", "0x1.26f13839e6112p+2",
        "0x1.139901f665950p+2", "0x1.07c7ac5f6275cp+4",
        "0x1.d6d4d786a1cb4p-1", "0x1.68558a4b28044p+3",
    ]),
    ((4, 0, 1, 0, 0.5, 2.0), -9.7, [
        "0x1.4972f47df9a47p+5", "0x1.4972f47df9a47p+5",
        "0x1.a222b69199cedp+5", "0x1.a222b69199cedp+5",
        "0x1.edd29e9aefd10p+4", "0x1.edd29e9aefd10p+4",
        "0x1.e59d682b919aep+5", "0x1.e59d682b919aep+5",
    ]),
    ((4, 0, 0, 0, 0.0, 0.0), 3.3, [
        "0x1.2c705ddcd890fp+2", "0x1.2c705ddcd890fp+2",
        "0x1.2c705ddcd890fp+2", "0x1.2c705ddcd890fp+2",
        "0x1.ca1104b0de7c0p-2", "0x1.ca1104b0de7c0p-2",
        "0x1.a7eb4fb6e2c44p+2", "0x1.a7eb4fb6e2c44p+2",
    ]),
    ((1, 1, 0, 1, 1.0, 1.0), -4.2, [
        "0x1.5e2d33f133fd7p+0", "0x1.a790971795a32p+0",
        "0x1.1faf741817144p+0", "0x1.4a55bbcfbf841p+0",
        "0x1.36004c83d0e46p+0", "0x1.072ec098df7dcp+3",
        "0x1.978664e556fccp+0", "0x1.135f83a51040cp+3",
    ]),
    ((1, 0, 0, 0, 0.0, 0.0), 0.0, [None] * 8),
    ((3, 0, 0, 0, 0.0, 0.0), 0.0, [None] * 8),
]

class TestBitPins:
    def test_labels(self):
        # the table CSV and the audit JSON `branch` field print these
        assert [br.label() for br in principal_branches()] == [
            "rhs+inner+,principal",
            "rhs+inner-,principal",
            "rhs-inner+,principal",
            "rhs-inner-,principal",
        ]

    @pytest.mark.parametrize("cell, value, want", CLASS_D_BRANCH_RESIDUALS)
    def test_class_d_branch_residuals(self, cell, value, want):
        klass, _, _, _, diag = classify_value(table_spec(*cell), value, 1e-4)
        assert klass is RootClass.D
        residuals = diag["branch_residuals"]
        assert list(residuals) == [
            f"rhs{s}inner{t},{reading}"
            for reading in ("principal", "modulus")
            for s in "+-"
            for t in "+-"
        ]
        assert [_bits(r) for r in residuals.values()] == want


#: Parameters of the spectral-condition pins.  None is a bundled table's,
#: so M - C and the Kratzer products are not round numbers.
PIN_PARAMS = {"mass": 4.3, "c_s": 2.7, "c_ps": -2.7, "d_e": 12.5, "r_e": 0.55, "k": 1.7}
#: (table, n, n', m, a, b): spin and pseudospin x Kratzer and oscillator x central and ring.
PIN_CELLS = [(t, 1, 2, -2, a, b) for t in (1, 2, 3, 4) for a, b in ((0.0, 0.0), (0.8, 1.7))]
PIN_ENERGIES = (-3.7, 2.9, 1.1 + 0.6j, -2.3 - 1.4j)


def _pin_key(cell):
    return " ".join(str(x) for x in cell)


def _hex_pair(z):
    z = complex(z)
    return f"{z.real.hex()} {z.imag.hex()}"


def _condition_pins(spec):
    """float.hex of the spectral condition at PIN_ENERGIES and the lhs pole.

    Per energy: `residual` on the four principal branches ("pole" where it
    raises), `squared_form` for sigma_rhs +1 and -1, and `_residual_array`
    over the principal branches' signs stacked as (4, 1) columns, all
    energies in one array (None where masked).
    """
    from drsbound.spectrum import SpectralPoleError, _residual_array

    energies = [complex(e) for e in PIN_ENERGIES] + [complex(spec._condition_terms.lhs_pole)]
    signs = [[[getattr(br, s)] for br in principal_branches()] for s in ("sigma_rhs", "sigma_inner")]
    vals, ok = _residual_array(spec, energies, *map(np.array, signs))
    out = []
    for j, e in enumerate(energies):
        res = []
        for br in principal_branches():
            try:
                res.append(_hex_pair(residual(e, spec, br)))
            except SpectralPoleError:
                res.append("pole")
        out.append({
            "energy": _hex_pair(e),
            "residual": res,
            "squared_form": [_hex_pair(squared_form(e, spec, s)) for s in (1, -1)],
            "residual_array": [_hex_pair(v) if k else None for v, k in zip(vals[:, j], ok[:, j])],
        })
    return out


def _load_condition_pins():
    path = pathlib.Path(__file__).resolve().parent / "data" / "condition_pins.json"
    return json.loads(path.read_text())


class TestConditionPins:
    """The scalar, squared and array conditions keep every bit.

    tests/data/condition_pins.json holds `_condition_pins` of each PIN_CELLS
    spec; how the conditions read the spec may change, these bits may not.
    """

    @pytest.mark.parametrize("cell", PIN_CELLS, ids=_pin_key)
    def test_bits(self, cell):
        spec = table_spec(*cell, params=PIN_PARAMS)
        assert _condition_pins(spec) == _load_condition_pins()[_pin_key(cell)]

    @pytest.mark.parametrize("table", [1, 3])
    def test_kratzer_lhs_pole_raises(self, table):
        from drsbound.spectrum import SpectralPoleError

        spec = table_spec(table, 1, 2, -2, 0.8, 1.7, PIN_PARAMS)
        with pytest.raises(SpectralPoleError, match="residual pole"):
            residual(spec._condition_terms.lhs_pole, spec, CANONICAL)
        pins = _load_condition_pins()[_pin_key((table, 1, 2, -2, 0.8, 1.7))]
        assert pins[-1]["residual"] == ["pole"] * 4
        assert pins[-1]["residual_array"] == [None] * 4


def _load_eliminant_pins():
    path = pathlib.Path(__file__).resolve().parent / "data" / "eliminant_pins.json"
    return json.loads(path.read_text())


class TestEliminantPins:
    """The eliminant keeps every bit, for either sigma_rhs.

    tests/data/eliminant_pins.json holds float.hex of `_eliminant(spec, +-1)`
    for each PIN_CELLS spec and each bundled table row's spec; an oscillator's
    is stored under "1" only, because its squared form does not read
    sigma_rhs.  A ring spec's eliminant only seeds grid panels, so a moved
    bit there would show in no table.
    """

    @staticmethod
    def assert_pinned(spec, want):
        from drsbound.spectrum import _eliminant

        for sigma_rhs in (1, -1):
            got = [float(c).hex() for c in _eliminant(spec, sigma_rhs)]
            assert got == want.get(str(sigma_rhs), want["1"]), sigma_rhs

    @pytest.mark.parametrize("cell", PIN_CELLS, ids=_pin_key)
    def test_pin_cells(self, cell):
        want = _load_eliminant_pins()["pin_cells"][_pin_key(cell)]
        self.assert_pinned(table_spec(*cell, params=PIN_PARAMS), want)

    @pytest.mark.parametrize("table", [1, 2, 3, 4])
    def test_table_rows(self, table):
        pins = _load_eliminant_pins()["table_rows"]
        rows = load_table_data(table)
        assert len(rows) == sum(key.split()[0] == str(table) for key in pins)
        for n, n_prime, m, a, b, _ in rows:
            cell = (table, n, n_prime, m, a, b)
            self.assert_pinned(table_spec(*cell), pins[_pin_key(cell)])
