import json
import math
import pathlib

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from drsbound import oracle
from drsbound.model import (
    Kratzer,
    Oscillator,
    QuantumNumbers,
    RingParams,
    SpecError,
    coefficients_at_gamma,
    derive_coefficients,
    gamma_of,
    radial_equation_beta_sq,
)
from drsbound.nonrel import NonRelParams, energy_kratzer_nr
from drsbound.oracle import (
    DivergenceError,
    FdGrid,
    OracleError,
    fd_angular_eigs,
    fd_radial_eigs,
    nonrel_energy_fd,
    radial_level,
    self_consistent_energy,
)
from drsbound.spectrum import RootClass, find_roots, load_table_data, table_spec

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


class TestFdGrid:
    def test_validation(self):
        with pytest.raises(SpecError):
            FdGrid(1.0, 1.0, 100)
        with pytest.raises(SpecError):
            FdGrid(0.0, 5.0, 10)

    def test_points_interior(self):
        g = FdGrid(0.0, 1.0, 99)
        pts = g.points()
        assert len(pts) == 99
        assert pts[0] == pytest.approx(g.spacing)
        assert pts[-1] == pytest.approx(1.0 - g.spacing)


class TestRadialSolver:
    def test_half_line_oscillator(self):
        # Dirichlet at the origin selects the odd states: 4j + 3
        grid = FdGrid(0.0, 12.0, 3000)
        eigs = fd_radial_eigs(lambda r: r**2, grid, 3, refine=True)
        for j, val in enumerate(eigs):
            assert val == pytest.approx(4 * j + 3, rel=1e-4)

    def test_kratzer_ground_state(self):
        params = NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams())
        closed = energy_kratzer_nr(params, QuantumNumbers())
        fd = nonrel_energy_fd(params, QuantumNumbers())
        assert abs(fd - closed) / abs(closed) < 1e-4

    def test_second_order_convergence(self):
        # halving the spacing cuts the eigenvalue error by at least 3.8x
        exact = 3.0
        errs = []
        for nodes in (500, 1001):
            grid = FdGrid(0.0, 12.0, nodes)
            errs.append(abs(fd_radial_eigs(lambda r: r**2, grid, 1)[0] - exact))
        assert errs[0] / errs[1] > 3.8

    def test_no_mass_factor(self):
        # one kinetic term, -d^2/dr^2; Schroedinger scalings go through radial_level
        with pytest.raises(TypeError):
            fd_radial_eigs(lambda r: r**2, FdGrid(0.0, 12.0, 3000), 1, mass_factor=2.0)

    def test_radial_level_is_the_gamma_form(self):
        # -u'' + [(l_eff^2 - 1/4)/r^2 + gamma k r^2 / 2] u: l_eff = 3/2 and
        # gamma k / 2 = 1 give the ell = 1 radial oscillator level 4 j + 5 at j = 1
        level = radial_level(Oscillator(1.0), 2.0, 2.25, 1, 12.0, 3000)
        assert level == pytest.approx(9.0, rel=1e-6)

    def test_grid_too_coarse_rejected(self):
        grid = FdGrid(0.0, 10.0, 60)
        with pytest.raises(OracleError):
            fd_radial_eigs(lambda r: r**2, grid, 10)

    def test_non_finite_potential_rejected(self):
        grid = FdGrid(-1.0, 1.0, 199)  # places a node exactly at r = 0
        with pytest.raises(OracleError):
            fd_radial_eigs(lambda r: 1.0 / r, grid, 1)

    def test_refined_grid_non_finite_potential_rejected(self):
        # the pole at 1.5 h falls between two coarse nodes and on a node of
        # the (2n+1)-node grid, which gets the same finiteness check
        grid = FdGrid(0.0, 10.0, 100)
        v_eff = lambda r: 1.0 / (r - 1.5 * grid.spacing) ** 2
        assert fd_radial_eigs(v_eff, grid, 1)[0] == pytest.approx(0.16401999, rel=1e-7)
        with pytest.raises(OracleError, match="not finite"):
            fd_radial_eigs(v_eff, grid, 1, refine=True)


class TestAngularSolver:
    def test_pure_central_family(self):
        eigs = fd_angular_eigs(0.0, RingParams(0, 0), 0, 3)
        expected = [(2 * k + 1.5) ** 2 for k in range(3)]
        np.testing.assert_allclose(eigs, expected, rtol=1e-5)

    def test_ring_dressed_value(self):
        g = 2.072188142
        eig = fd_angular_eigs(g, RingParams(1, 1), 0, 1)[0]
        terms = coefficients_at_gamma(g, None, None, RingParams(1, 1), QuantumNumbers())
        expected = terms.ell_eff.real ** 2
        assert abs(eig - expected) / expected < 1e-3

    def test_azimuthal_shift(self):
        eigs = fd_angular_eigs(0.0, RingParams(0, 0), 2, 3)
        expected = [(abs(2) + 1.5 + 2 * k) ** 2 for k in range(3)]
        np.testing.assert_allclose(eigs, expected, rtol=1e-5)

    def test_matches_quantization_on_grid(self):
        # 3 gammas x 3 ring configurations x 2 azimuthal numbers
        for gamma in (0.0, 0.9, 2.072188142):
            for a, b in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
                for m in (0, 2):
                    ring = RingParams(a, b)
                    eigs = fd_angular_eigs(gamma, ring, m, 2)
                    for n_prime in range(2):
                        qn = QuantumNumbers(n_prime=n_prime, m=m)
                        terms = coefficients_at_gamma(gamma, None, None, ring, qn)
                        expected = terms.ell_eff.real ** 2
                        assert abs(eigs[n_prime] - expected) / expected < 1e-3

    def test_ring_dressed_levels_pinned(self):
        eigs = fd_angular_eigs(2.0, RingParams(1.0, 0.5), 1, 2)
        assert [float(x).hex() for x in eigs] == ["0x1.ea46300ebbe19p+3", "0x1.17d2c8cabbbbfp+5"]

    def test_complex_sector_rejected(self):
        with pytest.raises(OracleError):
            fd_angular_eigs(-2.0, RingParams(1.0, 0.0), 0, 1)


def _angular_fd_uncached(gamma, ring, m, first, count, cells, near=None):
    """The angular FD matrix built whole on every call, as before _angular_grid."""
    h = (math.pi / 2.0) / cells
    centers = (np.arange(cells) + 0.5) * h
    faces = np.arange(cells + 1) * h
    sin_f = np.sin(faces)
    sin_c = np.sin(centers)
    q = (
        0.25
        + (m * m + gamma * ring.b) / sin_c**2
        + gamma * ring.a / np.cos(centers) ** 2
    )
    diag = (sin_f[:cells] + sin_f[1:]) / h**2 + q * sin_c
    off = -sin_f[1:cells] / h**2
    d = diag / sin_c
    e = off / np.sqrt(sin_c[:-1] * sin_c[1:])
    return oracle._levels(d, e, first, count, near)


class TestAngularGrid:
    """The cached cell geometry gives the uncached build's levels bit for bit."""

    @pytest.mark.parametrize("cells", [1500, 2000])
    def test_levels_match_uncached_build(self, monkeypatch, cells):
        rng = np.random.default_rng(cells)
        cases = []
        for _ in range(6):
            count = int(rng.integers(1, 4))
            first = int(rng.integers(0, count))
            gamma, a, b = (float(x) for x in rng.uniform((0.0, 0.0, 0.0), (3.0, 2.0, 2.0)))
            cases.append((gamma, RingParams(a, b), int(rng.integers(-2, 3)), count, first))

        def levels():
            return [
                [float(x).hex() for x in fd_angular_eigs(g, ring, m, count, cells, first)]
                for g, ring, m, count, first in cases
            ]

        cached = levels()
        monkeypatch.setattr(oracle, "_angular_fd_once", _angular_fd_uncached)
        assert cached == levels()

    def test_geometry_read_only_and_bounded(self):
        grid = oracle._angular_grid(1500)
        assert oracle._angular_grid(1500) is grid
        for part in grid:
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
        # a sweep over cell counts keeps only the three latest grids
        for cells in range(1500, 1510):
            oracle._angular_grid(cells)
        assert oracle._angular_grid.cache_info().currsize == 3


class TestSelfConsistency:
    def test_spin_kratzer_ring_ground(self):
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        closed = find_roots(spec, mode="strict")[0].energy.real
        fixed_point = self_consistent_energy(spec, 1.0)
        assert abs(fixed_point - closed) < 1e-4

    def test_spin_kratzer_central_ground(self):
        spec = table_spec(3, 0, 0, 0, 0.0, 0.0)
        closed = find_roots(spec, mode="strict")[0].energy.real
        fixed_point = self_consistent_energy(spec, 0.4)
        assert abs(fixed_point - closed) < 1e-4

    def test_spin_oscillator_reports_divergence(self, monkeypatch):
        spec = table_spec(4, 0, 0, 0, 1.0, 1.0)
        monkeypatch.setattr(oracle, "MAX_SWEEPS", 40)
        with pytest.raises(DivergenceError):
            self_consistent_energy(spec, 2.0)

    def test_bracket_closes_in_few_sweeps(self, monkeypatch):
        # the march from E = 1.0 takes 22 sweeps; brentq then closes the
        # bracket to BRACKET_TOL in a few more, plus the final consistency
        # check
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        calls = []
        real_map = oracle._consistency_map

        def counting(spec_, e, nodes, *domain):
            calls.append(e)
            return real_map(spec_, e, nodes, *domain)

        monkeypatch.setattr(oracle, "_consistency_map", counting)
        fixed_point = self_consistent_energy(spec, 1.0)
        steps = [(e - 1.0) / 0.1 for e in calls]
        march = [s for s in steps if math.isclose(s, round(s), abs_tol=1e-9)]
        assert len(march) == 22
        assert len(calls) - len(march) <= 8 + 1
        closed = find_roots(spec, mode="strict")[0].energy.real
        assert abs(fixed_point - closed) < 1e-6

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_failed_sweeps_inside_bracket(self, monkeypatch, side):
        # the march brackets the central ground root 0.74418 in (0.7, 0.8),
        # and brentq steps to both sides of it; sweeps fail on one side,
        # the march points themselves excepted.  The first failed sweep ends
        # the solve with DivergenceError, and no energy is returned
        spec = table_spec(3, 0, 0, 0, 0.0, 0.0)
        closed = find_roots(spec, mode="strict")[0].energy.real
        calls, failed = [], []
        real_map = oracle._consistency_map

        def failing(spec_, e, nodes, *domain):
            calls.append(e)
            if 0.71 < e < 0.79 and side * (e - closed) > 1e-6:
                failed.append(e)
                raise DivergenceError("sweep failed")
            return real_map(spec_, e, nodes, *domain)

        monkeypatch.setattr(oracle, "_consistency_map", failing)
        with pytest.raises(DivergenceError, match="inside the bracket"):
            self_consistent_energy(spec, 0.4)
        assert failed == calls[-1:]

    def test_unsettled_radial_domain_raises(self):
        # on draw 3's spec the full doubling test does not settle just below
        # the continuum edge E = 0
        spec = table_spec(3, 1, 0, 1, 0.0, 0.5)
        with pytest.raises(DivergenceError, match="unsettled"):
            oracle._consistency_map(spec, -1.99e-4, oracle.FD_NODES)

    def test_continuum_edge_bracket_skipped(self):
        # b(E) = (M - E)(C_s - E - M) vanishes at E = C_s - M = 0 on draw 3's
        # spec, and F changes sign there too; the march from 0.05 skips that
        # bracket and goes on to the bound root
        spec = table_spec(3, 1, 0, 1, 0.0, 0.5)
        closed = find_roots(spec, mode="strict")[0].energy.real
        assert closed == pytest.approx(2.152628, abs=1e-6)
        assert abs(self_consistent_energy(spec, 0.05) - closed) < 1e-6

    @pytest.mark.parametrize(
        "qn, ring, offset",
        [
            ((1, 0, 2), (0.0, 1.0), -0.2816),
            ((1, 0, 1), (0.0, 0.5), 0.1582),
            ((2, 0, 0), (1.0, 0.0), -0.0366),
            ((2, 0, -1), (0.5, 0.0), 0.1623),
        ],
        ids=["draw2", "draw3", "draw7", "draw9"],
    )
    def test_former_validate_defects_converge(self, qn, ring, offset):
        # validate's seed-1 draws 2, 3, 7 and 9 (perfbench/reference/validate.json),
        # which the inverse-map iteration failed or sent to the continuum edge
        spec = table_spec(3, *qn, *ring)
        closed = find_roots(spec, mode="strict")[0].energy.real
        assert abs(self_consistent_energy(spec, closed + offset) - closed) < 1e-8

    @pytest.mark.parametrize("draw", ["0", "3", "11"])
    def test_validate_draws_pinned(self, draw):
        # tests/data/oracle_pins.json: float.hex of the solve from the strict
        # ground root plus the draw's offset, for seed-1 validate draws
        pin = json.loads((DATA_DIR / "oracle_pins.json").read_text())[draw]
        d = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"][int(draw)]
        spec = table_spec(3, *d["qn"], *d["ring"])
        start = find_roots(spec, mode="strict")[0].energy.real + d["offset"]
        assert start.hex() == pin["initial_energy"]
        assert self_consistent_energy(spec, start).hex() == pin["energy"]

    @pytest.mark.parametrize("draw", [str(i) for i in range(12)])
    def test_validate_march_pinned(self, monkeypatch, draw):
        # tests/data/oracle_march_pins.json: the sweeps of the solve from the
        # strict ground root plus the draw's offset (the final check included)
        # and the doublings its carried radial domain records, for every
        # seed-1 validate draw
        pin = json.loads((DATA_DIR / "oracle_march_pins.json").read_text())[draw]
        d = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"][int(draw)]
        spec = table_spec(3, *d["qn"], *d["ring"])
        start = find_roots(spec, mode="strict")[0].energy.real + d["offset"]
        sweeps, recorded = [0], set()
        real_map = oracle._consistency_map

        def counting(spec_, e, nodes, domain=None, levels=None):
            sweeps[0] += 1
            try:
                return real_map(spec_, e, nodes, domain, levels)
            finally:
                if domain is not None and domain.doublings is not None:
                    recorded.add(domain.doublings)

        monkeypatch.setattr(oracle, "_consistency_map", counting)
        self_consistent_energy(spec, start)
        assert (sweeps[0], recorded) == (pin["sweeps"], {pin["doublings"]})

    def test_radial_domain_verified_once_per_solve(self, monkeypatch):
        # only the first sweep whose radial solve completes and the final
        # check at e_star consult more than one radial domain; every other
        # sweep of the march and the bracket consults exactly one
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        consulted, per_sweep = [0], []
        real_level, real_map = oracle._level, oracle._consistency_map

        def counting_level(levels, key, solve):
            consulted[0] += isinstance(key, tuple)  # radial keys are (gamma, r_max)
            return real_level(levels, key, solve)

        def counting_map(spec_, e, nodes, *rest):
            before = consulted[0]
            try:
                return real_map(spec_, e, nodes, *rest)
            finally:
                per_sweep.append(consulted[0] - before)

        monkeypatch.setattr(oracle, "_level", counting_level)
        monkeypatch.setattr(oracle, "_consistency_map", counting_map)
        fixed_point = self_consistent_energy(spec, 1.0)
        first = next(i for i, count in enumerate(per_sweep) if count > 0)
        assert per_sweep[first] >= 2 and per_sweep[-1] >= 2
        assert per_sweep[first + 1 : -1] == [1] * (len(per_sweep) - first - 2)
        assert len(per_sweep) > 20
        closed = find_roots(spec, mode="strict")[0].energy.real
        assert abs(fixed_point - closed) < 1e-6

    def test_no_level_solved_twice_per_solve(self, monkeypatch):
        # the final check at e_star finds e_star's angular level and its
        # radial level at the recorded domain among the swept ones
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        angular, radial = [], []
        real_angular, real_radial = oracle.fd_angular_eigs, oracle.radial_level

        def recording_angular(gamma, *args, **kwargs):
            angular.append(gamma)
            return real_angular(gamma, *args, **kwargs)

        def recording_radial(potential, gamma, ell_eff_sq, index, r_max, nodes):
            radial.append((gamma, r_max))
            return real_radial(potential, gamma, ell_eff_sq, index, r_max, nodes)

        monkeypatch.setattr(oracle, "fd_angular_eigs", recording_angular)
        monkeypatch.setattr(oracle, "radial_level", recording_radial)
        e_star = self_consistent_energy(spec, 1.0)
        assert len(set(angular)) == len(angular) > 20
        assert len(set(radial)) == len(radial)
        g_star = oracle.gamma_of(spec, e_star).real
        assert g_star in angular
        assert sum(g == g_star for g, _ in radial) >= 2

    def test_levels_do_not_outlive_the_solve(self, monkeypatch):
        # a second solve of the same spec makes every eigensolve again
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", counting)
        first = self_consistent_energy(spec, 1.0)
        per_solve = calls[0]
        second = self_consistent_energy(spec, 1.0)
        assert per_solve > 0 and calls[0] == 2 * per_solve
        assert first.hex() == second.hex()

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"initial_energy": float("nan")}, "initial_energy"),
            ({"initial_energy": float("inf")}, "initial_energy"),
            ({"scan_step": 0.0}, "scan_step"),
            ({"scan_step": -0.1}, "scan_step"),
            ({"scan_step": float("nan")}, "scan_step"),
            ({"scan_span": 0.0}, "scan_span"),
            ({"scan_span": float("inf")}, "scan_span"),
            ({"tol": float("nan")}, "tol"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1e-6}, "tol"),
            ({"max_iter": 0}, "max_iter"),
            ({"max_iter": -5}, "max_iter"),
            ({"nodes": 3000}, "nodes"),
        ],
    )
    def test_bad_arguments_rejected(self, monkeypatch, kwargs, name):
        # only initial_energy is an argument; the march, the bracket tolerance,
        # the sweep cap and the radial grid are module constants
        def no_sweeps(*args):
            raise AssertionError("no sweep may run on bad arguments")

        monkeypatch.setattr(oracle, "_consistency_map", no_sweeps)
        kwargs = {"initial_energy": 1.0, **kwargs}
        error = ValueError if name == "initial_energy" else TypeError
        with pytest.raises(error, match=name):
            self_consistent_energy(table_spec(3, 0, 0, 0, 1.0, 1.0), **kwargs)

    def test_nonrel_limit_reproduces_closed_form(self):
        params = NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams())
        closed = energy_kratzer_nr(params, QuantumNumbers())
        fd = nonrel_energy_fd(params, QuantumNumbers())
        assert abs(fd - closed) < 1e-4 * abs(closed)


class TestEigenvaluesOnly:
    """eigvals_only=True returns the eigenvector call's eigenvalues bit for bit."""

    @staticmethod
    def _capture(monkeypatch):
        seen = []

        def recording(d, e, **kwargs):
            out = eigh_tridiagonal(d, e, **kwargs)
            seen.append((d, e, kwargs, out))
            return out

        monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
        return seen

    @staticmethod
    def _assert_same_as_eigenvector_call(seen, sizes):
        assert sorted(len(d) for d, *_ in seen) == sorted(sizes)
        for d, e, kwargs, out in seen:
            assert kwargs["eigvals_only"] is True
            full = eigh_tridiagonal(
                d,
                e,
                select=kwargs["select"],
                select_range=kwargs["select_range"],
                tol=kwargs.get("tol", 0.0),
            )
            assert out.tobytes() == full[0].tobytes()

    def test_radial_matrices(self, monkeypatch):
        seen = self._capture(monkeypatch)
        v_eff = lambda r: (2.3**2 - 0.25) / r**2 - 4.0 / r
        fd_radial_eigs(v_eff, FdGrid(0.0, 30.0, 3000), 2, refine=True)
        # each finer grid's window solve follows its Sturm count
        self._assert_same_as_eigenvector_call(seen, [3000, 6001, 6001, 12003, 12003])

    def test_angular_matrices(self, monkeypatch):
        seen = self._capture(monkeypatch)
        fd_angular_eigs(2.072188142, RingParams(1.0, 1.0), 1, 2, cells=1500)
        self._assert_same_as_eigenvector_call(seen, [1500, 3000, 3000, 6000, 6000])


def _radial_levels(count, first=0):
    v_eff = lambda r: (2.3**2 - 0.25) / r**2 - 4.0 / r
    return fd_radial_eigs(v_eff, FdGrid(0.0, 30.0, 3000), count, refine=True, first=first)


def _angular_levels(count, first=0):
    return fd_angular_eigs(2.072188142, RingParams(1.0, 1.0), 1, count, cells=1500, first=first)


class TestLevelArguments:
    @pytest.mark.parametrize("solver", [_radial_levels, _angular_levels], ids=["radial", "angular"])
    @pytest.mark.parametrize("count", [0, -1, 1.5])
    def test_bad_count_rejected(self, solver, count):
        with pytest.raises(ValueError, match="count"):
            solver(count)

    @pytest.mark.parametrize("solver", [_radial_levels, _angular_levels], ids=["radial", "angular"])
    @pytest.mark.parametrize("first", [-1, 2, 3, 0.0, True])
    def test_bad_first_rejected(self, solver, first):
        with pytest.raises(ValueError, match="first"):
            solver(2, first)


def _norm1(d, e):
    """||T||_1 of the symmetric tridiagonal (d, e)."""
    col = np.abs(d)
    col[:-1] += np.abs(e)
    col[1:] += np.abs(e)
    return col.max()


def _call_kind(kwargs):
    """index, count (Sturm count, infinite abstol) or window (value solve) for one call."""
    if kwargs["select"] == "i":
        return "index"
    return "count" if kwargs.get("tol") == np.inf else "window"


def _matrices(solver):
    """(d, e) of each grid the solver builds for the first two levels, coarsest first."""
    seen = {}

    def recording(d, e, **kwargs):
        seen.setdefault(len(d), (d, e))
        return eigh_tridiagonal(d, e, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "eigh_tridiagonal", recording)
        solver(2)
    return list(seen.values())


class TestLevelSelection:
    """Level i asked for alone is the full-range call's level i.

    LAPACK's bisection (stebz, abstol 0) places each eigenvalue within about
    eps * ||T||_1 of the exact one, whichever levels share its call and
    whether it starts from the Gershgorin interval (index solve) or a value
    window, so two calls may differ by twice that; the Richardson and Aitken
    combinations add at most another factor of 2 here (the radial rule's
    weights 64/45, -20/45 and 1/45 sum to 85/45 in magnitude).  The bound is
    4 eps ||T||_1 of the largest matrix the solver builds (about 1.1e-9 on the
    12003-node radial matrix).  The coarsest grid is an index solve for level
    i alone; each finer grid is a Sturm count of i levels below its window,
    then the window solve.
    """

    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("solver", [_radial_levels, _angular_levels], ids=["radial", "angular"])
    def test_single_level_matches_full_range(self, monkeypatch, solver, count):
        seen = []

        def recording(d, e, **kwargs):
            out = eigh_tridiagonal(d, e, **kwargs)
            seen.append((d, e, kwargs, out))
            return out

        monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
        full = solver(count)
        norm = max(_norm1(d, e) for d, e, *_ in seen)
        for i in range(count):
            seen.clear()
            level = solver(i + 1, first=i)
            kinds = [_call_kind(kwargs) for _, _, kwargs, _ in seen]
            assert kinds == ["index"] + ["count", "window"] * ((len(seen) - 1) // 2)
            assert seen[0][2]["select_range"] == (i, i)
            for (*_, count_kwargs, below), (*_, window_kwargs, window) in zip(
                seen[1::2], seen[2::2]
            ):
                assert len(below) == i
                assert count_kwargs["select_range"][1] == window_kwargs["select_range"][0]
                assert len(window) >= 1
            assert len(level) == 1
            assert abs(level[0] - full[i]) <= 4 * np.finfo(float).eps * norm


class TestWindowedLevels:
    """A finer grid's level solved in a Sturm-certified window around the coarser grid's."""

    @staticmethod
    def _record(monkeypatch):
        seen = []

        def recording(d, e, **kwargs):
            seen.append(_call_kind(kwargs))
            return eigh_tridiagonal(d, e, **kwargs)

        monkeypatch.setattr(oracle, "eigh_tridiagonal", recording)
        return seen

    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    @pytest.mark.parametrize("solver", [_radial_levels, _angular_levels], ids=["radial", "angular"])
    def test_window_level_matches_index_level(self, monkeypatch, solver, first):
        (coarse_d, coarse_e), (d, e), *_ = _matrices(solver)
        near = oracle._levels(coarse_d, coarse_e, first, first + 1)
        index = oracle._levels(d, e, first, first + 1)
        seen = self._record(monkeypatch)
        window = oracle._levels(d, e, first, first + 1, near=near)
        assert seen == ["count", "window"]
        assert len(window) == 1
        assert abs(window[0] - index[0]) <= 2 * np.finfo(float).eps * _norm1(d, e)

    @pytest.mark.parametrize("wrong", ["next-level", "above-spectrum", "below-spectrum"])
    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    @pytest.mark.parametrize("solver", [_radial_levels, _angular_levels], ids=["radial", "angular"])
    def test_wrong_estimate_falls_back_to_index_solve(self, monkeypatch, solver, first, wrong):
        _, (d, e), *_ = _matrices(solver)
        index = oracle._levels(d, e, first, first + 1)
        norm = _norm1(d, e)
        near = {
            "next-level": oracle._levels(d, e, first + 1, first + 2),
            "above-spectrum": np.array([2.0 * norm]),
            "below-spectrum": np.array([-2.0 * norm]),
        }[wrong]
        seen = self._record(monkeypatch)
        level = oracle._levels(d, e, first, first + 1, near=near)
        # the count below lo is first + 1 or all levels, or it is 0 with an empty window
        assert seen[-1] == "index" and seen[0] == "count"
        assert level.tobytes() == index.tobytes()

    @pytest.mark.parametrize("solver", [_radial_levels, _angular_levels], ids=["radial", "angular"])
    def test_sturm_count_matches_index_levels(self, solver):
        _, (d, e), *_ = _matrices(solver)
        levels = oracle._levels(d, e, 0, 6)
        gaps = np.diff(levels)
        points = np.concatenate(
            [
                levels[:-1] + 0.5 * gaps,
                levels[:-1] + 1e-3 * gaps,
                levels[1:] - 1e-3 * gaps,
                [levels[0] - 1.0, -2.0 * _norm1(d, e)],
            ]
        )
        for x in points:
            assert oracle._count_below(d, e, x) == np.count_nonzero(levels <= x)


def _two_grid_level(v_eff, grid, index):
    """Level `index` by the former rule: (4 L2 - L1) / 3 over the (h, h/2) grids."""
    coarse = oracle._tridiag_eigs(
        oracle._potential_on(v_eff, grid), grid.spacing, index, index + 1
    )
    fine = FdGrid(grid.r_min, grid.r_max, 2 * grid.nodes + 1)
    lam2 = oracle._tridiag_eigs(
        oracle._potential_on(v_eff, fine), fine.spacing, index, index + 1, near=coarse
    )
    return ((4.0 * lam2 - coarse) / 3.0)[0]


class TestRadialErrorTable:
    """The three-grid rule on FD_NODES is no less accurate than the two-grid one on 3000.

    At each of the 60 table-3 class-A roots E* (strict find_roots), the exact
    radial level n at gamma(E*), with ell_eff from derive_coefficients, is
    b(E*).  Both rules solve it on (0, 50 / sqrt|b(E*)|); the error is
    |level - b(E*)| / (1 + |b(E*)|).  The two-grid rule gives max 5.09e-10
    and median 3.89e-11, the three-grid rule on 900 nodes 3.36e-10 and
    8.0e-12 (on 800 nodes its max is 5.31e-10).
    """

    def test_max_and_median_no_worse_than_two_grid_rule(self):
        three, two = [], []
        for row in load_table_data(3):
            spec = table_spec(3, *row[:5])
            for root in find_roots(spec, mode="strict"):
                if root.root_class is not RootClass.A:
                    continue
                e = root.energy.real
                g = gamma_of(spec, e).real
                ell_eff_sq = derive_coefficients(spec, e).ell_eff.real ** 2
                b = radial_equation_beta_sq(spec, e).real
                r_max = 50.0 / math.sqrt(abs(b))

                def v_eff(r, g=g, ell_eff_sq=ell_eff_sq, potential=spec.potential):
                    return (ell_eff_sq - 0.25) / r**2 + g * potential.radial(r)

                n = spec.qn.n
                level = radial_level(spec.potential, g, ell_eff_sq, n, r_max, oracle.FD_NODES)
                three.append(abs(level - b) / (1.0 + abs(b)))
                level = _two_grid_level(v_eff, FdGrid(0.0, r_max, 3000), n)
                two.append(abs(level - b) / (1.0 + abs(b)))
        assert len(three) == 60
        assert max(three) <= max(two)
        assert np.median(three) <= np.median(two)


class TestNonrelDomain:
    """nonrel_energy_fd doubles its radial domain until the level settles."""

    @pytest.mark.parametrize("draw", range(12))
    def test_validate_draws_match_closed_form(self, draw):
        # seed-1 validate draw 5, (n, n', m, a, b) = (0, 1, -2, 1, 2), sat
        # 2.41e-6 from the closed form on the fixed domain r_max = 6
        d = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"][draw]
        spec = table_spec(3, *d["qn"], *d["ring"])
        params = NonRelParams(mu=spec.mass, potential=spec.potential, ring=spec.ring)
        closed = energy_kratzer_nr(params, spec.qn)
        assert abs(nonrel_energy_fd(params, spec.qn) - closed) <= 1e-9 * abs(closed)

    def test_unsettled_domain_raises(self, monkeypatch):
        domains = []

        def drifting(potential, gamma, ell_eff_sq, index, r_max, nodes):
            domains.append(r_max)
            return r_max

        monkeypatch.setattr(oracle, "radial_level", drifting)
        with pytest.raises(DivergenceError, match="unsettled"):
            nonrel_energy_fd(NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4)), QuantumNumbers())
        assert domains == [6.0 * 2.0**k for k in range(5)]


class TestRefinementMonotonicity:
    def test_eigenvalues_approach_refined_limit(self):
        grid_sizes = (400, 800, 1600)
        vals = []
        for nodes in grid_sizes:
            grid = FdGrid(0.0, 12.0, nodes)
            vals.append(fd_radial_eigs(lambda r: r**2, grid, 1)[0])
        limit = fd_radial_eigs(lambda r: r**2, FdGrid(0.0, 12.0, 1600), 1, refine=True)[0]
        errs = [abs(v - limit) for v in vals]
        assert errs[0] > errs[1] > errs[2]
