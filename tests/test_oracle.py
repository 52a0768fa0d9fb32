import importlib
import importlib.util
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
    coefficients_at_gamma,
    derive_coefficients,
    gamma_of,
    radial_equation_beta_sq,
)
from drsbound.nonrel import NonRelParams, energy_kratzer_nr
from drsbound.oracle import (
    DivergenceError,
    OracleError,
    fd_angular_eigs,
    fd_radial_eigs,
    nonrel_energy_fd,
    self_consistent_energy,
)
from drsbound.spectrum import RootClass, find_roots, load_table_data, table_spec
from drsbound.wavefun import radial_kratzer

import angular_fd

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
#: perfbench/items.py's acceptance tolerance for the oracle's energy
ORACLE_TOL = 1e-4
REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _kratzer_level(index, b):
    """Level `index` of -u'' + [(2.3^2 - 1/4)/r^2 + 2 V(r)] u, V Kratzer(15, 0.4), scaled by b."""
    return fd_radial_eigs(Kratzer(15.0, 0.4), 2.0, 2.3**2, index, b)


class TestRadialSolver:
    def test_half_line_oscillator(self):
        # -u'' + r^2 u (ell_eff^2 = 1/4, gamma k / 2 = 1): u ~ r at the origin
        # selects the odd states 4j + 3
        for j in range(3):
            level = fd_radial_eigs(Oscillator(1.0), 2.0, 0.25, j, None)
            assert level == pytest.approx(4 * j + 3, rel=1e-13)

    def test_kratzer_ground_state(self):
        params = NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams(0.0, 0.0))
        closed = energy_kratzer_nr(params, QuantumNumbers(0, 0, 0))
        fd = nonrel_energy_fd(params, QuantumNumbers(0, 0, 0))
        assert abs(fd - closed) / abs(closed) < 1e-4

    def test_no_mass_factor(self):
        # one kinetic term, -d^2/dr^2; Schroedinger scalings go through gamma
        with pytest.raises(TypeError):
            fd_radial_eigs(Oscillator(1.0), 2.0, 0.25, 0, None, mass_factor=2.0)

    def test_radial_level_is_the_gamma_form(self):
        # -u'' + [(l_eff^2 - 1/4)/r^2 + gamma k r^2 / 2] u: l_eff = 3/2 and
        # gamma k / 2 = 1 give the ell = 1 radial oscillator level 4 j + 5 at j = 1
        level = fd_radial_eigs(Oscillator(1.0), 2.0, 2.25, 1, None)
        assert level == pytest.approx(9.0, rel=1e-13)

    def test_leading_block_is_the_smaller_basis(self):
        # the quadrature is exact, so the N-function matrix is the leading
        # block of the 2N-function one, on both maps
        cases = [
            (lambda r: 4.0 / r**2 - 3.0 / r, 2.5, 1, 0.3),
            (lambda r: 2.0 / r**2 + r**2, 2.0, 2, 1.3),
        ]
        for v_eff, s, power, h in cases:
            small = oracle._galerkin_matrix(v_eff, s, power, h, 16)
            large = oracle._galerkin_matrix(v_eff, s, power, h, 32)
            np.testing.assert_allclose(large[:16, :16], small, rtol=0, atol=1e-12 * np.abs(small).max())

    def test_deep_well_scale_from_estimate(self):
        # gamma D_e r_e = 838 with no scale hint: the estimate at h = 1 (-34.8)
        # put the basis 3.7 times too wide, and no basis up to
        # MAX_RADIAL_FUNCTIONS settled; the rescaled estimates close on the
        # level, which then meets the hydrogenic closed form
        gamma, d_e, r_e, ell_eff_sq, n = 19.6, 28.9, 1.48, 16.2, 2
        c = gamma * d_e * r_e
        exact = -(c * c) / (n + 0.5 + math.sqrt(ell_eff_sq + c * r_e)) ** 2
        level = fd_radial_eigs(Kratzer(d_e, r_e), gamma, ell_eff_sq, n, None)
        assert abs(level - exact) <= 1e-12 * abs(exact)

    def test_grid_too_coarse_rejected(self):
        # the coarser basis holds RADIAL_FUNCTIONS levels
        with pytest.raises(OracleError, match="beyond"):
            _kratzer_level(oracle.RADIAL_FUNCTIONS, None)

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_no_bound_level_raises(self, gamma):
        # gamma D_e r_e <= 0: the 1/r term does not attract
        with pytest.raises(DivergenceError, match="no bound level"):
            fd_radial_eigs(Kratzer(15.0, 0.4), gamma, 2.3**2, 0, -1.0)


class TestAngularSolver:
    def test_pure_central_family(self):
        eigs = [fd_angular_eigs(0.0, RingParams(0, 0), 0, k) for k in range(3)]
        expected = [(2 * k + 1.5) ** 2 for k in range(3)]
        np.testing.assert_allclose(eigs, expected, rtol=1e-8)

    def test_ring_dressed_value(self):
        g = 2.072188142
        eig = fd_angular_eigs(g, RingParams(1, 1), 0, 0)
        terms = coefficients_at_gamma(g, None, None, RingParams(1, 1), QuantumNumbers(0, 0, 0))
        expected = terms.ell_eff.real ** 2
        assert abs(eig - expected) / expected < 1e-3

    def test_azimuthal_shift(self):
        eigs = [fd_angular_eigs(0.0, RingParams(0, 0), 2, k) for k in range(3)]
        expected = [(abs(2) + 1.5 + 2 * k) ** 2 for k in range(3)]
        np.testing.assert_allclose(eigs, expected, rtol=1e-8)

    def test_matches_quantization_on_grid(self):
        # 3 gammas x 3 ring configurations x 2 azimuthal numbers
        for gamma in (0.0, 0.9, 2.072188142):
            for a, b in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
                for m in (0, 2):
                    ring = RingParams(a, b)
                    for n_prime in range(2):
                        qn = QuantumNumbers(n=0, n_prime=n_prime, m=m)
                        terms = coefficients_at_gamma(gamma, None, None, ring, qn)
                        expected = terms.ell_eff.real ** 2
                        eig = fd_angular_eigs(gamma, ring, m, n_prime)
                        assert abs(eig - expected) / expected < 1e-7

    def test_ring_dressed_levels_pinned(self):
        eigs = [fd_angular_eigs(2.0, RingParams(1.0, 0.5), 1, k) for k in range(2)]
        assert [float(x).hex() for x in eigs] == ["0x1.ea463000f8565p+3", "0x1.17d2c8cd3c8d7p+5"]

    def test_complex_sector_rejected(self):
        with pytest.raises(OracleError):
            fd_angular_eigs(-2.0, RingParams(1.0, 0.0), 0, 0)

    def test_grid_too_coarse_rejected(self):
        # the basis serves ANGULAR_LEVELS polar levels; the last one is solved
        # on ANGULAR_LEVELS + 3 functions
        with pytest.raises(OracleError, match="beyond the 500-level angular basis"):
            fd_angular_eigs(2.0, RingParams(0.0, 0.0), 0, oracle.ANGULAR_LEVELS)
        last = fd_angular_eigs(2.0, RingParams(0.0, 0.0), 0, oracle.ANGULAR_LEVELS - 1)
        exact = (math.sqrt(0.25) + 0.0 + 2 * (oracle.ANGULAR_LEVELS - 1) + 1) ** 2
        assert abs(last - exact) <= 1e-11 * exact


def _closed_polar(gamma, ring, m, n_prime):
    """(sqrt(gamma a + 1/4) + sqrt(gamma b + m^2) + 2 n' + 1)^2, the quantization rule."""
    return (math.sqrt(gamma * ring.a + 0.25) + math.sqrt(gamma * ring.b + m * m) + 2 * n_prime + 1) ** 2


def _ritz_level(c_b, c_a, mu, s, size, index):
    """Level `index` of the polar operator with coefficients c_b, c_a on `size`
    Jacobi functions whose exponents are mu at theta = 0 and s at pi/2."""
    return np.linalg.eigvalsh(oracle._jacobi_matrix(c_b, c_a, mu, s, size))[index]


#: (gamma, a, b, m, n') of the Ritz checks below, both ring terms present;
#: mu = sqrt(m^2 + gamma b) is 1.41, 2.57, 1.41 and 0.5
RITZ_CASES = [
    (2.0, 1.0, 0.5, 1, 1),
    (1.3, 2.0, 2.0, 2, 3),
    (2.0, 1.0, 1.0, 0, 0),
    (0.5, 0.5, 0.5, 0, 2),
]


class TestAngularRitz:
    """The Jacobi Ritz level: exact quadrature, and a level that rests on the
    printed operator, not on the exponents its basis starts with."""

    @pytest.mark.parametrize("mu, s", [(0.0, 1.0), (0.164, 1.0), (1.2, 2.3)])
    def test_leading_block_is_the_smaller_basis(self, mu, s):
        # the quadrature is exact, so the N-function matrix is the leading
        # block of the 2N-function one, on both rules (mu < 1 and mu >= 1)
        small = oracle._jacobi_matrix(mu * mu, s * (s - 1.0), mu, s, 6)
        large = oracle._jacobi_matrix(mu * mu, s * (s - 1.0), mu, s, 12)
        np.testing.assert_allclose(large[:6, :6], small, rtol=0, atol=1e-12 * np.abs(small).max())

    @pytest.mark.parametrize("b", [1e-10, 1e-40, 5e-324])
    def test_small_mu_accuracy(self, b):
        # m = 0 and gamma b near 0 put mu = sqrt(gamma b) near 0 (1e-5 down to
        # 0 once squared); the split rule keeps the level within 1e-13 of the
        # quantization rule (worst 4e-15), where one rule on the entries'
        # weight lost digits like 2e-15 / mu (2.2e-10 at mu = 1e-5) and
        # failed below mu = 1e-16
        ring = RingParams(1.0, b)
        for n_prime in (0, 3):
            exact = _closed_polar(1.0, ring, 0, n_prime)
            assert abs(fd_angular_eigs(1.0, ring, 0, n_prime) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("term", ["a", "b"])
    @pytest.mark.parametrize("case", RITZ_CASES, ids=str)
    def test_mis_signed_term_moves_the_level(self, term, case):
        # the same basis on the operator with its 1/cos^2 (a) or 1/sin^2 (b)
        # ring term mis-signed: the level leaves the quantization rule by
        # O(1) (at least 4.9 here), so it follows the printed operator
        gamma, a, b, m, n_prime = case
        c_b, c_a = m * m + gamma * b, gamma * a
        mu, s = math.sqrt(c_b), 0.5 + math.sqrt(0.25 + c_a)
        size = n_prime + 2 * oracle.ANGULAR_MARGIN
        exact = _closed_polar(gamma, RingParams(a, b), m, n_prime)
        assert abs(_ritz_level(c_b, c_a, mu, s, size, n_prime) - exact) <= 1e-13 * exact
        if term == "a":
            c_a = -c_a
        else:
            c_b = m * m - gamma * b
        assert abs(_ritz_level(c_b, c_a, mu, s, size, n_prime) - exact) >= 1.0

    @pytest.mark.parametrize("case", RITZ_CASES, ids=str)
    def test_offset_exponent_converges_to_the_same_level(self, case):
        # a basis whose theta = 0 exponent is off by 0.25 holds no
        # eigenfunction: its levels bound the level from above and close on
        # it only slowly as functions are added (at mu = 0.5 the error at 64
        # functions is still 0.13 of that at 8; a smaller mu closes slower)
        gamma, a, b, m, n_prime = case
        c_b, c_a = m * m + gamma * b, gamma * a
        mu, s = math.sqrt(c_b), 0.5 + math.sqrt(0.25 + c_a)
        exact = _closed_polar(gamma, RingParams(a, b), m, n_prime)
        errors = [
            _ritz_level(c_b, c_a, mu + 0.25, s, size, n_prime) - exact for size in (8, 16, 32, 64)
        ]
        assert 0 < errors[3] < errors[2] < errors[1] < errors[0]
        assert errors[3] <= 0.2 * errors[0]

    def test_offset_exponent_is_refused(self, monkeypatch):
        # fd_angular_eigs checks its level against the smaller basis; with
        # the theta = 0 exponent off by 0.25 the two disagree, and the level
        # is refused instead of returned
        real = oracle._jacobi_matrix
        monkeypatch.setattr(
            oracle, "_jacobi_matrix", lambda c_b, c_a, mu, s, size: real(c_b, c_a, mu + 0.25, s, size)
        )
        with pytest.raises(DivergenceError, match="angular level unsettled"):
            fd_angular_eigs(2.0, RingParams(1.0, 0.5), 1, 1)


def _load_tracer():
    """perfbench/tracer.py, loaded by path as tests/test_api_surface.py loads it,
    with every module it patches imported."""
    path = REFERENCE_DIR.parent / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, *_ in module.SPANS.values():
        importlib.import_module(name)
    return module


@pytest.fixture(scope="module")
def validate_solves():
    """The oracle calls of the 12 seed-1 validate draws, made once under perfbench's Tracer.

    Per draw: float.hex of the start (the strict ground root plus the draw's
    offset), of self_consistent_energy from it and of nonrel_energy_fd, and
    the solve's sweeps.  `counts` holds the tracer's oracle call counts over
    all 12 draws.
    """
    tracer = _load_tracer().Tracer()
    cases, draws = [], []
    real_map = oracle._consistency_map

    def counting(spec_, e):
        draws[-1]["sweeps"] += 1
        return real_map(spec_, e)

    for d in json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"]:
        spec = table_spec(3, *d["qn"], *d["ring"])
        start = find_roots(spec, mode="strict")[0].energy.real + d["offset"]
        params = NonRelParams(mu=spec.mass, potential=spec.potential, ring=spec.ring)
        cases.append((spec, start, params))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_consistency_map", counting)
        tracer.install()
        try:
            for spec, start, params in cases:
                draws.append({"initial_energy": start.hex(), "sweeps": 0})
                draws[-1]["energy"] = float(oracle.self_consistent_energy(spec, start)).hex()
                fd = oracle.nonrel_energy_fd(params, spec.qn)
                draws[-1]["nonrel_energy_fd"] = float(fd).hex()
        finally:
            tracer.uninstall()
    counts = {name: n for name, n in tracer.counts.items() if name.startswith("oracle.")}
    return {"draws": draws, "counts": counts}


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

    @pytest.mark.parametrize("table", [1, 2, 4])
    def test_out_of_sector_spec_rejected_before_any_sweep(self, monkeypatch, table):
        # the sweep's radial equation is the spin Kratzer one; elsewhere the
        # march can settle on a fixed point of that equation which is no
        # root of the sector's (1.04606 on table 2's spec), so no sweep runs
        calls = []
        monkeypatch.setattr(oracle, "_consistency_map", lambda *args: calls.append(args))
        with pytest.raises(OracleError, match="spin Kratzer sector only"):
            self_consistent_energy(table_spec(table, 0, 0, 1, 1.0, 0.5), 1.0)
        assert calls == []

    def test_level_beyond_the_basis_rejected_before_any_sweep(self, monkeypatch):
        # level n = RADIAL_FUNCTIONS has no place in the radial basis, so the
        # solve refuses it with the sector check, before any angular solve
        calls = []
        real_map = oracle._consistency_map

        def counting(spec_, e):
            calls.append(e)
            return real_map(spec_, e)

        monkeypatch.setattr(oracle, "_consistency_map", counting)
        spec = table_spec(3, oracle.RADIAL_FUNCTIONS, 0, 0, 0.0, 0.0)
        with pytest.raises(OracleError, match="beyond the 16-function basis"):
            self_consistent_energy(spec, 1.0)
        assert calls == []

    def test_polar_level_beyond_the_grid_rejected_before_any_sweep(self, monkeypatch):
        # inside a sweep the angular refusal would read as a failed sweep, and
        # the march would sweep its whole bound before raising
        calls = []
        monkeypatch.setattr(oracle, "_consistency_map", lambda *args: calls.append(args))
        spec = table_spec(3, 0, oracle.ANGULAR_LEVELS, 0, 0.0, 0.0)
        with pytest.raises(OracleError, match="beyond the 500-level angular basis"):
            self_consistent_energy(spec, 3.0)
        assert calls == []

    @pytest.mark.parametrize("start", [-10.0, 15.0], ids=["every_sweep_fails", "one_sign"])
    def test_march_sweeps_its_bound_then_raises(self, monkeypatch, start):
        # a march that brackets nothing sweeps the start and the points
        # k SCAN_STEP to either side of it, k = 1 .. round(SCAN_SPAN /
        # SCAN_STEP), each once and none beyond SCAN_SPAN, and raises.  From
        # -10.0 gamma <= 0 fails every sweep; from 15.0 F keeps one sign
        spec = table_spec(3, 0, 0, 0, 0.0, 0.0)
        calls, values = [], []
        real_map = oracle._consistency_map

        def recording(spec_, e):
            calls.append(e)
            try:
                values.append(real_map(spec_, e))
            except DivergenceError:
                values.append(None)
                raise
            return values[-1]

        monkeypatch.setattr(oracle, "_consistency_map", recording)
        with pytest.raises(DivergenceError, match="no self-consistent bracket"):
            self_consistent_energy(spec, start)
        steps = round(oracle.SCAN_SPAN / oracle.SCAN_STEP)
        assert len(calls) == len(set(calls)) == 2 * steps + 1 == 81
        assert max(abs(e - start) for e in calls) <= oracle.SCAN_SPAN
        if start < 0:
            assert values == [None] * len(calls)
        else:
            assert None not in values and len({np.sign(value) for value in values}) == 1

    def test_bracket_closes_in_few_sweeps(self, monkeypatch):
        # the march from E = 1.0 takes 22 sweeps; brentq then closes the
        # bracket to BRACKET_TOL in a few more, and the final consistency
        # check reads the sweep at the point brentq returns
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        calls = []
        real_map = oracle._consistency_map

        def counting(spec_, e):
            calls.append(e)
            return real_map(spec_, e)

        monkeypatch.setattr(oracle, "_consistency_map", counting)
        fixed_point = self_consistent_energy(spec, 1.0)
        steps = [(e - 1.0) / 0.1 for e in calls]
        march = [s for s in steps if math.isclose(s, round(s), abs_tol=1e-9)]
        assert len(march) == 22
        assert len(calls) - len(march) <= 8
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

        def failing(spec_, e):
            calls.append(e)
            if 0.71 < e < 0.79 and side * (e - closed) > 1e-6:
                failed.append(e)
                raise DivergenceError("sweep failed")
            return real_map(spec_, e)

        monkeypatch.setattr(oracle, "_consistency_map", failing)
        with pytest.raises(DivergenceError, match="inside the bracket"):
            self_consistent_energy(spec, 0.4)
        assert failed == calls[-1:]

    def test_unsettled_radial_domain_raises(self):
        # on draw 3's spec the radial level does not settle just above the
        # continuum edge E = 0: at E = 1e-3 the scale comes from b(E) =
        # -5.0e-3, while the level at gamma(E) = 1e-3 lies at -2.2e-6, so the
        # basis is about 50 times too compressed.  Below the edge gamma <= 0
        # holds no bound level
        spec = table_spec(3, 1, 0, 1, 0.0, 0.5)
        with pytest.raises(DivergenceError, match="unsettled"):
            oracle._consistency_map(spec, 1e-3)
        with pytest.raises(DivergenceError, match="no bound level"):
            oracle._consistency_map(spec, -1.99e-4)

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

    @pytest.mark.parametrize(
        "qn, ring",
        [
            ((0, 1, 0), (0.0, 0.01)),
            ((0, 1, 0), (0.0, 0.02)),
            ((1, 1, 0), (0.0, 0.01)),
            ((0, 0, 0), (0.0, 0.05)),
            ((0, 2, 0), (1.0, 0.01)),
            ((0, 1, 0), (0.0, 0.5)),
        ],
        ids=str,
    )
    def test_weak_ring_specs_within_oracle_tol(self, qn, ring):
        # m = 0 with a weak b ring puts mu = sqrt(gamma b) at 0.1 to 0.35,
        # where the former FD level converged like h^(2 mu): these solves
        # missed ORACLE_TOL by 5.4e-3 to 1.29e-2 (the first one 1.29e-2, its
        # root 1.9124878158), and the b = 0.5 one met it at 6.4e-10.  From
        # the root + 0.1 and + 0.137 each solve now closes within 3e-10
        spec = table_spec(3, *qn, *ring)
        closed = find_roots(spec, mode="strict")[0].energy.real
        for offset in (0.1, 0.137):
            gap = abs(self_consistent_energy(spec, closed + offset) - closed)
            assert gap < ORACLE_TOL and gap <= 1e-9

    @pytest.mark.parametrize("draw", [str(i) for i in range(12)])
    def test_validate_draws_pinned(self, validate_solves, draw):
        # tests/data/oracle_pins.json: float.hex of the start (the strict
        # ground root plus the draw's offset), of the solve from it and of
        # nonrel_energy_fd, for every seed-1 validate draw
        pin = json.loads((DATA_DIR / "oracle_pins.json").read_text())[draw]
        solved = validate_solves["draws"][int(draw)]
        assert {key: solved[key] for key in pin} == pin

    @pytest.mark.parametrize("draw", [str(i) for i in range(12)])
    def test_validate_march_pinned(self, validate_solves, draw):
        # tests/data/oracle_march_pins.json: the sweeps of the solve
        pin = json.loads((DATA_DIR / "oracle_march_pins.json").read_text())[draw]
        assert validate_solves["draws"][int(draw)]["sweeps"] == pin["sweeps"]

    def test_validate_work_pinned(self, validate_solves):
        # the traced calls of the 12 solves and nonrel_energy_fd checks: one
        # angular and one radial level per sweep (101) and per check (12),
        # and no tridiagonal eigensolve (the tracer keeps no entry for a
        # count of 0); a span that stops firing reads 0 here
        assert validate_solves["counts"] == {
            "oracle.self_consistent_energy": 12,
            "oracle.fd_angular_eigs": 113,
            "oracle.fd_radial_eigs": 113,
            "oracle.nonrel_energy_fd": 12,
        }

    def test_no_level_solved_twice_per_solve(self, monkeypatch):
        # each sweep solves one angular and one radial level at its gamma,
        # and the final check at e_star finds e_star's sweep among the swept ones
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        angular, radial = [], []
        real_angular, real_radial = oracle.fd_angular_eigs, oracle.fd_radial_eigs

        def recording_angular(gamma, *args):
            angular.append(gamma)
            return real_angular(gamma, *args)

        def recording_radial(potential, gamma, *args):
            radial.append(gamma)
            return real_radial(potential, gamma, *args)

        monkeypatch.setattr(oracle, "fd_angular_eigs", recording_angular)
        monkeypatch.setattr(oracle, "fd_radial_eigs", recording_radial)
        e_star = self_consistent_energy(spec, 1.0)
        assert len(set(angular)) == len(angular) > 20
        assert radial == angular
        assert oracle.gamma_of(spec, e_star).real in radial

    def test_levels_do_not_outlive_the_solve(self, monkeypatch):
        # a second solve of the same spec builds every matrix again
        spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
        calls = [0]
        real = {name: getattr(oracle, name) for name in ("_jacobi_matrix", "_galerkin_matrix")}

        def counting(name):
            def wrapper(*args):
                calls[0] += 1
                return real[name](*args)

            return wrapper

        for name in real:
            monkeypatch.setattr(oracle, name, counting(name))
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
        # only initial_energy is an argument; the march, the bracket tolerance
        # and the radial basis are module constants
        def no_sweeps(*args):
            raise AssertionError("no sweep may run on bad arguments")

        monkeypatch.setattr(oracle, "_consistency_map", no_sweeps)
        kwargs = {"initial_energy": 1.0, **kwargs}
        error = ValueError if name == "initial_energy" else TypeError
        with pytest.raises(error, match=name):
            self_consistent_energy(table_spec(3, 0, 0, 0, 1.0, 1.0), **kwargs)

    def test_nonrel_limit_reproduces_closed_form(self):
        params = NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams(0.0, 0.0))
        closed = energy_kratzer_nr(params, QuantumNumbers(0, 0, 0))
        fd = nonrel_energy_fd(params, QuantumNumbers(0, 0, 0))
        assert abs(fd - closed) < 1e-4 * abs(closed)


class TestEigenvaluesOnly:
    """The reference's eigvals_only=True calls return the eigenvector call's
    eigenvalues bit for bit."""

    @staticmethod
    def _capture(monkeypatch):
        seen = []

        def recording(d, e, **kwargs):
            out = eigh_tridiagonal(d, e, **kwargs)
            seen.append((d, e, kwargs, out))
            return out

        monkeypatch.setattr(angular_fd, "eigh_tridiagonal", recording)
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
        _radial_fd_level(1)
        # each finer grid's window solve follows its Sturm count
        self._assert_same_as_eigenvector_call(seen, [3000, 6001, 6001, 12003, 12003])

    def test_angular_matrices(self, monkeypatch):
        seen = self._capture(monkeypatch)
        _angular_fd_level(1)
        self._assert_same_as_eigenvector_call(seen, [500, 1000, 1000, 2000, 2000])


def _radial_level(index):
    return _kratzer_level(index, -1.0)


def _radial_fd_matrix(nodes):
    """(d, e) of the second-order FD matrix of -u'' + [(2.3^2 - 1/4)/r^2 - 4/r] u
    on `nodes` interior nodes of (0, 30), with Dirichlet walls at both ends.

    The oracle's radial solve is Galerkin; this matrix family, whose entries
    grow like 1/r^2 towards the first node, exercises the reference's
    windowed solve (angular_fd.eigenvalue) beside the angular one.
    """
    h = 30.0 / (nodes + 1)
    r = h * np.arange(1, nodes + 1)
    return 2.0 / h**2 + (2.3**2 - 0.25) / r**2 - 4.0 / r, np.full(nodes - 1, -1.0 / h**2)


def _radial_fd_level(index):
    """Level `index` on 3000 nodes, then in a window on 6001 and on 12003 nodes."""
    level = None
    for nodes in (3000, 6001, 12003):
        level = angular_fd.eigenvalue(*_radial_fd_matrix(nodes), index, level)
    return level


def _angular_level(index):
    return fd_angular_eigs(2.072188142, RingParams(1.0, 1.0), 1, index)


def _angular_fd_level(index):
    return angular_fd.angular_level(2.072188142, RingParams(1.0, 1.0), 1, index)


class TestLevelArguments:
    @pytest.mark.parametrize("solver", [_radial_level, _angular_level], ids=["radial", "angular"])
    @pytest.mark.parametrize("index", [-1, 1.5, 0.0, True])
    def test_bad_index_rejected(self, solver, index):
        with pytest.raises(ValueError, match="index"):
            solver(index)


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
    """(d, e) of each grid the solver builds, coarsest first."""
    seen = {}

    def recording(d, e, **kwargs):
        seen.setdefault(len(d), (d, e))
        return eigh_tridiagonal(d, e, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(angular_fd, "eigh_tridiagonal", recording)
        solver(0)
    return list(seen.values())


class TestWindowedLevels:
    """The reference's finer-grid level, solved in a Sturm-certified window
    around the coarser grid's."""

    @staticmethod
    def _record(monkeypatch):
        seen = []

        def recording(d, e, **kwargs):
            seen.append(_call_kind(kwargs))
            return eigh_tridiagonal(d, e, **kwargs)

        monkeypatch.setattr(angular_fd, "eigh_tridiagonal", recording)
        return seen

    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    @pytest.mark.parametrize("solver", [_radial_fd_level, _angular_fd_level], ids=["radial", "angular"])
    def test_window_level_matches_index_level(self, monkeypatch, solver, first):
        (coarse_d, coarse_e), (d, e), *_ = _matrices(solver)
        near = angular_fd.eigenvalue(coarse_d, coarse_e, first, None)
        index = angular_fd.eigenvalue(d, e, first, None)
        seen = self._record(monkeypatch)
        window = angular_fd.eigenvalue(d, e, first, near=near)
        assert seen == ["count", "window"]
        assert abs(window - index) <= 2 * np.finfo(float).eps * _norm1(d, e)

    @pytest.mark.parametrize("wrong", ["next-level", "above-spectrum", "below-spectrum"])
    @pytest.mark.parametrize("first", [0, 1, 2, 3])
    @pytest.mark.parametrize("solver", [_radial_fd_level, _angular_fd_level], ids=["radial", "angular"])
    def test_wrong_estimate_falls_back_to_index_solve(self, monkeypatch, solver, first, wrong):
        _, (d, e), *_ = _matrices(solver)
        index = angular_fd.eigenvalue(d, e, first, None)
        norm = _norm1(d, e)
        near = {
            "next-level": angular_fd.eigenvalue(d, e, first + 1, None),
            "above-spectrum": 2.0 * norm,
            "below-spectrum": -2.0 * norm,
        }[wrong]
        seen = self._record(monkeypatch)
        level = angular_fd.eigenvalue(d, e, first, near=near)
        # the count below lo is first + 1 or all levels, or it is 0 with an empty window
        assert seen[-1] == "index" and seen[0] == "count"
        assert level.tobytes() == index.tobytes()

    @pytest.mark.parametrize("solver", [_radial_fd_level, _angular_fd_level], ids=["radial", "angular"])
    def test_sturm_count_matches_index_levels(self, solver):
        _, (d, e), *_ = _matrices(solver)
        levels = np.array([angular_fd.eigenvalue(d, e, i, None) for i in range(6)])
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
            assert angular_fd.count_below(d, e, x) == np.count_nonzero(levels <= x)


@pytest.fixture(scope="module")
def table3_radial():
    """(spec, gamma, ell_eff^2, b) at each of the 60 table-3 class-A roots E* (strict find_roots).

    gamma = gamma(E*), ell_eff from derive_coefficients and b = b(E*), which is
    the exact radial level n there.
    """
    cases = []
    for row in load_table_data(3):
        spec = table_spec(3, *row[:5])
        for root in find_roots(spec, mode="strict"):
            if root.root_class is RootClass.A:
                e = root.energy.real
                g = gamma_of(spec, e).real
                ell_eff_sq = derive_coefficients(spec, e).ell_eff.real ** 2
                cases.append((spec, g, ell_eff_sq, radial_equation_beta_sq(spec, e).real))
    assert len(cases) == 60
    return cases


class TestRadialErrorTable:
    """The Galerkin radial level at the 60 table-3 class-A roots.

    Each level is solved as the sweep at E* solves it, scaled by b(E*), and
    its error is |level - b(E*)| / (1 + |b(E*)|): max 6.2e-15, median
    2.2e-15.  The former FD rule (three grids of 900, 1801 and 3603 nodes on
    a domain doubled until the level settled) gave max 3.36e-10 and median
    8.0e-12.
    """

    def test_max_and_median_within_bounds(self, table3_radial):
        errors = [
            abs(fd_radial_eigs(spec.potential, g, ell_eff_sq, spec.qn.n, b) - b) / (1.0 + abs(b))
            for spec, g, ell_eff_sq, b in table3_radial
        ]
        assert max(errors) <= 1e-12 and np.median(errors) <= 1e-13

    def test_level_does_not_rest_on_the_scale(self, table3_radial):
        # a scale from 0.5, 2 or 4 times b(E*), or from a first solve (no
        # b), gives the same level to 1e-12 (worst 2.2e-13)
        for spec, g, ell_eff_sq, b in table3_radial:
            args = (spec.potential, g, ell_eff_sq, spec.qn.n)
            level = fd_radial_eigs(*args, b)
            for hint in (0.5 * b, 2.0 * b, 4.0 * b, None):
                assert abs(fd_radial_eigs(*args, hint) - level) <= 1e-12


class TestClosedFormSolvesTheSweepOperator:
    """wavefun.radial_kratzer solves the sweep's radial equation at the 60
    table-3 class-A roots: -u'' + [(ell_eff^2 - 1/4)/r^2 + gamma V] u = b(E*) u.

    Spin Kratzer only, the sector whose operator the oracle sweeps; the
    other sectors' signs are ROADMAP item 12's to decide.
    """

    @staticmethod
    def _residuals(table3_radial, v_sign, b_sign):
        """Per root, max |residual| / max |b u| over r in [0.2, 8] / w,
        w = sqrt(-b), with u'' from a five-point stencil of step 1e-3 r."""
        residuals = []
        for spec, g, ell_eff_sq, b in table3_radial:
            w = math.sqrt(-b)
            coeffs = coefficients_at_gamma(g, w, spec.potential, spec.ring, spec.qn)
            r = np.linspace(0.2, 8.0, 400) / w
            h = 1e-3 * r

            def u(x):
                return radial_kratzer(x, coeffs, spec.qn.n)

            stencil = -u(r + 2 * h) + 16 * u(r + h) - 30 * u(r) + 16 * u(r - h) - u(r - 2 * h)
            u_pp = stencil / (12 * h * h)
            potential = (ell_eff_sq - 0.25) / r**2 + v_sign * g * spec.potential.radial(r)
            residual = -u_pp + potential * u(r) - b_sign * b * u(r)
            residuals.append(np.max(np.abs(residual)) / np.max(np.abs(b * u(r))))
        return residuals

    def test_radial_factor_solves_the_operator(self, table3_radial):
        # worst 1.4e-9, the stencil's own error
        assert max(self._residuals(table3_radial, 1, 1)) <= 1e-7

    @pytest.mark.parametrize("v_sign, b_sign", [(-1, 1), (1, -1)], ids=["minus_gamma_v", "minus_b"])
    def test_flipped_sign_does_not_solve(self, table3_radial, v_sign, b_sign):
        # flipping gamma V or b leaves an O(1) residual at every root (at
        # least 3.9 and 2.0)
        assert min(self._residuals(table3_radial, v_sign, b_sign)) >= 1.0


def _aitken_level(gamma, ring, m, index):
    """Level `index` by the oldest FD rule: the wall half a cell beyond pi/2
    and Aitken's step over 1500, 3000 and 6000 cells, each finer grid
    windowed around the coarser grid's level."""
    levels = [None]
    for cells in (1500, 3000, 6000):
        d, e = angular_fd.angular_matrix(gamma, ring, m, cells, 1.0)
        levels.append(angular_fd.eigenvalue(d, e, index, levels[-1]))
    l1, l2, l3 = levels[1:]
    d1, d2 = l2 - l1, l3 - l2
    return l3 - d2 * d2 / (d2 - d1)


@pytest.fixture(scope="module")
def table3_polar():
    """(gamma, ring, m, n', ell_eff^2) at each of the 60 table-3 class-A roots E*."""
    cases = []
    for row in load_table_data(3):
        spec = table_spec(3, *row[:5])
        for root in find_roots(spec, mode="strict"):
            if root.root_class is RootClass.A:
                e = root.energy.real
                exact = derive_coefficients(spec, e).ell_eff.real ** 2
                cases.append((gamma_of(spec, e).real, spec.ring, spec.qn.m, spec.qn.n_prime, exact))
    assert len(cases) == 60
    return cases


class TestAngularErrorTable:
    """The Jacobi Ritz level against the FD rules it replaced.

    At each of the 60 table-3 class-A roots E* (strict find_roots), the
    exact polar level at gamma(E*) is ell_eff^2 from derive_coefficients,
    and the error is |level - ell_eff^2| / (1 + ell_eff^2):

    | rule                                   | size             | max      | median   |
    |----------------------------------------|------------------|----------|----------|
    | FD: wall h/2 beyond pi/2, Aitken       | 1500, 3000, 6000 | 6.92e-7  | 2.32e-9  |
    | FD: wall on the face, two Richardson   | 250, 500, 1000   | 1.16e-8  | 1.58e-11 |
    | FD: wall on the face, two Richardson   | 500, 1000, 2000  | 2.52e-9  | 5.09e-11 |
    | FD: wall on the face, two Richardson   | 1000, 2000, 4000 | 1.09e-9  | 2.62e-10 |
    | Jacobi Ritz (fd_angular_eigs)          | n' + 4 functions | 5.7e-15  | 5.6e-16  |

    The 500-cell FD row is the former fd_angular_eigs, kept in
    tests/angular_fd.py as a basis-free reference; its worst row is
    (n, n', m) = (0, 0, 0) with a = 1, b = 0.  Its median grows with the
    cell count: the b / sin^2 and 1 / (4 sin^2) terms put entries of order
    1/h^2 on the first cells, and stebz's accuracy is absolute.
    """

    def test_max_and_median_no_worse_than_former_rule(self, table3_polar):
        new, former = [], []
        for *args, exact in table3_polar:
            new.append(abs(fd_angular_eigs(*args) - exact) / (1.0 + exact))
            former.append(abs(_aitken_level(*args) - exact) / (1.0 + exact))
        assert max(new) <= 1e-13 and np.median(new) <= 1e-14
        assert max(former) >= 1e-7

    def test_basis_free_reference_agrees(self, table3_polar):
        # the FD reference, which has no basis and no exponent, meets the
        # Ritz level within its own error, 2.52e-9 (2.524e-9, at the
        # a = 1, b = 0 ground row; median 5.1e-11)
        gaps = []
        for *args, _ in table3_polar:
            level = fd_angular_eigs(*args)
            gaps.append(abs(angular_fd.angular_level(*args) - level) / (1.0 + level))
        assert max(gaps) <= 2.53e-9 and np.median(gaps) <= 1e-10

    def test_second_order_convergence(self):
        # the FD reference at (n, n', m) = (1, 0, 0), a = b = 0: the exact
        # level is (1/2 + 1)^2, and P has a nonzero slope at the wall; each
        # doubling of the cells quarters the raw level's error (the older
        # closure only halved it)
        ring = RingParams(0.0, 0.0)
        levels = [angular_fd.level_on(0.0, ring, 0, 0, cells, None) for cells in (500, 1000, 2000)]
        errs = [abs(level - 2.25) for level in levels]
        assert errs[0] / errs[1] > 3.8 and errs[1] / errs[2] > 3.8


class TestNonrelDomain:
    """nonrel_energy_fd, with no radial domain, meets the closed form."""

    @pytest.mark.parametrize("draw", range(12))
    def test_validate_draws_match_closed_form(self, draw):
        # the seed-1 validate draws; the worst relative gap is 1.3e-14 (the
        # former FD rule's, on a domain doubled until the level settled,
        # was 5.8e-10)
        d = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"][draw]
        spec = table_spec(3, *d["qn"], *d["ring"])
        params = NonRelParams(mu=spec.mass, potential=spec.potential, ring=spec.ring)
        closed = energy_kratzer_nr(params, spec.qn)
        assert abs(nonrel_energy_fd(params, spec.qn) - closed) <= 1e-12 * abs(closed)

    def test_unsettled_domain_raises(self, monkeypatch):
        # a lowest level that falls with every function added never settles:
        # the scale's first solve and its one rescaled solve (which does not
        # fall), then N = 16 doubling to MAX_RADIAL_FUNCTIONS, then
        # DivergenceError
        sizes = []

        def drifting(v_eff, s, power, h, size):
            sizes.append(size)
            return np.diag(-np.arange(1.0, size + 1.0))

        monkeypatch.setattr(oracle, "_galerkin_matrix", drifting)
        params = NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams(0.0, 0.0))
        with pytest.raises(DivergenceError, match="unsettled"):
            nonrel_energy_fd(params, QuantumNumbers(0, 0, 0))
        assert sizes == [16, 16, 32, 64, 128, 256]


class TestRefinementMonotonicity:
    def test_eigenvalues_approach_refined_limit(self):
        # the bases are nested, so the level on N functions bounds the one on
        # 2N from above (Cauchy interlacing); the half-line oscillator at a
        # detuned scale
        matrix = oracle._galerkin_matrix(lambda r: r**2, 1.0, 2, 1.3, 16)
        vals = [np.linalg.eigvalsh(matrix[:n, :n])[0] for n in (2, 4, 8)]
        limit = fd_radial_eigs(Oscillator(1.0), 2.0, 0.25, 0, None)
        assert limit == pytest.approx(3.0, rel=1e-13)
        errs = [v - limit for v in vals]
        assert errs[0] > errs[1] > errs[2] > 0
