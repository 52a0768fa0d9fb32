import json
import math
import pathlib

import numpy as np
import pytest

from drsbound import wavefun
from drsbound.model import Kratzer, derive_coefficients
from drsbound.specfun import gamma_fn, jacobi, pochhammer
from drsbound.spectrum import find_roots, table_spec
from drsbound.wavefun import (
    ComplexSectorError,
    NonNormalizableError,
    angular_H,
    assemble_component,
    azimuthal_phi,
    gamma_prefactor,
    normalization_constant,
    radial_kratzer,
    radial_oscillator,
    verify_normalization,
)

REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def radial_node_count(spec, energy):
    """Sign changes of the radial factor at 4000 points out to where its
    exponential, exp(-w r) or exp(-w r^2), has decayed to exp(-40)."""
    coeffs = derive_coefficients(spec, energy)
    w = coeffs.decay.real
    r_max = 40.0 / w if isinstance(spec.potential, Kratzer) else math.sqrt(40.0 / w)
    r = np.linspace(r_max / 4000, r_max, 4000)
    radial = radial_kratzer if isinstance(spec.potential, Kratzer) else radial_oscillator
    signs = np.sign(radial(r, coeffs, spec.qn.n))
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def class_a_energy(table, n, n_prime, m, a, b):
    roots = find_roots(table_spec(table, n, n_prime, m, a, b), mode="strict")
    assert roots, "expected a class-A root"
    return roots[0].energy.real


@pytest.fixture(scope="module")
def spin_kratzer_ground():
    spec = table_spec(3, 0, 0, 0, 1.0, 1.0)
    energy = class_a_energy(3, 0, 0, 0, 1.0, 1.0)
    return spec, energy


@pytest.fixture(scope="module")
def spin_oscillator_ground():
    spec = table_spec(4, 0, 0, 0, 0.0, 0.0)
    energy = class_a_energy(4, 0, 0, 0, 0.0, 0.0)
    return spec, energy


class TestRadialKratzer:
    def test_ground_state_pure_envelope(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        coeffs = derive_coefficients(spec, energy)
        w, zeta = coeffs.decay.real, coeffs.zeta.real
        for r in (0.2, 1.0, 3.7):
            expected = r**zeta * math.exp(-w * r)
            assert radial_kratzer(r, coeffs, 0) == pytest.approx(expected, rel=1e-13)

    def test_maximum_at_zeta_over_decay(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        coeffs = derive_coefficients(spec, energy)
        r_star = coeffs.zeta.real / coeffs.decay.real
        r = np.linspace(0.7 * r_star, 1.3 * r_star, 4001)
        vals = radial_kratzer(r, coeffs, 0)
        assert r[np.argmax(vals)] == pytest.approx(r_star, rel=1e-3)

    def test_node_count_matches_n(self):
        energy = class_a_energy(3, 2, 0, 0, 1.0, 1.0)
        spec = table_spec(3, 2, 0, 0, 1.0, 1.0)
        assert radial_node_count(spec, energy) == 2

    def test_unbound_energy_rejected(self, spin_kratzer_ground):
        spec, _ = spin_kratzer_ground
        coeffs = derive_coefficients(spec, 6.0)  # decay rate imaginary here
        with pytest.raises(NonNormalizableError):
            radial_kratzer(1.0, coeffs, 0)


class TestRadialOscillator:
    def test_ground_state_nodeless(self, spin_oscillator_ground):
        spec, energy = spin_oscillator_ground
        assert radial_node_count(spec, energy) == 0

    def test_first_excited_has_one_node(self):
        energy = class_a_energy(4, 1, 0, 0, 0.0, 0.0)
        spec = table_spec(4, 1, 0, 0, 0.0, 0.0)
        assert radial_node_count(spec, energy) == 1

    def test_envelope_shape(self, spin_oscillator_ground):
        spec, energy = spin_oscillator_ground
        coeffs = derive_coefficients(spec, energy)
        w, leff = coeffs.decay.real, coeffs.ell_eff.real
        r = 1.3
        expected = r ** (leff + 0.5) * math.exp(-w * r * r)
        assert radial_oscillator(r, coeffs, 0) == pytest.approx(expected, rel=1e-13)


class TestAngular:
    def test_pure_central_shape(self):
        # eta = 1/4, p = 1/2 gives sin^(1/2) theta |cos theta| shape
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        coeffs = derive_coefficients(spec, -0.3617126648)
        assert coeffs.eta.real == pytest.approx(0.25, abs=1e-12)
        assert coeffs.p.real == pytest.approx(0.5, abs=1e-12)
        for theta in (0.4, 1.1, 2.3):
            expected = math.sin(theta) ** 0.5 * (math.cos(theta) ** 2) ** 0.5
            assert angular_H(theta, coeffs, 0) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_at_equator_for_positive_p(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        coeffs = derive_coefficients(spec, energy)
        assert angular_H(math.pi / 2, coeffs, 0) == pytest.approx(0.0, abs=1e-12)

    def test_jacobi_form_equivalence(self, spin_kratzer_ground):
        # conversion to P_n'^(2 eta - 1/2, 2 p - 1/2)(1 - 2 sin^2 theta)
        spec, energy = spin_kratzer_ground
        coeffs = derive_coefficients(spec, energy)
        eta, p = coeffs.eta.real, coeffs.p.real
        for n_prime in (0, 1, 2, 3):
            for theta in np.linspace(0.1, math.pi - 0.1, 20):
                s2 = math.sin(theta) ** 2
                mine = angular_H(theta, coeffs, n_prime)
                conv = (
                    math.factorial(n_prime)
                    / pochhammer(2 * eta + 0.5, n_prime).real
                    * jacobi(n_prime, 2 * eta - 0.5, 2 * p - 0.5, 1 - 2 * s2)
                )
                expected = s2**eta * (1 - s2) ** p * conv
                assert mine == pytest.approx(expected, rel=1e-11, abs=1e-13)

    def test_complex_sector_flagged(self):
        spec = table_spec(1, 0, 0, 0, 1.0, 1.0)
        coeffs = derive_coefficients(spec, -1.470943351)
        with pytest.raises(ComplexSectorError):
            angular_H(0.7, coeffs, 0)


class TestAzimuthal:
    def test_m_zero_constant(self):
        for phi in (0.0, 1.0, 5.5):
            assert azimuthal_phi(phi, 0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_periodicity(self):
        assert azimuthal_phi(0.7 + 2 * math.pi, 3) == pytest.approx(
            azimuthal_phi(0.7, 3), rel=1e-12
        )

    def test_orthonormality_by_quadrature(self):
        phi = np.linspace(0, 2 * math.pi, 256, endpoint=False)
        w = 2 * math.pi / 256
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                overlap = np.sum(azimuthal_phi(phi, m1) * np.conj(azimuthal_phi(phi, m2))) * w
                assert abs(overlap - (1.0 if m1 == m2 else 0.0)) < 1e-12


class TestAssembly:
    def test_compositional_product(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        coeffs = derive_coefficients(spec, energy)
        norm = normalization_constant(spec, energy)
        pref = gamma_prefactor(spec, coeffs, 0)
        rng = np.random.default_rng(13)
        for _ in range(10):
            r = rng.uniform(0.2, 5.0)
            theta = rng.uniform(0.2, math.pi - 0.2)
            phi = rng.uniform(0, 2 * math.pi)
            manual = (
                norm
                * pref
                * radial_kratzer(r, coeffs, 0)
                * angular_H(theta, coeffs, 0)
                * azimuthal_phi(phi, 0)
                / (r * math.sqrt(math.sin(theta)))
            )
            assert assemble_component(spec, energy, r, theta, phi) == pytest.approx(
                manual, rel=1e-12
            )

    def test_boundary_vanishing(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        small = abs(assemble_component(spec, energy, 1e-4, 1.0, 0.0))
        large = abs(assemble_component(spec, energy, 40.0, 1.0, 0.0))
        mid = abs(assemble_component(spec, energy, 1.5, 1.0, 0.0))
        assert small < 1e-8 * mid
        assert large < 1e-12 * mid

    def test_oscillator_boundary_vanishing(self, spin_oscillator_ground):
        spec, energy = spin_oscillator_ground
        small = abs(assemble_component(spec, energy, 1e-4, 1.0, 0.0))
        large = abs(assemble_component(spec, energy, 25.0, 1.0, 0.0))
        mid = abs(assemble_component(spec, energy, 1.0, 1.0, 0.0))
        assert small < 1e-3 * mid
        assert large < 1e-12 * mid


class TestNormalization:
    def test_quadrature_norm_is_one(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        assert verify_normalization(spec, energy) < 1e-6

    def test_oscillator_quadrature_norm_finite_and_one(self, spin_oscillator_ground):
        spec, energy = spin_oscillator_ground
        assert verify_normalization(spec, energy) < 1e-6

    def test_pseudospin_central_norm(self):
        energy = class_a_energy(1, 0, 0, 0, 0.0, 0.0)
        spec = table_spec(1, 0, 0, 0, 0.0, 0.0)
        assert verify_normalization(spec, energy) < 1e-6

    def test_excited_state_norms(self):
        for table, n, n_prime, a, b in ((3, 1, 1, 1.0, 1.0), (4, 1, 1, 0.0, 0.0)):
            energy = class_a_energy(table, n, n_prime, 0, a, b)
            spec = table_spec(table, n, n_prime, 0, a, b)
            assert verify_normalization(spec, energy) < 1e-6

    def test_table1_row_with_a_ring_term_norm(self):
        # (n, n', m, a, b) = (0, 0, 0, 1, 0): cos^(4p) theta is not smooth at
        # pi/2, and the Gauss-Legendre grid across it missed by 1.58e-5
        energy = class_a_energy(1, 0, 0, 0, 1.0, 0.0)
        assert energy == pytest.approx(-0.2351790249204593, abs=1e-12)
        assert verify_normalization(table_spec(1, 0, 0, 0, 1.0, 0.0), energy) < 1e-12

    def test_deviation_shrinks_with_radial_resolution(self, monkeypatch):
        # a spin oscillator whose radial peak the step 0.05 under-resolves;
        # the shipped step closes it
        params = {"mass": 1.5, "c_s": 5.108639641844249, "k": 1.5}
        spec = table_spec(4, 5, 5, 5, 0.0, 1e-5, params)
        energy = -10.973381975167994
        assert [r.energy.real for r in find_roots(spec, mode="strict")] == [energy]
        fine = verify_normalization(spec, energy)
        monkeypatch.setattr(wavefun, "DE_STEP", 0.05)
        coarse = verify_normalization(spec, energy)
        assert coarse > 1e-6 and fine < 1e-11

    def test_rule_built_once_and_read_only(self):
        # one cached rule per step, shared by every call; it integrates
        # x exp(-x) over (0, inf) and sin cos over (0, pi/2), which vanish
        # at the end points as the norm integrands do
        rule = wavefun._double_exponential(wavefun.DE_STEP)
        assert wavefun._double_exponential(wavefun.DE_STEP) is rule
        x, wx, theta, wtheta = rule
        assert np.sum(wx * x * np.exp(-x)) == pytest.approx(1.0, abs=1e-14)
        assert np.sum(wtheta * np.sin(theta) * np.cos(theta)) == pytest.approx(0.5, abs=1e-14)
        assert 0.0 < theta.min() and theta.max() < 0.5 * math.pi
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    @staticmethod
    def _meshgrid_quadrature(spec, energy):
        """verify_normalization built on the full (r, theta) mesh."""
        coeffs = derive_coefficients(spec, energy)
        w, n = coeffs.decay.real, spec.qn.n
        if isinstance(spec.potential, Kratzer):
            scale = (coeffs.zeta.real + n + 1.0) / w
        else:
            scale = math.sqrt((coeffs.ell_eff.real + n + 1.0) / w)
        x, wx, th, wt = wavefun._double_exponential(wavefun.DE_STEP)
        rr, tt = np.meshgrid(scale * x, th, indexing="ij")
        vals = np.abs(assemble_component(spec, energy, rr, tt, 0.0)) ** 2 * rr**2 * np.sin(tt)
        return abs(4.0 * math.pi * np.einsum("i,j,ij->", scale * wx, wt, vals) - 1.0)

    @pytest.mark.parametrize(
        "cell",
        [
            *(
                (3, *d["qn"], *d["ring"])
                for d in json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"]
            ),
            # the real-sector specs of tests/data/wavefunction_*.txt
            (3, 1, 1, 1, 1.0, 1.0),
            (4, 1, 1, 1, 0.0, 0.0),
            (1, 1, 1, 0, 0.0, 0.0),
            (2, 0, 0, 0, 0.0, 0.0),
        ],
        ids=[*(f"draw{i}" for i in range(12)), "spin_kratzer", "spin_oscillator",
             "pseudospin_kratzer", "pseudospin_oscillator"],
    )
    def test_factors_match_mesh_bit_for_bit(self, cell):
        # factors on the 1-D nodes, broadcast to the mesh: every element goes
        # through the same operations as on the meshgrid
        spec = table_spec(*cell)
        energy = class_a_energy(*cell)
        got = verify_normalization(spec, energy)
        assert float(got).hex() == float(self._meshgrid_quadrature(spec, energy)).hex()

    @pytest.mark.parametrize("name", ["radial_nodes", "theta_nodes", "phi_nodes"])
    def test_node_counts_rejected(self, spin_kratzer_ground, name):
        # the quadrature grid is fixed by module constants
        spec, energy = spin_kratzer_ground
        with pytest.raises(TypeError, match=name):
            verify_normalization(spec, energy, **{name: 200})

    def test_quadratic_scaling_in_constant(self, spin_kratzer_ground):
        spec, energy = spin_kratzer_ground
        norm = normalization_constant(spec, energy)
        xr, wr = np.polynomial.legendre.leggauss(200)
        r = 0.5 * 16.0 * (xr + 1)
        wr = 0.5 * 16.0 * wr
        xt, wt = np.polynomial.legendre.leggauss(200)
        th = 0.5 * math.pi * (xt + 1)
        wt = 0.5 * math.pi * wt
        rr, tt = np.meshgrid(r, th, indexing="ij")
        field = assemble_component(spec, energy, rr, tt, 0.0, 2.0 * norm)
        vals = np.abs(field) ** 2 * rr**2 * np.sin(tt)
        integral = np.einsum("i,j,ij->", wr, wt, vals) * 2 * math.pi
        assert integral == pytest.approx(4.0, rel=1e-6)

    def test_radial_factor_matches_specfun_integral(self, spin_kratzer_ground):
        # the radial piece of the closed-form norm is the weighted Laguerre
        # integral from specfun, up to the hypergeometric conversion factor
        from drsbound.specfun import laguerre_norm_integrals

        spec, _ = spin_kratzer_ground
        energy = class_a_energy(3, 1, 0, 0, 1.0, 1.0)
        spec = table_spec(3, 1, 0, 0, 1.0, 1.0)
        coeffs = derive_coefficients(spec, energy)
        n = 1
        zeta, w = coeffs.zeta.real, coeffs.decay.real
        conv = math.factorial(n) * gamma_fn(2 * zeta) / gamma_fn(n + 2 * zeta)
        weighted, _ = laguerre_norm_integrals(2 * zeta, n)
        expected = conv**2 * weighted / (2 * w) ** (2 * zeta + 1)
        xr, wr = np.polynomial.legendre.leggauss(400)
        r = 0.5 * 25.0 * (xr + 1)
        wq = 0.5 * 25.0 * wr
        vals = radial_kratzer(r, coeffs, n) ** 2
        assert np.sum(wq * vals) == pytest.approx(expected, rel=1e-9)

    def test_complex_sector_rejected(self):
        spec = table_spec(1, 0, 0, 0, 1.0, 1.0)
        with pytest.raises((ComplexSectorError, NonNormalizableError)):
            normalization_constant(spec, -1.470943351)
