import math

import numpy as np
import pytest
from scipy.optimize import brentq

from drsbound.model import Kratzer, Oscillator, QuantumNumbers, RingParams, SpecError
from drsbound.nonrel import (
    NonRelParams,
    energy_kratzer_nr,
    energy_oscillator_nr,
    reduction_check_oscillator,
    wavefunction_nr,
)
from drsbound.oracle import nonrel_energy_fd
from drsbound.wavefun import angular_H, radial_kratzer


def kratzer_params(a=0.0, b=0.0):
    return NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams(a, b))


def oscillator_params(a=0.0, b=0.0, k=1.0):
    return NonRelParams(mu=1.0, potential=Oscillator(k), ring=RingParams(a, b))


class TestKratzerSpectrum:
    def test_ground_state_value(self):
        # oracle: direct evaluation -72 / (1/2 + sqrt(2.25 + 4.8))^2
        expected = -72.0 / (0.5 + math.sqrt(2.25 + 4.8)) ** 2
        val = energy_kratzer_nr(kratzer_params(), QuantumNumbers())
        assert val == pytest.approx(expected, rel=1e-14)
        assert val == pytest.approx(-7.23241, abs=1e-4)

    def test_matches_fd_oracle(self):
        val = energy_kratzer_nr(kratzer_params(), QuantumNumbers())
        fd = nonrel_energy_fd(kratzer_params(), QuantumNumbers())
        assert abs(fd - val) / abs(val) < 1e-4

    def test_radical_collapse_at_zero_ring(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(0, 4))
            npr = int(rng.integers(0, 4))
            m = int(rng.integers(-2, 3))
            qn = QuantumNumbers(n=n, n_prime=npr, m=m)
            val = energy_kratzer_nr(kratzer_params(), qn)
            ell_eff = 0.5 + abs(m) + 2 * npr + 1
            manual = -72.0 / (n + 0.5 + math.sqrt(ell_eff**2 + 4.8)) ** 2
            assert val == pytest.approx(manual, rel=1e-14)

    def test_monotone_approach_to_zero(self):
        prev = energy_kratzer_nr(kratzer_params(), QuantumNumbers(n=0))
        for n in range(1, 40):
            cur = energy_kratzer_nr(kratzer_params(), QuantumNumbers(n=n))
            assert prev < cur < 0
            prev = cur
        assert energy_kratzer_nr(kratzer_params(), QuantumNumbers(n=4000)) > -1e-4

    def test_relativistic_limit_consistency(self):
        # mapping E - M -> E, E + M -> 2 mu / hbar^2, C_s = 0 turns the spin
        # condition into the closed form; root-finding the mapped residual
        # must land on the closed form to 1e-8
        for n in range(3):
            for npr in range(3):
                for m in range(3):
                    qn = QuantumNumbers(n=n, n_prime=npr, m=m)
                    closed = energy_kratzer_nr(kratzer_params(), qn)
                    ell_eff = 0.5 + abs(m) + 2 * npr + 1
                    bracket_rad = math.sqrt(ell_eff**2 + 2 * 15.0 * 0.16)

                    def mapped(e_nr):
                        return e_nr / 2.0 + 36.0 / (n + 0.5 + bracket_rad) ** 2

                    root = brentq(mapped, closed - 1.0, closed + 1.0, xtol=1e-12)
                    assert abs(root - closed) < 1e-8


class TestOscillatorSpectrum:
    def test_ground_values(self):
        assert energy_oscillator_nr(oscillator_params(), QuantumNumbers()) == pytest.approx(2.5)
        assert energy_oscillator_nr(
            oscillator_params(), QuantumNumbers(m=1)
        ) == pytest.approx(3.5)

    def test_equidistant_ladder(self):
        p = oscillator_params()
        for n in range(4):
            for npr in range(3):
                step = energy_oscillator_nr(
                    p, QuantumNumbers(n=n + 1, n_prime=npr)
                ) - energy_oscillator_nr(p, QuantumNumbers(n=n, n_prime=npr))
                assert step == pytest.approx(2.0, rel=1e-14)


class TestReductionCheck:
    def test_ground_state_report(self):
        report = reduction_check_oscillator(oscillator_params(), ell=0, n=0)
        assert report.textbook == pytest.approx(1.5)
        assert report.fd_eigenvalue == pytest.approx(1.5, abs=1e-4)
        # direct substitution overshoots the textbook value by exactly 1/2
        assert report.substituted_vs_textbook == pytest.approx(0.5, abs=1e-12)

    def test_higher_state(self):
        report = reduction_check_oscillator(oscillator_params(), ell=2, n=1)
        assert report.textbook == pytest.approx(5.5)
        assert report.fd_eigenvalue == pytest.approx(5.5, abs=1e-4)

    def test_ring_terms_rejected(self):
        with pytest.raises(SpecError):
            reduction_check_oscillator(oscillator_params(a=1.0), ell=0, n=0)


class TestFdPins:
    # literals of the former mass_factor radial solver, kept to rel 1e-12
    def test_kratzer_level(self):
        fd = nonrel_energy_fd(kratzer_params(), QuantumNumbers())
        assert fd == pytest.approx(-7.23241306510691, rel=1e-12)

    def test_oscillator_level(self):
        fd = nonrel_energy_fd(oscillator_params(), QuantumNumbers())
        assert fd == pytest.approx(2.500000000111932, rel=1e-12)

    @pytest.mark.parametrize(
        "ell, n, want", [(0, 0, 1.5000000083245049), (2, 1, 5.500000266631468)]
    )
    def test_reduction_check_level(self, ell, n, want):
        report = reduction_check_oscillator(oscillator_params(), ell=ell, n=n)
        assert report.fd_eigenvalue == pytest.approx(want, rel=1e-12)


class TestWavefunction:
    def test_ground_state_nodeless(self):
        p = kratzer_params()
        qn = QuantumNumbers()
        r = np.linspace(0.05, 8.0, 2000)
        vals = wavefunction_nr(p, qn, r, 1.0, 0.0).real
        signs = np.sign(vals)
        assert np.sum(signs[:-1] * signs[1:] < 0) == 0

    def test_matches_relativistic_assembly_under_mapping(self):
        # feed the nonrelativistic parameter dictionary through the
        # relativistic factor evaluators and compare pointwise
        from drsbound.model import CoefficientSet

        p = kratzer_params(a=0.0, b=0.0)
        qn = QuantumNumbers(n=1, n_prime=1, m=1)
        energy = energy_kratzer_nr(p, qn)
        g = 2.0 * p.mu / p.hbar**2
        eta = 0.25 * (1 + 2 * math.sqrt(qn.m**2 + g * p.ring.b))
        pp = 0.25 * (1 + 2 * math.sqrt(0.25 + g * p.ring.a))
        ell_eff = math.sqrt(g * p.ring.a + 0.25) + math.sqrt(g * p.ring.b + qn.m**2) + 2 * qn.n_prime + 1
        beta_bar = math.sqrt(-2.0 * p.mu * energy) / p.hbar
        zeta_bar = 0.5 + math.sqrt(ell_eff**2 + g * 15.0 * 0.16)
        coeffs = CoefficientSet(
            gamma=g,
            beta_sq=-2 * p.mu * energy,
            omega=ell_eff - 2 * qn.n_prime - 1,
            ell_eff=ell_eff,
            eta=eta,
            p=pp,
            zeta=zeta_bar,
            decay=beta_bar,
        )
        from drsbound.specfun import gamma_fn

        pref = (
            gamma_fn(2 * beta_bar + qn.n)
            / gamma_fn(2 * beta_bar)
            * gamma_fn(2 * eta + 0.5 + qn.n)
            / gamma_fn(2 * eta + 0.5)
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            r = rng.uniform(0.3, 4.0)
            theta = rng.uniform(0.3, math.pi - 0.3)
            phi = rng.uniform(0.0, 2 * math.pi)
            manual = (
                pref
                * radial_kratzer(r, coeffs, qn.n)
                * angular_H(theta, coeffs, qn.n_prime)
                * np.exp(1j * qn.m * phi)
                / math.sqrt(2 * math.pi)
                / (r * math.sqrt(math.sin(theta)))
            )
            val = wavefunction_nr(p, qn, r, theta, phi, energy=energy)
            assert val == pytest.approx(manual, rel=1e-11)

    def test_quadrature_norm_finite(self):
        p = kratzer_params()
        qn = QuantumNumbers()
        xr, wr = np.polynomial.legendre.leggauss(300)
        r = 0.5 * 10.0 * (xr + 1)
        wq = 0.5 * 10.0 * wr
        xt, wt = np.polynomial.legendre.leggauss(200)
        th = 0.5 * math.pi * (xt + 1)
        wt = 0.5 * math.pi * wt
        rr, tt = np.meshgrid(r, th, indexing="ij")
        vals = np.abs(wavefunction_nr(p, qn, rr, tt, 0.0)) ** 2 * rr**2 * np.sin(tt)
        integral = np.einsum("i,j,ij->", wq, wt, vals) * 2 * math.pi
        assert np.isfinite(integral) and integral > 0

    def test_oscillator_wavefunction_gaussian_envelope(self):
        p = oscillator_params()
        qn = QuantumNumbers()
        width = math.sqrt(p.mu * p.potential.k / 4.0) / p.hbar
        r1, r2 = 1.0, 2.0
        v1 = wavefunction_nr(p, qn, r1, 1.0, 0.0).real
        v2 = wavefunction_nr(p, qn, r2, 1.0, 0.0).real
        ell_eff = 1.5
        ratio = (r2 / r1) ** (ell_eff + 0.5 - 1.0) * math.exp(-width * (r2**2 - r1**2))
        assert v2 / v1 == pytest.approx(ratio, rel=1e-12)

    def test_positive_energy_rejected_for_kratzer(self):
        with pytest.raises(SpecError):
            wavefunction_nr(kratzer_params(), QuantumNumbers(), 1.0, 1.0, 0.0, energy=0.5)
