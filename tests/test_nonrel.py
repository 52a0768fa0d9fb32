import math

import numpy as np
import pytest
from scipy.optimize import brentq

from drsbound.model import Kratzer, Oscillator, QuantumNumbers, RingParams, SpecError
from drsbound.nonrel import NonRelParams, energy_kratzer_nr
from drsbound.oracle import nonrel_energy_fd


def kratzer_params(a=0.0, b=0.0):
    return NonRelParams(mu=1.0, potential=Kratzer(15.0, 0.4), ring=RingParams(a, b))


def oscillator_params(a=0.0, b=0.0, k=1.0):
    return NonRelParams(mu=1.0, potential=Oscillator(k), ring=RingParams(a, b))


class TestKratzerSpectrum:
    def test_ground_state_value(self):
        # oracle: direct evaluation -72 / (1/2 + sqrt(2.25 + 4.8))^2
        expected = -72.0 / (0.5 + math.sqrt(2.25 + 4.8)) ** 2
        val = energy_kratzer_nr(kratzer_params(), QuantumNumbers(0, 0, 0))
        assert val == pytest.approx(expected, rel=1e-14)
        assert val == pytest.approx(-7.23241, abs=1e-4)

    def test_matches_fd_oracle(self):
        val = energy_kratzer_nr(kratzer_params(), QuantumNumbers(0, 0, 0))
        fd = nonrel_energy_fd(kratzer_params(), QuantumNumbers(0, 0, 0))
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
        prev = energy_kratzer_nr(kratzer_params(), QuantumNumbers(n=0, n_prime=0, m=0))
        for n in range(1, 40):
            cur = energy_kratzer_nr(kratzer_params(), QuantumNumbers(n=n, n_prime=0, m=0))
            assert prev < cur < 0
            prev = cur
        assert energy_kratzer_nr(kratzer_params(), QuantumNumbers(n=4000, n_prime=0, m=0)) > -1e-4

    def test_relativistic_limit_consistency(self):
        # mapping E - M -> E, E + M -> 2 mu, C_s = 0 turns the spin
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


class TestParams:
    @pytest.mark.parametrize("field", ["mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"mu": 1.0, "potential": Kratzer(15.0, 0.4), "ring": RingParams(0.0, 0.0)}
        kwargs[field] = value
        with pytest.raises(SpecError, match=f"NonRelParams.{field} must be finite"):
            NonRelParams(**kwargs)

    @pytest.mark.parametrize("field", ["mu"])
    def test_nonpositive_rejected(self, field):
        kwargs = {"mu": 1.0, "potential": Kratzer(15.0, 0.4), "ring": RingParams(0.0, 0.0)}
        kwargs[field] = 0.0
        with pytest.raises(SpecError, match="must be positive"):
            NonRelParams(**kwargs)


class TestFdPins:
    # literals of the Galerkin level, kept to rel 1e-12; each lies within
    # 1e-13 (relative) of its closed form, where the former FD rule's values
    # (-7.232413064875806 and 2.499999999992421) lay 5.2e-12 and 3.0e-12 off
    def test_kratzer_level(self):
        fd = nonrel_energy_fd(kratzer_params(), QuantumNumbers(0, 0, 0))
        assert fd == pytest.approx(-7.232413064838543, rel=1e-12)
        closed = energy_kratzer_nr(kratzer_params(), QuantumNumbers(0, 0, 0))
        assert abs(fd - closed) <= 1e-13 * abs(closed)

    def test_oscillator_level(self):
        fd = nonrel_energy_fd(oscillator_params(), QuantumNumbers(0, 0, 0))
        assert fd == pytest.approx(2.4999999999999982, rel=1e-12)
        # closed form hbar omega (2 n + ell_eff + 1) with omega = 1, n = 0, ell_eff = 3/2
        assert abs(fd - 2.5) <= 1e-13 * 2.5
