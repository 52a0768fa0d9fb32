import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from drsbound.model import (
    Kratzer,
    Oscillator,
    PhysicalParams,
    ProblemSpec,
    Pseudospin,
    QuantumNumbers,
    RingParams,
    SpecError,
    Spin,
    beta_sq_of,
    derive_coefficients,
    kappa_ell_map,
    potential_value,
)


def spin_kratzer(a=0.0, b=0.0, n=0, n_prime=0, m=0):
    return ProblemSpec(
        symmetry=Spin(5.0),
        potential=Kratzer(15.0, 0.4),
        ring=RingParams(a, b),
        params=PhysicalParams(5.0),
        qn=QuantumNumbers(n=n, n_prime=n_prime, m=m),
    )


def pseudo_kratzer(a=0.0, b=0.0, n=0, n_prime=0, m=0):
    return ProblemSpec(
        symmetry=Pseudospin(-5.0),
        potential=Kratzer(15.0, 0.4),
        ring=RingParams(a, b),
        params=PhysicalParams(5.0),
        qn=QuantumNumbers(n=n, n_prime=n_prime, m=m),
    )


class TestKappaEllMap:
    def test_aligned_s_half(self):
        ell, j, alignment = kappa_ell_map(-1)
        assert (ell, j, alignment) == (0, 0.5, "aligned")

    def test_unaligned_p_half(self):
        ell, j, alignment = kappa_ell_map(1)
        assert (ell, j, alignment) == (1, 0.5, "unaligned")

    def test_aligned_p_three_half(self):
        ell, j, alignment = kappa_ell_map(-2)
        assert (ell, j, alignment) == (1, 1.5, "aligned")

    def test_kappa_zero_rejected(self):
        with pytest.raises(SpecError):
            kappa_ell_map(0)

    def test_ell_relation_holds_for_range(self):
        for kappa in range(-10, 11):
            if kappa == 0:
                continue
            ell, _, _ = kappa_ell_map(kappa)
            assert ell * (ell + 1) == kappa * (kappa + 1)


class TestDeriveCoefficients:
    def test_gamma_cancellation_spin(self):
        c = derive_coefficients(spin_kratzer(), 2.072188142)
        assert c.gamma == pytest.approx(2.072188142, abs=1e-14)

    def test_gamma_cancellation_pseudospin(self):
        osc = ProblemSpec(
            symmetry=Pseudospin(-5.0),
            potential=Oscillator(1.0),
            ring=RingParams(),
            params=PhysicalParams(5.0),
            qn=QuantumNumbers(),
        )
        c = derive_coefficients(osc, -0.6652434115)
        assert c.gamma == pytest.approx(-0.6652434115, abs=1e-14)

    def test_omega_direct_evaluation(self):
        # oracle: direct evaluation of the two radicals at gamma = E
        e = 2.072188142
        expected = math.sqrt(e + 0.25) + math.sqrt(e)
        c = derive_coefficients(spin_kratzer(a=1.0, b=1.0), e)
        assert c.omega == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("energy", [-3.7, -0.36, 0.0, 0.74, 2.07, 9.1, 2.0 + 1.3j])
    def test_beta_sq_identity_spin(self, energy):
        spec = spin_kratzer()
        bsq = beta_sq_of(spec, energy)
        e, m_, c = complex(energy), 5.0, 5.0
        assert abs(bsq + (e - m_) * (e + m_ - c)) < 1e-12 * (1 + abs(bsq))

    @pytest.mark.parametrize("energy", [-3.7, -0.36, 0.74, 2.07, -1.0 - 0.5j])
    def test_beta_sq_identity_pseudospin(self, energy):
        spec = pseudo_kratzer()
        bsq = beta_sq_of(spec, energy)
        e, m_, c = complex(energy), 5.0, -5.0
        assert abs(bsq - (e + m_) * (e - m_ - c)) < 1e-12 * (1 + abs(bsq))

    def test_all_fields_real_in_real_sector(self):
        # gamma real and nonnegative with a, b >= 0 keeps every listed
        # coefficient real (the decay rate may still be imaginary away from
        # genuine bound energies and is excluded by design)
        rng = np.random.default_rng(7)
        for _ in range(20):
            e = rng.uniform(0.1, 8.0)  # gamma = E >= 0 for these parameters
            a, b = rng.uniform(0, 2), rng.uniform(0, 2)
            m = int(rng.integers(-2, 3))
            c = derive_coefficients(spin_kratzer(a=a, b=b, m=m), e)
            for field_value in (c.gamma, c.beta_sq, c.omega, c.ell_eff, c.eta, c.p, c.zeta):
                assert abs(complex(field_value).imag) < 1e-14

    def test_zeta_matches_definition(self):
        spec = spin_kratzer(a=1.0, b=1.0)
        e = 2.072188142
        c = derive_coefficients(spec, e)
        expected = 0.5 + math.sqrt(abs(c.ell_eff) ** 2 + e * 15.0 * 0.16)
        assert c.zeta == pytest.approx(expected, abs=1e-12)

    def test_oscillator_has_no_zeta(self):
        osc = ProblemSpec(
            symmetry=Spin(5.0),
            potential=Oscillator(1.0),
            ring=RingParams(),
            params=PhysicalParams(5.0),
            qn=QuantumNumbers(),
        )
        assert derive_coefficients(osc, 1.0).zeta is None

    def test_sign_of_m_never_matters(self):
        for e in (0.5, 2.07):
            plus = derive_coefficients(spin_kratzer(a=1, b=1, m=2), e)
            minus = derive_coefficients(spin_kratzer(a=1, b=1, m=-2), e)
            assert plus == minus


class TestValidation:
    def test_negative_quantum_numbers_rejected(self):
        with pytest.raises(SpecError):
            QuantumNumbers(n=-1)
        with pytest.raises(SpecError):
            QuantumNumbers(n_prime=-2)

    def test_ring_strengths_nonnegative(self):
        with pytest.raises(SpecError):
            RingParams(-0.5, 0.0)

    def test_potential_parameters_positive(self):
        with pytest.raises(SpecError):
            Kratzer(-1.0, 0.4)
        with pytest.raises(SpecError):
            Oscillator(0.0)

    def test_mass_positive(self):
        with pytest.raises(SpecError):
            PhysicalParams(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda x: RingParams(x, 1.0), "RingParams.a"),
            (lambda x: RingParams(1.0, x), "RingParams.b"),
            (lambda x: PhysicalParams(x), "PhysicalParams.mass"),
            (lambda x: Kratzer(x, 0.4), "Kratzer.d_e"),
            (lambda x: Kratzer(15.0, x), "Kratzer.r_e"),
            (lambda x: Oscillator(x), "Oscillator.k"),
            (lambda x: Spin(x), "Spin.constant"),
            (lambda x: Pseudospin(x), "Pseudospin.constant"),
        ],
    )
    def test_non_finite_field_rejected(self, make, field, bad):
        # NaN passes every ordering check, so each record tests finiteness first
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            make(bad)

    def test_potential_value_matches_definition(self):
        spec = spin_kratzer(a=1.0, b=1.0)
        r, theta = 1.0, math.pi / 4
        v1 = -2 * 15.0 * (0.4 / r - 0.5 * 0.16 / r**2)
        angular = (1.0 / math.sin(theta) ** 2 + 1.0 / math.cos(theta) ** 2) / r**2
        got = potential_value(spec.potential, spec.ring, r, theta)
        assert got == pytest.approx(v1 + angular, rel=1e-14)


class TestConditionTerms:
    """The cached record of the spectral conditions' numbers is no part of a spec's value."""

    def test_equality_hash_and_repr_unchanged(self):
        spec, fresh = spin_kratzer(a=1.0, b=0.5, m=1), spin_kratzer(a=1.0, b=0.5, m=1)
        before = (repr(spec), hash(spec))
        assert spec._condition_terms.mass == 5.0
        assert "_condition_terms" in vars(spec) and "_condition_terms" not in vars(fresh)
        assert (repr(spec), hash(spec)) == before == (repr(fresh), hash(fresh))
        assert spec == fresh and "_condition_terms" not in repr(spec)
        assert [f.name for f in fields(ProblemSpec)] == [
            "symmetry", "potential", "ring", "params", "qn",
        ]

    def test_follows_replace(self):
        spec = pseudo_kratzer(a=1.0, b=0.5, n=1, m=2)
        terms = spec._condition_terms
        moved = replace(spec, potential=Oscillator(2.5), params=PhysicalParams(3.0))
        assert moved._condition_terms == terms._replace(
            oscillator=True, mass=3.0, lhs_pole=-2.0, gamma0=2.0, k2=5.0, d_e=None, r_e_sq=None,
            t_sq=None,
        )
        assert spec.with_qn(n=3, n_prime=2)._condition_terms == terms._replace(
            two_n_prime=4, two_n=6, nu=3.5
        )
        assert spec._condition_terms is terms

    def test_pickle_round_trip(self):
        spec = spin_kratzer(a=1.0, b=0.5, m=1)
        terms = spec._condition_terms
        spec._eliminant_zeros
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and hash(back) == hash(spec) and repr(back) == repr(spec)
        assert set(vars(back)) == {f.name for f in fields(ProblemSpec)}
        assert back._condition_terms == terms
        assert not any(z.flags.writeable for _, z in back._eliminant_zeros)
        coefficients = back._eliminant_coefficients
        assert [s for s, _ in coefficients] == [s for s, _ in spec._eliminant_coefficients]
        for (_, got), (_, want) in zip(coefficients, spec._eliminant_coefficients):
            assert got is not want and np.array_equal(got, want)
            assert not got.flags.writeable
        assert replace(back)._condition_terms == terms
