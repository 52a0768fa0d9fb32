import math

import numpy as np
import pytest
from scipy import integrate

from drsbound.specfun import (
    PoleError,
    gamma_fn,
    hyp1f1_terminating,
    hyp2f1_terminating,
    jacobi,
    jacobi_norm_integral,
    jacobi_weight_norm_integral,
    laguerre,
    laguerre_norm_integrals,
    pochhammer,
)


def fsum_series_1f1(n, c, x):
    """Compensated-summation oracle for 1F1(-n; c; x)."""
    terms = []
    t = 1.0
    for j in range(n + 1):
        terms.append(t)
        t *= (-n + j) * x / ((c + j) * (j + 1))
    return math.fsum(terms)


def fsum_series_2f1(n, b, c, x):
    terms = []
    t = 1.0
    for j in range(n + 1):
        terms.append(t)
        t *= (-n + j) * (b + j) * x / ((c + j) * (j + 1))
    return math.fsum(terms)


class TestGamma:
    def test_factorial(self):
        assert gamma_fn(5) == pytest.approx(24.0, rel=1e-14)

    def test_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_recurrence_oracle(self):
        # Gamma(7.25) against the product recurrence built up from Gamma(0.25)
        value = gamma_fn(0.25)
        x = 0.25
        while x < 7.0:
            value *= x
            x += 1.0
        assert gamma_fn(7.25) == pytest.approx(value, rel=1e-12)

    def test_reflection_negative_argument(self):
        x = -0.75
        reflected = math.pi / (math.sin(math.pi * x) * gamma_fn(1 - x))
        assert gamma_fn(x) == pytest.approx(reflected, rel=1e-12)

    def test_poles_rejected(self):
        for x in (0.0, -1.0, -6.0):
            with pytest.raises(PoleError):
                gamma_fn(x)


class TestHyp1F1:
    def test_degree_zero(self):
        for c, x in ((2.0, 1.0), (0.3, -4.0), (2.5 + 1j, 0.7)):
            assert hyp1f1_terminating(0, c, x) == pytest.approx(1.0)

    def test_two_term_sum(self):
        assert hyp1f1_terminating(1, 2.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_laguerre_conversion(self):
        # 1F1(-n; m+1; x) = n! m! / (n+m)! L_n^m(x) with n=3, m+1=2.5
        n, c, x = 3, 2.5, 1.7
        lhs = hyp1f1_terminating(n, c, x)
        rhs = (
            math.factorial(n)
            * gamma_fn(c)
            / gamma_fn(n + c)
            * laguerre(n, c - 1.0, x)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pochhammer_pole(self):
        with pytest.raises(PoleError):
            hyp1f1_terminating(3, -1.0, 0.5)

    def test_compensated_summation_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(0, 11))
            c = rng.uniform(0.3, 6.0)
            x = rng.uniform(-5.0, 5.0)
            mine = hyp1f1_terminating(n, c, x)
            assert abs(mine - fsum_series_1f1(n, c, x)) < 1e-11 * (1 + abs(mine))


class TestHyp2F1:
    def test_examples(self):
        assert hyp2f1_terminating(1, 3.0, 2.0, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert hyp2f1_terminating(0, 3.0, 2.0, 0.5) == pytest.approx(1.0)

    def test_jacobi_conversion_random(self):
        # 2F1(-n, 1+a+b+n; a+1; (1-z)/2) = n! / (a+1)_n P_n^(a,b)(z)
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 7))
            a = rng.uniform(-0.4, 3.0)
            b = rng.uniform(-0.4, 3.0)
            z = rng.uniform(-1.0, 1.0)
            lhs = hyp2f1_terminating(n, 1 + a + b + n, a + 1.0, 0.5 * (1 - z))
            rhs = math.factorial(n) / pochhammer(a + 1.0, n) * jacobi(n, a, b, z)
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(rhs))

    def test_compensated_summation_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(0, 11))
            b = rng.uniform(-3.0, 5.0)
            c = rng.uniform(0.3, 6.0)
            x = rng.uniform(-1.0, 1.0)
            mine = hyp2f1_terminating(n, b, c, x)
            assert abs(mine - fsum_series_2f1(n, b, c, x)) < 1e-11 * (1 + abs(mine))


class TestOrthogonalPolynomials:
    def test_laguerre_first_order(self):
        for alpha, x in ((0.5, 1.2), (2.0, 0.1)):
            assert laguerre(1, alpha, x) == pytest.approx(1 + alpha - x, rel=1e-14)

    def test_jacobi_first_order(self):
        for a, b, x in ((0.5, 1.5, 0.3), (2.0, 0.0, -0.8)):
            expected = 0.5 * (a - b) + 0.5 * (a + b + 2) * x
            assert jacobi(1, a, b, x) == pytest.approx(expected, rel=1e-14)

    def test_jacobi_symmetry_relation(self):
        # P_n^(a,b)(x) = (-1)^n P_n^(b,a)(-x) on a 21-point grid for n <= 8
        grid = np.linspace(-1, 1, 21)
        for n in range(9):
            for a, b in ((0.5, 1.7), (2.2, 0.1)):
                for x in grid:
                    lhs = jacobi(n, a, b, x)
                    rhs = (-1) ** n * jacobi(n, b, a, -x)
                    assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_degree_zero_is_one(self):
        assert laguerre(0, 0.7, 2.0) == 1.0
        assert jacobi(0, 0.7, 0.3, -0.2) == 1.0


class TestNormIntegrals:
    def test_jacobi_norm_trivial_case(self):
        assert jacobi_norm_integral(1.0, 0.0, 0) == pytest.approx(2.0, rel=1e-14)

    def test_laguerre_weighted_trivial_case(self):
        weighted, _ = laguerre_norm_integrals(2.0, 1)
        assert weighted == pytest.approx(8.0, rel=1e-14)

    def test_jacobi_norm_vs_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(0, 4))
            a = rng.uniform(0.4, 3.0)
            b = rng.uniform(-0.4, 3.0)
            val, _ = integrate.quad(
                lambda x: (1 - x) ** (a - 1) * (1 + x) ** b * jacobi(n, a, b, x) ** 2,
                -1.0,
                1.0,
            )
            assert val == pytest.approx(jacobi_norm_integral(a, b, n), rel=1e-8)

    def test_jacobi_weight_norm_vs_quadrature(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(0, 4))
            a = rng.uniform(-0.4, 3.0)
            b = rng.uniform(-0.4, 3.0)
            val, _ = integrate.quad(
                lambda x: (1 - x) ** a * (1 + x) ** b * jacobi(n, a, b, x) ** 2,
                -1.0,
                1.0,
            )
            assert val == pytest.approx(jacobi_weight_norm_integral(a, b, n), rel=1e-8)

    def test_laguerre_norms_vs_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(0, 4))
            a = rng.uniform(0.4, 4.0)
            weighted, unweighted = laguerre_norm_integrals(a, n)
            val_w, _ = integrate.quad(
                lambda x: math.exp(-x) * x**a * laguerre(n, a - 1.0, x) ** 2, 0, np.inf
            )
            val_u, _ = integrate.quad(
                lambda x: math.exp(-x) * x**a * laguerre(n, a, x) ** 2, 0, np.inf
            )
            assert val_w == pytest.approx(weighted, rel=1e-8)
            assert val_u == pytest.approx(unweighted, rel=1e-8)

    def test_gamma_pole_rejected(self):
        with pytest.raises(ValueError):
            jacobi_norm_integral(-1.0, 0.0, 2)


class TestComplexParameters:
    def test_series_accept_complex(self):
        v = hyp1f1_terminating(2, 1.5 + 0.4j, 0.3 - 0.2j)
        t0, t1 = 1.0, (-2) * (0.3 - 0.2j) / (1.5 + 0.4j)
        t2 = t1 * (-1) * (0.3 - 0.2j) / ((2.5 + 0.4j) * 2)
        assert v == pytest.approx(t0 + t1 + t2, rel=1e-13)

    def test_laguerre_accepts_complex(self):
        alpha = 1.0 + 0.5j
        assert laguerre(1, alpha, 0.3) == pytest.approx(1 + alpha - 0.3, rel=1e-14)


class TestArrayInput:
    def test_array_equals_elementwise_scalar_calls(self):
        x = np.linspace(-2.0, 3.0, 11).reshape(1, 11)
        cases = [
            (hyp1f1_terminating, (4, 2.5)),
            (hyp1f1_terminating, (3, 1.5 + 0.4j)),
            (hyp2f1_terminating, (3, 4.25, 1.75)),
            (hyp2f1_terminating, (2, 0.5 - 0.3j, 2.0 + 0.1j)),
        ]
        for fn, args in cases:
            for xs in (x, x + 0.25j * x):
                got = fn(*args, xs)
                assert got.shape == xs.shape
                expected = np.array([fn(*args, complex(v)) for v in xs.ravel()])
                if np.isrealobj(xs) and not any(isinstance(a, complex) for a in args):
                    # real input stays on float arithmetic, which reproduces
                    # the complex scalar sum exactly
                    assert got.dtype == np.float64
                    assert np.array_equal(got.ravel(), expected)
                else:
                    np.testing.assert_allclose(got.ravel(), expected, rtol=1e-13)
