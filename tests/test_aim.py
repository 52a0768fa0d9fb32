import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from scipy.optimize import brentq

from drsbound import aim, spectrum
from drsbound.aim import (
    K_START,
    SAMPLES,
    AimError,
    AimProblem,
    Jet,
    aim_delta,
    aim_exact_angular,
    aim_exact_kratzer,
    angular_problem,
    find_eigenvalue,
    kratzer_radial_problem,
    oscillator_radial_problem,
)
from drsbound.model import derive_coefficients

REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def poly_to_jet(coeffs_low, x0, order):
    """Taylor jet of a polynomial (coefficients lowest first) at x0."""
    p = np.polynomial.Polynomial(coeffs_low)
    c = []
    for i in range(order + 1):
        c.append(p(x0) / math.factorial(i))
        p = p.deriv()
    return Jet(np.array(c, dtype=complex))


class TestJetArithmetic:
    def test_ring_laws_against_polynomials(self):
        rng = np.random.default_rng(17)
        x0, order = 0.7, 8
        for _ in range(10):
            pu = rng.uniform(-2, 2, size=4)
            pv = rng.uniform(-2, 2, size=4)
            u = poly_to_jet(pu, x0, order)
            v = poly_to_jet(pv, x0, order)
            p_sum = np.polynomial.Polynomial(pu) + np.polynomial.Polynomial(pv)
            p_prod = np.polynomial.Polynomial(pu) * np.polynomial.Polynomial(pv)
            np.testing.assert_allclose(
                (u + v).coeffs, poly_to_jet(p_sum.coef, x0, order).coeffs, atol=1e-12
            )
            np.testing.assert_allclose(
                (u * v).coeffs, poly_to_jet(p_prod.coef, x0, order).coeffs, atol=1e-12
            )
            np.testing.assert_allclose(
                aim._deriv(u.coeffs),
                poly_to_jet(np.polynomial.Polynomial(pu).deriv().coef, x0, order).coeffs[:-1],
                atol=1e-12,
            )

    def test_division_inverts_multiplication(self):
        x = Jet.variable(0.5, 10)
        expr = (1.0 + x * x) / (2.0 - x)
        back = expr * (2.0 - x)
        np.testing.assert_allclose(back.coeffs, (1.0 + x * x).coeffs, atol=1e-13)

    def test_division_by_vanishing_jet_rejected(self):
        x = Jet.variable(0.0, 5)
        with pytest.raises(ZeroDivisionError):
            (1.0 + x) / x

    def test_scalar_product_is_convolve(self):
        rng = np.random.default_rng(23)
        order = 12
        u = Jet(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        v = Jet(rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1))
        expected = np.convolve(u.coeffs, v.coeffs)[: order + 1]
        assert np.array_equal((u * v).coeffs, expected)

    @pytest.mark.parametrize(
        "operand",
        [np.float64(1.7), np.array(1.7), np.array([1.7, -0.4, 2.5])],
        ids=["float64", "0-d", "1-d"],
    )
    def test_numpy_operands_defer_to_jet(self, operand):
        x = Jet.variable(0.5, 6)
        for result in (
            operand + x, x + operand, operand - x, x - operand,
            operand * x, x * operand, operand / x, x / operand,
        ):
            assert isinstance(result, Jet)
            assert result.coeffs.shape == np.shape(operand) + (7,)
        # an array operand is one constant jet per element
        for i, c in enumerate(np.atleast_1d(operand)):
            np.testing.assert_array_equal(
                np.atleast_2d((operand / x).coeffs)[i], (float(c) / x).coeffs
            )

    def test_batched_ring_operations_match_each_element(self):
        rng = np.random.default_rng(29)
        order, batch = 10, 5
        x = Jet.variable(0.8, order)
        u = Jet(rng.normal(size=(batch, order + 1)) + 0j)
        v = Jet(rng.normal(size=(batch, order + 1)) + 2.0)
        for got, op in (
            (u * v, lambda a, b: a * b),
            (u / v, lambda a, b: a / b),
            (u * x, lambda a, b: a * x),
            (x / v, lambda a, b: x / b),
        ):
            for i in range(batch):
                one = op(Jet(u.coeffs[i]), Jet(v.coeffs[i])).coeffs
                np.testing.assert_allclose(got.coeffs[i], one, rtol=1e-13, atol=1e-13)

    def test_batched_division_by_vanishing_jet_rejected(self):
        x = Jet.variable(0.0, 5)
        with pytest.raises(ZeroDivisionError):
            Jet.constant(np.array([1.0, 2.0]), 5) / x


def _batch_last_product(a, b):
    """The batched truncated product as a loop over the last (coefficient) axis, every row."""
    n = a.shape[-1]
    c = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for j in range(n):
        c[..., j:] += a[..., j : j + 1] * b[..., : n - j]
    return c


def _random_coeffs(rng, shape, constant=False):
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if constant:
        c[..., 1:] = 0.0
    return c


#: (shape of a, shape of b, a constant, b constant) for the batched product's operands.
PRODUCT_SHAPES = [
    pytest.param((13,), (7, 13), False, False, id="1d-2d"),
    pytest.param((7, 13), (13,), False, False, id="2d-1d"),
    pytest.param((7, 13), (7, 13), False, False, id="2d-2d"),
    pytest.param((7, 13), (7, 13), True, False, id="constant-2d"),
    pytest.param((7, 13), (7, 13), False, True, id="2d-constant"),
    pytest.param((13,), (7, 13), True, False, id="1d-constant-2d"),
    pytest.param((7, 13), (13,), True, True, id="constant-1d-constant"),
    pytest.param((3, 1, 13), (4, 13), False, False, id="3d-2d"),
    pytest.param((1,), (5, 1), False, False, id="order-0"),
]


def _lowest_non_finite(c):
    """Per lane, the first coefficient index that is not finite (the order + 1 if none)."""
    bad = ~np.isfinite(c)
    return np.where(bad.any(axis=-1), bad.argmax(axis=-1), c.shape[-1])


def _summed_by_matmul(a_shape, b_shape, a_const):
    """Whether the batched product takes its matmul path: an unbatched a with a row j >= 1."""
    return len(a_shape) == 1 < len(b_shape) and a_shape[-1] > 1 and not a_const


def _rounding_bound(a, b):
    """2 (n + 1) eps sum_j |a_j| |b_{i - j}|: the gap that summing coefficient i in
    another order may leave, n the coefficient count."""
    n = a.shape[-1]
    return 2 * (n + 1) * np.finfo(float).eps * _batch_last_product(abs(a), abs(b)).real


class TestBatchedProduct:
    """The coefficient-major batched product against the batch-last loop it replaced.

    An unbatched factor times a batch is one matmul, which sums in the BLAS
    order: that case agrees with the loop to rounding, every other bit for bit.
    """

    @pytest.mark.parametrize("a_shape, b_shape, a_const, b_const", PRODUCT_SHAPES)
    def test_finite_operands_bit_identical(self, a_shape, b_shape, a_const, b_const):
        rng = np.random.default_rng(31)
        for _ in range(5):
            a = _random_coeffs(rng, a_shape, a_const)
            b = _random_coeffs(rng, b_shape, b_const)
            got = aim._truncated_product(a, b)
            assert got.shape == np.broadcast_shapes(a_shape, b_shape)
            want = _batch_last_product(a, b)
            if _summed_by_matmul(a_shape, b_shape, a_const):
                assert np.all(abs(got - want) <= _rounding_bound(a, b))
            else:
                assert np.array_equal(got, want)

    def test_partly_zero_row_kept(self):
        # a row that is zero in some lanes but not all is multiplied in full
        rng = np.random.default_rng(37)
        a = _random_coeffs(rng, (6, 9), constant=True)
        a[2, 4] = 0.5 - 2.0j
        b = _random_coeffs(rng, (6, 9))
        got = aim._truncated_product(a, b)
        assert np.array_equal(got, _batch_last_product(a, b))
        assert not np.array_equal(got[2], a[2, 0] * b[2])

    @pytest.mark.parametrize("a_shape, b_shape, a_const, b_const", PRODUCT_SHAPES)
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_operands_keep_lowest_index(self, a_shape, b_shape, a_const, b_const, bad):
        # a skipped row's terms are exact zeros, and 0 * inf is NaN where the loop
        # over every row multiplies it out; each lane's first non-finite
        # coefficient, and every coefficient below it, still match
        rng = np.random.default_rng(43)
        for _ in range(8):
            a = _random_coeffs(rng, a_shape, a_const)
            b = _random_coeffs(rng, b_shape, b_const)
            for x, const in ((a, a_const), (b, b_const)):
                lanes = x.reshape(-1, x.shape[-1])
                hit = rng.random(lanes.shape[0]) < 0.5
                index = rng.integers(0, 1 if const else x.shape[-1], size=lanes.shape[0])
                lanes[hit, index[hit]] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                got = aim._truncated_product(a, b)
                want = _batch_last_product(a, b)
                bound = _rounding_bound(a, b)
            lowest = _lowest_non_finite(want)
            assert np.array_equal(_lowest_non_finite(got), lowest)
            below = np.arange(want.shape[-1]) < lowest[..., None]
            if _summed_by_matmul(a_shape, b_shape, a_const):
                assert np.all(abs(got - want)[below] <= bound[below])
            else:
                assert np.array_equal(got[below], want[below])

    def test_row_zero_never_skipped(self):
        # the zero jet times a jet with inf at index 3 of one lane: 0 * inf is NaN
        # from index 3 on in that lane, so row 0 must be multiplied out
        a = np.zeros((4, 9), dtype=complex)
        b = _random_coeffs(np.random.default_rng(53), (4, 9))
        b[2, 3] = np.inf
        with np.errstate(invalid="ignore"):
            got = aim._truncated_product(a, b)
        assert np.array_equal(_lowest_non_finite(got), [9, 9, 3, 9])
        assert not np.any(got[np.isfinite(got)])


class TestRecurrenceIdentity:
    def test_jets_match_symbolic_differentiation(self):
        # oracle: the recurrence carried out in exact polynomial arithmetic.
        # The series rescales each step, and the recurrence is linear in
        # (lambda_k, s_k), so after step k it holds (lambda_k, s_k) / S_k with
        # S_k = max(|lambda_k(x0)|, |s_k(x0)|) of the exact values (S_0 = 1),
        # and delta_k, formed from steps k - 1 and k, is the exact one / S_{k-1}^2
        rng = np.random.default_rng(19)
        x0 = 0.9
        for _ in range(5):
            pl = rng.uniform(-1, 1, size=4)
            ps = rng.uniform(-1, 1, size=4)
            problem = AimProblem(
                lambda e, x, pl=pl: poly_to_jet(pl, x0, x.order),
                lambda e, x, ps=ps: poly_to_jet(ps, x0, x.order),
                x0,
                k_max=4,
            )
            lam_p = np.polynomial.Polynomial(pl)
            s_p = np.polynomial.Polynomial(ps)
            lam0_p, s0_p = lam_p, s_p
            scale = 1.0
            for delta, _ in aim._deltas(problem, 0.0, 4):
                lam_next = lam_p.deriv() + s_p + lam0_p * lam_p
                s_next = s_p.deriv() + s0_p * lam_p
                want = (lam_next(x0) * s_p(x0) - lam_p(x0) * s_next(x0)) / scale**2
                assert abs(delta - want) < 1e-9 * (1 + abs(want))
                scale = max(abs(lam_next(x0)), abs(s_next(x0)))
                lam_p, s_p = lam_next, s_next


class TestHarmonicOscillator:
    def test_ground_state_converges(self):
        problem = oscillator_radial_problem(0, k_max=40)
        root = find_eigenvalue(problem, (1.0, 2.0))
        assert root == pytest.approx(1.5, abs=1e-8)

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_spectrum_exact(self, ell, n):
        target = 2 * n + ell + 1.5
        problem = oscillator_radial_problem(ell, k_max=40)
        k = 2 * n + 6
        fn = lambda e: aim_delta(problem, e, k).real
        root = brentq(fn, target - 0.5, target + 0.5, xtol=1e-12)
        assert root == pytest.approx(target, abs=1e-8)

    def test_delta_scale_invariance(self):
        base = oscillator_radial_problem(0, k_max=30)
        for c in (2.7, -0.6):
            scaled = AimProblem(
                lambda e, x, c=c: base.lambda0(e, x) * c,
                lambda e, x, c=c: base.s0(e, x) * c,
                base.x0,
                k_max=30,
            )
            assert find_eigenvalue(scaled, (1.0, 2.0)) == pytest.approx(1.5, abs=1e-9)


class TestKratzerSeries:
    def test_first_line(self):
        problem = kratzer_radial_problem(3.0, -6.0)
        fn = lambda u: aim_delta(problem, u, 1).real
        root = brentq(fn, 1.8, 2.2, xtol=1e-13)
        assert root == pytest.approx(2.0, abs=1e-10)

    def test_exact_values(self):
        assert aim_exact_kratzer(3.0, -6.0, 0) == pytest.approx(2.0)
        assert aim_exact_kratzer(3.0, -6.0, 1) == pytest.approx(1.5)

    def test_degenerate_line_rejected(self):
        with pytest.raises(AimError):
            aim_exact_kratzer(-2.0, 1.0, 2)
        with pytest.raises(ValueError):
            aim_exact_kratzer(2.0, 1.0, -1)

    def test_exact_matches_numeric_for_table_parameters(self):
        # ground-state parameters of the bundled pseudospin Kratzer table
        zeta, g_d_r = 1.6755386, -2.1702702
        exact = aim_exact_kratzer(zeta, g_d_r, 0).real
        problem = kratzer_radial_problem(zeta, g_d_r)
        fn = lambda u: aim_delta(problem, u, 1).real
        root = brentq(fn, exact - 0.05, exact + 0.05, xtol=1e-13)
        assert root == pytest.approx(exact, abs=1e-8)

    def test_exact_matches_numeric_random(self):
        # the series line n terminates delta_k exactly at k = n + 1
        rng = np.random.default_rng(41)
        for _ in range(20):
            zeta = rng.uniform(1.5, 4.0)
            g_d_r = rng.uniform(-8.0, -2.0)
            n = int(rng.integers(0, 4))
            exact = aim_exact_kratzer(zeta, g_d_r, n).real
            gap = abs(exact - (-g_d_r) / (zeta + n + 1))
            problem = kratzer_radial_problem(zeta, g_d_r, k_max=n + 4)
            fn = lambda u: aim_delta(problem, u, n + 1).real
            half = 0.35 * gap
            root = brentq(fn, exact - half, exact + half, xtol=1e-13)
            assert root == pytest.approx(exact, abs=1e-8)


class TestAngularSeries:
    def test_first_line_numeric(self):
        problem = angular_problem(eta=0.25, ell_eff=1.5)
        fn = lambda q: aim_delta(problem, q, 1).real
        root = brentq(fn, 0.6, 0.9, xtol=1e-13)
        assert root == pytest.approx(0.75, abs=1e-10)

    def test_exact_residual(self):
        assert aim_exact_angular(0.25, 0.5, 1.5, 0) == 0
        assert aim_exact_angular(0.25, 0.5, 1.5, 1) == pytest.approx(1.0)

    def test_closed_forms_satisfy_quantization(self):
        # gamma = 0, a = b = 0, m = 0: eta = 1/4, p = 1/2, ell_eff = 2n' + 3/2
        for n_prime in range(4):
            residual = aim_exact_angular(0.25, 0.5, 2 * n_prime + 1.5, n_prime)
            assert abs(residual) < 1e-14


def _padded_deriv(c):
    """The derivative at the jet's own order: (i + 1) c[i + 1], and 0 at the top."""
    d = np.zeros_like(c)
    d[..., :-1] = c[..., 1:] * np.arange(1, c.shape[-1])
    return d


def _delta_oracle(problem, eigenparameter, k):
    """delta_k by a fresh k-step run of the recurrence on jets of order k_max + 2, as
    find_eigenvalue once did."""
    lam0, s0 = problem.jets(eigenparameter, problem.k_max + 2)
    lam, s = lam0, s0
    for _ in range(k):
        lam_next = Jet(_padded_deriv(lam.coeffs)) + s + lam0 * lam
        s_next = Jet(_padded_deriv(s.coeffs)) + s0 * lam
        delta = lam_next.coeffs[0] * s.coeffs[0] - lam.coeffs[0] * s_next.coeffs[0]
        scale = max(abs(lam_next.coeffs[0]), abs(s_next.coeffs[0]), 1e-300)
        lam, s = lam_next * (1.0 / scale), s_next * (1.0 / scale)
    return delta


def _find_eigenvalue_oracle(problem, interval, *, k_start=3, stab_tol=1e-10, samples=400):
    """The per-k find_eigenvalue: every sample rebuilds its k-step series at every k."""

    def roots_on(k):
        lo, hi = interval
        xs = np.linspace(lo, hi, samples)
        vals = np.array([_delta_oracle(problem, float(x), k).real for x in xs])
        roots = []
        for i in range(len(xs) - 1):
            if (
                np.isfinite(vals[i])
                and np.isfinite(vals[i + 1])
                and np.sign(vals[i]) != np.sign(vals[i + 1])
            ):
                roots.append(
                    brentq(
                        lambda e: _delta_oracle(problem, e, k).real, xs[i], xs[i + 1], xtol=1e-14
                    )
                )
        return roots

    prev = None
    streak = 0
    for k in range(k_start, problem.k_max + 1):
        roots = roots_on(k)
        if not roots:
            prev, streak = None, 0
            continue
        root = roots[0] if prev is None else min(roots, key=lambda r: abs(r - prev))
        if prev is not None and abs(root - prev) < stab_tol:
            streak += 1
            if streak >= 2:
                return root
        else:
            streak = 0
        prev = root
    raise AimError("AIM eigenvalue did not stabilize within k_max iterations")


def _counting(monkeypatch):
    """Counts of the aim_delta and brentq calls made through aim from here on."""
    calls = {"aim_delta": 0, "brentq": 0}
    for name in calls:

        def counting(*args, real=getattr(aim, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(aim, name, counting)
    return calls


def _validate_aim_cases():
    """The distinct (ell, level) oscillator problems of the validation pool's 12 draws."""
    draws = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"]
    return sorted({tuple(d["aim"]) for d in draws})


def _scaled_oscillator(c):
    base = oscillator_radial_problem(0, k_max=30)
    return AimProblem(
        lambda e, x: base.lambda0(e, x) * c, lambda e, x: base.s0(e, x) * c, base.x0, k_max=30
    )


#: find_eigenvalue's roots as float.hex, recorded before the grid samples were
#: batched: the validation pool's (ell, level) oscillator problems (window
#: 2 level + ell + 3/2 +- 0.5) and the Kratzer and angular test problems.
POOL_PINS = {
    (0, 0): "0x1.8000000000000p+0",
    (0, 1): "0x1.c000000000002p+1",
    (0, 2): "0x1.6000000000001p+2",
    (0, 3): "0x1.e000000000000p+2",
    (1, 0): "0x1.4000000000000p+1",
    (1, 1): "0x1.2000000000002p+2",
    (1, 2): "0x1.a000000000004p+2",
    (1, 3): "0x1.1000000000001p+3",
}
PINNED_ROOTS = [
    *(
        pytest.param(
            oscillator_radial_problem(ell, k_max=40),
            (2 * level + ell + 1.0, 2 * level + ell + 2.0),
            pin,
            id=f"oscillator-{ell}-{level}",
        )
        for (ell, level), pin in POOL_PINS.items()
    ),
    pytest.param(
        kratzer_radial_problem(1.6755386, -2.1702702), (1.2, 1.4), "0x1.4b96a1aedf45fp+0",
        id="kratzer",
    ),
    pytest.param(
        angular_problem(eta=0.25, ell_eff=1.5), (0.6, 0.9), "0x1.7fffffffffffdp-1", id="angular"
    ),
]


class TestPinnedRoots:
    def test_pins_cover_the_validation_pool(self):
        assert set(_validate_aim_cases()) == set(POOL_PINS)

    @pytest.mark.parametrize("problem, window, pin", PINNED_ROOTS)
    def test_root_bits_pinned(self, problem, window, pin):
        assert find_eigenvalue(problem, window).hex() == pin


class TestSampleDtype:
    """A real problem's batch samples in float64; the scalar series that brentq polishes,
    and a complex problem's batch, stay complex."""

    @pytest.mark.parametrize("problem, window, _", PINNED_ROOTS)
    def test_real_problem_samples_in_float64(self, problem, window, _):
        batched = aim._deltas(problem, np.linspace(*window, SAMPLES), problem.k_max)
        for delta, bound in batched:
            assert delta.dtype == bound.dtype == np.float64
        for delta, bound in aim._deltas(problem, 1.5, problem.k_max):
            assert delta.dtype == complex
            assert bound.dtype == np.float64

    def test_complex_problem_keeps_a_complex_batch(self):
        # a complex zeta gives the jets nonzero imaginary parts; the batch's
        # real parts still choose the per-sample scalar brackets at every
        # depth up to 12 (sign changes run to depth 10; past 16 the deltas
        # are rounding noise)
        problem = kratzer_radial_problem(1.6755386 + 0.2j, -2.1702702)
        xs = np.linspace(1.2, 1.4, SAMPLES)
        batched = itertools.islice(aim._deltas(problem, xs, problem.k_max), 12)
        scalar = [[delta for delta, _ in aim._deltas(problem, float(x), 12)] for x in xs]
        for k, (got, _) in enumerate(batched, 1):
            want = np.array([deltas[k - 1] for deltas in scalar])
            assert got.dtype == complex
            np.testing.assert_array_equal(np.sign(got.real), np.sign(want.real))
            np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))


class TestResumableSeries:
    """find_eigenvalue extends one batched series over its samples; its roots are the per-k
    rebuild's."""

    @pytest.mark.parametrize("ell, level", _validate_aim_cases())
    def test_validate_problems_bit_identical(self, ell, level):
        target = 2 * level + ell + 1.5
        window = (target - 0.5, target + 0.5)
        problem = oscillator_radial_problem(ell, k_max=40)
        got = find_eigenvalue(problem, window)
        assert got.hex() == _find_eigenvalue_oracle(problem, window).hex()

    @pytest.mark.parametrize(
        "problem, window",
        [
            (oscillator_radial_problem(0, k_max=40), (1.0, 2.0)),
            (_scaled_oscillator(2.7), (1.0, 2.0)),
            (_scaled_oscillator(-0.6), (1.0, 2.0)),
            (kratzer_radial_problem(1.6755386, -2.1702702), (1.2, 1.4)),
            (angular_problem(eta=0.25, ell_eff=1.5), (0.6, 0.9)),
        ],
        ids=["oscillator", "scaled+2.7", "scaled-0.6", "kratzer", "angular"],
    )
    def test_test_problems_bit_identical(self, problem, window):
        got = find_eigenvalue(problem, window)
        assert got.hex() == _find_eigenvalue_oracle(problem, window).hex()

    @pytest.mark.parametrize(
        "problem, x",
        [
            (oscillator_radial_problem(1, k_max=40), 8.3),
            (kratzer_radial_problem(3.0, -6.0), 1.9),
            (angular_problem(eta=0.25, ell_eff=1.5), 0.71),
        ],
        ids=["oscillator", "kratzer", "angular"],
    )
    def test_each_depth_equals_aim_delta(self, problem, x):
        deltas = [delta for delta, _ in aim._deltas(problem, x, problem.k_max)]
        assert deltas == [aim_delta(problem, x, k) for k in range(1, problem.k_max + 1)]
        assert deltas == [_delta_oracle(problem, x, k) for k in range(1, problem.k_max + 1)]

    @pytest.mark.parametrize("problem, window, _", PINNED_ROOTS)
    def test_batched_samples_choose_the_scalar_brackets(self, monkeypatch, problem, window, _):
        # find_eigenvalue reads the sampled deltas only through their sign and
        # finiteness; at every depth it visits, those of the one batched series
        # equal those of a scalar series per sample, so its brackets are the
        # per-sample brackets and its polished roots keep their bits
        depths = []
        real_polish = aim._polish

        def recording(problem, a, b, k):
            depths.append(k)
            return real_polish(problem, a, b, k)

        monkeypatch.setattr(aim, "_polish", recording)
        find_eigenvalue(problem, window)
        xs = np.linspace(*window, SAMPLES)
        depth = max(depths)
        batched = itertools.islice(aim._deltas(problem, xs, problem.k_max), depth)
        scalar = [[delta.real for delta, _ in aim._deltas(problem, float(x), depth)] for x in xs]
        for k, (delta, _) in enumerate(batched, 1):
            got = delta.real
            want = np.array([deltas[k - 1] for deltas in scalar])
            assert got.shape == xs.shape
            np.testing.assert_array_equal(np.sign(got), np.sign(want))
            np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
            # summation order is the batch's own, so values agree to rounding;
            # the Kratzer deltas lose about a digit per depth to cancellation
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_validate_polish_work_pinned(self, monkeypatch):
        # the 12 validate draws' AIM legs polish 39 brackets with 235 scalar
        # deltas (the traced seed-1 counts); the batch only chooses brackets,
        # so a batch that chose any other bracket would move these counts
        calls = _counting(monkeypatch)
        draws = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"]
        assert len(draws) == 12
        for ell, level in (d["aim"] for d in draws):
            target = 2 * level + ell + 1.5
            find_eigenvalue(oscillator_radial_problem(ell, k_max=40), (target - 0.5, target + 0.5))
        assert calls == {"aim_delta": 235, "brentq": 39}

    def test_empty_window_polishes_once_per_depth(self, monkeypatch):
        # no eigenvalue in this window: the deltas of the last five depths are
        # rounding noise with 77 to 228 sign changes each (943 brentq calls
        # when each was polished), and only one per depth is polished
        calls = _counting(monkeypatch)
        problem = oscillator_radial_problem(0, k_max=40)
        with pytest.raises(AimError, match="did not stabilize"):
            find_eigenvalue(problem, (1.6, 2.4))
        assert calls["brentq"] <= problem.k_max - K_START + 1

    def test_window_with_several_eigenvalues(self, monkeypatch):
        # E = 1.5, 3.5 and 5.5 lie in the window: the lowest sign change is
        # polished first, then tracked, one brentq per depth (8 when every
        # sign change was polished), and the root is the polish-all one
        calls = _counting(monkeypatch)
        problem = oscillator_radial_problem(0, k_max=40)
        got = find_eigenvalue(problem, (1.0, 6.0))
        assert calls["brentq"] == 3
        assert got.hex() == "0x1.8000000000001p+0"
        assert got.hex() == _find_eigenvalue_oracle(problem, (1.0, 6.0)).hex()

    def test_noise_brackets_passed_over(self, monkeypatch):
        # no eigenvalue in this window: at deep k the oscillator deltas lose
        # most of their digits and some batched samples differ in sign from
        # the scalar ones; brentq finds no scalar bracket on such a panel,
        # which is skipped (six of them here), so the search ends as the
        # per-sample one did
        refused = []
        real_brentq = aim.brentq

        def recording(f, a, b, **kwargs):
            try:
                return real_brentq(f, a, b, **kwargs)
            except ValueError:
                refused.append((a, b))
                raise

        monkeypatch.setattr(aim, "brentq", recording)
        problem = oscillator_radial_problem(0, k_max=40)
        with pytest.raises(AimError, match="did not stabilize"):
            find_eigenvalue(problem, (4.6, 5.0))
        assert refused

    @pytest.mark.parametrize(
        "interval",
        [(float("nan"), 2.0), (1.0, float("inf")), (-float("inf"), 2.0), (2.0, 1.0), (1.5, 1.5)],
    )
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval"):
            find_eigenvalue(oscillator_radial_problem(0, k_max=40), interval)

    # the sample count, first depth and stabilization tolerance are module
    # constants: find_eigenvalue takes none of them, at any value
    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_too_few_samples_rejected(self, samples):
        with pytest.raises(TypeError, match="samples"):
            find_eigenvalue(oscillator_radial_problem(0, k_max=40), (1.0, 2.0), samples=samples)

    @pytest.mark.parametrize("name, value", [("k_start", 3), ("stab_tol", 1e-10)])
    def test_iteration_settings_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            find_eigenvalue(oscillator_radial_problem(0, k_max=40), (1.0, 2.0), **{name: value})


def _validate_kratzer_window(draw):
    """(problem, window, u*) of a validate draw's radial Kratzer series at its strict root:
    u* = -gamma De re / (zeta + n), the window u* +- 0.35 of the gap to line n + 1."""
    n, n_prime, m = draw["qn"]
    spec = spectrum.table_spec(3, n, n_prime, m, *draw["ring"])
    coeffs = derive_coefficients(spec, draw["reference"]["root"])
    zeta = coeffs.zeta.real
    g_d_r = (coeffs.gamma * spec.potential.d_e * spec.potential.r_e).real
    u_star = -g_d_r / (zeta + n)
    half = 0.35 * abs(u_star + g_d_r / (zeta + n + 1))
    return kratzer_radial_problem(zeta, g_d_r), (u_star - half, u_star + half), u_star


class TestExcitedKratzerWindows:
    """find_eigenvalue on the validate draws' own radial series, excited lines included:
    right, or AimError, never a wrong value."""

    @pytest.mark.parametrize("index", range(12))
    def test_right_or_refused(self, index):
        # on the excited lines deep delta_k is rounding noise on the whole
        # window, and a sign change of noise is no eigenvalue: draws 6, 10 and
        # 11 stop there with AimError (draw 11 once returned a value 8.2e-2 off)
        draw = json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"][index]
        problem, window, u_star = _validate_kratzer_window(draw)
        try:
            root = find_eigenvalue(problem, window)
        except AimError as exc:
            assert "did not stabilize" in str(exc)
        else:
            assert abs(root - u_star) <= 1e-8


class TestDepthChecked:
    """delta_k is served for an int k in 1..k_max, the depths the problem declares."""

    def test_past_k_max_rejected(self):
        # k_max bounds every depth a problem serves, find_eigenvalue's search
        # included, for a scalar or an array eigenparameter alike
        problem = oscillator_radial_problem(0, k_max=6)
        for e in (1.4, 1.6):
            with pytest.raises(ValueError, match="k_max = 6"):
                aim_delta(problem, e, 9)
        with pytest.raises(ValueError, match="k_max = 6"):
            aim_delta(problem, 1.5, 7)
        with pytest.raises(ValueError, match="k_max = 6"):
            aim_delta(problem, np.array([1.4, 1.6]), 7)
        assert np.isfinite(aim_delta(problem, 1.4, 6))

    @pytest.mark.parametrize("k", [0, -2])
    def test_below_one_rejected(self, k):
        problem = oscillator_radial_problem(0, k_max=6)
        with pytest.raises(ValueError, match="1 <= k"):
            aim_delta(problem, 1.4, k)
        with pytest.raises(ValueError, match="1 <= k"):
            aim_delta(problem, np.array([1.4, 1.6]), k)

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "2", None], ids=repr)
    def test_non_int_rejected(self, k):
        problem = oscillator_radial_problem(0, k_max=6)
        with pytest.raises(ValueError, match="must be an int"):
            aim_delta(problem, 1.4, k)
        with pytest.raises(ValueError, match="must be an int"):
            aim_delta(problem, np.array([1.4, 1.6]), k)

    def test_numpy_int_accepted(self):
        problem = oscillator_radial_problem(0, k_max=6)
        assert aim_delta(problem, 1.4, np.int64(3)) == aim_delta(problem, 1.4, 3)
