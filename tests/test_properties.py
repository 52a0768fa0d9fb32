"""Invariants of the spectral residual on drawn real-sector specs, and the
oracle's levels against their closed forms over each solver's domain.

Derandomized hypothesis draws with small example counts, so the suite stays
deterministic and fast.
"""

import cmath
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from drsbound import spectrum
from drsbound.oracle import DivergenceError, fd_angular_eigs, fd_radial_eigs
from drsbound.model import (
    Kratzer,
    Oscillator,
    PhysicalParams,
    ProblemSpec,
    Pseudospin,
    QuantumNumbers,
    RingParams,
    Spin,
    branch_sqrt,
)
from drsbound.spectrum import (
    POLISH_GROW_STEPS,
    BranchStrategy,
    SpectralPoleError,
    _condition,
    _raise_at_pole,
    residual,
)
from test_spectrum import (
    MATCH_TOLS,
    _bits,
    _full_polynomial_roots,
    _public_squared_polynomial,
    _root_bits,
    _scan_one_branch,
    _squared_polynomial_oracle,
    _taken_polynomial_roots,
    _within,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

strength = st.floats(0.0, 4.0)
quantum = st.integers(0, 5)
energy = st.floats(-30.0, 30.0)
branch = st.builds(BranchStrategy, st.sampled_from((1, -1)), st.sampled_from((1, -1)))


@st.composite
def real_specs(draw, potential=None):
    """A ProblemSpec with real parameters, nonnegative ring strengths and any m."""
    symmetry = draw(
        st.one_of(st.builds(Spin, st.floats(-8.0, 8.0)), st.builds(Pseudospin, st.floats(-8.0, 8.0)))
    )
    if potential is None:
        potential = draw(st.sampled_from(("kratzer", "oscillator")))
    if potential == "kratzer":
        pot = Kratzer(draw(st.floats(0.5, 30.0)), draw(st.floats(0.1, 2.0)))
    else:
        pot = Oscillator(draw(st.floats(0.1, 5.0)))
    return ProblemSpec(
        symmetry=symmetry,
        potential=pot,
        ring=RingParams(draw(strength), draw(strength)),
        params=PhysicalParams(draw(st.floats(0.5, 10.0))),
        qn=QuantumNumbers(n=draw(quantum), n_prime=draw(quantum), m=draw(st.integers(-5, 5))),
    )


def residual_or_pole(e, spec, br):
    try:
        return residual(e, spec, br)
    except SpectralPoleError:
        return "pole"


def same(x, y):
    if isinstance(x, complex) and isinstance(y, complex) and cmath.isnan(x) and cmath.isnan(y):
        return True
    return x == y


@PROPERTY_SETTINGS
@given(real_specs(), energy, branch)
def test_residual_is_even_in_m(spec, e, br):
    flipped = replace(spec, qn=replace(spec.qn, m=-spec.qn.m))
    assert same(residual_or_pole(e, spec, br), residual_or_pole(e, flipped, br))


@PROPERTY_SETTINGS
@given(real_specs("oscillator"), energy, branch, quantum, quantum)
def test_oscillator_residual_depends_on_n_plus_n_prime(spec, e, br, n, n_prime):
    here = replace(spec, qn=replace(spec.qn, n=n, n_prime=n_prime))
    moved = replace(spec, qn=replace(spec.qn, n=n + n_prime, n_prime=0))
    signs = br.sigma_rhs, br.sigma_inner
    lhs, rhs, _ = _condition(complex(e), here, *signs, branch_sqrt, _raise_at_pole)
    assert abs(lhs - rhs - residual(e, moved, br)) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@PROPERTY_SETTINGS
@given(real_specs("oscillator"), energy, branch)
def test_oscillator_residual_ignores_sigma_inner(spec, e, br):
    flipped = BranchStrategy(br.sigma_rhs, -br.sigma_inner)
    assert same(residual(e, spec, br), residual(e, spec, flipped))


def _mapped_pseudospin_form(spec, e_spin, br):
    """The printed pseudospin Kratzer residual under the full substitution.

    E -> -E, C_ps -> -C_s and V -> -V, which flips d_e and the ring
    strengths; written out from the paper's pseudospin form, not through
    the package's conditions.
    """
    m_, c_s = spec.mass, spec.symmetry.constant
    d_e, r_e = spec.potential.d_e, spec.potential.r_e
    e = -complex(e_spin)
    c_ps, d_flip, a_flip, b_flip = -c_s, -d_e, -spec.ring.a, -spec.ring.b
    g = e - m_ - c_ps
    omega = cmath.sqrt(a_flip * g + 0.25) + cmath.sqrt(b_flip * g + spec.qn.m**2)
    big = cmath.sqrt((omega + 2 * spec.qn.n_prime + 1) ** 2 + g * d_flip * r_e**2)
    den = spec.qn.n + 0.5 + br.sigma_inner * big
    return (e + m_) / (m_ - e + c_ps) - br.sigma_rhs * (d_flip * r_e) ** 2 / den**2


spin_kratzer_specs = real_specs("kratzer").map(
    lambda spec: replace(spec, symmetry=Spin(spec.symmetry.constant))
)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(spin_kratzer_specs, st.one_of(energy, st.builds(complex, energy, st.floats(-10.0, 10.0))), branch)
def test_spin_pseudospin_map_residual_identity(spec, e, br):
    # `spin_pseudospin_map`'s formula-level identity: the pseudospin form at
    # -E under the full substitution is minus the spin residual at E (on
    # 24,844 draws of this strategy it held bit for bit)
    try:
        res = residual(e, spec, br)
    except SpectralPoleError:
        return
    assert res == pytest.approx(-_mapped_pseudospin_form(spec, e, br), rel=1e-12)


#: A spin Kratzer spec whose roots sit 1e-5 from E = M, next to the lhs pole
#: at E = C_s - M: the eliminant's zeros there scatter on a circle of radius
#: about 0.6 around the real roots, and only their inclusion disks, of radius
#: about 1, reach them.
NEAR_POLE_CLUSTER = ProblemSpec(
    symmetry=Spin(7.984375),
    potential=Kratzer(0.5, 0.125),
    ring=RingParams(1.0, 2.0),
    params=PhysicalParams(4.0),
    qn=QuantumNumbers(n=0, n_prime=0, m=1),
)


@PROPERTY_SETTINGS
@given(real_specs())
@example(NEAR_POLE_CLUSTER)
def test_seeded_scan_equals_full_scan(spec):
    # at a coarse grid the full sign-change scan is cheap enough to draw specs for
    interval = (-spec.mass - 20.0, spec.mass + 20.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "PANELS_PER_UNIT", 200)
        got = spectrum._scan_branches(spec, interval)
    search = spectrum._search_branches(spec)
    assert got == [_scan_one_branch(spec, br, interval, 200) for br in search]


central_specs = real_specs().map(lambda spec: replace(spec, ring=RingParams(0.0, 0.0)))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(central_specs, st.sampled_from((1, -1)))
def test_central_squared_polynomial_equals_closed_form(spec, sigma_rhs):
    # the eliminant at a = b = 0 keeps the closed forms' rounding, not only their value
    got = _public_squared_polynomial(spec, sigma_rhs)
    assert list(map(_bits, got)) == list(map(_bits, _squared_polynomial_oracle(spec, sigma_rhs)))


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(central_specs, st.floats(-2.0, 2.0))
def test_near_value_polynomial_path_equals_full_path(spec, offset):
    # values at each near-real eliminant zero x, at x + offset (match_tol + reach)
    # with reach the span-1e-6 polish's widest half-bracket, and match_tol
    # either side of each root of the full path
    reach = 1e-6 * 2.0 ** (POLISH_GROW_STEPS - 1)
    full = _full_polynomial_roots(spec)
    xs = [z.real for _, zs in spec._eliminant_zeros for z in zs if abs(z.imag) < 1e-6]
    for match_tol in MATCH_TOLS:
        values = [x + d for x in xs for d in (0.0, offset * (match_tol + reach))]
        values += [r.energy.real + d for r in full for d in (-match_tol, match_tol)]
        for v in values:
            taken, _ = _taken_polynomial_roots(spec, v, match_tol)
            assert _root_bits(taken) == _root_bits(_within(full, v, match_tol))


# The oracle's levels on each solver's domain, not only where the tables and
# validate's draws reach; the angular draws take gamma > 0 down to the
# smallest float, and ring strengths with 0 and values near it drawn often.
gamma_pos = st.floats(0.0, 20.0, exclude_min=True)
weak_strength = st.one_of(st.just(0.0), st.floats(0.0, 1e-6), strength)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(gamma_pos, weak_strength, weak_strength, st.integers(-4, 4), st.integers(0, 5))
def test_angular_level_is_the_quantization_rule(gamma, a, b, m, n_prime):
    # (sqrt(gamma a + 1/4) + sqrt(gamma b + m^2) + 2 n' + 1)^2; the former FD
    # level missed it by up to 1e-2 where m = 0 and gamma b is small
    exact = (math.sqrt(gamma * a + 0.25) + math.sqrt(gamma * b + m * m) + 2 * n_prime + 1) ** 2
    assert abs(fd_angular_eigs(gamma, RingParams(a, b), m, n_prime) - exact) <= 1e-12 * exact


#: gamma of the radial properties, and L^2 = ell_eff^2: at L^2 >= 1/4 the
#: Frobenius exponent s is at least 1 (every polar level is at least 9/4)
radial_gamma = st.floats(1e-6, 20.0)
ell_eff_sq = st.floats(0.25, 30.0)


@PROPERTY_SETTINGS
@given(radial_gamma, st.floats(0.5, 30.0), st.floats(0.1, 2.0), ell_eff_sq, st.integers(0, 5), st.booleans())
def test_kratzer_radial_level_is_hydrogenic(gamma, d_e, r_e, ell_eff_sq, n, with_b):
    # -(gamma D_e r_e)^2 / (n + 1/2 + sqrt(L^2 + gamma D_e r_e^2))^2, with the
    # scale from the level itself or from the solver's own estimate.  Only a
    # level within 1e-3 of the continuum may fail to settle, and one that
    # settles there meets the settling tolerance, 1e-10 absolute
    c = gamma * d_e * r_e
    exact = -(c * c) / (n + 0.5 + math.sqrt(ell_eff_sq + c * r_e)) ** 2
    try:
        level = fd_radial_eigs(Kratzer(d_e, r_e), gamma, ell_eff_sq, n, exact if with_b else None)
    except DivergenceError:
        assert abs(exact) < 1e-3
        return
    assert abs(level - exact) <= 1e-12 * abs(exact) + 1e-10


@PROPERTY_SETTINGS
@given(radial_gamma, st.floats(0.05, 10.0), ell_eff_sq, st.integers(0, 5))
def test_oscillator_radial_level(gamma, k, ell_eff_sq, n):
    # sqrt(2 gamma k) (2 n + 1 + L)
    exact = math.sqrt(2.0 * gamma * k) * (2 * n + 1 + math.sqrt(ell_eff_sq))
    assert abs(fd_radial_eigs(Oscillator(k), gamma, ell_eff_sq, n, None) - exact) <= 1e-12 * (1.0 + exact)
