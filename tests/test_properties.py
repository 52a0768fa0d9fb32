"""Invariants of the spectral residual on drawn real-sector specs.

Derandomized hypothesis draws with small example counts, so the suite stays
deterministic and fast.
"""

import cmath
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from drsbound.model import (
    Kratzer,
    Oscillator,
    PhysicalParams,
    ProblemSpec,
    Pseudospin,
    QuantumNumbers,
    RingParams,
    Spin,
)
from drsbound.spectrum import (
    POLISH_GROW_STEPS,
    BranchStrategy,
    SpectralPoleError,
    _residual_scaled,
    _scan_branches,
    principal_branches,
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
    flipped = spec.with_qn(m=-spec.qn.m)
    assert same(residual_or_pole(e, spec, br), residual_or_pole(e, flipped, br))


@PROPERTY_SETTINGS
@given(real_specs("oscillator"), energy, branch, quantum, quantum)
def test_oscillator_residual_depends_on_n_plus_n_prime(spec, e, br, n, n_prime):
    here = spec.with_qn(n=n, n_prime=n_prime)
    moved = spec.with_qn(n=n + n_prime, n_prime=0)
    r1, scale = _residual_scaled(e, here, br)
    r2, _ = _residual_scaled(e, moved, br)
    assert abs(r1 - r2) <= 1e-12 * scale


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
    got = _scan_branches(spec, principal_branches(), interval, 200)
    assert got == [_scan_one_branch(spec, br, interval, 200) for br in principal_branches()]


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
