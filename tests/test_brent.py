"""drsbound.brent is scipy's brentq, bit for bit.

The package's root searches polish every bracket with the port; these tests
run scipy's brentq beside it on every bracket the bundled workloads hand it,
and on the edge cases where the two could part: errors, exact zeros at an
endpoint and the float type of what goes in and out.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from drsbound import aim, spectrum
from drsbound.brent import MAXITER, brentq

REFERENCE_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _outcome(solver, f, a, b, **kwargs):
    """The root as float.hex, or the type and message of the exception raised."""
    try:
        return solver(f, a, b, **kwargs).hex()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


def _twin(calls):
    """A brentq that runs the port and scipy's on each call and records both outcomes.

    The callers' functions close over loop variables, so both solvers must
    run while the call is live, not when the calls are replayed.
    """

    def twin(f, a, b, **kwargs):
        port = _outcome(brentq, f, a, b, **kwargs)
        calls.append((a, b, port, _outcome(scipy_brentq, f, a, b, **kwargs)))
        return brentq(f, a, b, **kwargs)

    return twin


def _validate_pool():
    """The validate pool's draws: strict spin-Kratzer searches and AIM eigenvalues."""
    for draw in json.loads((REFERENCE_DIR / "validate.json").read_text())["draws"]:
        n, n_prime, m = draw["qn"]
        spectrum.find_roots(spectrum.table_spec(3, n, n_prime, m, *draw["ring"]), mode="strict")
        ell, level = draw["aim"]
        target = 2 * level + ell + 1.5
        window = (target - 0.5, target + 0.5)
        aim.find_eigenvalue(aim.oscillator_radial_problem(ell, k_max=40), window)


def _tables():
    for table in (1, 2, 3, 4):
        for n, n_prime, m, a, b, _values in spectrum.load_table_data(table):
            spec = spectrum.table_spec(table, n, n_prime, m, a, b)
            for mode in ("strict", "paper-compat"):
                spectrum.find_roots(spec, mode=mode)


WORKLOADS = {"tables": _tables, "validate": _validate_pool}


@pytest.fixture(scope="module")
def recorded(instrumented_audit):
    """Workload name -> (a, b, port outcome, scipy outcome) of each brentq call it makes.

    The "audits" workload, `audit_table(1..4)`, is the shared instrumented pass.
    """
    out = {"audits": instrumented_audit.brackets}
    with pytest.MonkeyPatch.context() as mp:
        for name, run in WORKLOADS.items():
            out[name] = []
            for module in (spectrum, aim):
                mp.setattr(module, "brentq", _twin(out[name]))
            run()
    return out


class TestWorkloadBrackets:
    @pytest.mark.parametrize("workload", sorted([*WORKLOADS, "audits"]))
    def test_port_equals_scipy_on_every_bracket(self, recorded, workload):
        calls = recorded[workload]
        assert len(calls) > 50
        mismatched = [c for c in calls if c[2] != c[3]]
        assert not mismatched, mismatched[:5]

    def test_no_workload_bracket_raises(self, recorded):
        assert all(isinstance(c[2], str) for calls in recorded.values() for c in calls)
        assert sum(map(len, recorded.values())) > 1000


def _both(f, a, b, **kwargs):
    port = _outcome(brentq, f, a, b, **kwargs)
    assert port == _outcome(scipy_brentq, f, a, b, **kwargs)
    return port


class TestErrorParity:
    def test_same_sign_endpoints(self):
        assert _both(lambda x: x * x + 1.0, -1.0, 1.0, xtol=2e-12)[0] is ValueError

    @pytest.mark.parametrize("where", ["a", "b", "inside"])
    def test_nan_value(self, where):
        def f(x):
            bad = {"a": x == -1.0, "b": x == 1.0, "inside": 0.2 < x < 0.3}[where]
            return math.nan if bad else x - 0.25

        assert _both(f, -1.0, 1.0, xtol=2e-12)[0] is ValueError

    @pytest.mark.parametrize("xtol", [0.0, -1e-3])
    def test_nonpositive_xtol(self, xtol):
        assert _both(lambda x: x, -1.0, 1.0, xtol=xtol)[0] is ValueError

    def test_no_convergence_after_maxiter(self):
        # a step at 1e-250 under a 1e-300 tolerance needs ~830 bisections
        step = lambda x: -1.0 if x < 1e-250 else 1.0  # noqa: E731
        kind, message = _both(step, -1.0, 1.0, xtol=1e-300)
        assert kind is RuntimeError and str(MAXITER) in message

    @pytest.mark.parametrize("scale", [1e-100, 1e-160, 1e-300])
    @pytest.mark.parametrize(
        "g", [lambda x: x**3 - 0.3, lambda x: math.exp(x) - 1.5], ids=["cubic", "exp"]
    )
    def test_tiny_values_underflow_the_extrapolation(self, scale, g):
        # below about 1e-120 the extrapolation step divides by an underflowed 0
        assert isinstance(_both(lambda x: scale * g(x), -1.0, 1.0, xtol=1e-14), str)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0), (-0.0, 1.0)])
    def test_exact_zero_at_an_endpoint_is_returned(self, a, b):
        assert _both(lambda x: 3.0 * x, a, b, xtol=2e-12) == (a if a == 0 else b).hex()

    def test_zero_valued_endpoint_away_from_origin(self):
        f = lambda x: (x - 2.0) * (x + 5.0)  # noqa: E731
        assert _both(f, 2.0, 9.0, xtol=2e-12) == (2.0).hex()
        assert _both(f, -9.0, -5.0, xtol=2e-12) == (-5.0).hex()


class TestFloatTypes:
    def test_numpy_endpoints_reach_f_as_float(self):
        seen = {brentq: set(), scipy_brentq: set()}
        for solver, types in seen.items():

            def f(x, types=types):
                types.add(type(x))
                return math.cos(x) - x

            solver(f, np.float64(0.0), np.float64(1.0), xtol=1e-14)
        assert seen[brentq] == seen[scipy_brentq] == {float}

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: np.float64(x) - 0.3, np.float64(0.0), np.float64(1.0)),
            (lambda x: x, np.float64(0.0), 1.0),
            (lambda x: np.array(x) ** 3 - 2.0, 0, 2),
        ],
        ids=["float64-values", "zero-endpoint", "array-value-int-endpoints"],
    )
    def test_result_is_float(self, f, a, b):
        got = brentq(f, a, b, xtol=1e-14)
        assert type(got) is float
        assert got.hex() == scipy_brentq(f, a, b, xtol=1e-14).hex()
