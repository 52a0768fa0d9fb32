"""Spans and counters around drsbound's public functions, installed from outside.

The tracer replaces module attributes; it never edits the package.  A
function defined in drsbound is replaced in its home module and in every
drsbound module that bound it with `from ... import`, so `cli.find_roots`
and `wavefun.derive_coefficients` are traced too.  A third-party function
(`brentq`, `eigh_tridiagonal`) is replaced only in the module named, so each
binding gets its own counter.

Spans record name, start, end and parent, in CPU seconds of the calling
thread, the clock of the benchmark's item latencies; hot scalar functions
get counters only, because a timer on every call would dominate what it
measures.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import thread_time

#: metric name -> (module, attribute, record len(result) as ".<size>")
SPANS = {
    "spectrum.find_roots": ("drsbound.spectrum", "find_roots", "roots"),
    "spectrum.complex_zeros_drso": ("drsbound.spectrum", "complex_zeros_drso", "zeros"),
    "spectrum.classify_value": ("drsbound.spectrum", "classify_value", None),
    "oracle.self_consistent_energy": ("drsbound.oracle", "self_consistent_energy", None),
    "oracle.fd_angular_eigs": ("drsbound.oracle", "fd_angular_eigs", None),
    "oracle.fd_radial_eigs": ("drsbound.oracle", "fd_radial_eigs", None),
    "oracle.nonrel_energy_fd": ("drsbound.oracle", "nonrel_energy_fd", None),
    "aim.find_eigenvalue": ("drsbound.aim", "find_eigenvalue", None),
    "wavefun.verify_normalization": ("drsbound.wavefun", "verify_normalization", None),
}

#: metric name -> [(module, attribute), ...]; counted, not timed
COUNTERS = {
    "spectrum.residual": [("drsbound.spectrum", "residual")],
    "spectrum.squared_form": [("drsbound.spectrum", "squared_form")],
    "spectrum.brentq": [("drsbound.spectrum", "brentq")],
    "spectrum.squared_polynomial": [
        ("drsbound.spectrum", "squared_polynomial_drso"),
        ("drsbound.spectrum", "squared_polynomial_drsk"),
    ],
    "model.branch_sqrt": [("drsbound.model", "branch_sqrt")],
    "model.derive_coefficients": [("drsbound.model", "derive_coefficients")],
    "oracle.eigh_tridiagonal": [("drsbound.oracle", "eigh_tridiagonal")],
    "nonrel.energy_kratzer_nr": [("drsbound.nonrel", "energy_kratzer_nr")],
    "aim.aim_delta": [("drsbound.aim", "aim_delta")],
    "aim.brentq": [("drsbound.aim", "brentq")],
    "wavefun.assemble_component": [("drsbound.wavefun", "assemble_component")],
    "specfun": [
        ("drsbound.specfun", name)
        for name in (
            "gamma_fn", "pochhammer", "hyp1f1_terminating", "hyp2f1_terminating",
            "laguerre", "jacobi", "jacobi_norm_integral", "jacobi_weight_norm_integral",
            "laguerre_norm_integrals",
        )
    ],
}


class Tracer:
    """Records spans ([name, start, end, parent index]) and call counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.failed = Counter()
        self.sizes = Counter()
        self._stack = []
        self._patched = []

    def open(self, name):
        """Start a span by hand (the benchmark's own per-item root span)."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, thread_time(), None, parent])

    def close(self):
        self.spans[self._stack.pop()][2] = thread_time()

    def _span(self, name, fn, size):
        counts, failed, sizes = self.counts, self.failed, self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed[name] += 1
                raise
            finally:
                self.close()
            if size:
                sizes[name] += len(out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module, attr, make):
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        targets = [(module, sys.modules[module])]
        if getattr(original, "__module__", "") == module:
            targets = [
                (name, mod)
                for name, mod in list(sys.modules.items())
                if name.startswith("drsbound") and getattr(mod, attr, None) is original
            ]
        for _name, mod in targets:
            setattr(mod, attr, wrapped)
            self._patched.append((mod, attr, original))

    def install(self):
        for name, (module, attr, size) in SPANS.items():
            self._replace(module, attr, lambda fn, n=name, s=size: self._span(n, fn, s))
        for name, targets in COUNTERS.items():
            for module, attr in targets:
                self._replace(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def times(self):
        """Per span name: (total seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover;
        children never overlap on one thread, so that is their summed
        duration.  Nested spans of the same name are not counted twice in
        the total.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, own
