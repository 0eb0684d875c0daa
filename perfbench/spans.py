"""Spans and counts recorded around corrpress's public calls.

The benchmark adds nothing inside the package.  While tracing is on,
every public function named in LAYERS is replaced, in every corrpress
module that holds it, by a wrapper that records one span per call:
name, start, end, parent span and request id, plus the counts the
call's inputs and result expose.  Spans stay in memory until the run
ends.  Calls nested inside another traced call (for example the
spectral pressures inside decomposition_pressure) become its children,
so a layer's self time is its span minus the traced spans it covers.
"""

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _spectral_counts(args, kwargs, result):
    return {"max_component_states": max(len(c) for c in result.components)}


def _grid_counts(args, kwargs, result):
    return {"edges": result.corr.n_edges}


def _aentropy_counts(args, kwargs, result):
    return {"iterations": result.iterations,
            "converged": float(result.converged),
            "boundary": float(result.boundary)}


def _amp_counts(args, kwargs, result):
    return {"candidates": result.candidates}


def _mpressure_counts(args, kwargs, result):
    return {"iterations": result.iterations,
            "face": float(result.face_restricted)}


def marginal_rank(corr):
    """Rank of the balance-plus-mass system the vertex search solves."""
    a = np.zeros((corr.n_states + 1, corr.n_edges))
    for k, (i, j) in enumerate(corr.edges):
        a[i, k] += 1.0
        a[j, k] -= 1.0
    a[-1, :] = 1.0
    return int(np.linalg.matrix_rank(a))


def _extremes_counts(args, kwargs, result):
    corr = args[0]
    # computed from the input, not observed: the basis search visits
    # every column subset of size rank
    return {"pair_vertices": len(result.pair_vertices),
            "bases_tried": math.comb(corr.n_edges, marginal_rank(corr))}


def _invariance_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "both")
    return "polytope.is_invariant." + mode


# (module, function, span name or a function of the call's arguments,
#  counts taken from the call)
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("intervals", "grid_discretize", "intervals.grid_discretize", _grid_counts),
    ("intervals", "markov_model", "intervals.markov_model", None),
    ("pressure", "spectral_pressure", "pressure.spectral_pressure",
     _spectral_counts),
    ("pressure", "path_pressure_sequence", "pressure.path_pressure_sequence",
     None),
    ("pressure", "decomposition_pressure", "pressure.decomposition_pressure",
     None),
    ("variational", "gibbs_equilibrium", "variational.gibbs_equilibrium", None),
    ("variational", "measure_pressure", "variational.measure_pressure",
     _mpressure_counts),
    ("variational", "abstract_kernel_entropy",
     "variational.abstract_kernel_entropy", _aentropy_counts),
    ("variational", "abstract_measure_pressure",
     "variational.abstract_measure_pressure", _amp_counts),
    ("variational", "directional_derivative",
     "variational.directional_derivative", None),
    ("kernels", "kernel_entropy", "kernels.kernel_entropy", None),
    ("kernels", "stationary_measures", "kernels.stationary_measures", None),
    ("polytope", "invariant_polytope_extremes",
     "polytope.invariant_polytope_extremes", _extremes_counts),
    ("polytope", "extremal_decomposition", "polytope.extremal_decomposition",
     None),
    ("polytope", "is_invariant", _invariance_name, None),
)


@dataclass
class Span:
    request: int
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def record(self):
        return {"request": self.request, "span": self.span_id,
                "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    """Owns the span list and the patched module attributes."""

    def __init__(self):
        self.spans = []
        self.notes = []
        self._stack = []
        self._request = None
        self._patched = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and
                   (name == "corrpress" or name.startswith("corrpress."))]
        for mod_name, func_name, span_name, counts in LAYERS:
            original = getattr(sys.modules["corrpress." + mod_name], func_name)
            wrapper = self._wrap(original, span_name, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, func, span_name, counts):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._request is None:
                return func(*args, **kwargs)
            name = span_name(args, kwargs) if callable(span_name) else span_name
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def _open(self, name):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._request, len(self.spans), parent, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_request(self, request_id):
        self._request = request_id
        return self._open("request")

    def end_request(self, root):
        self._close(root)
        self._request = None

    def note(self, key, value):
        """Record a count for the open request, from the benchmark's side."""
        self.notes.append((self._request, key, float(value)))


def self_times(spans):
    """Span id -> duration minus the traced spans directly inside it."""
    own = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
