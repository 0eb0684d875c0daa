"""Command line front end.

Each subcommand reads JSON documents, runs one library operation and
writes a run report.  Reports are deterministic, identical inputs give
byte-identical bytes, so timing and progress lines go to stderr only.
Exit codes: 0 success, 1 failed verification, 2 bad input, 3 solver
non-convergence.
"""

import argparse
import functools
import hashlib
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import (
    CorrpressError,
    DuplicateEdge,
    IndexOutOfRange,
    ShapeMismatch,
    SolverError,
)
from .relations import (
    Decomposition,
    FiniteCorrespondence,
    Potential,
    decomposition_validate,
    whole_number,
)
from .pressure import (
    decomposition_pressure,
    path_pressure_sequence,
    spectral_pressure,
)
from .kernels import (
    Partition,
    TransitionKernel,
    kernel_entropy,
    stationary_gap,
    validate_measure,
)
from .polytope import (
    extremal_decomposition,
    invariant_polytope_extremes,
    is_invariant,
)
from .variational import (
    SolverConfig,
    abstract_kernel_entropy,
    directional_derivative,
    gibbs_equilibrium,
    measure_pressure,
)
from .intervals import (
    IntervalCorrespondence,
    PiecewiseLinearMap,
    example_branches,
    example_report,
    grid_discretize,
    markov_model,
)
from . import verify as verify_mod

EXAMPLE_FIXTURE = "interval-example"


def _f(x):
    # every float that reaches a report goes through 12 significant digits
    return float(_json_float(f"{float(x):.12g}"))


def _sanitize(obj):
    """A result tree as report values: the one converter, applied by
    _emit to every report.  A float goes through _f, and -inf becomes
    None, as JSON has no -inf (a report whose value is -inf also says
    minus_infinity); NaN and +inf are refused.  numpy scalars, tuples
    and arrays become JSON values, except a 2-D int array, which the
    writer prints from one template.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return None if obj == -np.inf else _f(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype.kind == "i":
            return obj
        return _sanitize(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


class Inputs:
    """Collects the digest block of a run report as files are loaded."""

    def __init__(self):
        self.record = {}

    def load(self, flag, path):
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ShapeMismatch(f"cannot read {path}: {exc}") from exc
        self.record[flag] = {
            "path": path,
            "sha256": hashlib.sha256(raw).hexdigest(),
        }
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShapeMismatch(f"cannot parse {path}: {exc}") from exc

    def builtin(self, flag, name):
        self.record[flag] = {"path": name, "sha256": None}


# ---------------------------------------------------------------- documents

def _corr_from(doc):
    if not isinstance(doc, dict) or "n_states" not in doc or "edges" not in doc:
        raise ShapeMismatch("correspondence document needs n_states and edges")
    return FiniteCorrespondence(doc["n_states"], doc["edges"], doc.get("labels"))


def _edge_values(corr, doc, kind):
    """The weights of an {"edges": [[i, j, w], ...]} document as a vector
    over corr.edges, zero on the edges it leaves out.  A pair outside
    0..n_states-1 is IndexOutOfRange, any other pair that is not an edge
    ShapeMismatch, and a pair given twice DuplicateEdge.  A null weight,
    which is how a report writes -inf, reads as -inf in a potential and
    is ShapeMismatch in any other document."""
    if not isinstance(doc, dict) or "edges" not in doc:
        raise ShapeMismatch(f"{kind} document needs an edges array")
    index, n = corr.edge_index(), corr.n_states
    vec = np.zeros(corr.n_edges)
    seen = set()
    for i, j, w in doc["edges"]:
        e = (whole_number(i), whole_number(j))
        if e not in index:
            if not (0 <= e[0] < n and 0 <= e[1] < n):
                raise IndexOutOfRange([e], n)
            raise ShapeMismatch(f"pair {e} is not an edge")
        if e in seen:
            raise DuplicateEdge([e])
        seen.add(e)
        if w is None:
            if kind != "potential":
                raise ShapeMismatch(f"{kind} weight null on pair {e}")
            w = -np.inf
        vec[index[e]] = float(w)
    return vec


def _potential_from(corr, doc):
    if doc is None:
        return Potential.zero(corr)
    return Potential(corr, _edge_values(corr, doc, "potential"))


def _measure_from(corr, doc):
    if not isinstance(doc, dict) or "weights" not in doc:
        raise ShapeMismatch("measure document needs a weights array")
    return validate_measure(corr.n_states, [float(w) for w in doc["weights"]])


def _kernel_from(corr, doc):
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ShapeMismatch("kernel document needs a rows array")
    # reparsing rounded probabilities must pass, hence the looser sum check
    return TransitionKernel.from_rows(corr, doc["rows"], tol=1e-9)


def _map_from(doc):
    if not isinstance(doc, dict) or "breakpoints" not in doc or "pieces" not in doc:
        raise ShapeMismatch("map document needs breakpoints and pieces")
    pieces = []
    for p in doc["pieces"]:
        if isinstance(p, dict):
            pieces.append((p["slope"], p["intercept"]))
        else:
            pieces.append((p[0], p[1]))
    return PiecewiseLinearMap(doc["breakpoints"], pieces)


def _config_from(doc):
    if doc is None:
        return SolverConfig()
    allowed = {"max_iterations", "tolerance"}
    bad = set(doc) - allowed
    if bad:
        raise ShapeMismatch(f"unknown solver options {sorted(bad)}")
    return SolverConfig(**doc)


def _corr_doc(corr):
    doc = {"n_states": corr.n_states,
           # an int array, which _json_text writes as its rows
           "edges": np.stack(corr.edge_arrays(), axis=1)}
    if corr.labels is not None:
        doc["labels"] = list(corr.labels)
    return doc


def _kernel_doc(kernel):
    rows = [[] for _ in range(kernel.corr.n_states)]
    for (i, j), p in zip(kernel.corr.edges, kernel.probs):
        if p > 0.0:
            rows[i].append([j, p])
    return {"rows": rows}


def _pair_doc(corr, vec):
    return {"edges": [[i, j, w] for (i, j), w in zip(corr.edges, vec)
                      if w != 0.0]}


def _potential_doc(corr, values):
    return {"edges": [[i, j, v] for (i, j), v in zip(corr.edges, values)]}


# ---------------------------------------------------------------- reports

INDENT = "  "
_NONFINITE = frozenset({"nan", "inf", "-inf"})


def _json_float(text):
    """The text of a float, refused when JSON has no number for it."""
    if text in _NONFINITE:
        raise ValueError("Out of range float values are not JSON compliant: "
                         + text)
    return text


def _scalar_text(x):
    """A JSON scalar as json.dumps writes it, or None for a container."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(float.__repr__(x))
    return None


def _int_rows(rows, inner):
    """The joined row texts of a 2-D int array, from one %d template."""
    deeper = inner + INDENT
    row = "[" + deeper + ("," + deeper).join(["%d"] * rows.shape[1]) + inner + "]"
    return ((("," + inner + row) * len(rows))[len(inner) + 1:]
            % tuple(rows.ravel().tolist()))


def _json_text(obj):
    """obj as json.dumps(obj, indent=2, allow_nan=False) writes it; a
    2-D int array is written as its nested lists.  The pieces go into
    one list, joined once."""
    out = []
    _json_pieces(obj, "\n", out)
    return "".join(out)


def _json_pieces(obj, inner, out):
    """Append the text of obj to out, piece by piece.

    inner is the newline and indentation of obj's own line.  Scalars go
    through the C-level encoders json itself uses on them.
    """
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
        return
    rows = (isinstance(obj, np.ndarray) and obj.ndim == 2
            and obj.dtype.kind == "i")
    if not (rows or isinstance(obj, (dict, list))):
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        "is not JSON serializable")
    is_dict = isinstance(obj, dict)
    if not len(obj):
        out.append("{}" if is_dict else "[]")
        return
    deeper = inner + INDENT
    out.append(("{" if is_dict else "[") + deeper)
    if rows:
        out.append(_int_rows(obj, deeper))
    elif is_dict:
        for n, (k, v) in enumerate(obj.items()):
            # report keys are strings; _quote raises TypeError on any other
            out.append(("," + deeper if n else "") + _quote(k) + ": ")
            _json_pieces(v, deeper, out)
    else:
        for n, v in enumerate(obj):
            if n:
                out.append("," + deeper)
            _json_pieces(v, deeper, out)
    out.append(inner + ("}" if is_dict else "]"))


def _emit(command, inputs, results, output, status="ok", error=None):
    doc = {"command": command,
           "inputs": inputs.record if isinstance(inputs, Inputs) else inputs,
           "results": results,
           "status": status,
           "error": error}
    text = _json_text(_sanitize(doc)) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------- commands

def cmd_pressure(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    phi = _potential_from(corr, inputs.load("phi", args.phi))
    results = {"method": args.method}
    # a pressure of -inf is null in JSON, flagged by minus_infinity
    if args.method in ("spectral", "both"):
        spec = spectral_pressure(corr, phi)
        results["spectral"] = {
            "pressure": spec.pressure,
            "components": spec.components,
            "log_radii": spec.log_radii,
            "dominant": spec.dominant,
        }
        if spec.pressure == -np.inf:
            results["spectral"]["minus_infinity"] = True
    if args.method in ("paths", "both"):
        value = path_pressure_sequence(corr, phi, args.n)[-1]
        results["paths"] = {"n": args.n, "value": value}
        if value == -np.inf:
            results["paths"]["minus_infinity"] = True
    if args.method == "both":
        # the gap between the two values as reported
        results["gap"] = (None if -np.inf in (spec.pressure, value)
                          else abs(_f(spec.pressure) - _f(value)))
    _emit("pressure", inputs, results, args.output)
    return 0


def cmd_verify(args):
    checks = verify_mod.run_suite(args.suite)
    rows = []
    for c in checks:
        rows.append({"name": c.name, "passed": c.passed, "gap": c.gap,
                     "detail": c.detail})
        status = "pass" if c.passed else "FAIL"
        sys.stderr.write(f"{status:4s}  {c.name}  ({c.seconds:.2f}s)\n")
    passed = all(c.passed for c in checks)
    results = {"suite": args.suite,
               "checks": rows,
               "passed": passed,
               "counts": {"passed": sum(1 for c in checks if c.passed),
                          "total": len(checks)}}
    _emit("verify", {}, results, args.output)
    return 0 if passed else 1


def cmd_equilibrium(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    phi = _potential_from(corr, inputs.load("phi", args.phi))
    eq = gibbs_equilibrium(corr, phi)
    results = {
        "pressure": eq.pressure,
        "entropy": eq.entropy,
        "integral": eq.integral,
        "dominant_class": eq.dominant_class,
        "measure": {"weights": eq.measure},
        "kernel": _kernel_doc(eq.kernel),
        "pair": _pair_doc(corr, eq.pair),
    }
    _emit("equilibrium", inputs, results, args.output)
    return 0


def cmd_mpressure(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    phi = _potential_from(corr, inputs.load("phi", args.phi))
    mu = _measure_from(corr, inputs.load("mu", args.mu))
    cfg = _config_from(inputs.load("config", args.config))
    res = measure_pressure(corr, phi, mu, tol=min(cfg.tolerance, 1e-10),
                           max_iter=cfg.max_iterations)
    results = {
        "value": res.value,
        "iterations": res.iterations,
        "residual": res.marginal_error,
        "boundary_flag": res.face_restricted,
        "pair": _pair_doc(corr, res.pair),
        "kernel": _kernel_doc(res.kernel),
    }
    if res.value == -np.inf:
        results["minus_infinity"] = True
    _emit("mpressure", inputs, results, args.output)
    return 0


def cmd_aentropy(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    nu = _edge_values(corr, inputs.load("nu", args.nu), "pair measure")
    cfg = _config_from(inputs.load("config", args.config))
    res = abstract_kernel_entropy(corr, nu, cfg)
    results = {
        # value is -inf, so null, exactly when minus_infinity is true
        "value": res.value,
        "minus_infinity": res.minus_infinity,
        "residual": res.residual,
        "boundary_flag": res.boundary,
        # the dual certificate is -inf, so null, on edges nu misses
        "potential": res.potential,
    }
    _emit("aentropy", inputs, results, args.output)
    return 0


def cmd_invariant(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    mu = _measure_from(corr, inputs.load("mu", args.mu))
    chk = is_invariant(corr, mu)
    results = {
        "invariant": chk.invariant,
        "witness_pair": None,
        "witness_kernel": None,
        "violating_subset": None,
    }
    if chk.witness_pair is not None:
        results["witness_pair"] = _pair_doc(corr, chk.witness_pair)
    if chk.witness_kernel is not None:
        results["witness_kernel"] = _kernel_doc(chk.witness_kernel)
        results["marginal_gap"] = stationary_gap(mu, chk.witness_kernel)
    if chk.violating_subset is not None:
        results["violating_subset"] = sorted(chk.violating_subset)
    _emit("invariant", inputs, results, args.output)
    return 0


def cmd_extremes(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    ext = invariant_polytope_extremes(corr)
    results = {
        "n_extremes": len(ext.extremes),
        "extremes": ext.extremes,
        "n_pair_vertices": len(ext.cycles),
    }
    mu_doc = inputs.load("mu", args.mu)
    if mu_doc is not None:
        mu = _measure_from(corr, mu_doc)
        idxs, weights, extremes = extremal_decomposition(corr, mu, ext)
        mix = np.zeros(corr.n_states)
        for k, w in zip(idxs, weights):
            mix += w * np.asarray(extremes[k], dtype=float)
        results["decomposition"] = {
            "indices": idxs,
            # as floats: a weight clipped by max(v, 0) is the int 0
            "weights": np.asarray(weights, dtype=float),
            "residual": np.sum(np.abs(mix - mu)),
        }
    _emit("extremes", inputs, results, args.output)
    return 0


def cmd_kentropy(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    kernel = _kernel_from(corr, inputs.load("kernel", args.kernel))
    mu = _measure_from(corr, inputs.load("mu", args.mu))
    partition = None
    cfg_doc = inputs.load("config", args.config)
    if cfg_doc is not None:
        if "cells" not in cfg_doc:
            raise ShapeMismatch("partition document needs a cells array")
        partition = Partition(corr.n_states, cfg_doc["cells"])
    seq, value = kernel_entropy(mu, kernel, args.n, partition)
    results = {"value": value, "n": args.n, "sequence": seq}
    _emit("kentropy", inputs, results, args.output)
    return 0


def cmd_derivative(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    phi = _potential_from(corr, inputs.load("phi", args.phi))
    psi_doc = inputs.load("nu", args.nu)
    if psi_doc is None:
        raise ShapeMismatch("derivative needs a direction document via --nu")
    psi = _potential_from(corr, psi_doc)
    der = directional_derivative(corr, phi, psi, side=args.method)
    results = {
        "side": args.method,
        "plus": der.plus,
        "minus": der.minus,
        "plus_fd": der.plus_fd,
        "minus_fd": der.minus_fd,
        "is_gateaux": der.is_gateaux,
        "tangent_count": len(der.tangent_set.tangents),
        "unique_tangent": der.tangent_set.is_unique,
    }
    _emit("derivative", inputs, results, args.output)
    return 0


def _branches_from(doc):
    if isinstance(doc, dict) and "branches" in doc:
        return IntervalCorrespondence([_map_from(b) for b in doc["branches"]])
    return IntervalCorrespondence([_map_from(doc)])


def cmd_discretize(args):
    inputs = Inputs()
    method = args.method
    if args.input == EXAMPLE_FIXTURE:
        inputs.builtin("input", EXAMPLE_FIXTURE)
        if method == "auto":
            method = "example"
        doc = None
    else:
        doc = inputs.load("input", args.input)
        if method == "auto":
            method = "markov" if isinstance(doc, dict) and "cells" in doc else "grid"

    if method == "example":
        if doc is not None:
            raise ShapeMismatch(
                f"the example route needs --input {EXAMPLE_FIXTURE}")
        results = example_report(args.grid)
    elif method == "grid":
        system = example_branches() if doc is None else _branches_from(doc)
        grid = grid_discretize(system, args.grid)
        pres = spectral_pressure(grid.corr, Potential.zero(grid.corr))
        results = {
            "resolution": grid.resolution,
            "n_states": grid.corr.n_states,
            "pressure": pres.pressure,
            "correspondence": _corr_doc(grid.corr),
        }
    elif method == "markov":
        if doc is None or "cells" not in doc:
            raise ShapeMismatch("the markov route needs a map document "
                                "with a cells array")
        model = markov_model(_map_from(doc), doc["cells"])
        pres = spectral_pressure(model.corr, Potential.zero(model.corr))
        results = {
            "n_states": model.corr.n_states,
            "pressure": pres.pressure,
            "correspondence": _corr_doc(model.corr),
        }
    else:
        raise ShapeMismatch(f"unknown discretize method {method!r}")
    _emit("discretize", inputs, results, args.output)
    return 0


def cmd_relabel(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    cfg = inputs.load("config", args.config)
    if cfg is None or "theta" not in cfg:
        raise ShapeMismatch("relabel needs --config with a theta array")
    theta = [whole_number(t) for t in cfg["theta"]]
    relabeled = corr.relabel(theta)
    results = {"theta": theta, "correspondence": _corr_doc(relabeled)}
    phi_doc = inputs.load("phi", args.phi)
    if phi_doc is not None:
        phi = _potential_from(corr, phi_doc).relabel(theta)
        results["potential"] = _potential_doc(relabeled, phi.values)
    mu_doc = inputs.load("mu", args.mu)
    if mu_doc is not None:
        mu = _measure_from(corr, mu_doc)
        out = np.zeros_like(mu)
        for i, w in enumerate(mu):
            out[theta[i]] = w
        results["measure"] = {"weights": out}
    ker_doc = inputs.load("kernel", args.kernel)
    if ker_doc is not None:
        kernel = _kernel_from(corr, ker_doc).relabel(theta)
        results["kernel"] = _kernel_doc(kernel)
    _emit("relabel", inputs, results, args.output)
    return 0


def cmd_decompose(args):
    inputs = Inputs()
    corr = _corr_from(inputs.load("input", args.input))
    phi = _potential_from(corr, inputs.load("phi", args.phi))
    cfg = inputs.load("config", args.config)
    if cfg is None or "blocks" not in cfg:
        raise ShapeMismatch("decompose needs --config with a blocks array")
    decomp = Decomposition([[whole_number(s) for s in b] for b in cfg["blocks"]])
    report = decomposition_validate(corr, decomp)
    results = {"valid": report["valid"], "validation": report}
    if report["valid"]:
        dp = decomposition_pressure(corr, phi, decomp)
        spec = spectral_pressure(corr, phi)
        # a pressure of -inf is null, as in the pressure report
        results["value"] = dp.value
        results["block_values"] = dp.block_values
        results["spectral"] = spec.pressure
        results["gap"] = (None if -np.inf in (dp.value, spec.pressure)
                          else abs(dp.value - spec.pressure))
        if dp.value == -np.inf:
            results["minus_infinity"] = True
    _emit("decompose", inputs, results, args.output)
    return 0


# ---------------------------------------------------------------- parser

@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="corrpress",
        description="Pressure, entropy and invariant-measure computations "
                    "for finite correspondences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--output", default="-",
                       help="report destination, - for stdout")
        p.set_defaults(func=func)
        return p

    corr_flag = ("--input", {"required": True,
                             "help": "correspondence document"})
    phi_flag = ("--phi", {"default": None, "help": "potential document"})

    add("pressure", cmd_pressure, "topological pressure", [
        corr_flag, phi_flag,
        ("--method", {"choices": ["spectral", "paths", "both"],
                      "default": "both"}),
        ("--n", {"type": int, "default": 1000,
                 "help": "path-sum horizon"}),
    ])
    add("verify", cmd_verify, "run a verification suite", [
        ("--suite", {"choices": sorted(verify_mod.SUITES),
                     "default": "fast"}),
    ])
    add("equilibrium", cmd_equilibrium, "Gibbs equilibrium pair", [
        corr_flag, phi_flag,
    ])
    add("mpressure", cmd_mpressure, "pressure of a fixed measure", [
        corr_flag, phi_flag,
        ("--mu", {"required": True, "help": "measure document"}),
        ("--config", {"default": None, "help": "solver options document"}),
    ])
    add("aentropy", cmd_aentropy, "abstract entropy of a pair measure", [
        corr_flag,
        ("--nu", {"required": True, "help": "pair measure document"}),
        ("--config", {"default": None, "help": "solver options document"}),
    ])
    add("invariant", cmd_invariant, "invariance check with witness", [
        corr_flag,
        ("--mu", {"required": True, "help": "measure document"}),
    ])
    add("extremes", cmd_extremes, "invariant polytope extreme points", [
        corr_flag,
        ("--mu", {"default": None,
                  "help": "measure to decompose over the extremes"}),
    ])
    add("kentropy", cmd_kentropy, "kernel entropy along a measure", [
        corr_flag,
        ("--kernel", {"required": True, "help": "kernel document"}),
        ("--mu", {"required": True, "help": "measure document"}),
        ("--n", {"type": int, "default": 20, "help": "sequence horizon"}),
        ("--config", {"default": None, "help": "partition document"}),
    ])
    add("derivative", cmd_derivative, "directional pressure derivative", [
        corr_flag, phi_flag,
        ("--nu", {"default": None, "help": "direction potential document"}),
        ("--method", {"choices": ["plus", "minus", "both"],
                      "default": "both"}),
    ])
    add("discretize", cmd_discretize, "interval system to finite relation", [
        ("--input", {"required": True,
                     "help": f"map document or {EXAMPLE_FIXTURE}"}),
        ("--grid", {"type": int, "default": 1024, "help": "resolution"}),
        ("--method", {"choices": ["auto", "grid", "markov", "example"],
                      "default": "auto"}),
    ])
    add("relabel", cmd_relabel, "push documents through a relabeling", [
        corr_flag, phi_flag,
        ("--mu", {"default": None, "help": "measure document"}),
        ("--kernel", {"default": None, "help": "kernel document"}),
        ("--config", {"default": None, "help": "permutation document"}),
    ])
    add("decompose", cmd_decompose, "block decomposition pressure", [
        corr_flag, phi_flag,
        ("--config", {"default": None, "help": "blocks document"}),
    ])
    return parser


def _fail(args, exc, code):
    error = {"type": type(exc).__name__, "message": str(exc)}
    _emit(args.command, {}, {}, args.output, status="error", error=error)
    sys.stderr.write(f"error: {exc}\n")
    return code


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorrpressError as exc:
        return _fail(args, exc, 3 if isinstance(exc, SolverError) else 2)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a failed numerical process
        return _fail(args, SolverError(f"linear algebra failure: {exc}"), 3)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        # malformed documents surface here, Fraction(1e999) as an OverflowError
        return _fail(args, exc, 2)


if __name__ == "__main__":
    sys.exit(main())
