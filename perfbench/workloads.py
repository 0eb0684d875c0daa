"""The three workloads: what each request calls and how it is checked.

A workload hands out warm-up requests and rounds, both served by
run.py.  A round is a list of requests whose size mix is fixed, so
rounds of one workload do the same amount of work up to what the
seeded inputs change; the seed only draws the instances.  Every
request is checked against an independent reference after its timer
stops, with the bounds the package's own verification batteries and
tests assert.  A request that raises anything other than a documented
answer fails.
"""

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

import corrpress as cp
import corrpress.cli
from corrpress import verify as gen

from spans import marginal_rank

LOG2 = math.log(2.0)


@dataclass
class Request:
    kind: str
    serve: object      # serve(note) -> output, timed
    check: object      # check(output) -> list of failed claims, untimed


def _bound(problems, label, gap, limit):
    if not gap <= limit:
        problems.append(f"{label}: {gap:.3e} > {limit:.1e}")


# ---------------------------------------------------------------- grid

EXAMPLE_1024 = ["discretize", "--input", "interval-example", "--grid", "1024"]
EXAMPLE_4096 = ["discretize", "--input", "interval-example", "--grid", "4096"]
GRID_4096 = ["discretize", "--input", "interval-example", "--method", "grid",
             "--grid", "4096"]
# One round.  The 4096 example takes most of a run, so the short
# requests are repeated around it.  Six of the nine are grid-4096, so
# the median request is the middle of that group, not the edge between
# two kinds, and it samples the machine at several moments.
GRID_ROUND = (("grid-4096", GRID_4096), ("example-1024", EXAMPLE_1024),
              ("grid-4096", GRID_4096), ("grid-4096", GRID_4096),
              ("example-4096", EXAMPLE_4096), ("grid-4096", GRID_4096),
              ("grid-4096", GRID_4096), ("example-1024", EXAMPLE_1024),
              ("grid-4096", GRID_4096))


def _cli_request(kind, argv):
    def serve(note):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = corrpress.cli.main(argv)
        text = buf.getvalue()
        note("cli.report_bytes", len(text.encode()))
        return code, text

    def check(out):
        code, text = out
        doc = json.loads(text)
        if code != 0 or doc["status"] != "ok":
            return [f"exit {code}: {doc['error']}"]
        res = doc["results"]
        problems = []
        if "gap_a" in res:
            _bound(problems, "route a", res["gap_a"], 1e-12)
            _bound(problems, "route b", res["gap_b"], 0.05)
            _bound(problems, "route c", res["gap_cb"], 1e-9)
        else:
            _bound(problems, "grid pressure", abs(res["pressure"] - LOG2), 0.05)
        return problems

    return Request(kind, serve, check)


class Grid:
    """The documented user path, in process through cli.main.

    Loads the dense Perron/Gibbs solve on the 2048-state class, the
    2048-state power iteration, the grid build and the report writer.
    The inputs are fixed, so the seed changes nothing here.
    """

    def __init__(self, rng):
        self.rng = rng

    def warmup(self):
        # each kind of request once, on a small grid
        return [_cli_request(kind, argv[:-1] + ["256"])
                for kind, argv in dict(GRID_ROUND).items()]

    def round(self):
        return [_cli_request(kind, argv) for kind, argv in GRID_ROUND]


# ---------------------------------------------------------------- battery

ENTROPY_CONFIG = cp.SolverConfig(tolerance=1e-5)
# One round: (states, edges, runs abstract_measure_pressure).  Plain
# instances span 2 to 12 states and every third instance is a small one
# that also runs abstract_measure_pressure.  Each slot fixes the edge
# count at the generator's most common value for that size, because
# solver cost follows the edge count and a round must not get cheaper
# or dearer with the sizes a seed happens to draw.  The 5-state
# abstract_measure_pressure instances are the slowest and two of the
# nine, so the 90th percentile falls in the middle of that group
# rather than on its edge with the next slowest slot.
BATTERY_ROUND = ((2, 3, False), (6, 14, False), (5, 11, True),
                 (3, 5, False), (8, 23, False), (4, 7, True),
                 (10, 33, False), (12, 46, False), (5, 11, True))


def _entropy_rate(mu, matrix):
    logs = np.log(np.where(matrix > 0.0, matrix, 1.0))
    return float(-np.sum(mu[:, None] * matrix * logs))


def _primitive(rng, n, edges):
    while True:
        corr = gen.random_primitive(rng, n, n)
        if corr.n_edges == edges:
            return corr


def _battery_request(rng, n, edges, with_amp):
    corr = _primitive(rng, n, edges)
    phi = gen.random_potential(rng, corr)
    psi = gen.random_potential(rng, corr)
    mu = gen.random_invariant_measure(rng, corr)
    ker = gen.random_kernel(rng, corr)
    bcorr, blocks = gen.random_block_relation(rng)
    bphi = gen.random_potential(rng, bcorr)

    def serve(note):
        out = {"pressure": cp.spectral_pressure(corr, phi).pressure,
               "paths": cp.path_pressure_sequence(corr, phi, 1000)[-1]}
        try:
            eq = cp.gibbs_equilibrium(corr, phi)
        except cp.NonUniqueDominantClass:
            eq = None
        out["gibbs"] = eq
        out["mpressure"] = cp.measure_pressure(corr, phi, mu).value
        if eq is not None:
            out["aentropy_gibbs"] = cp.abstract_kernel_entropy(
                corr, eq.pair, ENTROPY_CONFIG).value
        _, smu = cp.stationary_measures(ker)[0]
        out["stationary"] = smu
        out["aentropy_stationary"] = cp.abstract_kernel_entropy(
            corr, cp.pair_from_kernel(smu, ker), ENTROPY_CONFIG).value
        out["derivative"] = cp.directional_derivative(corr, phi, psi)
        inv = cp.is_invariant(corr, mu, mode="both")
        note("polytope.modes_agree", inv.by_mode["lp"] == inv.by_mode["subsets"])
        out["invariance"] = inv
        out["kentropy"] = cp.kernel_entropy(smu, ker, 20)[1]
        out["blocks"] = cp.decomposition_pressure(bcorr, bphi, blocks).value
        out["blocks_pressure"] = cp.spectral_pressure(bcorr, bphi).pressure
        # on the Gibbs measure, as the relabelling battery in verify does;
        # on a cycle mixture most calls run the descent to its cap
        if with_amp and eq is not None:
            out["amp"] = cp.abstract_measure_pressure(corr, phi, eq.measure).value
        return out

    def check(out):
        problems = []
        p = out["pressure"]
        _bound(problems, "path oracle", abs(out["paths"] - p), 5e-3)
        _bound(problems, "measure pressure excess", out["mpressure"] - p, 1e-8)
        eq = out["gibbs"]
        if eq is not None:
            _bound(problems, "gibbs attains pressure",
                   abs(eq.pressure - (eq.entropy + eq.integral)), 1e-9)
            _bound(problems, "abstract entropy at gibbs",
                   abs(out["aentropy_gibbs"] - (eq.pressure - eq.integral)), 1e-4)
        h = _entropy_rate(out["stationary"], ker.matrix)
        _bound(problems, "abstract entropy below rate",
               h - out["aentropy_stationary"], 1e-4)
        _bound(problems, "kernel entropy", abs(out["kentropy"] - h), 1e-9)
        dd = out["derivative"]
        _bound(problems, "tangent vs fd",
               max(abs(dd.plus - dd.plus_fd), abs(dd.minus - dd.minus_fd)), 1e-4)
        inv = out["invariance"]
        if not (inv.invariant and inv.by_mode["lp"] == inv.by_mode["subsets"]):
            problems.append(f"invariant measure judged {inv.by_mode}")
        else:
            push = mu @ inv.witness_kernel.matrix
            _bound(problems, "witness", float(np.abs(push - mu).sum()), 1e-10)
        _bound(problems, "block maximum",
               abs(out["blocks"] - out["blocks_pressure"]), 1e-9)
        if "amp" in out:
            direct = cp.measure_pressure(corr, phi, eq.measure).value
            _bound(problems, "abstract below transport value",
                   direct - out["amp"], 1e-6)
        return problems

    return Request(f"battery-{n}" + ("-amp" if with_amp else ""), serve, check)


class Battery:
    """A seeded stream of small relations through every solver."""

    def __init__(self, rng):
        self.rng = rng

    def warmup(self):
        return [_battery_request(self.rng, *slot) for slot in BATTERY_ROUND[:3]]

    def round(self):
        return [_battery_request(self.rng, *slot) for slot in BATTERY_ROUND]


# ---------------------------------------------------------------- polytope

# one round: (generator, edges, rank of the marginal system); rank is
# fixed per slot because the basis search visits C(edges, rank) subsets.
# The 12-edge slots (about 800-900 bases each) hold the median and the
# 13-edge slots (1287 bases) the 90th percentile, each well inside its
# group rather than on the edge between two kinds of request; the tail
# group is four of ten slots so that a run holds some twenty samples of
# it.  Sizes stop at 13 edges so that a run holds five or more rounds:
# at 16 edges one call takes 3-4.5 s, a run held two or three rounds,
# and its percentiles moved by a third from seed to seed.
POLYTOPE_ROUND = (("relation", 10, 5), ("map-block", 13, 8),
                  ("relation", 12, 6), ("map-block", 12, 7),
                  ("map-block", 13, 8), ("map-block", 11, 7),
                  ("relation", 12, 6), ("map-block", 13, 8),
                  ("map-block", 12, 7), ("map-block", 13, 8))


def _draw(rng, generator, edges, rank):
    while True:
        if generator == "relation":
            corr = gen.random_relation(rng, 2, 10)
        else:
            corr, _ = gen.random_map_block_relation(rng, 4, 4)
        if corr.n_edges == edges and marginal_rank(corr) == rank:
            return corr


def _polytope_request(rng, generator, edges, rank):
    corr = _draw(rng, generator, edges, rank)
    phi = gen.random_potential(rng, corr)
    mu = gen.random_invariant_measure(rng, corr)
    nu = rng.dirichlet(np.ones(corr.n_states))

    def serve(note):
        ext = cp.invariant_polytope_extremes(corr)
        dec = cp.extremal_decomposition(corr, mu, ext)
        verdicts = []
        for m in (mu, nu):
            lp = cp.is_invariant(corr, m, mode="lp")
            sub = cp.is_invariant(corr, m, mode="subsets")
            note("polytope.modes_agree", lp.invariant == sub.invariant)
            verdicts.append((lp, sub))
        return ext, dec, verdicts

    def check(out):
        ext, (combo, weights, pool), verdicts = out
        problems = []
        for m, (lp, sub) in zip((mu, nu), verdicts):
            if lp.invariant != sub.invariant:
                problems.append("lp and subset modes disagree")
            elif lp.invariant:
                push = m @ lp.witness_kernel.matrix
                _bound(problems, "witness", float(np.abs(push - m).sum()), 1e-10)
        if not verdicts[0][0].invariant:
            problems.append("invariant measure judged not invariant")
        mix = sum(w * np.asarray(pool[k], dtype=float)
                  for k, w in zip(combo, weights))
        _bound(problems, "decomposition residual",
               max(float(np.abs(mix - mu).max()), abs(sum(weights) - 1.0)), 1e-9)
        if generator == "map-block":
            p = cp.spectral_pressure(corr, phi).pressure
            best = max(cp.measure_pressure(corr, phi, e).value
                       for e in ext.extremes)
            _bound(problems, "extremes attain pressure", abs(best - p), 1e-6)
        return problems

    return Request(f"polytope-{generator}-{edges}", serve, check)


class Polytope:
    """Exact vertex search, extremal decomposition, both invariance tests."""

    def __init__(self, rng):
        self.rng = rng

    def warmup(self):
        return [_polytope_request(self.rng, *POLYTOPE_ROUND[0])]

    def round(self):
        return [_polytope_request(self.rng, *slot) for slot in POLYTOPE_ROUND]


WORKLOADS = {"grid": Grid, "battery": Battery, "polytope": Polytope}
