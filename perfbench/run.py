"""corrpress benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload grid|battery|polytope --seed N
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  A
single client sends the workload's requests one after another, each
one starting when the previous returned, in rounds of a fixed size mix
(see workloads.py), for as many rounds as fit in S seconds; at least
one round is always completed.  Every request is checked against an
independent reference after its timer stops.

--trace 0 reports the end-to-end metrics: set-up time of a fresh
process (median of several), median round time, request latency
percentiles and the peak resident memory of this process.  --trace 1
serves every round twice on the same inputs, untraced and then traced,
and reports the per-layer metrics of the traced rounds as per-round
means; the difference between the two is the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A request fails when it raises or
misses a reference bound; correct is false only when an answer misses
its bound.  The lines before it print the same metrics by name with
their units, the failure share and the environment.  The full record,
spans included, is written to perfbench/results/.  Metric names and
units come from BENCHMARK.json.

The pytest suite and `corrpress verify --suite all` are not workloads:
each takes minutes, too long to repeat for every comparison, and test
edits change what they time.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

# One BLAS thread, never more than nproc: the loop has a single client,
# and a BLAS thread pool competing with it for cores makes timings
# unsteady.
BLAS_THREADS = 1
SETUP_REPEATS = 7
WARM_EIG_SIZE = 256

# Set-up of a fresh process: import the package and its command line,
# then one dense eigensolve, which is where BLAS initialises.
SETUP_PROBE = f"""
import time
t0 = time.perf_counter()
import numpy as np
import corrpress, corrpress.cli
np.linalg.eig(np.random.default_rng(0).random(({WARM_EIG_SIZE}, {WARM_EIG_SIZE})))
print(time.perf_counter() - t0)
"""


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid", "battery", "polytope"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def measure_setup():
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def nearest_rank(values, q):
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * q // 100) - 1)
    return ordered[int(k)]


def serve_round(requests, next_id, tracer):
    """Run one round in closed loop; return per-request records."""
    records = []
    for offset, req in enumerate(requests):
        rid = next_id + offset
        root = tracer.begin_request(rid) if tracer else None
        note = tracer.note if tracer else (lambda key, value: None)
        t0 = time.perf_counter()
        try:
            out, error = req.serve(note), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, exc
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_request(root)
        if error is None:
            try:
                problems = req.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [f"{type(error).__name__}: {error}"]
        records.append({"id": rid, "kind": req.kind, "latency_s": latency,
                        "raised": error is not None, "problems": problems})
    return records


def layer_metrics(tracer, traced_walls, untraced_walls):
    from spans import self_times
    own = self_times(tracer.spans)
    rounds = len(traced_walls)
    total = defaultdict(float)
    notes = defaultdict(list)
    for _, key, value in tracer.notes:
        notes[key].append(value)
    max_states = 0
    for s in tracer.spans:
        if s.name == "request":
            total["trace.unspanned_s"] += own[s.span_id]
            continue
        total[s.name + ".s"] += own[s.span_id]
        total[s.name + ".calls"] += 1
        for key, value in s.counts.items():
            total[s.name + "." + key] += value
        if s.name == "cli.main":
            total["cli.inclusive_s"] += s.end - s.start
        if s.name == "pressure.spectral_pressure":
            max_states = max(max_states, s.counts["max_component_states"])
    out = {name: value / rounds for name, value in total.items()}

    def share(name, flag):
        calls = total[name + ".calls"]
        return total[name + "." + flag] / calls if calls else 0.0

    # cli.main's own span time is what the command line adds on top of
    # the library calls it makes (computed, not a separate span)
    out["cli.self_s"] = out.get("cli.main.s", 0.0)
    out["cli.main.s"] = out.get("cli.inclusive_s", 0.0)
    out["cli.report_bytes"] = sum(notes["cli.report_bytes"]) / rounds
    out["pressure.max_component_states"] = max_states
    aent = "variational.abstract_kernel_entropy"
    out[aent + ".converged_share"] = share(aent, "converged")
    out[aent + ".boundary_share"] = share(aent, "boundary")
    out["variational.measure_pressure.face_share"] = share(
        "variational.measure_pressure", "face")
    agree = notes["polytope.modes_agree"]
    out["polytope.modes_agree_share"] = sum(agree) / len(agree) if agree else 0.0
    out["trace.overhead_s"] = (statistics.fmean(traced_walls)
                               - statistics.fmean(untraced_walls))
    return out


def main():
    args = parse_args()
    if not (SOURCE / "corrpress" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {SOURCE}; run from a "
                         "checkout of the repository\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # before numpy is imported here or in a child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SOURCE))

    import numpy as np
    import workloads
    from spans import Tracer

    env = environment(args)
    np.linalg.eig(np.random.default_rng(0).random((WARM_EIG_SIZE,) * 2))
    workload = workloads.WORKLOADS[args.workload](
        np.random.default_rng(args.seed))
    serve_round(workload.warmup(), 0, None)

    # with tracing, every round is served twice on the same inputs,
    # untraced and then traced, so their difference is the overhead;
    # no round starts that the previous one says would end past the
    # deadline, but one round always runs
    tracer = Tracer() if args.trace else None
    rounds, next_id = [], 0
    start = last = time.perf_counter()
    while True:
        requests = workload.round()
        for traced in ((False, True) if args.trace else (False,)):
            if traced:
                tracer.install()
            try:
                records = serve_round(requests, next_id,
                                      tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            next_id += len(records)
            rounds.append({"traced": traced, "requests": records,
                           "wall_s": sum(r["latency_s"] for r in records)})
        now = time.perf_counter()
        if now + (now - last) - start > args.seconds:
            break
        last = now

    plain = [r for r in rounds if not r["traced"]]
    requests = [q for r in rounds for q in r["requests"]]
    failed = [q for q in requests if q["problems"]]
    # an exception is a failed request; an answer that misses its
    # reference is a failed request and an incorrect output
    correct = not any(q["problems"] and not q["raised"] for q in requests)
    if args.trace:
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        untraced_walls = [r["wall_s"] for r in plain]
        computed = layer_metrics(tracer, traced_walls, untraced_walls)
    else:
        latencies = [q["latency_s"] for r in plain for q in r["requests"]]
        computed = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "request_p50_s": statistics.median(latencies),
            "request_p90_s": nearest_rank(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0,
        }
    metrics = {m["name"]: {"value": float(computed.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"environment": env, "metrics": metrics, "rounds": rounds,
              "spans": [s.record() for s in tracer.spans] if tracer else [],
              "notes": tracer.notes if tracer else []}
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    for q in failed[:10]:
        sys.stderr.write(f"request {q['id']} ({q['kind']}) failed: "
                         f"{'; '.join(q['problems'])}\n")
    print("environment " + json.dumps(env))
    print(f"requests {len(requests)} in {len(rounds)} rounds, "
          f"failed_share {len(failed) / len(requests):.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        layers = sum(v for k, v in computed.items()
                     if k.endswith(".s") and k != "cli.main.s")
        print(f"accounting: layer self times {layers:.4f} s + cli.self_s "
              f"{computed['cli.self_s']:.4f} s + trace.unspanned_s "
              f"{computed['trace.unspanned_s']:.4f} s against a traced round "
              f"of {statistics.fmean(traced_walls):.4f} s and an untraced "
              f"round of {statistics.fmean(untraced_walls):.4f} s")
    print(json.dumps({"correct": correct, "attempted": len(requests),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
