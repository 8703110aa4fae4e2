"""pidga benchmark: times the tuner end to end and per module, and checks it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py):
  sweep-grid  run_sweep over the 9-delay x 5-objective grid at pop 80, then
              emit_csv and emit_plots; the paper's work unit, fewer
              generations.
  tune-wide   one (delay, objective) cell at pop 800, as `pidga tune` does.
  row-report  1,008 random gain sets in the Z-N boxes of all 9 delays, each
              through simulate_gains -> indices -> standard_measures ->
              loop_margin, the exact delay line and the Routh verdict.

A run first starts five fresh processes that import pidga, build the config
and make one warm-up call (setup_s is their median).  It then repeats units
of the workload until --seconds would be exceeded, at least one; every unit
of one seed must write byte-identical outputs.  With --trace 1 untraced and
traced units alternate, and the run reports per-module figures from the
traced units and the tracing overhead instead of the end-to-end figures.

Every unit's outputs are checked: each reported GA or Z-N row is re-simulated
from details.csv and must reproduce its ISE bit for bit; output digests must
agree between units, with the traced units, and with earlier runs of the same
code and seed (kept in .perfbench/digests.json).  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}; the
exit code is 1 when a check failed.  Spans, the environment and all figures
are written under .perfbench/ in the repository root.

End-to-end metrics, reported by every workload:
  setup_s          median over fresh processes of import + config + warm-up
  wall_s           median wall time of one unit
  peak_rss_mb      peak resident memory of the measuring process
  evals_per_s      1,501-sample step responses simulated per second of a unit
                   (GA: population rows and single-path rows; row-report: the
                   DFR and the delay-line response of each row)
  cell_s_p50/p75   latency of one grid cell: the interval between run_sweep's
                   progress messages for a GA row (sweep-grid, tune-wide), or
                   the rows of one delay (row-report)
  rows_per_s       reported rows per second of a unit
  row_ms_p50/p99   latency of one row's reporting chain, the best of its
                   repeats in the run (GA workloads: re-run twice per unit in
                   the output check; row-report: once per pass)
  ga_gain_vs_zn    geometric mean over (delay, objective) cells of the Z-N
                   index over the best graded row's index: the GA row, or in
                   row-report the best of the cell's random rows
  ise_rel_err_p99  99th percentile of |reported ISE - exact ISE| / exact ISE
                   over graded rows, i.e. Routh-stable and not flagged
  ok_frac          share of rows that neither failed nor carry a divergence
                   flag that contradicts the Routh verdict
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 9

# The child prints CLOCK_MONOTONIC when its warm-up is done; that clock is
# shared by all processes, so the parent's start time and the child's end
# time can be compared without waiting on the child's exit.
PROBE = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
         "import workloads, time; "
         "workloads.setup_probe(sys.argv[3], int(sys.argv[4])); "
         "print(time.monotonic())")


def tree_sha(pattern):
    h = hashlib.sha256()
    for path in sorted(glob.glob(pattern)):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # a plain checkout: code_sha256 identifies the code
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    return int(text[:-1]) * 1024 if text.endswith("K") else int(text)


def environment():
    import numpy
    return {
        "git_sha": git_sha(),
        "code_sha256": tree_sha(os.path.join(SRC, "pidga", "*.py")),
        "bench_sha256": tree_sha(os.path.join(BENCH, "*.py")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                "OPENBLAS_NUM_THREADS")},
    }


def load_average(env, when):
    load = os.getloadavg()
    if load[0] > env["nproc"]:
        print(f"warning: load average {load[0]:.2f} {when} the run exceeds "
              f"nproc={env['nproc']}; timings are contended", file=sys.stderr)
    return list(load)


def setup_time(workload, seed):
    """Median wall time of fresh-process import + config + one warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        res = subprocess.run([sys.executable, "-c", PROBE, BENCH, SRC,
                              workload, str(seed)], cwd=ROOT, check=True,
                             timeout=120, stdout=subprocess.PIPE, text=True)
        times.append(float(res.stdout.split()[-1]) - t0)
    return statistics.median(times)


def measure(w, seed, seconds, trace, problems):
    """Alternate (with trace) or repeat units until `seconds` would pass."""
    from tracing import Tracer
    from workloads import TRACE_POINTS
    state = w.prepare(seed)
    w.warmup(state)
    plain, traced = [], []
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    start = time.perf_counter()
    while True:
        outdir = tempfile.mkdtemp(dir=os.path.join(OUT, "tmp"))
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            for module, attr, name, count in TRACE_POINTS:
                tracer.wrap(module, attr, name, count)
            try:
                unit = w.unit(state, outdir)
            finally:
                tracer.restore()
            traced.append((unit, tracer))
        else:
            unit = w.unit(state, outdir)
            plain.append(unit)
        w.check(state, outdir, unit, problems)
        shutil.rmtree(outdir)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if (len(plain) >= 2 and (traced or not trace)
                and elapsed * (done + 1) / done > seconds):
            break
    ref = plain[0].digests
    for u in plain[1:] + [u for u, _ in traced]:
        if u.digests != ref:
            problems.append(f"outputs differ between units of one seed: "
                            f"{u.digests} vs {ref}")
    return plain, traced


def pct(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def row_best(plain):
    """Each row's latency: its best time over the run's repeats of it, which
    keeps other tenants' bursts on a shared machine out of the tail."""
    return [min(min(t) for t in ts) for ts in zip(*(u.row_ms for u in plain))]


def end_to_end(plain, setup_s):
    """End-to-end figures from the untraced units, then extra figures that
    are printed but not gated."""
    from workloads import flag_split
    first = plain[0]
    cells = [c for u in plain for c in u.cells]
    row_ms = row_best(plain)
    errs = [e for _, e in first.rel_errs]
    bad = sum(v[3] for v in first.verdicts) + sum(
        isinstance(o, str) for o in first.outputs)
    gains = list(first.cell_gain.values())
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(u.wall for u in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "evals_per_s": (statistics.median(u.evals / u.wall for u in plain),
                        "1/s"),
        "cell_s_p50": (pct(cells, 50), "s"),
        "cell_s_p75": (pct(cells, 75), "s"),
        "rows_per_s": (statistics.median(u.attempted / u.wall for u in plain),
                       "1/s"),
        "row_ms_p50": (pct(row_ms, 50), "ms"),
        "row_ms_p99": (pct(row_ms, 99), "ms"),
        "ga_gain_vs_zn": (statistics.geometric_mean(gains) if gains
                          else float("nan"), "ratio"),
        "ise_rel_err_p99": (pct(errs, 99), "ratio"),
        "ok_frac": (1.0 - bad / first.attempted, "ratio"),
    }
    extra = {"failed_frac": (bad / first.attempted, "ratio"),
             "ise_rel_err_max": (max(errs), "ratio"),
             "samples.cells": (len(cells), "count"),
             "samples.rows": (len(row_ms), "count"),
             "samples.units": (len(plain), "count")}
    zn = [e for m, e in first.rel_errs if m == "zn"]
    if zn:
        extra["ise_rel_err_zn_max"] = (max(zn), "ratio")
    extra.update(flag_split(first.verdicts))
    return e2e, extra


EV = "experiment.evaluate_objective"
# per-layer metrics that are a span field summed over traced units, per unit:
# (metric, span name, field, unit)
PER_UNIT = (
    (f"{EV}.calls", EV, "calls", "count"),
    (f"{EV}.rows", EV, "rows", "count"),
    (f"{EV}.self_s", EV, "self_s", "s"),
    ("experiment.kernel.flops_computed", EV, "flops_computed", "count"),
    ("experiment.kernel.bytes_computed", EV, "bytes_computed", "count"),
    ("metrics.index_sums.s", "metrics.index_sums", "s", "s"),
    ("metrics.fitness.s", "metrics.fitness", "s", "s"),
    ("ga.run_ga.calls", "ga.run_ga", "calls", "count"),
    ("ga.run_ga.self_s", "ga.run_ga", "self_s", "s"),
    ("experiment.simulate_gains.s", "experiment.simulate_gains", "s", "s"),
    ("lti.step_response.calls", "lti.step_response", "calls", "count"),
    ("lti.step_response.s", "lti.step_response", "s", "s"),
    ("lti.step_response.steps", "lti.step_response", "steps", "count"),
    ("lti.closed_loop.s", "lti.closed_loop", "s", "s"),
    ("experiment.loop_margin.s", "experiment.loop_margin", "s", "s"),
    ("metrics.stability_margin.s", "metrics.stability_margin", "s", "s"),
    ("metrics.routh_stable.calls", "metrics.routh_stable", "calls", "count"),
    ("metrics.standard_measures.s", "metrics.standard_measures", "s", "s"),
    ("delay.delayed_step_sim.calls", "delay.delayed_step_sim", "calls",
     "count"),
    ("delay.delayed_step_sim.s", "delay.delayed_step_sim", "s", "s"),
    ("experiment.emit_csv.s", "experiment.emit_csv", "s", "s"),
    ("experiment.emit_csv.bytes", "experiment.emit_csv", "bytes", "count"),
    ("plots.emit_plots.s", "plots.emit_plots", "s", "s"),
    ("plots.emit_plots.bytes", "plots.emit_plots", "bytes", "count"),
)


def per_layer(plain, traced):
    """Per-module figures from the traced units, and the tracing overhead."""
    from workloads import flag_split
    n = len(traced)
    agg = {}
    for _, tracer in traced:
        for name, s in tracer.summary().items():
            a = agg.setdefault(name, {})
            for k, v in s.items():
                a[k] = a.get(k, 0) + v

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    margin_routh = sum(t.child_calls("metrics.routh_stable",
                                     "metrics.stability_margin")
                       for _, t in traced)
    plain_wall = statistics.median(u.wall for u in plain)
    overhead = statistics.median(u.wall for u, _ in traced) - plain_wall
    m = {metric: (get(span, key) / n, unit)
         for metric, span, key, unit in PER_UNIT}
    m.update({
        f"{EV}.share": (get(EV, "self_s") / sum(u.wall for u, _ in traced),
                        "ratio"),
        "experiment.kernel.row_steps_per_s": (
            ratio(get(EV, "row_steps"), get(EV, "self_s")), "1/s"),
        "experiment.kernel.flops_per_byte_computed": (
            ratio(get(EV, "flops_computed"), get(EV, "bytes_computed")),
            "ratio"),
        "ga.penalized_frac": (ratio(get(EV, "penalized"), get(EV, "rows")),
                              "ratio"),
        "ga.nonconverged_frac": (ratio(get("ga.run_ga", "nonconverged"),
                                       get("ga.run_ga", "calls")), "ratio"),
        "experiment.retried_frac": (
            ratio(sum(u.retried for u, _ in traced),
                  sum(len(u.cells) for u, _ in traced)), "ratio"),
        "metrics.routh_stable.per_margin": (
            ratio(margin_routh, get("metrics.stability_margin", "calls")),
            "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / plain_wall, "ratio"),
        "trace.spans": (sum(len(t.spans) for _, t in traced) / n, "count"),
    })
    m.update(flag_split(plain[0].verdicts))
    return m


def check_history(workload, seed, env, digests, problems):
    """Compare output digests with earlier runs of the same code and seed."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            history = json.load(fh)
    except FileNotFoundError:
        history = {}
    key = f"{workload}|seed={seed}|code={env['code_sha256']}|" \
          f"bench={env['bench_sha256']}"
    if key in history and history[key] != digests:
        problems.append(f"outputs differ from an earlier run of the same "
                        f"code and seed: {digests} vs {history[key]}")
    history.setdefault(key, digests)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-grid", "tune-wide", "row-report"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pidga", "__init__.py")):
        print(f"error: no pidga sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH, SRC]
    import workloads
    workloads.quiet_delay_rounding()
    os.makedirs(OUT, exist_ok=True)

    env = environment()
    env["load_before"] = load_average(env, "before")
    problems = []
    setup_s = setup_time(args.workload, args.seed)
    w = workloads.WORKLOADS[args.workload]
    plain, traced = measure(w, args.seed, args.seconds, args.trace, problems)
    check_history(args.workload, args.seed, env, plain[0].digests, problems)
    env["load_after"] = load_average(env, "after")

    e2e, extra = end_to_end(plain, setup_s)
    layers = per_layer(plain, traced) if args.trace else {}
    metrics = layers if args.trace else e2e
    attempted = sum(u.attempted for u in plain)
    failed = sum(u.failed for u in plain)
    correct = not problems

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        for i, (_, tracer) in enumerate(traced):
            tracer.dump(os.path.join(OUT, "spans", f"{tag}-unit{i}.jsonl"))
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "problems": problems,
                   "digests": plain[0].digests,
                   "unit_walls": [u.wall for u in plain],
                   "row_ms_best": row_best(plain),
                   "traced_unit_walls": [u.wall for u, _ in traced],
                   "metrics": {**e2e, **extra, **layers}},
                  fh, indent=1)

    print(f"pidga benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for k, v in env.items():
        print(f"  env {k}: {v}")
    for name, (value, unit) in {**e2e, **extra, **layers}.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, digest in plain[0].digests.items():
        print(f"  sha256 {name} {digest}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
