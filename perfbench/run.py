"""Benchmark of the moldesign CLI stages, run from the repository root.

    python3 perfbench/run.py --workload ga-design --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 the workload is set up several times, then its operation is
repeated for --seconds with tracing off; the result carries the end-to-end
metrics, stage time in units of the host-speed reference kernel
(hostspeed.py) among them. With --trace 1 the workload's fixed operations run once untraced
and once traced; the result carries the per-layer metrics and the tracing
overhead. Every operation's outputs are checked, and a failed check or an
exception counts the operation as failed. The last line of standard output
is the JSON result; the line before it gives the environment, the
workload's stage-level figures and any failures. `--workload all` runs each
workload in its own process and prints one table.
"""

import os

# One BLAS thread: each workload runs as one process on one core, so its
# timings do not depend on how many cores the machine has.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import SpeedProbe, clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ga-design", "bo-design", "train-ad", "enumerate")
# Set-up repeats until both limits are reached, so that a cheap set-up is
# timed over several seconds of host load and not over one instant.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 5.0
# A round figure for the reference kernel's median time on the 2-vCPU Xeon
# VM the benchmark was tuned on (2.0 to 3.5 ms from run to run); setup_s is
# scaled to a host of that speed.
NOMINAL_KERNEL_S = 0.0025


def import_library():
    """Import moldesign from this checkout's src/, and nowhere else."""
    package = ROOT / "src" / "moldesign"
    if not (package / "__init__.py").is_file():
        sys.exit("error: no moldesign package at %s" % package)
    sys.path.insert(0, str(ROOT / "src"))
    import moldesign
    if Path(moldesign.__file__).resolve().parent != package.resolve():
        sys.exit("error: imported moldesign from %s, not %s"
                 % (moldesign.__file__, package))


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


class Ledger:
    """Operations attempted, their results, and why any failed."""

    def __init__(self):
        self.attempted = 0
        self.results = []
        self.failures = []
        self.fingerprints = {}

    def attempt(self, workload, state, key, tracer=None):
        self.attempted += 1
        gc.collect()
        speed = SpeedProbe()
        try:
            if tracer is not None:
                tracer.op_id = self.attempted
                tracer.enabled = True
            try:
                with speed:
                    out = workload.operation(state, key)
            finally:
                if tracer is not None:
                    tracer.enabled = False
            result = workload.finish(state, key, out)
            # stage_s is timed by hostspeed.clock(), net of the probe
            result.reference_s = speed.reference_s()
            result.stage_ref = result.stage_s / result.reference_s
        except Exception as e:  # a failed operation is counted, not fatal
            self.failures.append("op %d (key %s): %s: %s"
                                 % (self.attempted, key, type(e).__name__, e))
            return None
        first = self.fingerprints.setdefault(key, result.fingerprint)
        if first != result.fingerprint:
            self.failures.append("op %d (key %s): records differ from the "
                                 "first run of this key" % (self.attempted, key))
            return None
        self.results.append(result)
        return result


def per_key_median(results, value):
    """Median of value(result) over each key's operations, averaged over
    the keys. Keys differ in work (ga-design's loop seeds by up to a third),
    so a median over all operations would depend on which keys ran last."""
    per_key = {}
    for r in results:
        per_key.setdefault(r.key, []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in per_key.values())


def stage_figures(results, units):
    """Each figure as per_key_median; quality figures repeat exactly on
    reruns of a key, so theirs is the mean over keys."""
    out = {"ops": {"value": len(results), "unit": "count"},
           "keys": {"value": len({r.key for r in results}), "unit": "count"}}
    for name in results[0].figures:
        out[name] = {"value": per_key_median(results,
                                             lambda r: r.figures[name]),
                     "unit": units[name]}
    return out


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    setups = []
    with SpeedProbe() as speed:
        while len(setups) < SETUP_MIN_REPEATS \
                or sum(setups) < SETUP_MIN_SECONDS:
            gc.collect()
            t0 = clock()
            state = workload.setup(seed)
            setups.append(clock() - t0)
    # seconds on a host where the reference kernel takes NOMINAL_KERNEL_S,
    # so that host drift between runs does not read as set-up work
    setup_scale = NOMINAL_KERNEL_S / speed.reference_s()
    keys = workload.op_keys(seed)
    ledger = Ledger()
    started = time.perf_counter()
    i = 0
    while i < workload.min_ops(seed) \
            or time.perf_counter() - started < seconds:
        ledger.attempt(workload, state, keys[i % len(keys)])
        i += 1
    results = ledger.results
    metrics = {}
    if results:
        metrics = {
            "setup_s": (statistics.median(setups) * setup_scale, "s"),
            "stage_ref": (per_key_median(results, lambda r: r.stage_ref),
                          "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    info = {"setup_samples_s": setups,
            "setup_reference_s": speed.reference_s(),
            "stage_samples_s": [r.stage_s for r in results],
            "stage_ref_samples": [r.stage_ref for r in results],
            "reference_samples_s": [r.reference_s for r in results]}
    return ledger, metrics, info


def measure_traced(workload, seed):
    """The fixed operations untraced, then traced: per-layer metrics."""
    from tracer import PROBES, Tracer
    from workloads import out_dir
    state = workload.setup(seed)
    ops = workload.op_keys(seed)
    ledger = Ledger()
    untraced = [ledger.attempt(workload, state, k) for k in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [ledger.attempt(workload, state, k, tracer) for k in ops]
    finally:
        tracer.uninstall()
    untraced = [r for r in untraced if r is not None]
    traced = [r for r in traced if r is not None]
    metrics = {}
    if untraced and traced:
        for probe, (calls, self_s) in tracer.layer_table(len(ops)).items():
            metrics[probe + ".calls"] = (calls, "calls/op")
            metrics[probe + ".self_s"] = (self_s, "s/op")
        metrics.update(tracer.ratios(traced))
        # in reference-kernel units, so that host drift between the
        # untraced and the traced operations cancels
        ratio = statistics.median(r.stage_ref for r in traced) \
            / statistics.median(r.stage_ref for r in untraced) - 1.0
        base_s = statistics.median(r.stage_s for r in untraced)
        metrics["trace.overhead_s"] = (ratio * base_s, "s/op")
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    path = os.path.join(out_dir(), "spans-%s-%d.jsonl.gz"
                        % (workload.name, seed))
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "missing_probes": tracer.missing})
    info = {"missing_probes": tracer.missing, "spans": len(tracer.spans),
            "span_file": os.path.relpath(path), "probes": len(PROBES)}
    return ledger, metrics, info, untraced


def run_one(args):
    import_library()
    from workloads import FIGURE_UNITS, WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.trace:
        ledger, metrics, info, untraced = measure_traced(workload, args.seed)
        figures_from = untraced
    else:
        ledger, metrics, info = measure(workload, args.seed, args.seconds)
        figures_from = ledger.results
    failed = ledger.attempted - len(ledger.results)
    info.update(workload=workload.name, seed=args.seed, trace=args.trace,
                env=environment(), failures=ledger.failures,
                failed_frac=failed / max(ledger.attempted, 1))
    if figures_from:
        info["stage"] = stage_figures(figures_from, FIGURE_UNITS)
    print(json.dumps(info, sort_keys=True))
    if not metrics:
        for line in ledger.failures:
            print(line, file=sys.stderr)
        sys.exit("error: no operation of %s succeeded" % workload.name)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            sys.exit("error: workload %s exited with %d"
                     % (name, proc.returncode))
        rows.append((name, json.loads(lines[-2]), json.loads(lines[-1])))
    for name, info, result in rows:
        print("%s: correct=%s attempted=%d failed=%d failed_frac=%.3g"
              % (name, result["correct"], result["attempted"],
                 result["failed"], info["failed_frac"]))
        for metric, m in result["metrics"].items():
            if args.trace and m["value"] == 0:
                continue
            print("  %-44s %14.6g %s" % (metric, m["value"], m["unit"]))
        for figure, m in sorted(info.get("stage", {}).items()):
            print("  stage.%-38s %14.6g %s" % (figure, m["value"], m["unit"]))
    print(json.dumps({name: result for name, _, result in rows}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
