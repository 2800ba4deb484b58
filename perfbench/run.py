"""hyfermi benchmark: one command, four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cli-quick, oracle-warm, fock-build, fock-scan, or ``all`` for the
four in turn (cli-quick-hardcore also runs, but is not in BENCHMARK.json).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run. Every earlier
line is for people. Run from the root of a checkout: hyfermi is imported
from its src/ and nowhere else. See README.md.
"""

import argparse
import compileall
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import harness

harness.pin_threads()   # before numpy loads: BLAS reads its thread count once
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
LISTED = ("cli-quick", "oracle-warm", "fock-build", "fock-scan")
SETUP_RUNS = 3          # fresh set-ups per run; setup_s is their median
CHILD_TIMEOUT = 170.0   # seconds; no single process of a run may take longer


def _python(*argv, timeout=CHILD_TIMEOUT):
    """Run a Python child from the checkout root and wait for it."""
    return subprocess.run([sys.executable, *argv], cwd=harness.ROOT, env=harness.child_env(),
                          capture_output=True, text=True, timeout=timeout, check=False)


def _worker(args, *extra):
    proc = _python(str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), *extra)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _oplog(latencies, failures):
    log = harness.OpLog()
    log.latencies, log.failures = latencies, failures
    return log


def _both(plain, traced):
    return _oplog(plain.latencies + traced.latencies, plain.failures + traced.failures)


def _trace_extra(plain, traced, same_inputs):
    """Untraced and traced rates; on the common prefix when both halves
    ran the same inputs."""
    a, b = plain.latencies, traced.latencies
    if same_inputs:
        m = min(len(a), len(b))
        a, b = a[:m], b[:m]
    untraced, rate = len(a) / sum(a), len(b) / sum(b)
    return {"trace.untraced_ops_per_s": untraced, "trace.traced_ops_per_s": rate,
            "trace.overhead": untraced / rate - 1.0}


# ------------------------------------------------------------ warm runs


def run_warm(args):
    if not args.trace:
        setups = [_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)]
        main = _worker(args)
        log = _oplog(main["untraced"]["latencies"], main["untraced"]["failures"])
        e2e = harness.end_to_end(log, setups + [main["setup_s"]], main["peak_rss_mb"],
                                 workloads.WORKLOADS[args.workload].tail_percentile)
        return log, e2e, main["env"], {"setup_samples": setups + [main["setup_s"]]}
    main = _worker(args)
    plain, traced = (_oplog(main[k]["latencies"], main[k]["failures"])
                     for k in ("untraced", "traced"))
    values, reasons = harness.layer_metrics(
        main["summary"], main["counters"], len(traced.latencies), main["traced"]["stats"],
        _trace_extra(plain, traced, main["same_inputs"]), main["missing"],
        main["distinct_term_sets"])
    return (_both(plain, traced), values, main["env"],
            {"zero_reasons": reasons, "spans_file": main["spans_file"]})


# ------------------------------------------------------------- cli runs


def import_profile(stderr):
    """From ``-X importtime`` output: seconds to import hyfermi.cli, seconds
    spent in scipy module bodies, and modules imported, over its subtree."""
    group = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        group.append((int(self_us), int(cum_us), name.strip()))
        if depth == 0:
            if name.strip() == "hyfermi.cli":
                scipy_us = sum(s for s, _, n in group if n == "scipy" or n.startswith("scipy."))
                return {"cli.import_s": int(cum_us) / 1e6, "cli.import_scipy_s": scipy_us / 1e6,
                        "cli.import_modules": len(group)}
            group = []
    raise SystemExit("perfbench: no hyfermi.cli entry in the -X importtime output")


def run_cli(args):
    """The client imports neither numpy nor hyfermi until the loop is done:
    a child's peak RSS includes its parent's at fork, so the client stays
    smaller than any hyfermi process while it times them."""
    wl = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(1 if args.trace else SETUP_RUNS):
        # a bare import, which also shows where children find hyfermi
        t0 = time.perf_counter()
        proc = _python("-c", "import sys, hyfermi.cli; sys.stdout.write(hyfermi.cli.__file__)")
        setups.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing hyfermi.cli failed: {proc.stderr}")
        harness.check_module_path(proc.stdout)

    def run(spec):
        proc = _python("-m", "hyfermi.cli", *spec["argv"])
        return proc.returncode, proc.stdout, proc.stderr

    def check(spec, out):
        return check_cli(spec["cmd"], spec["params"], *out)

    specs = wl.specs(args.seed)
    if not args.trace:
        outcomes = harness.timed_loop(specs, run, args.seconds)
        rss = harness.peak_rss_mb(resource.RUSAGE_CHILDREN)
        hyfermi = harness.import_hyfermi()
        from checks import check_cli

        log = harness.check_all(outcomes, check)
        e2e = harness.end_to_end(log, setups, rss, wl.tail_percentile)
        return log, e2e, harness.environment(hyfermi), {"setup_samples": setups}

    plain_outcomes = harness.timed_loop(specs, run, args.seconds / 2)
    profile = import_profile(_python("-X", "importtime", "-c", "import hyfermi.cli").stderr)
    harness.OUT.mkdir(parents=True, exist_ok=True)
    dump = harness.OUT / f"spans-{args.workload}-seed{args.seed}-op.json"
    summary, counters, missing = {}, {}, set()

    def run_traced(spec):
        dump.unlink(missing_ok=True)
        proc = _python(str(HERE / "cli_child.py"), str(dump), *spec["argv"])
        doc = json.loads(dump.read_text())
        harness.merge_summaries(summary, doc["summary"])
        for key, val in doc["counters"].items():
            counters[key] = counters.get(key, 0.0) + val
        missing.update(doc["missing"])
        return proc.returncode, proc.stdout, proc.stderr

    traced_outcomes = harness.timed_loop(wl.specs(args.seed), run_traced, args.seconds / 2)
    hyfermi = harness.import_hyfermi()
    from checks import check_cli

    plain = harness.check_all(plain_outcomes, check)
    traced = harness.check_all(traced_outcomes, check)
    run_s = [s["run_s"] for s in plain.stats if "run_s" in s]
    extra = {"cli.run_s": sum(run_s) / len(run_s),
             "cli.process_overhead_s": (sum(plain.latencies) - sum(run_s)) / len(run_s),
             **profile, **_trace_extra(plain, traced, True)}
    values, reasons = harness.layer_metrics(summary, counters, len(traced.latencies),
                                            harness.program_stats(traced), extra,
                                            sorted(missing), 0)
    return _both(plain, traced), values, harness.environment(hyfermi), {"zero_reasons": reasons}


# --------------------------------------------------------------- output


def report(args, log, metrics, env, details):
    n, failed = len(log.latencies), len(log.failures)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{n} ops attempted, {failed} failed")
    if args.trace:
        units = {name: unit for name, unit, _ in harness.PER_LAYER}
        for name, value in metrics.items():
            why = details["zero_reasons"].get(name)
            print(f"  {name:<52} {value:>14.6g} {units[name]}" + (f"  ({why})" if why else ""))
        shown = metrics
    else:
        tail_q = workloads.WORKLOADS[args.workload].tail_percentile
        beyond = sum(1 for x in log.latencies if x > metrics["latency_tail_s"])
        notes = {"setup_s": f"median of {len(details['setup_samples'])} fresh set-ups",
                 "ops_per_s": "ops / summed op latency",
                 "latency_p50_s": f"median of {n}",
                 "latency_tail_s": f"p{tail_q} of {n}, {beyond} beyond",
                 "failed_share": f"{failed} of {n}",
                 "peak_rss_mb": "max resident set of the processes doing the work"}
        for name, value in metrics.items():
            print(f"  {name:<16} {value:>12.6g} {harness.E2E_UNITS[name]:<5} ({notes[name]})")
        shown = {k: metrics[k] for k in harness.E2E_REPORTED}
    source = harness.source_identity()
    print("environment: " + json.dumps(env))
    print("source: " + json.dumps(source))
    path = harness.write_report(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "metrics": metrics, "latencies": log.latencies,
         "failures": log.failures, "environment": env, "source": source, **details})
    print(f"report: {os.path.relpath(path, harness.ROOT)}")
    units = ({name: unit for name, unit, _ in harness.PER_LAYER} if args.trace
             else harness.E2E_UNITS)
    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()}}
    print(json.dumps(result), flush=True)


def run_all(args):
    """Every listed workload in its own run of this script."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in LISTED:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    harness.require_source()
    # the build step: byte-compile the package so no run pays for it
    compileall.compile_dir(str(harness.SRC / "hyfermi"), quiet=1)
    if args.workload == "all":
        return run_all(args)
    runner = run_warm if args.workload in workloads.WARM else run_cli
    report(args, *runner(args))


if __name__ == "__main__":
    main()
