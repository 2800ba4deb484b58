"""One warm hyfermi process: import, set up a workload, then (unless
--setup-only) run its timed loop, and print one JSON line.

With --trace 1 the loop runs half its time untraced, then installs the
span wrappers and runs the other half traced, continuing the same input
stream; the two rates give the tracing overhead.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402


def _log_doc(log):
    return {"latencies": log.latencies, "failures": log.failures,
            "stats": harness.program_stats(log)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    harness.pin_threads()
    hyfermi = harness.import_hyfermi()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    result = {"setup_s": time.perf_counter() - T_START,
              "env": harness.environment(hyfermi)}
    if not args.setup_only:
        specs = wl.specs(args.seed)
        if args.trace:
            import spans

            plain = harness.check_all(
                harness.timed_loop(specs, wl.run, args.seconds / 2), wl.check)
            rec = spans.Recorder()
            spans.install(rec)
            again = wl.retrace_same_inputs
            traced = harness.check_all(harness.timed_loop(
                wl.specs(args.seed) if again else specs, wl.run, args.seconds / 2,
                first_index=0 if again else len(plain.latencies),
                on_op=lambda i: setattr(rec, "op", i)), wl.check)
            spans_file = harness.write_report(
                f"spans-{args.workload}-seed{args.seed}.json", rec.dump())
            result.update(untraced=_log_doc(plain), traced=_log_doc(traced),
                          summary=rec.summary(), counters=dict(rec.counters),
                          same_inputs=again, missing=rec.missing,
                          distinct_term_sets=rec.distinct_term_sets(),
                          spans_file=str(spans_file))
        else:
            outcomes = harness.timed_loop(specs, wl.run, args.seconds)
            result["peak_rss_mb"] = harness.peak_rss_mb()
            result["untraced"] = _log_doc(harness.check_all(outcomes, wl.check))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
