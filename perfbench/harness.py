"""Shared plumbing: the checkout's source tree, the environment record,
the closed timing loop, statistics and the per-layer metric table."""

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# One BLAS/OpenMP thread per process: the workloads are one closed-loop
# client, and pinning keeps runs on a shared machine comparable.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env=os.environ):
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def child_env():
    """Environment for hyfermi child processes: the checkout's src first."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def require_source():
    """Exit nonzero unless this checkout holds hyfermi's source."""
    if not (SRC / "hyfermi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'hyfermi'} not found; run from a "
                         "checkout of the repository")


def import_hyfermi():
    """Import hyfermi from the checkout's src/ and refuse any other copy."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hyfermi

    check_module_path(hyfermi.__file__)
    return hyfermi


def check_module_path(path):
    want = (SRC / "hyfermi").resolve()
    if Path(path).resolve().parent != want:
        raise SystemExit(f"perfbench: hyfermi resolved to {path}, not {want}")


def source_identity():
    """The git commit when there is one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyfermi").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"module_path": str((SRC / "hyfermi").resolve()),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def _blas_threads():
    import glob
    import ctypes

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(hyfermi):
    """nproc, interpreter and library versions, BLAS and backend."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads is not None and threads > nproc:
        raise SystemExit(f"perfbench: BLAS runs {threads} threads on {nproc} cores")
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_threads": threads,
            "blas_threads_requested": BLAS_THREADS, "backend": hyfermi.BACKEND}


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


# ------------------------------------------------------------ timed loop


class OpLog:
    """Latencies, failures and program work counts of one timed loop."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.stats = []

    def record(self, index, spec, latency, problems, stats):
        self.latencies.append(latency)
        self.stats.append(stats)
        if problems:
            self.failures.append({"op": index, "input": spec, "problems": problems})
            print(f"FAILED op {index}: {json.dumps(spec)}: {'; '.join(problems)}",
                  file=sys.stderr)


def timed_loop(specs, run, seconds, first_index=0, on_op=None):
    """Closed loop, one client: run op after op until ``seconds`` of wall
    time have passed. Returns (index, spec, latency, output, error) per op;
    outputs are checked after the loop, so checking neither counts against
    the run time nor holds memory in the client while it times children.
    ``on_op(i)`` is told which op is in progress, ``on_op(None)`` when none."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while time.perf_counter() < deadline:
        spec = next(specs)
        if on_op:
            on_op(index)
        t0 = time.perf_counter()
        try:
            out, error = run(spec), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, exc
        latency = time.perf_counter() - t0
        if on_op:
            on_op(None)
        outcomes.append((index, spec, latency, out, error))
        index += 1
    return outcomes


def check_all(outcomes, check):
    """Check every outcome; an output the check cannot read is a failed op."""
    log = OpLog()
    for index, spec, latency, out, error in outcomes:
        if error is not None:
            problems, stats = [f"raised {error!r}"], {}
        else:
            try:
                problems, stats = check(spec, out)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                problems, stats = [f"malformed output: {exc!r}"], {}
        log.record(index, spec, latency, problems, stats)
    return log


# ------------------------------------------------------------ statistics


def percentile(values, q):
    """Linear-interpolated percentile q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(log, setup_samples, rss_mb, tail_q):
    lat = log.latencies
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, tail_q),
        "failed_share": len(log.failures) / len(lat),
        "peak_rss_mb": rss_mb,
    }


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
             "latency_tail_s": "s", "failed_share": "ratio", "peak_rss_mb": "MB"}
# failed_share is zero on a healthy run, so BENCHMARK.json cannot bound it
# as a share of the parent's median; it is printed and carried by "failed".
E2E_REPORTED = ("setup_s", "ops_per_s", "latency_p50_s", "latency_tail_s",
                "peak_rss_mb")


def program_stats(log):
    """Sums of the program's own counts over ops, and the worst error ratio."""
    total = {"evaluations": 0.0, "flagged": 0.0, "err_to_tol_max": 0.0}
    for s in log.stats:
        total["evaluations"] += s.get("evaluations", 0)
        total["flagged"] += s.get("flagged", 0)
        total["err_to_tol_max"] = max(total["err_to_tol_max"], s.get("err_to_tol", 0.0))
    return total


# ------------------------------------------------------- per-layer table

# (metric, unit, better). Times and counts are per timed op of the traced
# half of a --trace 1 run; cli.import_* come from one -X importtime
# process, cli.run_s and cli.process_overhead_s from the untraced half.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("cli.import_modules", "count", "lower"),
    ("cli.run_s", "s/op", "lower"),
    ("cli.process_overhead_s", "s/op", "lower"),
    ("hyformula.self_s", "s/op", "lower"),
    ("potentials.solve_scattering.calls", "count/op", "lower"),
    ("potentials.solve_scattering.self_s", "s/op", "lower"),
    ("potentials.solve_scattering.failed", "count/op", "lower"),
    ("potentials.periodize_phi.self_s", "s/op", "lower"),
    ("potentials.periodize_phi.coefficients", "count/op", "lower"),
    ("potentials.bethe_goldstone_solve.self_s", "s/op", "lower"),
    ("potentials.bethe_goldstone_solve.picard_iterations", "count/op", "lower"),
    ("potentials.bethe_goldstone_solve.direct_solves", "count/op", "lower"),
    ("quadrature.F_quadrature.self_s", "s/op", "lower"),
    ("quadrature.singular_integral_bound.self_s", "s/op", "lower"),
    ("quadrature.gap_cutoff_study.self_s", "s/op", "lower"),
    ("quadrature.inner_pair.calls", "count/op", "lower"),
    ("quadrature.inner_pair.self_s", "s/op", "lower"),
    ("quadrature.evaluations", "count/op", "lower"),
    ("quadrature.flagged", "count/op", "lower"),
    ("quadrature.err_to_tol_max", "ratio", "lower"),
    ("kernels.pair_sum.calls", "count/op", "lower"),
    ("kernels.pair_sum.self_s", "s/op", "lower"),
    ("kernels.pair_sum.node_pairs", "count/op", "lower"),
    ("kernels.pair_sum.bytes_computed", "B/op", "lower"),
    ("kernels.opstring_apply.calls", "count/op", "lower"),
    ("kernels.opstring_apply.self_s", "s/op", "lower"),
    ("kernels.opstring_apply.states", "count/op", "lower"),
    ("kernels.lattice_chi_sum.calls", "count/op", "lower"),
    ("kernels.lattice_chi_sum.self_s", "s/op", "lower"),
    ("fock.build_hamiltonian.self_s", "s/op", "lower"),
    ("fock.build_corr_terms.self_s", "s/op", "lower"),
    ("fock.build_generator_B1.self_s", "s/op", "lower"),
    ("fock.build_generator_B2.self_s", "s/op", "lower"),
    ("fock.ph_transform.calls", "count/op", "lower"),
    ("fock.ph_transform.self_s", "s/op", "lower"),
    ("fock.corr_identity_report.self_s", "s/op", "lower"),
    ("fock.nnz", "count/op", "lower"),
    ("fock.trial_energy.calls", "count/op", "lower"),
    ("fock.trial_energy.self_s", "s/op", "lower"),
    ("fock.trial_state.self_s", "s/op", "lower"),
    ("fock.ground_energy.self_s", "s/op", "lower"),
    ("fock.corr_hamiltonian.calls", "count/op", "lower"),
    ("fock.corr_hamiltonian.self_s", "s/op", "lower"),
    ("fock.corr_hamiltonian.useful_ratio", "ratio", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def merge_summaries(into, summary):
    for name, row in summary.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        for key in acc:
            acc[key] += row[key]
    return into


def layer_metrics(summary, counters, n_ops, stats, extra, missing, distinct_term_sets):
    """Per-layer metric values and, for each zero, the reason it is zero."""
    values, reasons = {}, {}
    missing_spans = {m.removeprefix("hyfermi.") for m in missing}
    for name, _, _ in PER_LAYER:
        head, _, field = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif name == "hyformula.self_s":
            value = sum(r["self_s"] for k, r in summary.items()
                        if k.startswith("hyformula.")) / n_ops
        elif name == "quadrature.err_to_tol_max":
            value = stats["err_to_tol_max"]
        elif name in ("quadrature.evaluations", "quadrature.flagged"):
            value = stats[field] / n_ops
        elif name == "fock.corr_hamiltonian.useful_ratio":
            calls = summary.get("fock.corr_hamiltonian", {}).get("calls", 0)
            value = distinct_term_sets / calls if calls else 0.0
        elif field in ("calls", "self_s", "failed"):
            value = summary.get(head, {}).get(field, 0) / n_ops
        else:
            value = counters.get(name, 0.0) / n_ops
        values[name] = value
        if value == 0:
            if name.startswith("cli."):
                reasons[name] = "measured on cli-quick only"
            elif any(head == m or head.startswith(m + "_") for m in missing_spans):
                reasons[name] = f"hyfermi.{head} not found in this build: zero calls"
            elif any(k == head or k.startswith(head + ".") or k.startswith(head + "_")
                     for k in summary):
                reasons[name] = "called, and counted zero"
            else:
                reasons[name] = "not called inside a timed op on this workload"
    return values, reasons


def write_report(name, report):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(report, indent=1, default=str))
    return path
