"""Spans around calls into hyfermi's public functions, recorded from the
benchmark's own files.

``install`` wraps each target function in every ``hyfermi*`` module
namespace that binds it under its own name (so ``hyfermi.quadrature.pair_sum``
and ``hyfermi.cli.solve_scattering`` are timed, the ``*_nb`` / ``*_np``
aliases never are). A target that no longer exists is recorded with zero
calls instead of raising, so the traced run survives refactors. Nothing is
wrapped unless ``install`` is called, and the untraced runs never call it.

Spans are kept in memory as (name, start, end, parent, op) tuples and
written out when the run ends. Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

import functools
import sys
import time
from collections import defaultdict

# (layer, function) pairs; the layer is the module under hyfermi.
TARGETS = (
    ("hyformula", "F_closed"),
    ("hyformula", "F_from_f"),
    ("hyformula", "f_aux"),
    ("hyformula", "hy_energy"),
    ("hyformula", "baseline_energies"),
    ("potentials", "solve_scattering"),
    ("potentials", "born_length"),
    ("potentials", "periodize_phi"),
    ("potentials", "bethe_goldstone_solve"),
    ("quadrature", "F_quadrature"),
    ("quadrature", "singular_integral_bound"),
    ("quadrature", "gap_cutoff_study"),
    ("quadrature", "g_pointwise"),
    ("quadrature", "lattice_sum_convergence"),
    ("quadrature", "inner_pair"),
    ("kernels", "pair_sum"),
    ("kernels", "opstring_apply"),
    ("kernels", "lattice_chi_sum"),
    ("fock", "build_lattice"),
    ("fock", "build_basis"),
    ("fock", "vhat_from_potential"),
    ("fock", "build_hamiltonian"),
    ("fock", "build_corr_terms"),
    ("fock", "build_generator"),
    ("fock", "ph_transform"),
    ("fock", "ffg_energy"),
    ("fock", "ffg_energy_wick"),
    ("fock", "corr_identity_report"),
    ("fock", "corr_hamiltonian"),
    ("fock", "trial_state"),
    ("fock", "trial_energy"),
    ("fock", "ground_energy"),
)


def _span_name(layer, name, args, kwargs):
    if name == "build_generator":
        which = kwargs.get("which", args[2] if len(args) > 2 else "")
        return f"fock.build_generator_{which}"
    return f"{layer}.{name}"


def _counters(name, args, result):
    """Work counts read from a call's arguments and result."""
    if name == "pair_sum":
        ns, nt = len(args[0]), len(args[2])
        # computed, not measured: four node/weight vectors plus one
        # ns x nt float64 matrix, the least a dense pair sum touches
        return {"kernels.pair_sum.node_pairs": ns * nt,
                "kernels.pair_sum.bytes_computed": 8 * (2 * ns + 2 * nt + ns * nt)}
    if name == "opstring_apply":
        return {"kernels.opstring_apply.states": args[3]}
    if name == "periodize_phi":
        return {"potentials.periodize_phi.coefficients": len(result.coefficients)}
    if name == "bethe_goldstone_solve":
        return {"potentials.bethe_goldstone_solve.picard_iterations": result.iterations,
                "potentials.bethe_goldstone_solve.direct_solves": int(result.used_direct_solve)}
    if name in ("build_hamiltonian", "build_generator"):
        return {"fock.nnz": result.matrix.nnz}
    if name == "build_corr_terms":
        return {"fock.nnz": sum(t.matrix.nnz for t in result.values())}
    return {}


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op, failed)
        self.counters = defaultdict(float)
        self.missing = []        # targets absent from this build of hyfermi
        self.patched = []        # (module, name, original) replaced by install
        self.op = None           # id of the timed op in progress, else None
        self._stack = []
        self._term_sets = []     # corr_hamiltonian arguments, kept alive so ids stay unique

    def wrap(self, layer, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            rec.spans.append(None)
            parent = rec._stack[-1] if rec._stack else -1
            rec._stack.append(idx)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx] = (_span_name(layer, name, args, kwargs), t0, t1,
                                  parent, rec.op, failed)
            if rec.op is not None:
                try:
                    counts = _counters(name, args, result)
                except (AttributeError, IndexError, TypeError):
                    counts = {}   # a changed signature or result loses its counts only
                for key, val in counts.items():
                    rec.counters[key] += val
                if name == "corr_hamiltonian":
                    terms = args[0] if args else kwargs["terms"]
                    if not any(t is terms for t in rec._term_sets):
                        rec._term_sets.append(terms)
            return result

        return traced

    def distinct_term_sets(self):
        return len(self._term_sets)

    def summary(self):
        """Per span name: calls, total self seconds and failed calls, over
        spans that belong to a timed op."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for i, (name, t0, t1, parent, op, failed) in enumerate(self.spans):
            if op is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[i]
            row["failed"] += int(failed)
        return dict(out)

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "counters": dict(self.counters),
                "missing": self.missing,
                "distinct_term_sets": self.distinct_term_sets()}


def install(recorder):
    """Wrap every target in every loaded hyfermi module that binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hyfermi" or n.startswith("hyfermi."))]
    for layer, name in TARGETS:
        home = sys.modules.get(f"hyfermi.{layer}")
        original = getattr(home, name, None) if home is not None else None
        if original is None:
            recorder.missing.append(f"hyfermi.{layer}.{name}")
            continue
        wrapper = recorder.wrap(layer, name, original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                recorder.patched.append((mod, name, original))


def uninstall(recorder):
    """Put back every function ``install`` replaced."""
    for mod, name, original in reversed(recorder.patched):
        setattr(mod, name, original)
    recorder.patched.clear()
