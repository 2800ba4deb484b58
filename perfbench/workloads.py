"""The benchmark's workloads: inputs drawn from the seed, one op each, and
the check of its output.

Every workload is a closed loop with one client. Op kinds rotate in a
fixed order and only their parameters are drawn, so each run carries the
same mix and run-to-run spread comes from the parameters alone. hyfermi
never sees the seed; its own --seed stays at the default.

``tail_percentile`` is the highest of 50, 75, 80, 90, 95 and 99 that leaves
at least ten samples beyond it at this workload's throughput on the
reference machine, except on fock-scan (see README.md); it is fixed, so a
faster change is compared at the same percentile.

A --trace 1 run times its untraced half and then its traced half on the
same inputs (``retrace_same_inputs``), so the rate ratio is the tracing
overhead alone; fock-build draws fresh inputs instead.
"""

import contextlib
import io
import itertools
import math
import random

# checks imports numpy, so it is imported where an output is checked: the
# cli-quick client must stay small while it times its children

# scatter / hy-eval draw V0 log-uniformly from weak wells up to V0_SAFE.
# Beyond ~3e5 the square-well solver raises or prints NaN (a known defect,
# ROADMAP item 5); cli-quick-hardcore keeps that range and shows it.
V0_SAFE = 1e5
V0_HARDCORE = 1e8
KINDS = ("square-well", "truncated-gaussian")


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rng(seed, name):
    return random.Random(f"{name}:{seed}")


def _flags(params):
    argv = []
    for key, val in params.items():
        argv.append("--" + key.replace("_", "-"))
        if isinstance(val, str):
            argv.append(val)
        else:
            argv += [repr(v) for v in (val if isinstance(val, list) else [val])]
    return argv


# ------------------------------------------------------------ cli-quick

CLI_COMMANDS = ("scatter", "hy-eval", "hy-table", "lattice-sum", "quad-g")


class CliQuick:
    """One fresh ``python -m hyfermi.cli <cmd>`` process per op."""

    name = "cli-quick"
    tail_percentile = 50
    retrace_same_inputs = True
    v0_max = V0_SAFE

    def specs(self, seed):
        rng = _rng(seed, self.name)
        i = 0
        while True:
            yield self.draw(rng, i)
            i += 1

    def draw(self, rng, i):
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        turn = i // len(CLI_COMMANDS)
        if cmd in ("scatter", "hy-eval"):
            params = {"kind": KINDS[turn % 2],
                      "V0": log_uniform(rng, 1e-2, self.v0_max),
                      "R": rng.uniform(0.5, 1.5)}
            if cmd == "hy-eval":
                params["rho_up"] = log_uniform(rng, 1e-5, 1e-2)
                params["rho_down"] = log_uniform(rng, 1e-5, 1e-2)
        elif cmd == "hy-table":
            params = {"x_min": rng.uniform(0.02, 0.5), "x_max": rng.uniform(1.5, 8.0),
                      "x_count": rng.randint(10, 60)}
        elif cmd == "lattice-sum":
            L0 = rng.uniform(8.0, 24.0)
            params = {"rho_up": log_uniform(rng, 1e-4, 1e-2),
                      "rho_down": log_uniform(rng, 1e-4, 1e-2),
                      "L_grid": [L0, 2 * L0, 4 * L0, 8 * L0]}
        else:
            # p >= 2.5 keeps both Pauli shells full balls, where the check
            # has an exact tensor-Gauss reference
            params = {"x": rng.uniform(0.05, 1.0), "p": rng.uniform(2.5, 10.0)}
        argv = [cmd] + _flags(params)
        if cmd == "lattice-sum":
            params["gamma"] = 1.0 / 9.0
        return {"cmd": cmd, "params": params, "argv": argv}


class CliQuickHardcore(CliQuick):
    """cli-quick with V0 up to the hard-core value 1e8; not timed by
    BENCHMARK.json because its square-well draws above ~3e5 fail."""

    name = "cli-quick-hardcore"
    v0_max = V0_HARDCORE


# ----------------------------------------------------------- oracle-warm


class OracleWarm:
    """One quadrature-oracle or pair-equation call in a warm process."""

    name = "oracle-warm"
    tail_percentile = 80
    retrace_same_inputs = True
    F_TOL, SINGULAR_TOL, GAP_TOL, BG_TOL = 5e-3, 1e-3, 1e-4, 1e-11   # CLI defaults
    # F and gap rows cost about the same, so at 60% of the ops they hold
    # the median inside one cluster; one BG solve in ten is the slow
    # truncated-gaussian kind, which sits beyond the p80 tail
    SLOTS = ("F", "gap", "singular", "F", "gap", "bg", "F", "gap", "singular", "bg")

    def setup(self, seed):
        from hyfermi import potentials, quadrature

        self.q, self.pot = quadrature, potentials
        # fill the Gauss-node cache and load every scipy routine used
        self.run({"kind": "F", "x": 0.5})
        self.run({"kind": "bg", "pot": "square-well", "V0": 4.0, "R": 1.0,
                  "rho_up": 1e-3, "rho_down": 1e-3})

    def specs(self, seed):
        rng = _rng(seed, self.name)
        turns = dict.fromkeys(self.SLOTS, 0)
        for i in itertools.count():
            kind = self.SLOTS[i % len(self.SLOTS)]
            yield self.draw(rng, kind, turns[kind])
            turns[kind] += 1

    def draw(self, rng, kind, turn):
        if kind == "F":
            # below 1, above 1 (the x -> 1/x reflection) and the near-1 branch
            region = turn % 3
            x = (log_uniform(rng, 0.02, 0.999) if region == 0 else
                 log_uniform(rng, 1.001, 8.0) if region == 1 else
                 1.0 + rng.uniform(-0.9e-4, 0.9e-4))
            return {"kind": kind, "x": x}
        if kind == "singular":
            return {"kind": kind, "x": log_uniform(rng, 1e-3, 1.0)}
        if kind == "gap":
            return {"kind": kind, "rho": log_uniform(rng, 1e-4, 1e-2),
                    "rho_up": log_uniform(rng, 1e-4, 1e-2),
                    "rho_down": log_uniform(rng, 1e-4, 1e-2)}
        return {"kind": kind, "pot": KINDS[turn % 2], "V0": log_uniform(rng, 0.1, 1e3),
                "R": rng.uniform(0.8, 1.25), "rho_up": log_uniform(rng, 1e-4, 1e-2),
                "rho_down": log_uniform(rng, 1e-4, 1e-2)}

    def run(self, spec):
        from hyfermi.cutoffs import CutoffConfig, fermi_momentum
        from hyfermi.hyformula import FermiParams

        kind = spec["kind"]
        if kind == "F":
            return self.q.F_quadrature(spec["x"], tol=self.F_TOL)
        if kind == "singular":
            return self.q.singular_integral_bound([spec["x"]], tol=self.SINGULAR_TOL)
        if kind == "gap":
            params = FermiParams(rho_up=spec["rho_up"], rho_down=spec["rho_down"])
            return self.q.gap_cutoff_study(params, CutoffConfig(rho=spec["rho"]),
                                           [spec["rho"]], tol=self.GAP_TOL)
        pot = self.pot.RadialPotential(kind=spec["pot"], V0=spec["V0"], R=spec["R"])
        return self.pot.bethe_goldstone_solve(
            pot, fermi_momentum(spec["rho_up"]), fermi_momentum(spec["rho_down"]),
            tol=self.BG_TOL)

    def check(self, spec, out):
        from checks import check_bg, check_F, check_gap_row, check_singular_row

        kind = spec["kind"]
        if kind == "F":
            return check_F(spec["x"], self.F_TOL, out)
        if kind == "singular":
            return check_singular_row(out[0], self.SINGULAR_TOL)
        if kind == "gap":
            return check_gap_row(out[0], self.GAP_TOL, spec["rho_up"], spec["rho_down"])
        return check_bg(out, self.BG_TOL), {}


# ------------------------------------------------------------ fock-build


def draw_lattice(rng, turn):
    """A 7-momentum lattice: kmax in [unit, sqrt(2) unit) and shells below
    one unit, the only geometry under the mode cap with non-zero generators."""
    L = rng.uniform(5.0, 9.0)
    unit = 2.0 * math.pi / L
    return {"L": L, "kmax": unit * rng.uniform(1.001, 1.41),
            "shells": [unit * rng.uniform(0.1, 0.9), unit * rng.uniform(0.1, 0.9)],
            "kind": KINDS[turn % 2], "V0": log_uniform(rng, 0.1, 10.0),
            "R": rng.uniform(0.5, 1.5)}


def wick_energy(spec):
    from hyfermi import fock
    from hyfermi.potentials import RadialPotential

    lat = fock.build_lattice(spec["L"], spec["kmax"], *spec["shells"])
    pot = RadialPotential(kind=spec["kind"], V0=spec["V0"], R=spec["R"])
    return fock.ffg_energy_wick(lat, fock.vhat_from_potential(lat, pot))


class FockBuild:
    """One whole ``fock-demo`` run, in process, on a lattice not seen before."""

    name = "fock-build"
    tail_percentile = 50
    # a repeated lattice would hit fock's particle-hole transform cache
    retrace_same_inputs = False

    def setup(self, seed):
        from hyfermi import cli

        self.cli = cli
        # a one-momentum lattice runs every stage of the pipeline cheaply
        warm = {"L": 2.0 * math.pi, "kmax": 0.5, "shells": [0.25, 0.25],
                "kind": "square-well", "V0": 1.0, "R": 1.0, "lambda_grid": [0.0, 0.5]}
        self.run(warm)

    def specs(self, seed):
        rng = _rng(seed, self.name)
        i = 0
        while True:
            spec = draw_lattice(rng, i)
            spec["lambda_grid"] = [0.0, rng.uniform(0.25, 1.0)]
            yield spec
            i += 1

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(["fock-demo"] + _flags(spec))
        return code, out.getvalue(), err.getvalue()

    def check(self, spec, out):
        from checks import _NONFINITE, check_fock, parse_cli

        code, stdout, stderr = out
        hit = _NONFINITE.search(stdout) or _NONFINITE.search(stderr)
        if code != 0 or hit:
            return [f"exit code {code}, non-finite {hit.group(0) if hit else None}: "
                    f"{stderr.strip()[-200:]}"], {}
        payload, _ = parse_cli(stdout, "json")
        return check_fock(payload, wick_energy(spec)), {}


# ------------------------------------------------------------- fock-scan


class FockScan:
    """One trial_energy(l1, l2) on one lattice built during set-up.

    The lattice is fock-demo's default for every seed; only the lambda
    pairs are drawn. The cost of a trial energy depends on the lattice and
    potential, so a drawn lattice would make the seed, not the code, set
    the rate."""

    name = "fock-scan"
    # p99 would leave ~35 samples beyond, but there it measures 12-34 ms
    # machine stalls that are unrelated to the input; p95 is the program's
    tail_percentile = 95
    retrace_same_inputs = True
    LATTICE = {"L": 2.0 * math.pi, "kmax": 1.01, "shells": [0.5, 0.5],
               "kind": "square-well", "V0": 4.0, "R": 1.0}

    def setup(self, seed):
        from checks import check_fock
        from hyfermi import fock
        from hyfermi.cutoffs import CutoffConfig
        from hyfermi.potentials import (EtaFunction, RadialPotential,
                                        periodize_phi, solve_scattering)

        spec = self.LATTICE
        lat = fock.build_lattice(spec["L"], spec["kmax"], *spec["shells"])
        basis = fock.build_basis(lat)
        pot = RadialPotential(kind=spec["kind"], V0=spec["V0"], R=spec["R"])
        vhat = fock.vhat_from_potential(lat, pot)
        h = fock.build_hamiltonian(lat, basis, vhat)
        terms = fock.build_corr_terms(lat, basis, vhat)
        e_ffg = fock.ffg_energy(lat, basis, h)
        report = fock.corr_identity_report(lat, basis, h, terms)
        sol = solve_scattering(pot)
        # the same crossover density fock-demo uses: the chi window sits
        # around the first nonzero shell
        gamma = 1.0 / 9.0
        cutoff = CutoffConfig(rho=(0.225 * lat.unit) ** (1.0 / (1.0 / 3.0 - gamma)))
        b1 = fock.build_generator(lat, basis, "B1", phi=periodize_phi(sol, lat.L, cutoff=cutoff),
                                  cutoff=cutoff)
        b2 = fock.build_generator(lat, basis, "B2", cutoff=cutoff,
                                  eta=EtaFunction(a=sol.a, epsilon=cutoff.epsilon,
                                                  kF_up=lat.kF_up, kF_down=lat.kF_down))
        e_ground = fock.ground_energy(lat, basis, h, lat.N_up, lat.N_down)
        problems = check_fock({"E_ffg": e_ffg, "E_ground": e_ground, "trial_energies": [],
                               "identity_residuals": report}, wick_energy(spec))
        if problems:
            raise SystemExit(f"perfbench: fock-scan set-up failed its check: {problems}")
        self.fock, self.state = fock, (lat, basis, terms, b1, b2)
        self.e_ffg, self.e_ground = e_ffg, e_ground
        self.run({"l1": 0.5, "l2": 0.5})

    def specs(self, seed):
        rng = _rng(seed, self.name)
        while True:
            yield {"l1": rng.uniform(0.0, 1.5), "l2": rng.uniform(0.0, 1.5)}

    def run(self, spec):
        return self.e_ffg + self.fock.trial_energy(*self.state, spec["l1"], spec["l2"])

    def check(self, spec, energy):
        from checks import check_trial

        return check_trial(spec["l1"], spec["l2"], energy, self.e_ground), {}


WORKLOADS = {w.name: w for w in (CliQuick, CliQuickHardcore, OracleWarm, FockBuild, FockScan)}
WARM = ("oracle-warm", "fock-build", "fock-scan")
