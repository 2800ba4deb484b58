"""Command-line front end: ten subcommands over the four computational
modules, emitting CSV tables or JSON documents.

Every parameter resolves with precedence flag > config file > default;
the config file is a flat JSON object whose keys mirror the long flag
names (dashes or underscores both accepted). Every output ends with a
one-line JSON metadata record so downstream tooling can recover the
seed and tolerances that produced it.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as VERSION
from . import quadrature
from .cutoffs import CutoffConfig, fermi_momentum
from .hyformula import F_closed, F_from_f, FermiParams, hy_energy
from .potentials import (
    EtaFunction,
    RadialPotential,
    bethe_goldstone_solve,
    born_length,
    periodize_phi,
    solve_scattering,
)

COMMANDS = ("scatter", "hy-eval", "hy-table", "verify-f", "quad-g",
            "gap-study", "lattice-sum", "singular-bound", "fock-demo",
            "bg-solve")

_JSON_DEFAULT_COMMANDS = {"scatter", "hy-eval", "fock-demo"}

_DEFAULTS = {
    "gamma": 1.0 / 9.0,
    "delta": 16.0 / 63.0,
    "rho_up": 1e-3,
    "rho_down": 1e-3,
    "V0": 4.0,
    "R": 1.0,
    "kind": "square-well",
    "L": 2.0 * math.pi,
    "kmax": 1.01,
    "seed": 42,
    "shells": [0.5, 0.5],
    "lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
    "x": 0.5,
    "p": 1.0,
    "x_min": 0.05,
    "x_max": 4.0,
    "x_count": 40,
    "rho_min": 1e-4,
    "rho_max": 1e-2,
    "rho_count": 5,
    "L_grid": [16.0, 32.0, 64.0, 128.0],
    "potential_file": None,
    "out": None,
}

_TOL_DEFAULTS = {
    "verify-f": 5e-3,
    "quad-g": 1e-6,
    "gap-study": 1e-4,
    "singular-bound": 1e-3,
    "fock-demo": 1e-10,
    "bg-solve": 1e-11,
}

_SINGULAR_GRID = [1e-3, 1e-2, 0.1, 0.5, 1.0]


class UsageError(Exception):
    """Bad flags or a violated parameter constraint; exit code 2."""


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str = None
    output_format: str = "csv"


def _build_parser():
    top = argparse.ArgumentParser(
        prog="hyfermi",
        description="Low-density Fermi gas toolkit: closed forms, "
                    "quadrature oracles, and exact lattice checks.",
    )
    top.add_argument("--version", action="version", version=VERSION)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, *groups):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default parameters")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        if "cut" in groups:
            p.add_argument("--gamma", type=float)
            p.add_argument("--delta", type=float)
        if "pot" in groups:
            p.add_argument("--kind",
                           choices=("square-well", "truncated-gaussian",
                                    "tabulated"))
            p.add_argument("--V0", type=float)
            p.add_argument("--R", type=float)
            p.add_argument("--potential-file",
                           help="JSON potential document; overrides "
                                "--kind/--V0/--R")
        if "dens" in groups:
            p.add_argument("--rho-up", type=float)
            p.add_argument("--rho-down", type=float)
        return p

    add("scatter", "zero-energy scattering length and radial profile", "pot")
    add("hy-eval", "energy density breakdown at given densities",
        "pot", "dens")
    p = add("hy-table", "tabulate F via both closed-form routes")
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--x-count", type=int)
    p = add("verify-f", "closed form vs quadrature oracle for F")
    p.add_argument("--x", type=float)
    p.add_argument("--x-grid", type=float, nargs="+")
    p = add("quad-g", "pointwise momentum integrand g(x, p)")
    p.add_argument("--x", type=float)
    p.add_argument("--p", type=float)
    p = add("gap-study", "regularized vs limit second-order integral "
            "along a density grid", "cut", "dens")
    p.add_argument("--rho-min", type=float)
    p.add_argument("--rho-max", type=float)
    p.add_argument("--rho-count", type=int)
    p = add("lattice-sum", "finite-box Riemann sum of the cutoff kernel "
            "vs its integral", "cut", "dens")
    p.add_argument("--L-grid", type=float, nargs="+")
    p = add("singular-bound", "finiteness of the inverse-square pair "
            "dispersion integral")
    p.add_argument("--x-grid", type=float, nargs="+")
    p = add("fock-demo", "exact small-lattice check: identity residuals, "
            "trial energies, ground energy", "pot", "cut")
    p.add_argument("--L", type=float)
    p.add_argument("--kmax", type=float)
    p.add_argument("--shells", type=float, nargs=2,
                   metavar=("UP", "DOWN"))
    p.add_argument("--lambda-grid", type=float, nargs="+")
    add("bg-solve", "in-medium pair scattering equation on a radial grid",
        "pot", "dens")
    return top, sub.choices


def _config_value(key, value, action):
    """A config-file value converted the way its flag converts text: the
    flag's type on every element, its nargs for the list shape, its
    choices checked."""
    kind = action.type or str
    if action.nargs is None:
        items = [value]
    elif not isinstance(value, list) or not value or (
            isinstance(action.nargs, int) and len(value) != action.nargs):
        count = "one or more" if action.nargs == "+" else str(action.nargs)
        raise UsageError(f"config file key {key!r} needs a list of {count} "
                         f"values, got {value!r}")
    else:
        items = value
    out = []
    for item in items:
        if isinstance(item, str):
            try:
                item = kind(item)
            except ValueError:
                pass
        elif kind is float and isinstance(item, int) \
                and not isinstance(item, bool):
            item = float(item)
        if type(item) is not kind:
            raise UsageError(f"config file key {key!r}: {item!r} is not a "
                             f"valid {kind.__name__} for this flag")
        if action.choices is not None and item not in action.choices:
            raise UsageError(f"config file key {key!r}: {item!r} is not one "
                             f"of {', '.join(action.choices)}")
        out.append(item)
    return out[0] if action.nargs is None else out


def _load_config_file(path, actions):
    """Read the JSON config; every key must name a flag of the command and
    its value must fit that flag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    config = {}
    for key, value in doc.items():
        name = str(key).replace("-", "_")
        if name not in actions:
            raise UsageError(f"unknown config file key {key!r}: not a flag "
                             f"of this command")
        config[name] = _config_value(key, value, actions[name])
    return config


def parse_config(argv):
    """argv -> RunConfig with precedence flag > config file > default."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    # argparse fills a default for every flag of the chosen subcommand only
    actions = {a.dest: a for a in commands[args.command]._actions
               if a.dest in vars(args)}
    filecfg = _load_config_file(args.config, actions) if args.config else {}

    def pick(key, default):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in filecfg:
            return filecfg[key]
        return default

    cmd = args.command
    params = {}
    for key in vars(args):
        if key in ("command", "config", "out", "format"):
            continue
        if key == "tol":
            params[key] = pick(key, _TOL_DEFAULTS.get(cmd))
        elif key == "x_grid":
            params[key] = pick(key, _SINGULAR_GRID)
        else:
            params[key] = pick(key, _DEFAULTS.get(key))
    if cmd == "verify-f":
        # --x is the one-point form of --x-grid; with neither, x = 0.5
        grid = pick("x_grid", None)
        if grid is not None and pick("x", None) is not None:
            raise UsageError("x and x-grid exclude each other; give one")
        params["x_grid"] = [params["x"]] if grid is None else grid

    out_path = args.out if args.out is not None else filecfg.get("out")
    fmt = pick("format", "json" if cmd in _JSON_DEFAULT_COMMANDS else "csv")
    config = RunConfig(command=cmd, parameters=params, output_path=out_path,
                       output_format=fmt)
    _validate(config)
    return config


def _validate(config):
    p = config.parameters
    for key, value in p.items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise UsageError(f"{key.replace('_', '-')} must be finite, "
                                 f"got {v}")
    gamma, delta = p.get("gamma"), p.get("delta")
    if gamma is not None:
        if not 0.0 < gamma < 1.0 / 3.0:
            raise UsageError(
                f"gamma must lie in (0, 1/3), got {gamma}")
        if not 0.0 < delta <= 8.0 * gamma:
            raise UsageError(
                f"delta must lie in (0, 8*gamma], got delta={delta} with "
                f"gamma={gamma}")
        if 2.0 * gamma + delta / 16.0 > 1.0 / 3.0 + 1e-15:
            raise UsageError(
                f"2*gamma + delta/16 <= 1/3 violated: gamma={gamma}, "
                f"delta={delta}")
    if p.get("V0") is not None and not p["V0"] >= 0.0:
        raise UsageError(f"V0 must be nonnegative (V >= 0), got {p['V0']}")
    if p.get("R") is not None and not p["R"] > 0.0:
        raise UsageError(f"R must be positive, got {p['R']}")
    for key in ("rho_up", "rho_down"):
        if p.get(key) is not None and not p[key] >= 0.0:
            raise UsageError(f"{key.replace('_', '-')} must be "
                             f"nonnegative, got {p[key]}")
    if config.command == "gap-study":
        # the decay slope is fitted over at least two distinct densities
        if not 0.0 < p["rho_min"] < p["rho_max"]:
            raise UsageError(
                f"need 0 < rho-min < rho-max, got {p['rho_min']}, "
                f"{p['rho_max']}")
        if not (p.get("rho_up", 1.0) > 0.0 and p.get("rho_down", 1.0) > 0.0):
            raise UsageError("gap-study needs both densities positive")
        if p["rho_count"] < 2:
            raise UsageError(f"rho-count must be at least 2 to fit a decay "
                             f"slope, got {p['rho_count']}")
    if config.command == "verify-f":
        for x in p["x_grid"]:
            if not x > 0.0:
                raise UsageError(f"x must be positive, got {x}")
    if config.command == "singular-bound":
        for x in p["x_grid"]:
            if not 0.0 < x <= 1.0:
                raise UsageError(f"x values must lie in (0, 1], got {x}")
    if config.command == "lattice-sum":
        for L in p["L_grid"]:
            if not L > 0.0:
                raise UsageError(f"L values must be positive, got {L}")
    if config.command == "fock-demo":
        from . import fock

        # closed-shell and mode-cap refusals are config problems, not
        # runtime ones
        try:
            fock.build_basis(fock.build_lattice(p["L"], p["kmax"],
                                                p["shells"][0],
                                                p["shells"][1]))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def _potential(params):
    if params.get("potential_file"):
        return RadialPotential.from_json(params["potential_file"])
    return RadialPotential(kind=params["kind"], V0=params["V0"],
                           R=params["R"])


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _emit(config, header, rows, payload, meta):
    buf = io.StringIO()
    if config.output_format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    else:
        buf.write(json.dumps(_jsonable(payload), indent=1))
        buf.write("\n")
    buf.write(json.dumps(_jsonable(meta)))
    buf.write("\n")
    text = buf.getvalue()
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(config, wall_ms, tolerances, extra=None):
    meta = {
        "version": VERSION,
        "seed": config.parameters.get("seed", 42),
        "tolerances": tolerances,
        "wall_time_ms": round(wall_ms, 3),
    }
    if extra:
        meta.update(extra)
    return meta


def _cmd_scatter(config):
    p = config.parameters
    pot = _potential(p)
    sol = solve_scattering(pot)
    born = born_length(pot)
    header = ("r", "u", "phi")
    rows = list(zip(sol.r_grid, sol.u_profile, sol.phi_profile()))
    payload = {"a": sol.a, "born": born, "residual": sol.residual,
               "matching_radius": sol.matching_radius}
    summary = (f"a = {sol.a:.12g}, born = {born:.12g}, "
               f"residual = {sol.residual:.3g}")
    return 0, header, rows, payload, {}, summary


def _cmd_hy_eval(config):
    p = config.parameters
    pot = _potential(p)
    sol = solve_scattering(pot)
    params = FermiParams(rho_up=p["rho_up"], rho_down=p["rho_down"])
    bd = hy_energy(params, sol.a)
    payload = {"rho_up": params.rho_up, "rho_down": params.rho_down,
               "a": sol.a, **bd.as_dict()}
    header = tuple(payload)
    rows = [tuple(payload.values())]
    summary = (f"e(rho) = {bd.total:.12g} "
               f"(kinetic {bd.kinetic:.6g}, mean-field {bd.mean_field:.6g}, "
               f"second-order {bd.huang_yang:.6g})")
    return 0, header, rows, payload, {}, summary


def _cmd_hy_table(config):
    p = config.parameters
    if not (p["x_count"] >= 1 and p["x_min"] > 0.0
            and p["x_max"] >= p["x_min"]):
        raise UsageError("need 0 < x-min <= x-max and x-count >= 1")
    grid = np.linspace(p["x_min"], p["x_max"], p["x_count"])
    header = ("x", "F_closed", "F_from_f", "rel_diff")
    rows = []
    for x in grid:
        fc = F_closed(float(x))
        ff = F_from_f(float(x))
        rows.append((float(x), fc, ff, abs(ff - fc) / abs(fc)))
    worst = max(r[3] for r in rows)
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    summary = f"{len(rows)} points, worst rel_diff = {worst:.3g}"
    return 0, header, rows, payload, {}, summary


def _cmd_verify_f(config):
    p = config.parameters
    tol = p["tol"]
    header = ("x", "F_quadrature", "F_closed", "rel_diff",
              "error_estimate", "evaluations")
    rows = []
    failed = False
    for x in p["x_grid"]:
        res = quadrature.F_quadrature(float(x))
        fc = F_closed(float(x))
        rel = abs(res.value - fc) / abs(fc)
        failed = failed or res.flagged or rel > tol
        rows.append((float(x), res.value, fc, rel, res.error_estimate,
                     res.evaluations))
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    extra = {"evaluations": int(sum(r[5] for r in rows))}
    worst = max(r[3] for r in rows)
    summary = f"worst rel_diff = {worst:.3g} against tolerance {tol:g}"
    return (1 if failed else 0), header, rows, payload, extra, summary


def _cmd_quad_g(config):
    p = config.parameters
    if not 0.0 < p["x"] <= 1.0:
        raise UsageError(f"x must lie in (0, 1], got {p['x']}")
    if not p["p"] > 0.0:
        raise UsageError(f"p must be positive, got {p['p']}")
    res = quadrature.g_pointwise(p["x"], p["p"], tol=p["tol"])
    header = ("x", "p", "value", "error_estimate", "evaluations")
    rows = [(p["x"], p["p"], res.value, res.error_estimate,
             res.evaluations)]
    payload = dict(zip(header, rows[0]))
    extra = {"evaluations": res.evaluations, "elapsed": res.elapsed}
    summary = (f"g({p['x']:g}, {p['p']:g}) = {res.value:.12g} "
               f"+- {res.error_estimate:.3g}")
    return (1 if res.flagged else 0), header, rows, payload, extra, summary


def _cmd_gap_study(config):
    p = config.parameters
    params = FermiParams(rho_up=p["rho_up"], rho_down=p["rho_down"])
    cutoff = CutoffConfig(rho=p["rho_min"], gamma=p["gamma"],
                          delta=p["delta"])
    grid = np.geomspace(p["rho_min"], p["rho_max"], p["rho_count"])
    result = quadrature.gap_cutoff_study(params, cutoff, grid, tol=p["tol"])
    header = ("rho", "i_regularized", "i_limit", "diff", "error_estimate",
              "evaluations", "elapsed", "flagged")
    rows = [tuple(r[k] for k in header) for r in result]
    lr = np.log([r["rho"] for r in result])
    ld = np.log([max(r["diff"], 1e-300) for r in result])
    slope = float(np.polyfit(lr, ld, 1)[0])
    payload = {"rows": [dict(zip(header, r)) for r in rows],
               "slope": slope}
    extra = {"evaluations": int(sum(r["evaluations"] for r in result)),
             "elapsed": float(sum(r["elapsed"] for r in result))}
    failed = any(r["flagged"] for r in result)
    summary = f"observed decay slope = {slope:.4f} over {len(rows)} densities"
    return (1 if failed else 0), header, rows, payload, extra, summary


def _cmd_lattice_sum(config):
    p = config.parameters
    rho = p["rho_up"] + p["rho_down"]
    cutoff = CutoffConfig(rho=rho, gamma=p["gamma"], delta=p["delta"])
    result = quadrature.lattice_sum_convergence(p["L_grid"], cutoff)
    header = ("L", "sum_value", "integral_value", "diff", "elapsed")
    rows = [tuple(r[k] for k in header) for r in result]
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    summary = (f"diff {rows[0][3]:.3g} at L = {rows[0][0]:g} down to "
               f"{rows[-1][3]:.3g} at L = {rows[-1][0]:g}")
    return 0, header, rows, payload, {}, summary


def _cmd_singular_bound(config):
    p = config.parameters
    result = quadrature.singular_integral_bound(p["x_grid"], tol=p["tol"])
    header = ("x", "value", "error_estimate", "evaluations", "elapsed",
              "flagged")
    rows = [tuple(r[k] for k in header) for r in result]
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    extra = {"evaluations": int(sum(r["evaluations"] for r in result)),
             "elapsed": float(sum(r["elapsed"] for r in result))}
    failed = any(r["flagged"] for r in result)
    summary = (f"bound stays finite: {rows[0][1]:.6g} at x = {rows[0][0]:g} "
               f"up to {rows[-1][1]:.6g} at x = {rows[-1][0]:g}")
    return (1 if failed else 0), header, rows, payload, extra, summary


def _demo_crossover_density(lattice, gamma):
    # place the chi window around the first nonzero shell so both the
    # high-pass and low-pass generators see nontrivial support
    target = 0.225 * 2.0 * math.pi / lattice.L
    return target ** (1.0 / (1.0 / 3.0 - gamma))


def _cmd_fock_demo(config):
    from . import fock

    p = config.parameters
    tol = p["tol"]
    lat = fock.build_lattice(p["L"], p["kmax"], p["shells"][0],
                             p["shells"][1])
    basis = fock.build_basis(lat)
    pot = _potential(p)
    vhat = fock.vhat_from_potential(lat, pot)
    h = fock.build_hamiltonian(lat, basis, vhat)
    terms = fock.build_corr_terms(lat, basis, vhat)
    e_ffg = fock.ffg_energy(lat, basis, h)
    report = fock.corr_identity_report(lat, basis, h, terms)
    sol = solve_scattering(pot)
    cutoff = CutoffConfig(rho=_demo_crossover_density(lat, p["gamma"]),
                          gamma=p["gamma"], delta=p["delta"])
    psf = periodize_phi(sol, lat.L, cutoff=cutoff)
    eta = EtaFunction(a=sol.a, epsilon=cutoff.epsilon, kF_up=lat.kF_up,
                      kF_down=lat.kF_down)
    b1 = fock.build_generator(lat, basis, "B1", phi=psf, cutoff=cutoff)
    b2 = fock.build_generator(lat, basis, "B2", eta=eta, cutoff=cutoff)
    trial = []
    for l1 in p["lambda_grid"]:
        for l2 in p["lambda_grid"]:
            e = e_ffg + fock.trial_energy(lat, basis, terms, b1, b2, l1, l2)
            trial.append((float(l1), float(l2), e))
    e_ground = fock.ground_energy(lat, basis, h, lat.N_up, lat.N_down)
    payload = {
        "E_ffg": e_ffg,
        "E_ground": e_ground,
        "trial_energies": [list(t) for t in trial],
        "identity_residuals": report,
    }
    counters = {
        "trial_block": int(fock.trial_block(b1, b2).size),
        "nnz": int(sum(o.matrix.nnz for o in (h, *terms.values(), b1, b2))),
    }
    header = ("lambda1", "lambda2", "energy")
    best = min(trial, key=lambda t: t[2])
    failed = max(report.values()) > tol
    summary = (f"E_ffg = {e_ffg:.12g}, E_ground = {e_ground:.12g}, best "
               f"trial {best[2]:.12g} at ({best[0]:g}, {best[1]:g}); "
               f"identity residuals "
               f"{'exceed' if failed else 'within'} {tol:g}")
    return (1 if failed else 0), header, trial, payload, counters, summary


def _cmd_bg_solve(config):
    p = config.parameters
    pot = _potential(p)
    kf_up = fermi_momentum(p["rho_up"]) if p["rho_up"] > 0.0 else 0.0
    kf_down = fermi_momentum(p["rho_down"]) if p["rho_down"] > 0.0 else 0.0
    sol = bethe_goldstone_solve(pot, kf_up, kf_down, tol=p["tol"])
    header = ("q", "G", "phi", "denominator")
    rows = list(zip(sol.nodes, sol.G, sol.phi, sol.denominators))
    payload = {
        "mode": sol.mode,
        "kF_up": sol.kF_up,
        "kF_down": sol.kF_down,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "condition_estimate": sol.condition_estimate,
        "nodes": sol.nodes,
        "G": sol.G,
        "phi": sol.phi,
    }
    summary = (f"mode = {sol.mode}, residual = {sol.residual:.3g}, "
               f"iterations = {sol.iterations}")
    return 0, header, rows, payload, {}, summary


_DISPATCH = {
    "scatter": _cmd_scatter,
    "hy-eval": _cmd_hy_eval,
    "hy-table": _cmd_hy_table,
    "verify-f": _cmd_verify_f,
    "quad-g": _cmd_quad_g,
    "gap-study": _cmd_gap_study,
    "lattice-sum": _cmd_lattice_sum,
    "singular-bound": _cmd_singular_bound,
    "fock-demo": _cmd_fock_demo,
    "bg-solve": _cmd_bg_solve,
}


# output fields that are NaN by design, by command: bg-solve's phi is
# G over the pair dispersion and NaN where that is not positive
_NAN_BY_DESIGN = {"bg-solve": {"phi"}}


def _nonfinite(obj, skip, path):
    """'path = value' for the first NaN or infinity in obj (a number, a
    list or array of them, or a dict of those), or None. Dict keys in
    skip are not looked at."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            found = None if key in skip else _nonfinite(value, skip,
                                                        f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(obj, (list, tuple, np.ndarray)):
        try:
            arr = np.asarray(obj)
        except ValueError:  # ragged nesting
            arr = np.empty(0, dtype=object)
        if arr.dtype.kind in "biu":
            return None
        if arr.dtype.kind == "f":
            bad = arr[~np.isfinite(arr)]
            return f"{path} = {bad[0]}" if bad.size else None
        for i, value in enumerate(obj):
            found = _nonfinite(value, skip, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return f"{path} = {obj}"
    return None


def run(config):
    """Execute a parsed RunConfig; returns the process exit code."""
    fn = _DISPATCH[config.command]
    t0 = time.perf_counter()
    try:
        code, header, rows, payload, extra, summary = fn(config)
    except UsageError:
        raise
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_ms = (time.perf_counter() - t0) * 1000.0
    skip = _NAN_BY_DESIGN.get(config.command, ())
    found = (_nonfinite(dict(zip(header, zip(*rows))), skip, "column")
             or _nonfinite(payload, skip, "payload"))
    if found:
        print(f"error: non-finite result {found}; nothing written",
              file=sys.stderr)
        return 1
    tolerances = {}
    if config.parameters.get("tol") is not None:
        tolerances["tol"] = config.parameters["tol"]
    meta = _meta(config, wall_ms, tolerances, extra)
    _emit(config, header, rows, payload, meta)
    print(summary, file=sys.stderr if config.output_path is None
          else sys.stdout)
    return code


def main(argv=None):
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
