"""Command-line front end: ten subcommands over the four computational
modules, emitting CSV tables or JSON documents.

Two tables declare the whole surface: _FLAGS gives every flag its
default and argparse keywords, _COMMANDS every subcommand its help,
flags, per-command defaults and handler. Every parameter resolves with
precedence flag > config file > default; the config file is a flat JSON
object whose keys mirror the long flag names (dashes or underscores both
accepted). _validate checks only the rules no library object owns; every
other input is refused by the library call that uses it, and run maps
the exception's type to the exit code. Every output ends with a one-line
JSON metadata record so downstream tooling can recover the seed and
tolerances that produced it.
"""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import __version__ as VERSION
from . import fock, quadrature
from .cutoffs import CutoffConfig, fermi_momentum
from .hyformula import (F_closed, F_from_f, FermiParams, hy_energy,
                        hy_energy_error)
from .potentials import (
    EtaFunction,
    RadialPotential,
    bethe_goldstone_solve,
    born_length,
    check_box,
    periodize_phi,
    solve_scattering,
)

# flag -> (default, argparse keywords); the flag is --name with dashes for
# underscores. None means unset: tol has a per-command default, x_grid one
# for singular-bound and verify-f's [x].
_FLAGS = {
    "config": (None, {"help": "JSON file with default parameters"}),
    "out": (None, {"help": "output path (default: stdout)"}),
    "format": ("csv", {"choices": ("csv", "json")}),
    "seed": (42, {"type": int}),
    "tol": (None, {"type": float}),
    "gamma": (1.0 / 9.0, {"type": float}),
    "delta": (16.0 / 63.0, {"type": float}),
    "kind": ("square-well",
             {"choices": ("square-well", "truncated-gaussian")}),
    "V0": (4.0, {"type": float}),
    "R": (1.0, {"type": float}),
    "potential_file": (None, {"help": "JSON potential document; overrides "
                                      "--kind/--V0/--R"}),
    "rho_up": (1e-3, {"type": float}),
    "rho_down": (1e-3, {"type": float}),
    "x_min": (0.05, {"type": float}),
    "x_max": (4.0, {"type": float}),
    "x_count": (40, {"type": int}),
    "x": (0.5, {"type": float}),
    "x_grid": (None, {"type": float, "nargs": "+"}),
    "p": (1.0, {"type": float}),
    "rho_min": (1e-4, {"type": float}),
    "rho_max": (1e-2, {"type": float}),
    "rho_count": (5, {"type": int}),
    "L_grid": ([16.0, 32.0, 64.0, 128.0], {"type": float, "nargs": "+"}),
    "L": (2.0 * math.pi, {"type": float}),
    "kmax": (1.01, {"type": float}),
    "shells": ([0.5, 0.5], {"type": float, "nargs": 2,
                            "metavar": ("UP", "DOWN")}),
    "lambda_grid": ([0.0, 0.25, 0.5, 0.75, 1.0], {"type": float,
                                                  "nargs": "+"}),
}

_COMMON = ("config", "out", "format", "seed")
_CUT = ("gamma", "delta")
_POT = ("kind", "V0", "R", "potential_file")
_DENS = ("rho_up", "rho_down")


class UsageError(Exception):
    """A flag or config-file value that parsing refuses; exit code 2."""


@dataclass
class RunConfig:
    command: str
    parameters: dict = field(default_factory=dict)
    output_path: str = None
    output_format: str = "csv"


# a flag value that is a negative number, in exponent notation too: left
# to argparse alone, -1e-3 reads as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache
def _parser():
    """The argparse tree of every command, built once per process from the
    two tables; parsing never changes it."""
    top = argparse.ArgumentParser(
        prog="hyfermi",
        description="Low-density Fermi gas toolkit: closed forms, "
                    "quadrature oracles, and exact lattice checks.",
    )
    top.add_argument("--version", action="version", version=VERSION)
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in _COMMON + command.flags:
            p.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag][1])
    return top


def _config_value(key, value, kw):
    """A config-file value converted the way its flag converts text: the
    flag's type on every element, its nargs for the list shape, its
    choices checked."""
    kind = kw.get("type", str)
    nargs, choices = kw.get("nargs"), kw.get("choices")
    if nargs is None:
        items = [value]
    elif not isinstance(value, list) or not value or (
            isinstance(nargs, int) and len(value) != nargs):
        count = "one or more" if nargs == "+" else str(nargs)
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
        if choices is not None and item not in choices:
            raise UsageError(f"config file key {key!r}: {item!r} is not one "
                             f"of {', '.join(choices)}")
        out.append(item)
    return out[0] if nargs is None else out


def _load_config_file(path, flags):
    """Read the JSON config; every key must name one of the command's
    flags other than config, and its value must fit that flag."""
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
        if name == "config":
            raise UsageError(f"config file key {key!r}: a config file cannot "
                             f"name another")
        if name not in flags:
            raise UsageError(f"unknown config file key {key!r}: not a flag "
                             f"of this command")
        config[name] = _config_value(key, value, _FLAGS[name][1])
    return config


def parse_config(argv):
    """argv -> RunConfig: the defaults, updated by the config file, updated
    by the flags given. A flag is given when argparse leaves it non-None,
    so an explicit flag equal to its default still beats the file."""
    args = vars(_parser().parse_args(argv))
    name = args.pop("command")
    command = _COMMANDS[name]
    flags = _COMMON + command.flags
    given = {k: v for k, v in args.items() if v is not None}
    chosen = given
    if "config" in given:
        chosen = {**_load_config_file(given["config"], flags), **given}
    params = {f: _FLAGS[f][0] for f in flags} | command.defaults | chosen
    if name == "verify-f":
        # --x is the one-point form of --x-grid; with neither, x = 0.5
        if "x" in chosen and "x_grid" in chosen:
            raise UsageError("x and x-grid exclude each other; give one")
        if params["x_grid"] is None:
            params["x_grid"] = [params["x"]]
    del params["config"]
    config = RunConfig(command=name, output_path=params.pop("out"),
                       output_format=params.pop("format"), parameters=params)
    return config


def _validate(config):
    """The rules no library object owns, before any work: finite numbers, a
    positive tol, gap-study's density grid, hy-table's grid, the density
    flags, and --kind/--V0/--R even where a potential file overrides them.
    Every other input is refused by the library call that uses it."""
    p, cmd = config.parameters, config.command
    for key, value in p.items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{key.replace('_', '-')} must be finite, "
                                 f"got {v}")
    tol = p.get("tol")
    if tol is not None and not tol > 0.0:
        # a tolerance of zero or below can never be met
        raise ValueError(f"tol must be positive, got {tol}")
    if "kind" in p:
        RadialPotential(kind="square-well", V0=p["V0"], R=p["R"])
    if "rho_up" in p:
        FermiParams(rho_up=p["rho_up"], rho_down=p["rho_down"])
    if cmd == "gap-study":
        # the decay slope is fitted over at least two distinct densities
        if not 0.0 < p["rho_min"] < p["rho_max"]:
            raise ValueError(f"need 0 < rho-min < rho-max, got {p['rho_min']}, "
                             f"{p['rho_max']}")
        if p["rho_count"] < 2:
            raise ValueError(f"rho-count must be at least 2 to fit a decay "
                             f"slope, got {p['rho_count']}")
    if cmd == "hy-table" and not (p["x_count"] >= 1 and p["x_min"] > 0.0
                                  and p["x_max"] >= p["x_min"]):
        raise ValueError("need 0 < x-min <= x-max and x-count >= 1")


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


def _json_default(obj):
    """json.dumps' hook for numpy objects: arrays as lists, scalars as
    Python numbers. A float64 is a float, so json never passes it here."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(config, header, rows, payload, meta):
    buf = io.StringIO()
    if config.output_format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    else:
        buf.write(json.dumps(payload, indent=1, default=_json_default))
        buf.write("\n")
    buf.write(json.dumps(meta, default=_json_default))
    buf.write("\n")
    text = buf.getvalue()
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _stage(stages, name):
    """Add the wall time of the with-block to stages[name], in ms.

    The times go to the metadata line under "stages"; like wall_time_ms
    they are outside the byte-identical-rerun guarantee.
    """
    t0 = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + (time.perf_counter() - t0) * 1000.0


def _table(header, records):
    """The header's columns of the row dicts, as CSV rows and as the JSON
    payload's rows."""
    rows = [tuple(r[k] for k in header) for r in records]
    return rows, {"rows": [dict(zip(header, row)) for row in rows]}


def _ladder_meta(tol, records, value):
    """Metadata of the ladder oracles' row dicts: the summed evaluations
    and elapsed time, the highest rung reached and the largest
    error_estimate / (tol*|value|), null where tol*|value| is not
    positive."""
    scales = [tol * abs(r[value]) for r in records]
    worst = (max(r["error_estimate"] / s for r, s in zip(records, scales))
             if all(s > 0.0 for s in scales) else None)
    return {"evaluations": int(sum(r["evaluations"] for r in records)),
            "elapsed": float(sum(r["elapsed"] for r in records)),
            "rung": max(r["rung"] for r in records), "err_to_tol": worst}


def _cmd_scatter(config):
    pot = _potential(config.parameters)
    sol = solve_scattering(pot)
    born = born_length(pot)
    header = ("r", "u", "phi")
    rows = list(zip(sol.r_grid, sol.u_profile, sol.phi_profile()))
    payload = {"a": sol.a, "a_error": sol.a_error, "born": born,
               "residual": sol.residual, "matching_radius": sol.matching_radius}
    summary = (f"a = {sol.a:.12g}, a_error = {sol.a_error:.3g}, "
               f"born = {born:.12g}, residual = {sol.residual:.3g}")
    return 0, header, rows, payload, {}, summary


def _cmd_hy_eval(config):
    p = config.parameters
    params = FermiParams(rho_up=p["rho_up"], rho_down=p["rho_down"])
    sol = solve_scattering(_potential(p))
    bd = hy_energy(params, sol.a)
    payload = {"rho_up": params.rho_up, "rho_down": params.rho_down,
               "a": sol.a, "a_error": sol.a_error, **asdict(bd),
               "energy_error": hy_energy_error(params, sol.a, sol.a_error)}
    header = tuple(payload)
    rows = [tuple(payload.values())]
    summary = (f"e(rho) = {bd.total:.12g} "
               f"(kinetic {bd.kinetic:.6g}, mean-field {bd.mean_field:.6g}, "
               f"second-order {bd.huang_yang:.6g})")
    return 0, header, rows, payload, {}, summary


def _cmd_hy_table(config):
    p = config.parameters
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
    # the grid is refused before its first integral, so an x whose power
    # overflows (exit 1) cannot hide a nonpositive one after it
    for x in p["x_grid"]:
        if not x > 0.0:
            raise ValueError(f"x must be positive, got {x}")
    records = []
    for x in p["x_grid"]:
        res = quadrature.F_quadrature(float(x), tol=tol)
        fc = F_closed(float(x))
        records.append({"x": float(x), "F_quadrature": res.value,
                        "F_closed": fc,
                        "rel_diff": abs(res.value - fc) / abs(fc),
                        **asdict(res)})
    header = ("x", "F_quadrature", "F_closed", "rel_diff",
              "error_estimate", "evaluations")
    rows, payload = _table(header, records)
    failed = any(r["flagged"] or r["rel_diff"] > tol for r in records)
    worst = max(r["rel_diff"] for r in records)
    summary = f"worst rel_diff = {worst:.3g} against tolerance {tol:g}"
    return ((1 if failed else 0), header, rows, payload,
            _ladder_meta(tol, records, "F_quadrature"), summary)


def _cmd_quad_g(config):
    p = config.parameters
    res = quadrature.g_pointwise(p["x"], p["p"], tol=p["tol"])
    header = ("x", "p", "value", "error_estimate", "evaluations")
    rows = [(p["x"], p["p"], res.value, res.error_estimate,
             res.evaluations)]
    payload = dict(zip(header, rows[0]))
    extra = {"evaluations": res.evaluations, "elapsed": res.elapsed,
             "rung": res.rung}
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
              "evaluations", "flagged")
    rows, payload = _table(header, result)
    lr = np.log([r["rho"] for r in result])
    ld = np.log([max(r["diff"], 1e-300) for r in result])
    slope = float(np.polyfit(lr, ld, 1)[0])
    payload["slope"] = slope
    failed = any(r["flagged"] for r in result)
    summary = f"observed decay slope = {slope:.4f} over {len(rows)} densities"
    return ((1 if failed else 0), header, rows, payload,
            _ladder_meta(p["tol"], result, "i_regularized"), summary)


def _cmd_lattice_sum(config):
    p = config.parameters
    rho = p["rho_up"] + p["rho_down"]
    cutoff = CutoffConfig(rho=rho, gamma=p["gamma"], delta=p["delta"])
    result = quadrature.lattice_sum_convergence(p["L_grid"], cutoff)
    header = ("L", "sum_value", "integral_value", "diff")
    rows, payload = _table(header, result)
    summary = (f"diff {rows[0][3]:.3g} at L = {rows[0][0]:g} down to "
               f"{rows[-1][3]:.3g} at L = {rows[-1][0]:g}")
    return 0, header, rows, payload, {}, summary


def _cmd_singular_bound(config):
    p = config.parameters
    result = quadrature.singular_integral_bound(p["x_grid"], tol=p["tol"])
    header = ("x", "value", "error_estimate", "evaluations", "flagged")
    rows, payload = _table(header, result)
    failed = any(r["flagged"] for r in result)
    summary = (f"bound stays finite: {rows[0][1]:.6g} at x = {rows[0][0]:g} "
               f"up to {rows[-1][1]:.6g} at x = {rows[-1][0]:g}")
    return ((1 if failed else 0), header, rows, payload,
            _ladder_meta(p["tol"], result, "value"), summary)


def _demo_cutoff(lattice, gamma, delta):
    """The cutoff whose chi window sits around the first nonzero shell, so
    both generators see nontrivial support; gamma and delta are checked
    (at rho = 1) before the density divides by 1/3 - gamma."""
    rule = CutoffConfig(rho=1.0, gamma=gamma, delta=delta)
    target = 0.225 * 2.0 * math.pi / lattice.L
    return rule.with_rho(target ** (1.0 / (1.0 / 3.0 - gamma)))


def _cmd_fock_demo(config):
    p = config.parameters
    tol = p["tol"]
    stages = {}
    with _stage(stages, "lattice"):
        # every input is built, and refused, before the first operator
        lat = fock.build_lattice(p["L"], p["kmax"], p["shells"][0],
                                 p["shells"][1])
        basis = fock.build_basis(lat)
        cutoff = _demo_cutoff(lat, p["gamma"], p["delta"])
        pot = _potential(p)
        check_box(lat.L, pot)
        vhat = fock.vhat_from_potential(lat, pot)
    with _stage(stages, "sector"):
        physics = fock.sector(basis, lat.N_up, lat.N_down)
        ph = fock.ph_sector(lat, basis, 0, 0)
    with _stage(stages, "scatter"):
        sol = solve_scattering(pot)
    with _stage(stages, "operators"):
        # H, the seven terms, B1 and B2 in one reduce-and-merge pass
        psf = periodize_phi(sol, lat.L, cutoff=cutoff)
        eta = EtaFunction(a=sol.a, epsilon=cutoff.epsilon, kF_up=lat.kF_up,
                          kF_down=lat.kF_down)
        h, terms, b1, b2 = fock.build_operators(lat, basis, vhat, phi=psf,
                                                eta=eta, cutoff=cutoff)
    with _stage(stages, "PH"):
        e_ffg = fock.ffg_energy(lat, basis, h)
    with _stage(stages, "identity"):
        report = fock.corr_identity_report(lat, basis, h, terms)
    with _stage(stages, "trial"):
        trial = []
        for l1 in p["lambda_grid"]:
            for l2 in p["lambda_grid"]:
                e = e_ffg + fock.trial_energy(lat, basis, terms, b1, b2, l1, l2)
                trial.append((float(l1), float(l2), e))
    with _stage(stages, "ground"):
        # H on the physics sector, kept for nnz
        h_physics = h.on(physics)
        e_ground = float(np.linalg.eigvalsh(h_physics)[0])
    payload = {
        "E_ffg": e_ffg,
        "E_ground": e_ground,
        "trial_energies": [list(t) for t in trial],
        "identity_residuals": report,
    }
    # H on the physics sector; the terms and generators on its
    # particle-hole image
    ops = (*terms.values(), b1, b2)
    counters = {
        "sector_states": int(physics.size),
        "trial_block": int(fock.trial_block(b1, b2).size),
        "nnz": int(np.count_nonzero(h_physics)) + fock.nonzero_entries(ops, ph),
        "forms": sum(o.coef.size for o in (h, *ops)),
        "stages": {k: round(v, 3) for k, v in stages.items()},
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
    sol = bethe_goldstone_solve(pot, fermi_momentum(p["rho_up"]),
                                fermi_momentum(p["rho_down"]), tol=p["tol"])
    header = ("q", "G", "phi", "denominator")
    rows = list(zip(sol.nodes, sol.G, sol.phi, sol.denominators))
    payload = {
        "mode": sol.mode,
        "kF_up": sol.kF_up,
        "kF_down": sol.kF_down,
        "residual": sol.residual,
        "nodes": sol.nodes,
        "G": sol.G,
        "phi": sol.phi,
    }
    summary = f"mode = {sol.mode}, residual = {sol.residual:.3g}"
    return 0, header, rows, payload, {}, summary


class _Command(NamedTuple):
    help: str
    handler: Callable
    flags: tuple = ()          # after _COMMON, in --help order
    defaults: dict = {}        # over _FLAGS' defaults, for this command


_COMMANDS = {
    "scatter": _Command(
        "zero-energy scattering length and radial profile", _cmd_scatter,
        _POT, {"format": "json"}),
    "hy-eval": _Command(
        "energy density breakdown at given densities", _cmd_hy_eval,
        _POT + _DENS, {"format": "json"}),
    "hy-table": _Command(
        "tabulate F via both closed-form routes", _cmd_hy_table,
        ("x_min", "x_max", "x_count")),
    "verify-f": _Command(
        "closed form vs quadrature oracle for F", _cmd_verify_f,
        ("tol", "x", "x_grid"), {"tol": 5e-3}),
    "quad-g": _Command(
        "pointwise momentum integrand g(x, p)", _cmd_quad_g,
        ("tol", "x", "p"), {"tol": 1e-6}),
    "gap-study": _Command(
        "regularized vs limit second-order integral along a density grid",
        _cmd_gap_study,
        ("tol",) + _CUT + _DENS + ("rho_min", "rho_max", "rho_count"),
        {"tol": 1e-4}),
    "lattice-sum": _Command(
        "finite-box Riemann sum of the cutoff kernel vs its integral",
        _cmd_lattice_sum, _CUT + _DENS + ("L_grid",)),
    "singular-bound": _Command(
        "finiteness of the inverse-square pair dispersion integral",
        _cmd_singular_bound, ("tol", "x_grid"),
        {"tol": 1e-3, "x_grid": [1e-3, 1e-2, 0.1, 0.5, 1.0]}),
    "fock-demo": _Command(
        "exact small-lattice check: identity residuals, trial energies, "
        "ground energy", _cmd_fock_demo,
        ("tol",) + _CUT + _POT + ("L", "kmax", "shells", "lambda_grid"),
        {"tol": 1e-10, "format": "json"}),
    "bg-solve": _Command(
        "in-medium pair scattering equation on a radial grid", _cmd_bg_solve,
        ("tol",) + _POT + _DENS, {"tol": 1e-11}),
}

COMMANDS = tuple(_COMMANDS)


def _nonfinite(obj, path):
    """'path = value' for the first NaN or infinity in obj (a number, a
    list or array of them, or a dict of those), or None."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            found = _nonfinite(value, f"{path}.{key}")
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
            found = _nonfinite(value, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return f"{path} = {obj}"
    return None


def run(config):
    """Validate and execute a parsed RunConfig; returns the exit code. A
    ValueError is a refused input: `usage error: ...`, exit 2. RuntimeError,
    ArithmeticError and LinAlgError (a ValueError, so caught first) are
    failed computations: `error: ...`, exit 1. Neither writes output."""
    try:
        _validate(config)
        t0 = time.perf_counter()
        code, header, rows, payload, extra, summary = \
            _COMMANDS[config.command].handler(config)
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    wall_ms = (time.perf_counter() - t0) * 1000.0
    found = (_nonfinite(dict(zip(header, zip(*rows))), "column")
             or _nonfinite(payload, "payload"))
    if found:
        print(f"error: non-finite result {found}; nothing written",
              file=sys.stderr)
        return 1
    tol = config.parameters.get("tol")
    meta = {"version": VERSION, "seed": config.parameters["seed"],
            "tolerances": {} if tol is None else {"tol": tol},
            "wall_time_ms": round(wall_ms, 3), **extra}
    _emit(config, header, rows, payload, meta)
    print(summary, file=sys.stderr if config.output_path is None
          else sys.stdout)
    return code


def main(argv=None):
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
