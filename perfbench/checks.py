"""Per-op correctness checks against independent references.

Every check returns ``(problems, stats)``: ``problems`` is a list of
strings, empty when the op passed, and ``stats`` holds the program's own
work counts read from the output (quadrature evaluations, flagged
results, achieved error over requested tolerance). The references are
closed forms written here, or the second of the program's deliberately
redundant routes (``F_from_f`` for ``F_closed``, ``ffg_energy_wick`` for
the matrix energy, ``F_closed`` for ``F_quadrature``).
"""

import csv
import io
import json
import math
import re

import numpy as np

_NONFINITE = re.compile(r"(?i)(?<![\w.])[-+]?(nan|inf|infinity)(?![\w.])")
_META_KEYS = ("version", "seed", "tolerances", "wall_time_ms")


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


# ------------------------------------------------------------ references


def square_well_length(V0, R):
    """Scattering length of the square well V0 on [0, R] (hbar^2/2m = 1)."""
    kappa = math.sqrt(V0 / 2.0)
    return R - math.tanh(kappa * R) / kappa


def born_length_ref(kind, V0, R):
    """(1/2) * integral of V(r) r^2 dr, in closed form."""
    if kind == "square-well":
        return V0 * R ** 3 / 6.0
    # V0 exp(-(3r/R)^2) on [0, R]
    c = 3.0 / R
    moment = (math.sqrt(math.pi) * math.erf(3.0) / (4.0 * c ** 3)
              - R * math.exp(-9.0) / (2.0 * c * c))
    return 0.5 * V0 * moment


def _chi_less(r, c1, c2):
    u = np.clip((r - c1) / (c2 - c1), 0.0, 1.0)
    return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)


def lattice_sum_ref(L, rho, gamma):
    """(1/L^3) sum over nonzero n of chi_less(|2 pi n / L|)^2 / (2 p^2) and
    its integral limit, by brute force over the whole index cube."""
    c1 = 4.0 * rho ** (1.0 / 3.0 - gamma)
    c2 = 1.25 * c1
    fac = 2.0 * math.pi / L
    nmax = int(math.ceil(c2 / fac))
    n = np.arange(-nmax, nmax + 1, dtype=np.float64)
    n2 = (n[:, None, None] ** 2 + n[None, :, None] ** 2
          + n[None, None, :] ** 2).ravel()
    r = fac * np.sqrt(n2[(n2 > 0) & (fac * np.sqrt(n2) < c2)])
    total = float(np.sum(_chi_less(r, c1, c2) ** 2 / (2.0 * r * r))) / L ** 3
    xg, wg = np.polynomial.legendre.leggauss(40)   # chi^2 is a degree-10 polynomial
    rr = 0.5 * (c1 + c2) + 0.5 * (c2 - c1) * xg
    integral = (c1 + 0.5 * (c2 - c1) * float(wg @ _chi_less(rr, c1, c2) ** 2)) \
        / (4.0 * math.pi ** 2)
    return total, integral


def g_full_ball_ref(x, p, n=48):
    """g(x, p) for p >= 2, where both Pauli shells are full balls and the
    slice measures are pi (kf^2 - s^2); a plain tensor Gauss rule."""
    y = x ** (1.0 / 3.0)
    xg, wg = np.polynomial.legendre.leggauss(n)
    s, ws = xg, wg * np.pi * (1.0 - xg ** 2)
    t, wt = y * xg, y * wg * np.pi * (y * y - (y * xg) ** 2)
    inner = ws @ (1.0 / (2.0 * p * p + 2.0 * p * (s[:, None] + t[None, :]))) @ wt
    return 9.0 / (8.0 * math.pi ** 2) * float(inner)


# ------------------------------------------------------- CLI process ops


def parse_cli(stdout, fmt):
    """Split a hyfermi CLI stdout into (payload, meta); raises ValueError."""
    lines = stdout.rstrip("\n").split("\n")
    try:
        meta = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"last line is not the JSON metadata line: {exc}") from exc
    if not isinstance(meta, dict) or any(k not in meta for k in _META_KEYS):
        raise ValueError("metadata line lacks one of " + ", ".join(_META_KEYS))
    body = "\n".join(lines[:-1])
    if fmt == "json":
        return json.loads(body), meta
    rows = list(csv.reader(io.StringIO(body)))
    if len(rows) < 2:
        raise ValueError("CSV output has no header or no rows")
    header = rows[0]
    data = [dict(zip(header, (float(v) for v in row))) for row in rows[1:]]
    return data, meta


def check_cli(cmd, params, returncode, stdout, stderr):
    """Check one finished ``hyfermi <cmd>`` process against its inputs."""
    problems = []
    stats = {}
    hit = _NONFINITE.search(stdout) or _NONFINITE.search(stderr)
    if hit:
        problems.append(f"non-finite number {hit.group(0)!r} in the output")
    if returncode != 0:
        problems.append(f"exit code {returncode}: {stderr.strip()[-200:]}")
        return problems, stats
    fmt = "json" if cmd in ("scatter", "hy-eval") else "csv"
    try:
        payload, meta = parse_cli(stdout, fmt)
    except (ValueError, KeyError) as exc:
        problems.append(f"unparseable output: {exc}")
        return problems, stats
    stats["run_s"] = meta["wall_time_ms"] / 1000.0
    if "evaluations" in meta:
        stats["evaluations"] = meta["evaluations"]
    try:
        problems += _CLI_CHECKS[cmd](params, payload, stats)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"output lacks an expected field: {exc!r}")
    return problems, stats


def _check_length(params, a, born):
    kind, V0, R = params["kind"], params["V0"], params["R"]
    problems = []
    if not _finite(a, born):
        return [f"a = {a}, born = {born} not finite"]
    if kind == "square-well" and _rel(a, square_well_length(V0, R)) > 1e-8:
        problems.append(f"a = {a!r} vs R - tanh(kR)/k = {square_well_length(V0, R)!r}")
    ref_born = born_length_ref(kind, V0, R)
    if _rel(born, ref_born) > 1e-8:
        problems.append(f"born = {born!r} vs closed form {ref_born!r}")
    if not 0.0 <= a <= min(R, ref_born) * (1.0 + 1e-12):
        problems.append(f"a = {a!r} outside [0, min(R, born)]")
    return problems


def _check_scatter(params, payload, stats):
    return _check_length(params, payload["a"], payload["born"])


def _check_hy_eval(params, payload, stats):
    from hyfermi.hyformula import F_from_f

    a = payload["a"]
    born = born_length_ref(params["kind"], params["V0"], params["R"])
    problems = _check_length(params, a, born)
    ru, rd = params["rho_up"], params["rho_down"]
    hi, lo = max(ru, rd), min(ru, rd)
    want = {
        "kinetic": 0.6 * (6.0 * math.pi ** 2) ** (2.0 / 3.0)
        * (ru ** (5.0 / 3.0) + rd ** (5.0 / 3.0)),
        "mean_field": 8.0 * math.pi * a * ru * rd,
        "huang_yang": a * a * hi ** (7.0 / 3.0) * F_from_f(lo / hi),
    }
    want["total"] = sum(want.values())
    for key, ref in want.items():
        if not _finite(payload[key]) or _rel(payload[key], ref) > 1e-9:
            problems.append(f"{key} = {payload[key]!r} vs reference {ref!r}")
    return problems


def _check_hy_table(params, rows, stats):
    from hyfermi.hyformula import F_from_f

    grid = np.linspace(params["x_min"], params["x_max"], params["x_count"])
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for x-count {len(grid)}"]
    problems = []
    prev = 0.0
    for x, row in zip(grid, rows):
        fc = row["F_closed"]
        if abs(row["x"] - x) > 1e-15 * x or not _finite(fc, row["F_from_f"]):
            problems.append(f"bad row {row}")
            continue
        ref = F_from_f(float(x))
        if _rel(fc, ref) > 1e-9 or abs(row["rel_diff"] - _rel(row["F_from_f"], fc)) > 1e-12:
            problems.append(f"F({x}) = {fc!r} vs F_from_f {ref!r}")
        if not fc > prev:
            problems.append(f"F not increasing at x = {x}")
        prev = fc
    return problems


def _check_lattice_sum(params, rows, stats):
    rho = params["rho_up"] + params["rho_down"]
    if [r["L"] for r in rows] != params["L_grid"]:
        return [f"L column {[r['L'] for r in rows]} != {params['L_grid']}"]
    problems = []
    for row in rows:
        total, integral = lattice_sum_ref(row["L"], rho, params["gamma"])
        if _rel(row["sum_value"], total) > 1e-9 or _rel(row["integral_value"], integral) > 1e-9:
            problems.append(f"L = {row['L']}: sum {row['sum_value']!r} / integral "
                            f"{row['integral_value']!r} vs {total!r} / {integral!r}")
        if abs(row["diff"] - abs(row["sum_value"] - row["integral_value"])) > 1e-12 * abs(integral):
            problems.append(f"L = {row['L']}: diff column inconsistent")
    return problems


def _check_quad_g(params, rows, stats):
    (row,) = rows
    tol = 1e-6   # quad-g's default --tol
    value, err = row["value"], row["error_estimate"]
    ref = g_full_ball_ref(params["x"], params["p"])
    scale = tol * max(1.0, abs(ref))
    stats["err_to_tol"] = abs(value - ref) / scale
    stats["flagged"] = int(err > scale)
    if stats["err_to_tol"] > 1.0:
        return [f"g({params['x']}, {params['p']}) = {value!r} vs reference {ref!r}"]
    if stats["flagged"]:
        return [f"error estimate {err!r} above tolerance"]
    return []


_CLI_CHECKS = {
    "scatter": _check_scatter,
    "hy-eval": _check_hy_eval,
    "hy-table": _check_hy_table,
    "lattice-sum": _check_lattice_sum,
    "quad-g": _check_quad_g,
}


# ------------------------------------------------------- library calls


def check_F(x, tol, result):
    from hyfermi.hyformula import F_closed

    ref = F_closed(x)
    stats = {"evaluations": result.evaluations, "flagged": int(result.flagged)}
    if not _finite(result.value, result.error_estimate):
        return [f"F_quadrature({x}) = {result.value} not finite"], stats
    stats["err_to_tol"] = abs(result.value - ref) / (tol * abs(ref))
    problems = []
    if stats["err_to_tol"] > 1.0:
        problems.append(f"F_quadrature({x!r}) = {result.value!r} vs F_closed {ref!r}")
    if result.flagged:
        problems.append(f"F_quadrature({x!r}) flagged")
    return problems, stats


def check_quadrature_row(row, tol, value_key):
    """A singular-bound or gap-study row: finite, unflagged, within tol."""
    value, err = row[value_key], row["error_estimate"]
    stats = {"evaluations": row["evaluations"], "flagged": int(bool(row["flagged"]))}
    if not _finite(value, err):
        return [f"row {row} not finite"], stats
    stats["err_to_tol"] = err / (tol * max(abs(value), 1e-300))
    problems = []
    if row["flagged"]:
        problems.append(f"row {row} flagged")
    if stats["err_to_tol"] > 1.0:
        problems.append(f"error estimate {err!r} above tol {tol!r} x |{value!r}|")
    return problems, stats


def check_singular_row(row, tol):
    problems, stats = check_quadrature_row(row, tol, "value")
    if not problems and not row["value"] > 0.0:
        problems.append(f"singular integral {row['value']!r} not positive")
    return problems, stats


def check_gap_row(row, tol, rho_up, rho_down):
    from hyfermi.hyformula import F_from_f

    problems, stats = check_quadrature_row(row, tol, "i_regularized")
    if problems:
        return problems, stats
    ratio = rho_down / rho_up
    up = row["rho"] / (1.0 + ratio)
    ref = -8.0 * math.pi ** 7 * up ** (7.0 / 3.0) * F_from_f(ratio)
    if _rel(row["i_limit"], ref) > 1e-9:
        problems.append(f"i_limit {row['i_limit']!r} vs -8 pi^7 rho_up^(7/3) F = {ref!r}")
    if abs(row["diff"] - abs(row["i_regularized"] - row["i_limit"])) > 1e-12 * abs(ref):
        problems.append("diff column inconsistent")
    return problems, stats


def check_bg(sol, tol):
    """The solver's own stopping rule: residual <= tol * max(1, |G|_inf)."""
    G = np.asarray(sol.G)
    if not (np.all(np.isfinite(G)) and math.isfinite(sol.residual)
            and np.all(np.isfinite(sol.phi[sol.denominators > 0.0]))):
        return ["non-finite G, phi or residual"]
    bound = tol * max(1.0, float(np.max(np.abs(G))))
    if not sol.residual <= bound:
        return [f"residual {sol.residual!r} above {bound!r}"]
    return []


def check_fock(payload, e_wick, tol=1e-10):
    """fock-demo output: identities, E_ffg against the Wick closed form,
    and the variational bound on every trial energy."""
    problems = []
    res = payload["identity_residuals"]
    numbers = [payload["E_ffg"], payload["E_ground"], *res.values(),
               *(e for t in payload["trial_energies"] for e in t)]
    if not _finite(*numbers):
        return ["non-finite number in the fock-demo payload"]
    if not max(res.values()) <= tol:
        problems.append(f"identity residuals {res} above {tol}")
    if _rel(payload["E_ffg"], e_wick) > 1e-12:
        problems.append(f"E_ffg {payload['E_ffg']!r} vs Wick {e_wick!r}")
    for l1, l2, e in payload["trial_energies"]:
        problems += check_trial(l1, l2, e, payload["E_ground"])
    return problems


def check_trial(l1, l2, energy, e_ground):
    """Variational bound: no trial state lies below the ground energy."""
    if not energy >= e_ground - 1e-10:
        return [f"trial energy {energy!r} at ({l1}, {l2}) below E_ground {e_ground!r}"]
    return []
