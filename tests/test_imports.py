"""Import cost: no hyfermi command loads scipy. The Fock layer, the
Bethe-Goldstone solve and the quadrature rules of the potentials are numpy
only; the principal-value oracles (pv_*_epsilon), the test references,
are the only code that loads scipy, and only when called."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyfermi
from hyfermi.potentials import RadialPotential, born_length

SRC = str(Path(hyfermi.__file__).resolve().parents[1])

# runs the code in argv[1] after hyfermi.cli's output is swallowed, then
# prints the exit code and the scipy modules that were loaded
_PROBE = """
import contextlib, io, json, sys
from hyfermi import cli
ns = {"cli": cli}
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    exec(sys.argv[1], ns)
print(json.dumps({"code": ns.get("code"), "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def probe(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE, code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_cli_loads_no_scipy():
    assert probe("pass")["scipy"] == []


@pytest.mark.parametrize("argv", [
    ["scatter"],
    ["scatter", "--kind", "truncated-gaussian", "--V0", "30"],
    ["hy-eval"],
    ["hy-eval", "--kind", "truncated-gaussian", "--V0", "7"],
    ["hy-table", "--x-count", "5"],
    ["lattice-sum", "--L-grid", "16", "32"],
    ["quad-g", "--x", "0.5", "--p", "1.0"],
    ["fock-demo", "--lambda-grid", "0", "1"],
    ["fock-demo", "--kind", "truncated-gaussian", "--V0", "7",
     "--lambda-grid", "0", "1"],
    ["verify-f", "--x", "0.5"],
    ["gap-study", "--rho-count", "2"],
    ["singular-bound", "--x-grid", "0.5"],
    ["bg-solve", "--V0", "30"],
])
def test_quick_commands_load_no_scipy(argv):
    """Every command, at small arguments, runs on numpy alone."""
    got = probe(f"code = cli.main({argv!r})")
    assert got == {"code": 0, "scipy": []}


def test_pv_oracle_loads_scipy_integrate():
    # positive control: the probe does see scipy when it loads
    got = probe("from hyfermi.quadrature import pv_linear_epsilon\n"
                "pv_linear_epsilon(1.5, 0.7, 1e-4)\n"
                "code = 0")
    assert "scipy.integrate" in got["scipy"]


def test_fock_reexports_resolve():
    got = probe("import hyfermi\n"
                "assert callable(hyfermi.build_lattice)\n"
                "assert callable(hyfermi.trial_state)\n"
                "star = {}\n"
                "exec('from hyfermi import *', star)\n"
                "assert set(hyfermi.__all__) <= set(star)\n"
                "code = 0")
    assert got["code"] == 0
    with pytest.raises(AttributeError):
        hyfermi.no_such_name


@pytest.mark.parametrize("V0, R", [(30.0, 1.2), (7.0, 0.8), (1e5, 1.5)])
def test_truncated_gaussian_born_matches_erf_closed_form(V0, R):
    # integral of V0 exp(-c^2 r^2) r^2 over [0, R] with c = 3/R
    c = 3.0 / R
    moment = V0 * (math.sqrt(math.pi) * math.erf(c * R) / (4.0 * c ** 3)
                   - R * math.exp(-(c * R) ** 2) / (2.0 * c ** 2))
    pot = RadialPotential(kind="truncated-gaussian", V0=V0, R=R)
    assert born_length(pot) == pytest.approx(0.5 * moment, rel=1e-15, abs=0)
