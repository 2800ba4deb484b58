"""Command-line surface: parsing precedence, validation exit codes, and
the emitted CSV/JSON shapes."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import shlex
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyfermi import cli, fock, potentials, quadrature
from hyfermi.cutoffs import CutoffConfig
from hyfermi.hyformula import FermiParams, hy_energy_error
from hyfermi.potentials import RadialPotential


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_output(text):
    *data, meta_line = text.strip().split("\n")
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    return rows[0], rows[1:], json.loads(meta_line)


def parse_json_output(text):
    payload, idx = json.JSONDecoder().raw_decode(text)
    meta = json.loads(text[idx:].strip())
    return payload, meta


def _readme_commands():
    """The hyfermi lines of the README's "Command line" code block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("hyfermi ")]
    assert commands, "the README's Command line block holds no hyfermi line"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_commands_run(argv, tmp_path, monkeypatch, capsys):
    """Each command line the README shows exits 0 and ends its output, on
    stdout or in its --out file, with the JSON metadata line."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if "--out" in argv:
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    assert "version" in json.loads(out.strip().splitlines()[-1])


def test_parse_defaults():
    config = cli.parse_config(["hy-table"])
    assert config.command == "hy-table"
    assert config.output_format == "csv"
    p = config.parameters
    assert (p["x_min"], p["x_max"], p["x_count"]) == (0.05, 4.0, 40)
    assert p["seed"] == 42


def test_parse_rejects_bad_cutoff_pair(capsys):
    code, out, err = run_cli(["gap-study", "--gamma", "0.2", "--delta", "1.7"],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and "8*gamma" in err


def test_parse_rejects_split_shell(capsys):
    code, out, err = run_cli(["fock-demo", "--shells", "1.0", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and "closed-shell" in err


def test_fock_demo_box_not_holding_the_range_exits_two(capsys):
    """check_box refuses L <= 2R in the lattice stage, before V^ is
    transformed or u is solved; the CLI prints its message and exits 2,
    like every other refused input, with no numpy warning on the way."""
    for argv, R in ((["--R", "4"], "4.0"),
                    (["--R", "1e6"], "1000000.0"),
                    (["--R", "1e300"], "1e+300"),
                    (["--kind", "truncated-gaussian", "--R", "1e300"], "1e+300")):
        with mock.patch.object(cli, "solve_scattering") as solve, \
                mock.patch.object(fock, "fourier_V") as transform:
            code, out, err = run_cli(["fock-demo", *argv, "--lambda-grid", "0"],
                                     capsys)
        assert solve.call_count == transform.call_count == 0, argv
        assert code == 2, argv
        assert out == ""
        assert err == (f"usage error: box side L = {2.0 * math.pi} must "
                       f"exceed twice the range {R}\n")


def test_fock_demo_overflowing_vhat_exits_two_before_the_scattering_solve(capsys):
    """V0 = 1e308 overflows V^'s transform: the lattice stage refuses the
    table, before u is solved, with no numpy warning on the way (tier-1
    turns a RuntimeWarning into a failure)."""
    with mock.patch.object(cli, "solve_scattering") as solve:
        code, out, err = run_cli(["fock-demo", "--V0", "1e308"], capsys)
    assert solve.call_count == 0
    assert code == 2
    assert out == ""
    assert err == "usage error: V^ must be finite, got inf\n"


def test_fock_demo_box_whose_momentum_unit_overflows_exits_two(capsys):
    """At L = 5e-324, 2 pi / L is infinite: build_lattice refuses the box,
    naming L, before any lattice arithmetic could warn."""
    code, out, err = run_cli(["fock-demo", "--L", "5e-324"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: box side L = 5e-324 ")


def test_bg_solve_range_whose_dispersion_overflows_exits_two(capsys):
    """q_max = 80/R is finite, but its pair dispersion 2 q_max^2 is not:
    refused naming R, with no numpy warning on the way."""
    code, out, err = run_cli(["bg-solve", "--R", "3.114842222737176e-278"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: range R = 3.114842222737176e-278 ")


def _separate_builds(lat, basis, vhat, *, phi, eta, cutoff):
    """build_operators' result from the three one-operator builders."""
    return (fock.build_hamiltonian(lat, basis, vhat), fock.build_corr_terms(lat, basis, vhat),
            fock.build_generator(lat, basis, "B1", phi=phi),
            fock.build_generator(lat, basis, "B2", eta=eta, cutoff=cutoff))


def test_fock_demo_one_pass_prints_what_separate_builds_print(capsys):
    """On 20 drawn 7-momentum lattices (kmax in [unit, sqrt(2) unit),
    shells below one unit, both potential kinds), fock-demo prints the
    same bytes whether its operators come from one build_operators pass
    or from the separate builders; only the metadata's times differ."""
    rng = np.random.default_rng(31)
    for turn in range(20):
        L = rng.uniform(5.0, 9.0)
        unit = 2.0 * math.pi / L
        argv = ["fock-demo", "--L", repr(L), "--kmax", repr(unit * rng.uniform(1.001, 1.41)),
                "--shells", repr(unit * rng.uniform(0.1, 0.9)),
                repr(unit * rng.uniform(0.1, 0.9)),
                "--kind", ("square-well", "truncated-gaussian")[turn % 2],
                "--V0", repr(10.0 ** rng.uniform(-1.0, 1.0)), "--R", repr(rng.uniform(0.5, 1.5)),
                "--lambda-grid", "0", repr(rng.uniform(0.25, 1.0))]
        runs = []
        for build in (fock.build_operators, _separate_builds):
            with mock.patch.object(fock, "build_operators", build):
                code, out, err = run_cli(argv, capsys)
            assert code == 0, argv
            data, meta = out.rstrip("\n").rsplit("\n", 1)
            meta = json.loads(meta)
            del meta["wall_time_ms"], meta["stages"]
            runs.append((data, meta, err))
        assert runs[0] == runs[1], argv


@pytest.mark.parametrize("argv", [["--gamma", "0.2", "--delta", "1.7"],
                                  ["--gamma", "0.3333333333333333"],
                                  ["--gamma", "0.334"]])
def test_fock_demo_refuses_cutoff_exponents_before_any_operator(argv, capsys):
    """gamma and delta are refused in the lattice stage: no Hamiltonian is
    built, also at gamma = 1/3, where the crossover density would divide
    by zero, and just above it, where it would overflow."""
    with mock.patch.object(fock, "build_operators") as build:
        code, out, err = run_cli(["fock-demo", *argv], capsys)
    assert build.call_count == 0
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and "gamma" in err


@pytest.mark.parametrize("command", ["scatter", "hy-eval", "bg-solve",
                                     "fock-demo"])
def test_potential_file_is_read_once(command, tmp_path, capsys):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"kind": "square-well", "V0": 2.0, "R": 1.0}))
    real = RadialPotential.from_json
    with mock.patch.object(RadialPotential, "from_json",
                           side_effect=real) as read:
        code, _, _ = run_cli([command, "--potential-file", str(path)], capsys)
    assert code == 0
    assert read.call_count == 1


def test_fock_demo_builds_its_lattice_once(capsys):
    with mock.patch.object(fock, "build_lattice",
                           side_effect=fock.build_lattice) as build:
        code, _, _ = run_cli(["fock-demo", "--lambda-grid", "0"], capsys)
    assert code == 0
    assert build.call_count == 1


@pytest.mark.parametrize("exc, code, prefix", [
    (np.linalg.LinAlgError("Singular matrix"), 1, "error: "),
    (ValueError("refused input"), 2, "usage error: "),
])
def test_exception_type_sets_the_exit_code(exc, code, prefix, monkeypatch,
                                           capsys):
    """LinAlgError is a ValueError but a failed computation, so exit 1; any
    other ValueError from a handler is a refused input, so exit 2."""
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "bethe_goldstone_solve", raising)
    got, out, err = run_cli(["bg-solve"], capsys)
    assert got == code
    assert out == ""
    assert err == f"{prefix}{exc}\n"


def test_oversized_lattice_exits_two(capsys):
    # kmax 1.42 keeps |n|^2 <= 2: 19 momenta; shells of 1.2 fill seven of
    # them per spin, a sector of C(19, 7)^2 ~ 2.5e9 states, refused by
    # count before any work
    t0 = time.perf_counter()
    code, out, err = run_cli(["fock-demo", "--kmax", "1.42",
                              "--shells", "1.2", "1.2"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "2538950544 states" in err and "limit is 1225" in err


def test_huge_lattice_exits_two_before_enumeration(capsys):
    # kmax 60 on the default box spans 1.8 million momenta; the axes alone
    # overflow the basis state, so nothing is enumerated
    t0 = time.perf_counter()
    code, out, err = run_cli(["fock-demo", "--kmax", "60"], capsys)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert out == ""
    assert "62 bits" in err


@pytest.mark.parametrize("argv", [["--kmax", "0.01", "--shells", "0", "0.005"],
                                  ["--shells", "0", "0.5"]])
def test_fock_demo_origin_shell_exits_two(capsys, argv):
    """A shell radius on the origin is a usage error, naming only the
    closed-shell radius above it, also on a one-momentum grid."""
    code, out, err = run_cli(["fock-demo"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.strip().endswith("nearest closed-shell radius: 0.5")


def test_fock_demo_on_nineteen_momenta(capsys):
    """One particle per spin on 19 momenta: a 361-state physics sector,
    beyond the 2^n layout's reach."""
    code, out, _ = run_cli(["fock-demo", "--kmax", "1.42", "--shells", "0.5", "0.5",
                            "--lambda-grid", "0", "0.5", "1"], capsys)
    assert code == 0
    payload, meta = parse_json_output(out)
    assert meta["sector_states"] == 361
    from hyfermi import fock
    from hyfermi.potentials import RadialPotential

    lat = fock.build_lattice(2.0 * math.pi, 1.42, 0.5, 0.5)
    vhat = fock.vhat_from_potential(lat, RadialPotential(kind="square-well", V0=4.0, R=1.0))
    wick = fock.ffg_energy_wick(lat, vhat)
    assert abs(payload["E_ffg"] - wick) <= 1e-12 * abs(wick)
    assert all(v <= 1e-10 for v in payload["identity_residuals"].values())
    assert all(t[2] >= payload["E_ground"] for t in payload["trial_energies"])


@pytest.mark.parametrize("argv", [
    ["singular-bound", "--x-grid", "0.5", "--tol", "-1"],
    ["quad-g", "--tol", "0"],
])
def test_nonpositive_tol_exits_two(argv, capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "tol must be positive" in err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"V0": 20.0, "R": 0.5, "format": "json"}))
    merged = cli.parse_config(["scatter", "--config", str(cfg)])
    assert merged.parameters["V0"] == 20.0
    assert merged.output_format == "json"
    overridden = cli.parse_config(["scatter", "--config", str(cfg),
                                   "--V0", "0.5"])
    assert overridden.parameters["V0"] == 0.5
    assert overridden.parameters["R"] == 0.5


def test_explicit_flag_equal_to_its_default_beats_the_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"V0": 20.0, "format": "csv"}))
    config = cli.parse_config(["scatter", "--config", str(cfg), "--V0", "4",
                               "--format", "json"])
    assert config.parameters["V0"] == 4.0
    assert config.output_format == "json"


def test_config_file_does_not_leak_into_the_next_parse(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"V0": 20.0, "R": 0.5, "format": "csv",
                               "out": str(tmp_path / "o.csv")}))
    assert cli.parse_config(["scatter", "--config", str(cfg)]) \
        .parameters["V0"] == 20.0
    plain = cli.parse_config(["scatter"])
    assert (plain.parameters["V0"], plain.parameters["R"]) == (4.0, 1.0)
    assert (plain.output_format, plain.output_path) == ("json", None)


def test_parser_is_built_once(monkeypatch, capsys):
    """One argparse tree per process, the top parser and one subparser per
    command, however many runs parse against it."""
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    for argv in (["hy-table", "--x-count", "3"], ["scatter"], ["quad-g"],
                 ["hy-table", "--x-count", "3"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1 + len(cli.COMMANDS)


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.parse_config(["hy-table", "--frobnicate"])
    assert err.value.code == 2


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(["quad-g", "--x", "7.0"], capsys)
    assert code == 2
    assert "usage error" in err


def test_scatter_json(capsys):
    code, out, _ = run_cli(["scatter", "--V0", "4", "--R", "1"], capsys)
    assert code == 0
    payload, meta = parse_json_output(out)
    assert payload["a"] < payload["born"]
    assert payload["born"] == pytest.approx(2.0 / 3.0)
    assert set(meta) == {"version", "seed", "tolerances", "wall_time_ms"}


def test_scatter_reports_a_error(capsys):
    code, out, _ = run_cli(["scatter", "--kind", "truncated-gaussian", "--V0", "1000"],
                           capsys)
    assert code == 0
    payload, _ = parse_json_output(out)
    assert 0.0 < payload["a_error"] < 1e-12 * payload["a"]
    _, out, err = run_cli(["scatter", "--format", "csv"], capsys)
    assert "a_error = " in out + err


def test_scatter_csv_profile(capsys):
    code, out, _ = run_cli(["scatter", "--format", "csv"], capsys)
    assert code == 0
    header, rows, _ = parse_csv_output(out)
    assert header == ["r", "u", "phi"]
    assert len(rows) > 1000


def test_hy_eval_breakdown(capsys):
    code, out, _ = run_cli(["hy-eval", "--rho-up", "1e-3",
                            "--rho-down", "1e-3"], capsys)
    assert code == 0
    payload, _ = parse_json_output(out)
    for key in ("kinetic", "mean_field", "huang_yang", "total",
                "error_order_exponent", "a_error", "energy_error"):
        assert key in payload
    assert payload["total"] == pytest.approx(
        payload["kinetic"] + payload["mean_field"] + payload["huang_yang"])
    params = FermiParams(rho_up=1e-3, rho_down=1e-3)
    assert payload["energy_error"] == hy_energy_error(
        params, payload["a"], payload["a_error"])
    assert 0.0 < payload["energy_error"] < 1e-12 * payload["mean_field"]


def test_hy_table_default_grid(capsys):
    code, out, _ = run_cli(["hy-table"], capsys)
    assert code == 0
    header, rows, meta = parse_csv_output(out)
    assert header == ["x", "F_closed", "F_from_f", "rel_diff"]
    assert len(rows) == 40
    assert float(rows[0][0]) == 0.05 and float(rows[-1][0]) == 4.0
    assert all(float(r[3]) <= 1e-12 for r in rows)
    assert meta["seed"] == 42


def test_verify_f_single_point(capsys):
    code, out, _ = run_cli(["verify-f", "--x", "0.5"], capsys)
    assert code == 0
    header, rows, meta = parse_csv_output(out)
    assert header[:4] == ["x", "F_quadrature", "F_closed", "rel_diff"]
    assert len(rows) == 1
    assert float(rows[0][3]) <= 5e-3
    assert meta["evaluations"] > 0


def test_verify_f_tol_reaches_the_oracle(capsys):
    evals = {}
    for tol in ("1e-9", "1e-2"):
        _, out, _ = run_cli(["verify-f", "--x", "0.5", "--tol", tol], capsys)
        evals[tol] = parse_csv_output(out)[2]["evaluations"]
    assert evals["1e-9"] > evals["1e-2"]


@pytest.mark.parametrize("argv", [
    ["verify-f", "--x-grid", "0.3", "0.7"],
    ["singular-bound", "--x-grid", "0.01", "1.0"],
    ["gap-study", "--rho-count", "2"],
])
def test_ladder_metadata(argv, capsys):
    """The highest rung and the worst error / (tol |value|) ride in the
    metadata line; the CSV columns stay as they were."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, rows, meta = parse_csv_output(out)
    assert "rung" not in header
    assert meta["rung"] >= 1
    assert 0.0 < meta["err_to_tol"] <= 1.0


def test_verify_f_defaults_to_one_point():
    p = cli.parse_config(["verify-f"]).parameters
    assert p["x_grid"] == [0.5]


def test_verify_f_honours_x_grid(tmp_path, capsys):
    code, out, _ = run_cli(["verify-f", "--x-grid", "0.3", "0.7"], capsys)
    assert code == 0
    _, rows, _ = parse_csv_output(out)
    assert [float(r[0]) for r in rows] == [0.3, 0.7]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"x-grid": [0.25, 1]}))
    p = cli.parse_config(["verify-f", "--config", str(cfg)]).parameters
    assert p["x_grid"] == [0.25, 1.0]


def test_verify_f_refuses_x_with_x_grid(tmp_path, capsys):
    code, out, err = run_cli(["verify-f", "--x", "0.5", "--x-grid", "1.0"],
                             capsys)
    assert code == 2 and out == ""
    assert "x-grid" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"x-grid": [1.0]}))
    code, out, _ = run_cli(["verify-f", "--config", str(cfg), "--x", "0.5"],
                           capsys)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [["--x", "0"], ["--x", "-1"],
                                  ["--x-grid", "-2"],
                                  ["--x-grid", "0.5", "0"],
                                  # refused before the overflow of 1e200
                                  ["--x-grid", "1e200", "-1"]])
def test_verify_f_nonpositive_x_exits_two(argv, capsys):
    code, out, err = run_cli(["verify-f", *argv], capsys)
    assert code == 2
    assert out == ""
    assert "x must be positive" in err


def test_threads_is_no_longer_a_flag_or_config_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.parse_config(["scatter", "--threads", "2"])
    assert err.value.code == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"threads": 2}))
    code, out, err = run_cli(["scatter", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert "'threads'" in err


def test_quad_g_metadata(capsys):
    code, out, _ = run_cli(["quad-g", "--x", "0.5", "--p", "1.0"], capsys)
    assert code == 0
    _, rows, meta = parse_csv_output(out)
    assert float(rows[0][2]) > 0.0
    assert {"version", "seed", "tolerances", "wall_time_ms",
            "evaluations", "elapsed"} <= set(meta)
    assert meta["rung"] == 1


def test_gap_study_slope(capsys):
    code, out, _ = run_cli(["gap-study", "--rho-count", "3",
                            "--format", "json"], capsys)
    assert code == 0
    payload, _ = parse_json_output(out)
    assert payload["slope"] > 2.0
    assert len(payload["rows"]) == 3


def test_lattice_sum_rows(capsys):
    code, out, _ = run_cli(["lattice-sum", "--L-grid", "16", "32", "64"],
                           capsys)
    assert code == 0
    _, rows, _ = parse_csv_output(out)
    diffs = [float(r[3]) for r in rows]
    assert diffs[0] > diffs[-1]


def test_singular_bound_rows(capsys):
    code, out, _ = run_cli(["singular-bound", "--x-grid", "0.01", "1.0"],
                           capsys)
    assert code == 0
    _, rows, _ = parse_csv_output(out)
    assert float(rows[0][1]) < float(rows[1][1])


def test_bg_solve_csv(capsys):
    code, out, _ = run_cli(["bg-solve", "--rho-up", "0", "--rho-down", "0",
                            "--V0", "0.5"], capsys)
    assert code == 0
    header, rows, _ = parse_csv_output(out)
    assert header == ["q", "G", "phi", "denominator"]
    assert len(rows) > 100


def test_bg_solve_unmet_tolerance_exits_one(capsys):
    code, out, err = run_cli(["bg-solve", "--tol", "1e-30"], capsys)
    assert code == 1
    assert out == ""
    assert "residual" in err


def test_fock_demo_contract(capsys):
    metas = []
    for _ in range(2):
        code, out, _ = run_cli(["fock-demo", "--lambda-grid", "0", "0.5"],
                               capsys)
        assert code == 0
        payload, meta = parse_json_output(out)
        metas.append({k: meta[k] for k in ("sector_states", "trial_block", "nnz", "forms")})
        # per-stage wall times, outside the byte-identical-rerun guarantee
        assert list(meta["stages"]) == ["lattice", "sector", "scatter", "operators", "PH",
                                        "identity", "trial", "ground"]
        assert all(v >= 0.0 for v in meta["stages"].values())
    assert set(payload) == {"E_ffg", "E_ground", "trial_energies",
                            "identity_residuals"}
    assert len(payload["trial_energies"]) == 4
    assert all(v <= 1e-10 for v in payload["identity_residuals"].values())
    assert payload["E_ground"] <= min(t[2] for t in payload["trial_energies"])
    best = min(t[2] for t in payload["trial_energies"])
    assert best < payload["E_ffg"]
    # work counters: positive ints that a rerun repeats exactly
    assert all(type(v) is int and v > 0 for v in metas[0].values())
    assert metas[0]["trial_block"] == 7
    assert metas[0]["sector_states"] == 49
    # nonzero entries of H, the terms and the generators: a dropped or
    # duplicated block shows here
    assert metas[0]["nnz"] == 397
    assert metas[0] == metas[1]


def test_fock_demo_forms_counts_merged_strings(capsys):
    """`forms` is the number of merged ladder strings of H, the seven
    correlation terms, B1 and B2, as fock-demo built them in its one
    build_operators call."""
    calls, build = [], fock.build_operators

    def recording(*args, **kwargs):
        h, terms, b1, b2 = out = build(*args, **kwargs)
        calls.append([h, *terms.values(), b1, b2])
        return out

    with mock.patch.object(fock, "build_operators", recording):
        code, out, _ = run_cli(["fock-demo", "--lambda-grid", "0"], capsys)
    assert code == 0
    assert len(calls) == 1
    built, = calls
    assert len(built) == 10
    _, meta = parse_json_output(out)
    assert meta["forms"] == sum(op.coef.size for op in built) == 390


def test_output_file_and_determinism(tmp_path, capsys):
    for argv in (["hy-table", "--x-count", "7"],
                 ["lattice-sum", "--L-grid", "16", "32"],
                 ["lattice-sum", "--L-grid", "16", "--format", "json"],
                 ["singular-bound", "--x-grid", "0.01", "1.0"],
                 ["gap-study", "--rho-count", "2"]):
        runs = []
        for path in (tmp_path / "one", tmp_path / "two"):
            code = cli.main([*argv, "--out", str(path)])
            capsys.readouterr()
            assert code == 0
            *data, meta = path.read_text().splitlines()
            meta = json.loads(meta)
            # the times in the trailing metadata line are the only bytes
            # that may change
            meta.pop("wall_time_ms"), meta.pop("elapsed", None)
            runs.append((data, meta))
        assert runs[0] == runs[1], argv


def test_summary_goes_to_stderr_for_stdout_data(capsys):
    _, out, err = run_cli(["hy-table", "--x-count", "3"], capsys)
    assert "worst rel_diff" in err
    assert "worst rel_diff" not in out


def test_scatter_overflow_exits_one(capsys):
    code, out, err = run_cli(["scatter", "--V0", "1e6"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err


@pytest.mark.parametrize("argv, x", [
    (["hy-table", "--x-min", "1e-200", "--x-max", "1e200", "--x-count", "3"],
     "x^(-7/3) lies beyond the float range at x = 1e-200"),
    (["verify-f", "--x-grid", "1e200"],
     "x^(7/3) lies beyond the float range at x = 1e+200"),
])
def test_x_whose_power_overflows_exits_one_naming_it(argv, x, capsys):
    """F_from_f needs x^(-7/3) and x^(7/3), F_quadrature x^(7/3), as
    floats; the refusal names the x."""
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {x}\n"


@pytest.mark.filterwarnings("error")
def test_scatter_tiny_range_exits_one_without_a_warning(capsys):
    """Below R ~ 1e-158 the step's square underflows to 0: the residual
    check refuses the NaN, and numpy warns nothing on the way."""
    code, out, err = run_cli(["scatter", "--R", "1e-160"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: integration residual nan too large\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p, value, error, evaluations", [
    ("1e-110", 3.2378646946470213e-111, 4.167824711007114e-121, 170),
    ("1e-200", 3.2378646946470213e-201, 4.167808021614428e-211, 170),
    ("1e160", 0.0, 0.0, 2),
    ("1e300", 0.0, 0.0, 2),
], ids=["1e-110", "1e-200", "1e160", "1e300"])
def test_quad_g_extreme_p_without_a_warning(p, value, error, evaluations, capsys):
    """p^3 underflows in the closed form of a flat t-piece, which the
    Gauss sum overwrites; p^2 overflows in the far-field series, one
    evaluation per rung, whose value then underflows to 0: the row is the
    same, exit 0, and numpy warns nothing on the way."""
    code, out, _ = run_cli(["quad-g", "--p", p], capsys)
    assert code == 0
    header, rows, _ = parse_csv_output(out)
    row = dict(zip(header, rows[0]))
    assert float(row["value"]) == value
    assert float(row["error_estimate"]) == error
    assert int(row["evaluations"]) == evaluations


@pytest.mark.parametrize("argv", [
    ["hy-eval", "--rho-up", "nan"],
    ["hy-eval", "--rho-up", "inf"],
    ["quad-g", "--p", "nan"],
    ["lattice-sum", "--L-grid", "nan", "16"],
    ["scatter", "--R=-inf"],
    ["verify-f", "--tol", "nan"],
])
def test_non_finite_flag_exits_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("argv, key, want", [
    (["fock-demo", "--lambda-grid", "-1e-3", "0.5"], "lambda_grid",
     [-1e-3, 0.5]),
    (["verify-f", "--x-grid", "0.5", "-2.5E+2"], "x_grid", [0.5, -250.0]),
    (["scatter", "--R", "-.5e-1"], "R", -0.05),
    (["scatter", "--V0", "-3"], "V0", -3.0),
])
def test_negative_numbers_in_exponent_notation_are_flag_values(argv, key,
                                                               want):
    """argparse alone reads -1e-3 as an unknown option and exits 2 with
    'expected at least one argument'; it is a value like -0.001."""
    assert cli.parse_config(argv).parameters[key] == want


@pytest.mark.parametrize("doc", [{"V0": float("nan")},
                                 {"shells": [0.5, float("inf")]}])
def test_non_finite_config_value_exits_two(doc, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    command = "fock-demo" if "shells" in doc else "scatter"
    code, _, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert "must be finite" in err


@pytest.mark.parametrize("key", ["rho-upp", "rho_upp", "x-grid"])
def test_unknown_config_key_exits_two(key, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rho-up": 5e-3, key: 5}))
    code, out, err = run_cli(["hy-eval", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert repr(key) in err


def test_config_keys_accept_dashes_and_underscores(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rho-up": 2e-3, "rho_down": 3e-3,
                               "out": str(tmp_path / "o.json")}))
    p = cli.parse_config(["hy-eval", "--config", str(cfg)]).parameters
    assert (p["rho_up"], p["rho_down"]) == (2e-3, 3e-3)


@pytest.mark.parametrize("grid", [["0", "16"], ["16", "-32"]])
def test_lattice_sum_rejects_nonpositive_box(grid, capsys):
    code, out, err = run_cli(["lattice-sum", "--L-grid", *grid], capsys)
    assert code == 2
    assert out == ""
    assert "L values must be positive" in err


def test_lattice_sum_sizes_its_boxes_before_any_work(capsys):
    """Densities whose sum overflows make the cutoff radii infinite: the
    box is refused by its size before the integral meets inf - inf."""
    code, out, err = run_cli(["lattice-sum", "--rho-up", "1.7e308",
                              "--rho-down", "1.7e308"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and "half-width inf" in err


def test_lattice_sum_refuses_an_oversized_box(capsys):
    """An L just above the size cap at the default densities is refused
    before the box below it is summed."""
    cutoff = CutoffConfig(rho=2e-3)
    L = 1.001 * quadrature._MAX_LATTICE_NMAX * 2.0 * math.pi / cutoff.c_upper
    t0 = time.perf_counter()
    code, out, err = run_cli(["lattice-sum", "--L-grid", "16", repr(L)],
                             capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert f"the limit is {quadrature._MAX_LATTICE_NMAX}" in err


@pytest.mark.parametrize("command,doc,want", [
    ("scatter", {"V0": "4", "R": 1}, {"V0": 4.0, "R": 1.0}),
    ("hy-table", {"x-count": "7"}, {"x_count": 7}),
    ("singular-bound", {"x-grid": ["0.5", 1]}, {"x_grid": [0.5, 1.0]}),
])
def test_config_values_take_their_flag_type(command, doc, want, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    p = cli.parse_config([command, "--config", str(cfg)]).parameters
    for key, value in want.items():
        assert p[key] == value and type(p[key]) is type(value)


@pytest.mark.parametrize("command,doc", [
    ("scatter", {"V0": "four"}),
    ("scatter", {"V0": True}),
    ("scatter", {"R": [1.0]}),
    ("scatter", {"kind": "box"}),
    ("scatter", {"format": "xml"}),
    ("hy-table", {"x-count": 4.5}),
    ("singular-bound", {"x-grid": 0.5}),
    ("singular-bound", {"x-grid": []}),
    ("fock-demo", {"shells": [0.5]}),
    # a config file cannot name another, even one that does not exist
    ("hy-table", {"config": "nested.json", "x_count": 3}),
])
def test_config_value_that_does_not_fit_its_flag_exits_two(command, doc,
                                                           tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert repr(next(iter(doc))) in err


@pytest.mark.parametrize("command", ["scatter", "hy-eval", "hy-table", "lattice-sum"])
def test_tol_is_refused_where_nothing_reads_it(command, tmp_path, capsys):
    """Only the six commands that read a tolerance take --tol or a config
    key tol; the others exit 2 on either."""
    with pytest.raises(SystemExit) as exc:
        cli.parse_config([command, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tol": 1e-3}))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "'tol'" in err


@pytest.mark.parametrize("argv,word", [
    (["--rho-count", "1"], "rho-count"),
    (["--rho-min", "1e-3", "--rho-max", "1e-3"], "rho-min < rho-max"),
])
def test_gap_study_needs_two_distinct_densities(argv, word, capsys):
    code, out, err = run_cli(["gap-study", *argv], capsys)
    assert code == 2
    assert out == ""
    assert word in err


def test_non_finite_result_exits_one(monkeypatch, capsys):
    def nan_rows(params, cutoff, grid, tol):
        return [{"rho": rho, "i_regularized": float("nan"), "i_limit": -1.0,
                 "diff": 1.0, "error_estimate": 0.0, "evaluations": 1,
                 "rung": 1, "elapsed": 0.0, "flagged": False} for rho in grid]

    monkeypatch.setattr(cli.quadrature, "gap_cutoff_study", nan_rows)
    code, out, err = run_cli(["gap-study", "--rho-count", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "i_regularized" in err


def test_bg_solve_non_finite_phi_exits_one(monkeypatch, capsys):
    """phi gets no exemption from the non-finite guard: a node at q = 0
    makes it G/0, and bg-solve exits 1 naming it. The solution rebuilds
    its nodes through the node rule, so the zero node goes in there, once
    the solve is done."""
    real_solve, real_grid = cli.bethe_goldstone_solve, potentials._bg_grid

    def grid_with_node_at_zero(kf_floor, q_max):
        nodes, weights = real_grid(kf_floor, q_max)
        nodes = nodes.copy()
        nodes[0] = 0.0
        return nodes, weights

    def solve_then_zero_a_node(*args, **kwargs):
        sol = real_solve(*args, **kwargs)
        monkeypatch.setattr(potentials, "_bg_grid", grid_with_node_at_zero)
        return sol

    monkeypatch.setattr(cli, "bethe_goldstone_solve", solve_then_zero_a_node)
    with np.errstate(divide="ignore"):
        code, out, err = run_cli(["bg-solve"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "phi" in err


@pytest.mark.parametrize("argv", [["--rho-up", "1e5"], ["--rho-up", "1e308"],
                                  ["--R", "1e308"], ["--R", "1e-308"]])
def test_bg_solve_floor_not_below_the_grid_top_exits_two(argv, capsys):
    """kF_up = 181 at rho_up = 1e5 lies above the grid's top 80/R = 80,
    1e308 makes kF infinite, R = 1e308 puts 80/R below the default kF and
    R = 1e-308 makes it infinite: each is refused before any work,
    naming both numbers."""
    code, out, err = run_cli(["bg-solve", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: Pauli floor") and "80/R" in err


@pytest.mark.parametrize("argv", [
    ["bg-solve", "--R", "1e308", "--rho-up", "0", "--rho-down", "0"],
    ["bg-solve", "--V0", "1e308"],
    ["gap-study", "--rho-count", "2", "--rho-max", "1e200"],
    ["hy-eval", "--rho-up", "4.4e153", "--rho-down", "4.4e153"],
], ids=["bg-R", "bg-V0", "gap-rho", "hy-rho"])
def test_overflow_exits_one_without_a_warning(argv, capsys):
    """The computation overflows; the residual check, the non-finite guard
    or an OverflowError reports it once, and numpy warns nothing on the
    way (tier-1 turns a RuntimeWarning into a failure)."""
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("rho_up, rho_down", [("4.4e153", "4.4e153"),
                                               ("1e200", "0")])
def test_hy_eval_overflow_names_both_densities(rho_up, rho_down, capsys):
    code, out, err = run_cli(["hy-eval", "--rho-up", rho_up, "--rho-down",
                              rho_down], capsys)
    assert code == 1
    assert out == ""
    assert err == (f"error: rho^(7/3) lies beyond the float range at rho_up = "
                   f"{float(rho_up)}, rho_down = {float(rho_down)}\n")


@pytest.mark.parametrize("text, word", [
    (None, "cannot read potential file"),
    ('{"V0": 4.0, "R": 1.0}', "'kind' key"),
    ("[4.0, 1.0]", "'kind' key"),
    ('{"kind": "square-well", "V0": 4.0', "Expecting"),
    ('{"kind": "square-well", "V0": -1.0}', "V0 must be"),
    ('{"kind": "nope", "V0": 4.0}', "unknown potential kind"),
    ('{"kind": "square-well", "V0": NaN}', "V0 must be"),
    ('{"kind": "square-well", "V0": 4.0, "R": NaN}', "R must be"),
    ('{"kind": "tabulated", "R": 1.0, "samples": [[0.2, NaN], [0.5, 1.0]]}',
     "samples must be finite"),
    ('{"kind": "tabulated", "R": 1.0, "samples": [null]}', "malformed"),
    ('{"kind": "square-well", "v0": 100, "r": 2}', "key 'v0'"),
    ('{"kind": "square-well", "V0": 4.0, "samples": [[0.5, 1.0]]}',
     "key 'samples'"),
    ('{"kind": "tabulated", "V0": 4.0, "samples": [[0.5, 1.0]]}', "key 'V0'"),
], ids=["missing-file", "no-kind", "not-an-object", "not-json", "V0-negative",
        "kind-unknown", "V0-NaN", "R-NaN", "sample-NaN", "sample-null",
        "key-misspelt", "samples-on-square-well", "V0-on-tabulated"])
def test_potential_file_problems_exit_two(text, word, tmp_path, capsys):
    path = tmp_path / "pot.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(["scatter", "--potential-file", str(path)],
                             capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and word in err


@pytest.mark.parametrize("command", ["hy-eval", "fock-demo", "bg-solve"])
def test_every_potential_command_validates_its_file(command, tmp_path,
                                                    capsys):
    code, out, err = run_cli([command, "--potential-file",
                              str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert out == ""
    assert "cannot read potential file" in err


def test_tabulated_kind_without_samples_exits_two(tmp_path, capsys):
    """Only a potential file supplies samples: --kind offers no tabulated
    choice, and a config key kind = tabulated exits 2 naming the key."""
    with pytest.raises(SystemExit) as exc:
        cli.parse_config(["scatter", "--kind", "tabulated"])
    assert exc.value.code == 2
    assert "invalid choice: 'tabulated'" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "tabulated"}))
    code, out, err = run_cli(["scatter", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "'kind'" in err


def test_potential_file_runs(tmp_path, capsys):
    # V = 2 on [0, 1]: the tabulated form holds 2 below its first radius
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"kind": "tabulated", "R": 1.0,
                                "samples": [[0.6, 2.0], [1.0, 2.0]]}))
    code, out, _ = run_cli(["scatter", "--potential-file", str(path)], capsys)
    assert code == 0
    payload, _ = parse_json_output(out)
    assert payload["born"] == pytest.approx(1.0 / 3.0, rel=1e-14)
    code, out, _ = run_cli(["scatter", "--V0", "2"], capsys)
    assert payload["a"] == pytest.approx(parse_json_output(out)[0]["a"],
                                         rel=1e-6)


# the float flags of each command; the count flags stay fixed. shells
# takes two values, each drawn on its own
_FLOAT_FLAGS = {
    "scatter": ("V0", "R"),
    "hy-eval": ("V0", "R", "rho-up", "rho-down"),
    "quad-g": ("x", "p", "tol"),
    "hy-table": ("x-min", "x-max"),
    "lattice-sum": ("gamma", "delta", "rho-up", "rho-down", "L-grid"),
    "fock-demo": ("tol", "gamma", "delta", "V0", "R", "L", "kmax", "shells",
                  "lambda-grid"),
    "bg-solve": ("tol", "V0", "R", "rho-up", "rho-down"),
}
# a fock-demo or bg-solve run costs milliseconds: fewer draws keep them cheap
_EXAMPLES = {"fock-demo": 20, "bg-solve": 20}
_BASE_ARGV = {"hy-table": ["--x-count", "3"], "fock-demo": ["--lambda-grid", "0"]}
_ANY_FLOAT = st.one_of(st.floats(), st.floats(-2.0, 2.0),
                       st.sampled_from([1e300, -1e300, 1e-300, 1e-30]))
_NON_FINITE = re.compile(r"\b(?:nan|inf|NaN|Infinity)\b")


@pytest.mark.parametrize("command", sorted(_FLOAT_FLAGS))
def test_random_floats_never_give_a_non_finite_success(command):
    """Finite, non-finite, negative and huge flag values end in a usage
    error, a computational failure, or a run whose output is finite."""

    @settings(max_examples=_EXAMPLES.get(command, 50), deadline=None)
    @given(data=st.data())
    def draws(data):
        argv = [command, *_BASE_ARGV.get(command, [])]
        for flag in _FLOAT_FLAGS[command]:
            if not data.draw(st.booleans()):
                continue
            if flag == "shells":
                argv += ["--shells", repr(data.draw(_ANY_FLOAT)), repr(data.draw(_ANY_FLOAT))]
            else:
                argv.append(f"--{flag}={data.draw(_ANY_FLOAT)!r}")
        out, err = io.StringIO(), io.StringIO()
        # a small cap keeps every box that lattice-sum accepts cheap
        with mock.patch.object(quadrature, "_MAX_LATTICE_NMAX", 24), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                # argparse's own refusal, as of --shells -inf 0.5, whose
                # -inf reads as an option: the process exits with this code
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 0:
            assert not _NON_FINITE.search(out.getvalue()), argv

    draws()
