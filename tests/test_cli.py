"""Command-line surface: parsing precedence, validation exit codes, and
the emitted CSV/JSON shapes."""

import csv
import io
import json
import math

import pytest

from hyfermi import cli


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


def test_parse_defaults():
    config = cli.parse_config(["hy-table"])
    assert config.command == "hy-table"
    assert config.output_format == "csv"
    p = config.parameters
    assert (p["x_min"], p["x_max"], p["x_count"]) == (0.05, 4.0, 40)
    assert p["seed"] == 42


def test_parse_rejects_bad_cutoff_pair():
    with pytest.raises(cli.UsageError) as err:
        cli.parse_config(["gap-study", "--gamma", "0.2", "--delta", "1.7"])
    assert "8*gamma" in str(err.value)


def test_parse_rejects_split_shell():
    with pytest.raises(cli.UsageError) as err:
        cli.parse_config(["fock-demo", "--shells", "1.0", "0.5"])
    assert "closed-shell" in str(err.value)


def test_oversized_lattice_exits_two(capsys):
    # kmax 1.42 keeps |n|^2 <= 2: 19 momenta, 38 modes
    code, out, err = run_cli(["fock-demo", "--kmax", "1.42",
                              "--shells", "0.5", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert "38 modes" in err and "practical limit is 22 modes" in err


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
                "error_order_exponent"):
        assert key in payload
    assert payload["total"] == pytest.approx(
        payload["kinetic"] + payload["mean_field"] + payload["huang_yang"])


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
                                  ["--x-grid", "0.5", "0"]])
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


def test_fock_demo_contract(capsys):
    metas = []
    for _ in range(2):
        code, out, _ = run_cli(["fock-demo", "--lambda-grid", "0", "0.5"],
                               capsys)
        assert code == 0
        payload, meta = parse_json_output(out)
        metas.append({k: meta[k] for k in ("trial_block", "nnz")})
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
    assert metas[0] == metas[1]


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    for path in (out1, out2):
        code = cli.main(["hy-table", "--x-count", "7", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    lines1 = out1.read_text().splitlines()
    lines2 = out2.read_text().splitlines()
    # identical apart from the wall time in the trailing metadata line
    assert lines1[:-1] == lines2[:-1]
    m1, m2 = json.loads(lines1[-1]), json.loads(lines2[-1])
    m1.pop("wall_time_ms"), m2.pop("wall_time_ms")
    assert m1 == m2


def test_summary_goes_to_stderr_for_stdout_data(capsys):
    _, out, err = run_cli(["hy-table", "--x-count", "3"], capsys)
    assert "worst rel_diff" in err
    assert "worst rel_diff" not in out


def test_scatter_overflow_exits_one(capsys):
    code, out, err = run_cli(["scatter", "--V0", "1e6"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err


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
])
def test_config_value_that_does_not_fit_its_flag_exits_two(command, doc,
                                                           tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert repr(next(iter(doc))) in err


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
                 "elapsed": 0.0, "flagged": False} for rho in grid]

    monkeypatch.setattr(cli.quadrature, "gap_cutoff_study", nan_rows)
    code, out, err = run_cli(["gap-study", "--rho-count", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "i_regularized" in err


def test_nan_by_design_is_not_a_failure(monkeypatch, capsys):
    """bg-solve's phi is NaN where the pair dispersion is not positive."""
    real = cli.bethe_goldstone_solve

    def with_blocked_node(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.denominators[0], sol.phi[0] = 0.0, float("nan")
        return sol

    monkeypatch.setattr(cli, "bethe_goldstone_solve", with_blocked_node)
    code, out, _ = run_cli(["bg-solve"], capsys)
    assert code == 0
    header, rows, _ = parse_csv_output(out)
    assert rows[0][header.index("phi")] == "nan"
