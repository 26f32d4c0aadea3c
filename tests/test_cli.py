"""Command line front end: exit codes, file formats, determinism, presets.

Everything runs in-process through cli.main so exit codes and stdio can be
asserted without subprocesses; only the import check needs a fresh
interpreter.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vitats
from vitats import ParameterError, SolverFailure, cli


def test_cli_import_leaves_slow_scipy_modules_unloaded():
    # find_peaks and the time-domain integrator import them on first use
    env = dict(os.environ, PYTHONPATH=str(Path(vitats.__file__).parents[1]))
    code = ("import sys, vitats.cli; print(' '.join(m for m in ('scipy.signal', "
            "'scipy.stats', 'scipy.integrate', 'scipy.constants') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == ""


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; one call's subcommand and flags
    # must not reach the next
    system = {"gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0,
              "n_th": 0.1, "n_max": 4, "delta_min": -5.0, "delta_max": 5.0,
              "delta_points": 5}
    cfg = _write_config(tmp_path, "c.json", system)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli.main(["spectrum", "--config", cfg, "--n-max", "3",
                     "--method", "finite_epsilon", "--output", str(first)]) == 0
    pops = tmp_path / "p.json"
    assert cli.main(["populations", "--config", cfg, "--format", "json",
                     "--output", str(pops)]) == 0
    assert cli.main(["spectrum", "--config", cfg, "--output", str(second)]) == 0
    capsys.readouterr()

    def sidecar(path):
        return json.loads(path.with_name(path.name + ".meta.json").read_text("utf-8"))

    assert (sidecar(first)["method"], sidecar(first)["n_max"]) == ("finite_epsilon", 3)
    assert json.loads(pops.read_text("utf-8"))["metadata"]["n_max"] == 4
    assert (sidecar(second)["method"], sidecar(second)["n_max"]) == ("linear_response", 4)
    assert second.read_text("utf-8").startswith("delta,im_chi,re_chi\n")


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


CLASSIFY_CFG = {"gamma_eg": 15.0, "gamma_fg": 6.5, "kappa": 0.63, "eta": 36.0}


def test_classify_stdout_json(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", CLASSIFY_CFG)
    out_file = tmp_path / "report.json"
    assert cli.main(["classify", "--config", cfg,
                     "--output", str(out_file)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert list(doc) == ["gamma_R", "eta_R", "eta_d", "eta_c",
                         "dip_present", "regime"]
    assert doc["gamma_R"] == pytest.approx(7.5 / 3.88, rel=1e-12)
    assert doc["eta_R"] == pytest.approx(36.0 / 3.88, rel=1e-12)
    assert doc["eta_d"] == pytest.approx(1 / math.sqrt(2 + 7.5 / 3.88), rel=1e-12)
    assert doc["eta_c"] == pytest.approx(0.5 * abs(1 - 7.5 / 3.88), rel=1e-12)
    assert doc["dip_present"] is True
    assert doc["regime"] == "VacuumATS"
    assert out_file.read_text(encoding="utf-8") == text


def test_classify_detuned_cavity_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {**CLASSIFY_CFG, "delta": 1.0})
    assert cli.main(["classify", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_classify_rates_that_overflow_exit_3(tmp_path, capsys):
    # gamma_R = 5/1e-320 would print as Infinity, which is not JSON
    cfg = _write_config(tmp_path, "c.json",
                        {"gamma_e": 5.0, "gamma_f": 1e-320, "kappa": 0.0, "eta": 2.0})
    assert cli.main(["classify", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: gamma_f + kappa = ")


def test_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["classify", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["classify", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_negative_rate_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json",
                        {"gamma_e": -5.0, "gamma_f": 1.0, "eta": 2.0,
                         "kappa": 1.0})
    assert cli.main(["classify", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_figure_exits_2(tmp_path, capsys):
    assert cli.main(["reproduce", "99", "--output", str(tmp_path / "x")]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_solver_failure_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json",
                        {"gamma_eg": 0.0, "eta": 2.0, "n_th": 0.0, "n_max": 2,
                         "output": str(tmp_path / "p.csv")})
    assert cli.main(["populations", "--config", cfg]) == 4
    assert "error:" in capsys.readouterr().err


def test_populations_lossless_cavity_exits_4(tmp_path, capsys):
    # kappa = 0 under a coherent drive has no unique steady state; a
    # non-unique solve would write negative populations such as P_1 = -0.125
    out = tmp_path / "p.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_eg": 2.097, "gamma_fg": 6.648, "gamma_ff": 6.799,
        "eta": 3.2554414702110597, "kappa": 0, "Omega": 0.4218865634913107,
        "n_max": 4, "output": str(out)})
    assert cli.main(["populations", "--config", cfg]) == 4
    assert "not unique" in capsys.readouterr().err
    assert not out.exists()


def test_populations_structurally_singular_exits_4(tmp_path, capsys):
    # eta = kappa = n_th = 0: the cavity block of L0 is identically zero; the
    # error is the kappa = 0 uniqueness verdict, not a SuperLU source location
    out = tmp_path / "p.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "eta": 0.0, "kappa": 0.0, "n_th": 0.0,
        "n_max": 4, "output": str(out)})
    assert cli.main(["populations", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "not unique: kappa = 0" in err
    assert ".c" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [
    ("classify", {"gamma_e": math.nan, "gamma_f": 1.0, "kappa": 1.0,
                  "eta": 4.0}),
    ("spectrum", {"gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0,
                  "eta": math.inf, "delta_min": -5.0, "delta_max": 5.0,
                  "delta_points": 11, "method": "analytic"}),
])
def test_nonfinite_config_exits_2(tmp_path, capsys, command, payload):
    out = tmp_path / "out.csv"
    cfg = _write_config(tmp_path, "c.json", {**payload, "output": str(out)})
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


_HUGE_INT = "9" * 400  # a JSON integer far beyond the float range


@pytest.mark.parametrize("command, text", [
    ("classify", '{"gamma_e": 5, "gamma_f": 1, "kappa": 1, "eta": %s}' % _HUGE_INT),
    ("populations", '{"gamma_e": 5, "gamma_f": 1, "kappa": 1, "eta": 2, "n_max": 4, '
                    '"sweep_key": "n_th", "sweep_values": [0.1, %s]}' % _HUGE_INT),
    ("classify", '{"eta": %s}' % ("9" * 5000)),  # beyond the int parser's limit
], ids=["parameter", "sweep-value", "unparsable-integer"])
def test_oversized_config_number_exits_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b"\xff\xfe" + '{"gamma_e": 5}'.encode("utf-16-le"))
    assert cli.main(["classify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and "Traceback" not in err


@pytest.mark.parametrize("temperature_mk", [1e-300, 1e-310])
def test_populations_at_a_tiny_temperature(tmp_path, capsys, temperature_mk):
    # k_B T underflows to 0: the occupation is 0, not a division by zero
    out = tmp_path / "p.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2, "eta": 2.0, "n_max": 4,
        "temperature_mK": temperature_mk, "omega_c_GHz": 5.0, "output": str(out)})
    assert cli.main(["populations", "--config", cfg]) == 0
    capsys.readouterr()
    assert json.loads(out.with_name("p.csv.meta.json").read_text())["params"]["n_th"] == 0.0


def _per_cell(value) -> str:
    """The per-cell formatting the row template must reproduce byte for byte."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def test_csv_row_template_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(3)
    specials = [0.0, -0.0, 1e-300, -2.5e300, 5e-324, math.inf, -math.inf, math.nan,
                0.1, 1.0 / 3.0, 1e16, 123456789.0]
    rows = [(n, np.int64(-n), "g%" if n % 2 else "f", True, value, np.float64(value),
             np.float32(value if abs(value) < 1e30 else 1.5))
            for n, value in enumerate(specials + list(rng.standard_normal(40)
                                                      * 10.0 ** rng.integers(-20, 20, 40)))]
    columns = ["n", "m", "level", "flag", "x", "y", "z"]
    path = tmp_path / "t.csv"
    cli._write_csv(path, columns, rows)
    want = [",".join(columns)] + [",".join(_per_cell(cell) for cell in row) for row in rows]
    assert path.read_text(encoding="utf-8") == "\n".join(want) + "\n"
    cli._write_csv(path, columns, [])
    assert path.read_text(encoding="utf-8") == ",".join(columns) + "\n"


@pytest.mark.parametrize("write", [
    cli._write_csv, lambda path, columns, rows: cli._write_json(path, {}, columns, rows)],
    ids=["csv", "json"])
def test_writers_refuse_rows_narrower_than_the_header(tmp_path, write):
    path = tmp_path / "t.out"
    with pytest.raises(ValueError, match="3 column names .* over rows of 2 cells"):
        write(path, ["x", "P_0", "P_1"], [(0.0, 1.0), (1.0, 0.5)])
    assert not path.exists()
    write(path, ["x", "P_0"], [])  # no row: nothing to compare
    assert path.exists()


@pytest.mark.parametrize("later", [1.5, "1", np.float64(2.0)])
def test_csv_column_of_mixed_cell_types_raises(tmp_path, later):
    # %d would print 1.5 as 1: a later row that formats differently from
    # the first refuses instead
    with pytest.raises(TypeError, match="'n' mixes cell types"):
        cli._write_csv(tmp_path / "t.csv", ["n", "x"], [(1, 0.5), (later, 0.25)])


@pytest.mark.parametrize("key, value", [("eta", 1e160), ("delta", 1e200)])
def test_analytic_square_overflow_exits_3(tmp_path, capsys, key, value):
    out = tmp_path / "s.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 2.0, key: value,
        "method": "analytic", "delta_min": -1.0, "delta_max": 1.0, "delta_points": 5,
        "output": str(out)})
    assert cli.main(["spectrum", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {key} = {value:g} is too large: its square "
                                f"overflows a float"]
    assert "Traceback" not in err
    assert not out.exists()


def test_analytic_constant_overflow_exits_3(tmp_path, capsys):
    # gamma_e gamma_f overflows C: chi would be 0 at every Delta, exit 0
    out = tmp_path / "s.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 1e200, "gamma_f": 1e200, "kappa": 0.0, "eta": 1.0,
        "method": "analytic", "delta_min": -1.0, "delta_max": 1.0, "delta_points": 5,
        "output": str(out)})
    assert cli.main(["spectrum", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: the constant C of chi overflows a float: "
                                "gamma_e*gamma_f is not finite"]
    assert not out.exists()


def test_analytic_spectrum_at_huge_damping_exits_0(tmp_path, capsys):
    # gamma_e 1e154: the narrow pole used to cancel onto the real axis, and
    # the spectrum refused its Delta = 0 row with exit 3
    out = tmp_path / "s.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 1e154, "gamma_f": 1.0, "kappa": 1.0, "eta": 1.0,
        "method": "analytic", "delta_min": -1.0, "delta_max": 1.0, "delta_points": 5,
        "output": str(out)})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["delta", "im_chi", "re_chi", "im_R1", "im_R2"]
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_spectrum_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "s.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 10.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 3.9,
        "delta_min": -20.0, "delta_max": 20.0, "delta_points": 41,
        "method": "analytic", "output": str(out)})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    header, rows = _read_csv(out)
    # delta = 0 and distinct poles: the resonance components ride along
    assert header == ["delta", "im_chi", "re_chi", "im_R1", "im_R2"]
    assert len(rows) == 41
    assert float(rows[0][0]) == -20.0
    mid = rows[20]
    assert float(mid[0]) == 0.0
    # criterion: interference side carries opposite-sign components at 0
    assert float(mid[3]) * float(mid[4]) < 0
    assert float(mid[3]) + float(mid[4]) == pytest.approx(float(mid[1]),
                                                          abs=1e-12)

    meta = json.loads((tmp_path / "s.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["software"].startswith("vitats ")
    assert meta["method"] == "analytic"
    assert meta["n_max"] is None
    assert meta["warnings"] == []
    assert meta["residual_max"] is None
    assert meta["params"]["eta"] == 3.9
    assert meta["params"]["gamma_eg"] == 20.0
    assert "timestamp" not in meta and "date" not in meta


def test_spectrum_json_format(tmp_path):
    out = tmp_path / "s.json"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 10.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 3.9,
        "delta_min": -5.0, "delta_max": 5.0, "delta_points": 11,
        "method": "analytic", "format": "json", "output": str(out)})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"metadata", "columns", "rows"}
    assert doc["columns"][:3] == ["delta", "im_chi", "re_chi"]
    assert len(doc["rows"]) == 11
    assert doc["metadata"]["method"] == "analytic"
    assert not (tmp_path / "s.json.meta.json").exists()


def test_spectrum_grid_validation_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 10.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 3.9,
        "delta_min": 5.0, "delta_max": -5.0, "delta_points": 11,
        "method": "analytic", "output": str(tmp_path / "s.csv")})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    cfg = _write_config(tmp_path, "c2.json", {
        "gamma_e": 10.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 3.9,
        "delta_min": -5.0, "delta_max": 5.0, "delta_points": 1.5,
        "method": "analytic", "output": str(tmp_path / "s.csv")})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    capsys.readouterr()


# raw JSON text per key, so that literals such as NaN and 1e400 reach the
# parser unchanged
_RAW_CONFIG = {"gamma_e": "5", "gamma_f": "1", "kappa": "1", "eta": "4", "n_th": "0.1",
               "delta_min": "-5", "delta_max": "5", "delta_points": "5"}


def _run_raw_config(tmp_path, command, key, literal):
    """Exit code of command on _RAW_CONFIG with key set to literal; no output
    file may be written."""
    out = tmp_path / "out.csv"
    members = {**_RAW_CONFIG, "output": json.dumps(str(out)), key: literal}
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in members.items()) + "}",
                   encoding="utf-8")
    code = cli.main([command, "--config", str(cfg)])
    assert not out.exists()
    return code


@pytest.mark.parametrize("command", ["populations", "spectrum"])
@pytest.mark.parametrize("literal",
                         ['"abc"', "NaN", "1e400", "20.7", "true", '"8"', "0"])
def test_config_n_max_must_be_a_positive_integer(tmp_path, capsys, command, literal):
    assert _run_raw_config(tmp_path, command, "n_max", literal) == 2
    captured = capsys.readouterr()
    assert "n_max must be an integer >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["delta_min", "delta_max"])
@pytest.mark.parametrize("literal", ['"abc"', '"3"', "true", "null", "NaN", "1e400"])
def test_config_grid_bounds_must_be_numbers(tmp_path, capsys, key, literal):
    assert _run_raw_config(tmp_path, "spectrum", key, literal) == 2
    captured = capsys.readouterr()
    assert f"{key} must be a finite number" in captured.err
    assert captured.out == ""


_HUGE = 10 ** 29  # 30 digits: np.linspace or HilbertSpec would fail on it


def _sizes_config(tmp_path, **run):
    """A thermal spectrum / populations config at n_max = delta_points = 5."""
    return _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0, "n_th": 0.1,
        "n_max": 5, "delta_min": -5.0, "delta_max": 5.0, "delta_points": 5,
        "output": str(tmp_path / "out.csv"), **run})


@pytest.fixture
def low_limits(monkeypatch):
    # lowered so that a check that ran too late would allocate nothing large
    monkeypatch.setattr(cli, "_N_MAX_LIMIT", 5)
    monkeypatch.setattr(cli, "_DELTA_POINTS_LIMIT", 5)


@pytest.mark.usefixtures("low_limits")
@pytest.mark.parametrize("value", [_HUGE, 6], ids=["30-digit", "limit+1"])
@pytest.mark.parametrize("command, key", [
    ("spectrum", "n_max"), ("populations", "n_max"), ("spectrum", "delta_points")])
def test_config_size_above_its_limit_exits_2(tmp_path, capsys, command, key, value):
    assert cli.main([command, "--config", _sizes_config(tmp_path, **{key: value})]) == 2
    captured = capsys.readouterr()
    assert f"error: {key} = {value} exceeds the limit of 5" in captured.err
    assert captured.out == "" and not (tmp_path / "out.csv").exists()


@pytest.mark.usefixtures("low_limits")
@pytest.mark.parametrize("value", [_HUGE, 6], ids=["30-digit", "limit+1"])
@pytest.mark.parametrize("command", [["spectrum"], ["populations"], ["reproduce", "3a"],
                                     ["reproduce", "8a"]],
                         ids=["spectrum", "populations", "reproduce-3a", "reproduce-8a"])
def test_n_max_flag_above_its_limit_exits_2(tmp_path, capsys, command, value):
    out = tmp_path / "out"
    config = [] if command[0] == "reproduce" else ["--config", _sizes_config(tmp_path)]
    argv = [*command, *config, "--output", str(out), "--n-max", str(value)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: n_max = {value} exceeds the limit of 5" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, value", [(["spectrum", "--method", "analytic"], -7),
                                            (["reproduce", "4cd"], 0)],
                         ids=["spectrum-analytic", "reproduce-4cd"])
def test_n_max_flag_below_one_exits_2(tmp_path, capsys, command, value):
    # the flag follows the config key's rule, also where no Fock space is built
    out = tmp_path / "out"
    config = [] if command[0] == "reproduce" else ["--config", _write_config(
        tmp_path, "c.json", {"gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0,
                             "delta_min": -5.0, "delta_max": 5.0, "delta_points": 5})]
    assert cli.main([*command, *config, "--output", str(out), "--n-max", str(value)]) == 2
    captured = capsys.readouterr()
    assert f"error: n_max must be an integer >= 1, got {value}" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.usefixtures("low_limits")
def test_sizes_at_their_limits_run(tmp_path, capsys):
    cfg = _sizes_config(tmp_path)
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert cli.main(["populations", "--config", cfg, "--n-max", "5"]) == 0
    assert cli.main(["reproduce", "8a", "--output", str(tmp_path / "f"),
                     "--n-max", "5"]) == 0
    capsys.readouterr()


def test_spectrum_sweep_renames_delta(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2, "eta": 2.0,
        "delta_min": -3.0, "delta_max": 3.0, "delta_points": 7,
        "method": "analytic", "output": str(out),
        "sweep_key": "delta", "sweep_values": [-1.0, 0.0, 1.0]})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    header, rows = _read_csv(out)
    assert header == ["delta", "delta_c", "im_chi", "re_chi"]
    assert len(rows) == 21
    assert [float(r[1]) for r in rows[:7]] == [-1.0] * 7
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text("utf-8"))
    assert meta["sweep_key"] == "delta"
    assert meta["sweep_values"] == [-1.0, 0.0, 1.0]


def test_spectrum_sweep_other_key_keeps_name(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2,
        "delta_min": -3.0, "delta_max": 3.0, "delta_points": 5,
        "method": "analytic", "output": str(out),
        "sweep_key": "eta", "sweep_values": [0.0, 2.0]})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    header, _ = _read_csv(out)
    assert header == ["delta", "eta", "im_chi", "re_chi"]


def test_spectrum_sweep_warnings_name_their_value(tmp_path, capsys):
    # the truncation warning of each sweep value is kept, prefixed with that
    # value, as residual_max_per_sweep is per value
    out = tmp_path / "sweep.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "n_th": 0.5, "n_max": 3,
        "delta_min": -3.0, "delta_max": 3.0, "delta_points": 3,
        "method": "finite_epsilon", "output": str(out),
        "sweep_key": "eta", "sweep_values": [1, 2]})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text("utf-8"))
    assert len(meta["residual_max_per_sweep"]) == 2
    notes = meta["warnings"]
    assert [note.split(": ", 1)[0] for note in notes] == ["eta=1.0", "eta=2.0"]
    assert all(note.split(": ", 1)[1].startswith("TruncationNotConverged: ")
               for note in notes)


def test_spectrum_sweep_key_must_be_known(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2, "eta": 2.0,
        "delta_min": -3.0, "delta_max": 3.0, "delta_points": 5,
        "method": "analytic", "output": str(tmp_path / "s.csv"),
        "sweep_key": "n_max", "sweep_values": [2, 3]})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    capsys.readouterr()


def test_spectrum_byte_identical_across_runs_and_threads(tmp_path, capsys):
    def run(name):
        out = tmp_path / name
        cfg = _write_config(tmp_path, f"{name}.json", {
            "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0,
            "n_th": 0.05, "n_max": 12,
            "delta_min": -10.0, "delta_max": 10.0, "delta_points": 9,
            "method": "linear_response", "output": str(out)})
        assert cli.main(["spectrum", "--config", cfg]) == 0
        return out.read_bytes(), (tmp_path / f"{name}.meta.json").with_name(
            name + ".meta.json").read_bytes()

    first, meta_first = run("a.csv")
    second, meta_second = run("b.csv")
    assert first == second
    assert meta_first == meta_second
    # every solve runs in this process: the former --threads no-op is refused
    capsys.readouterr()
    for argv in (["spectrum", "--config", str(tmp_path / "a.csv.json")],
                 ["reproduce", "3a", "--output", str(tmp_path / "fig")]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    assert not (tmp_path / "fig").exists()


def test_populations_files(tmp_path, capsys):
    out = tmp_path / "pop.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0,
        "n_th": 1.0, "n_max": 45, "output": str(out)})
    assert cli.main(["populations", "--config", cfg]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["n", "P_n"]
    assert len(rows) == 46
    for n in range(10):
        assert float(rows[n][1]) == pytest.approx(2.0 ** -(n + 1), abs=1e-8)
    jheader, jrows = _read_csv(tmp_path / "pop.joint.csv")
    assert jheader == ["n", "level", "population"]
    assert len(jrows) == 46 * 3
    assert jrows[0][:2] == ["0", "g"]
    assert float(jrows[0][2]) == pytest.approx(0.5, abs=1e-8)
    assert float(jrows[1][2]) == 0.0 and float(jrows[2][2]) == 0.0


def test_populations_sweep_header(tmp_path, capsys):
    out = tmp_path / "pop.csv"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 80.0,
        "n_max": 10, "output": str(out),
        "sweep_key": "Omega", "sweep_values": [0.0, 0.4]})
    assert cli.main(["populations", "--config", cfg]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["sweep_value", "P_0", "P_1", "P_2", "P_3"]
    assert [float(c) for c in rows[0]] == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert float(rows[1][1]) == pytest.approx(math.exp(-0.16), abs=1e-6)
    assert float(rows[1][2]) == pytest.approx(0.16 * math.exp(-0.16), abs=1e-6)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_max", [1, 2])
def test_populations_sweep_below_n_max_3_names_only_its_columns(tmp_path, capsys,
                                                                n_max, fmt):
    out = tmp_path / f"pop.{fmt}"
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 80.0,
        "n_max": n_max, "output": str(out), "format": fmt,
        "sweep_key": "Omega", "sweep_values": [0.2, 0.4]})
    assert cli.main(["populations", "--config", cfg]) == 0
    capsys.readouterr()
    want = ["sweep_value"] + [f"P_{n}" for n in range(n_max + 1)]
    if fmt == "csv":
        header, rows = _read_csv(out)
    else:
        doc = json.loads(out.read_text("utf-8"))
        header, rows = doc["columns"], doc["rows"]
    assert header == want
    assert [len(row) for row in rows] == [len(want)] * 2


def test_populations_require_pump(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0,
        "n_max": 6, "output": str(tmp_path / "pop.csv")})
    assert cli.main(["populations", "--config", cfg]) == 2
    assert "pump" in capsys.readouterr().err


def test_populations_truncation_warning_on_stderr(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 80.0,
        "Omega": 0.8, "n_max": 3, "output": str(tmp_path / "pop.csv")})
    assert cli.main(["populations", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "tail mass" in err


def test_populations_sidecar_records_truncation_warnings(tmp_path, capsys):
    # the sidecar keeps the truncation note that stderr prints: prefixed
    # with its value in a sweep, as a swept spectrum's sidecar does, and
    # bare in a single run
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "n_th": 0.5, "n_max": 3,
        "output": str(tmp_path / "sweep.csv"), "sweep_key": "eta",
        "sweep_values": [1, 2]})
    assert cli.main(["populations", "--config", cfg]) == 0
    assert capsys.readouterr().err.count("warning: steady-state tail mass") == 2
    notes = json.loads((tmp_path / "sweep.csv.meta.json").read_text("utf-8"))["warnings"]
    assert [note.split(": ", 1)[0] for note in notes] == ["eta=1.0", "eta=2.0"]
    assert all(note.split(": ", 1)[1].startswith("TruncationNotConverged: steady-state "
                                                 "tail mass ") for note in notes)

    cfg = _write_config(tmp_path, "one.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "n_th": 0.5, "n_max": 3,
        "eta": 1.0, "output": str(tmp_path / "one.csv")})
    assert cli.main(["populations", "--config", cfg]) == 0
    capsys.readouterr()
    notes = json.loads((tmp_path / "one.csv.meta.json").read_text("utf-8"))["warnings"]
    assert notes == [notes[0]] and notes[0].startswith("TruncationNotConverged: ")


def test_reproduce_pole_trajectories(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    assert cli.main(["reproduce", "4cd", "--output", str(outdir)]) == 0
    capsys.readouterr()
    notes = (outdir / "NOTES.txt").read_text(encoding="utf-8")
    assert "eta = |gamma_f + kappa - gamma_e|/2 = 1.5" in notes
    header, rows = _read_csv(outdir / "poles_vs_eta.csv")
    assert header == ["eta", "re_delta1", "im_delta1", "re_delta2", "im_delta2"]
    assert len(rows) == 801
    by_eta = {float(r[0]): r for r in rows}
    # below the bifurcation both poles are purely imaginary
    row = by_eta[1.0]
    assert float(row[1]) == 0.0 and float(row[3]) == 0.0
    # above it they split symmetrically about zero with equal imaginary parts
    row = by_eta[4.0]
    assert float(row[1]) == pytest.approx(-float(row[3]), abs=1e-12)
    assert abs(float(row[1])) > 3.0
    assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-12)


def test_reproduce_interference_components(tmp_path, capsys):
    outdir = tmp_path / "fig5b"
    assert cli.main(["reproduce", "5b", "--output", str(outdir)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(outdir / "spectrum.csv")
    assert header == ["delta", "im_chi", "re_chi", "im_R1", "im_R2"]
    assert len(rows) == 2001
    mid = rows[1000]
    assert float(mid[0]) == 0.0
    assert float(mid[3]) * float(mid[4]) < 0
    assert float(mid[1]) == pytest.approx(0.056802044873615447, rel=1e-9)


def test_reproduce_thermal_populations(tmp_path, capsys):
    outdir = tmp_path / "fig6"
    assert cli.main(["reproduce", "6", "--output", str(outdir),
                     "--n-max", "6"]) == 0
    capsys.readouterr()
    header, rows = _read_csv(outdir / "populations_vs_T.csv")
    assert header == ["temperature_mK", "n_th", "P_0", "P_1", "P_2", "P_3"]
    assert len(rows) == 101
    assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == pytest.approx(1.0)
    p0 = [float(r[2]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(p0, p0[1:]))
    # thermal steady state is geometric: P_0 = 1/(1+n_th) exactly
    n_th_last = float(rows[-1][1])
    assert p0[-1] == pytest.approx(1.0 / (1.0 + n_th_last), abs=1e-6)
    # frozen Bose factor at 5 GHz, 80 mK
    n_th_80 = next(float(r[1]) for r in rows if float(r[0]) == 80.0)
    assert n_th_80 == pytest.approx(0.0524217894, abs=1e-9)


def test_reproduce_coherent_populations(tmp_path, capsys):
    outdir = tmp_path / "fig8a"
    assert cli.main(["reproduce", "8a", "--output", str(outdir),
                     "--n-max", "8"]) == 0
    capsys.readouterr()
    header, rows = _read_csv(outdir / "populations_vs_Omega.csv")
    assert header == ["Omega", "P_0", "P_1", "P_2", "P_3"]
    assert len(rows) == 17
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-10)
    last = [float(c) for c in rows[-1]]
    assert last[0] == 0.8
    assert last[1] == pytest.approx(math.exp(-0.64), abs=1e-6)
    assert last[1] > last[2] > last[3] > last[4]
    notes = (outdir / "NOTES.txt").read_text(encoding="utf-8")
    assert "DISCREPANCY" in notes


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("figure, name, lead", [
    ("6", "populations_vs_T.csv", ["temperature_mK", "n_th"]),
    ("8a", "populations_vs_Omega.csv", ["Omega"])])
def test_reproduce_populations_below_n_max_3(tmp_path, capsys, n_max, figure, name,
                                             lead):
    outdir = tmp_path / f"fig{figure}"
    assert cli.main(["reproduce", figure, "--output", str(outdir),
                     "--n-max", str(n_max)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(outdir / name)
    assert header == lead + [f"P_{n}" for n in range(n_max + 1)]
    assert {len(row) for row in rows} == {len(header)}


_SPECTRUM = "delta,im_chi,re_chi"
_RESOLVED = _SPECTRUM + ",im_R1,im_R2"
_POLES = ",re_delta1,im_delta1,re_delta2,im_delta2"
_PRESET_FILES = {
    "3a": {"spectrum_eta0.csv": _RESOLVED, "spectrum_eta2.csv": _RESOLVED,
           "spectrum_eta10.csv": _RESOLVED},
    "3b": {"spectrum_2d.csv": "delta,delta_c,im_chi"},
    "4ab": {"poles_vs_kappa.csv": "kappa" + _POLES},
    "4cd": {"poles_vs_eta.csv": "eta" + _POLES},
    "5a": {"spectrum.csv": _RESOLVED},
    "5b": {"spectrum.csv": _RESOLVED},
    "5c": {"spectrum.csv": _RESOLVED},
    "5d": {"spectrum.csv": _RESOLVED},
    "6": {"populations_vs_T.csv": "temperature_mK,n_th,P_0,P_1,P_2,P_3"},
    "7a": {f"spectrum_T{t}mK.csv": _SPECTRUM for t in (0, 10, 80)},
    "7b": {f"spectrum_T{t}mK.csv": _SPECTRUM for t in (0, 10, 80)},
    "8a": {"populations_vs_Omega.csv": "Omega,P_0,P_1,P_2,P_3"},
    "8b": {f"spectrum_Omega{o}.csv": _SPECTRUM for o in ("0", "0.4", "0.8")},
}


@pytest.mark.parametrize("figure", sorted(_PRESET_FILES))
def test_reproduce_every_preset(tmp_path, capsys, figure):
    def bundle(name):
        outdir = tmp_path / name
        assert cli.main(["reproduce", figure, "--output", str(outdir),
                         "--n-max", "3"]) == 0
        return {p.name: p.read_bytes() for p in outdir.iterdir()}

    first = bundle("a")
    expected = _PRESET_FILES[figure]
    assert set(first) == {"NOTES.txt", *expected,
                          *(name + ".meta.json" for name in expected)}
    for name, header in expected.items():
        assert first[name].decode("utf-8").splitlines()[0] == header
    assert bundle("b") == first
    capsys.readouterr()


def test_preset_file_list_covers_every_figure():
    assert set(cli._FIGURES) == set(_PRESET_FILES)


def test_reproduce_n_max_zero_exits_2(tmp_path, capsys):
    outdir = tmp_path / "fig8a"
    assert cli.main(["reproduce", "8a", "--output", str(outdir),
                     "--n-max", "0"]) == 2
    assert "n_max must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (outdir / "populations_vs_Omega.csv").exists()



def test_reproduce_failure_leaves_no_bundle_directory(tmp_path, capsys, monkeypatch):
    def refuses(*args, **kwargs):
        raise ParameterError("injected failure")

    monkeypatch.setattr(cli, "probe_free_state", refuses)
    outdir = tmp_path / "f8"
    assert cli.main(["reproduce", "8a", "--output", str(outdir),
                     "--n-max", "3"]) == 2
    assert not outdir.exists()
    nested = tmp_path / "runs" / "f8"
    assert cli.main(["reproduce", "8a", "--output", str(nested),
                     "--n-max", "3"]) == 2
    assert not (tmp_path / "runs").exists()
    capsys.readouterr()


def test_reproduce_failure_after_a_written_file(tmp_path, capsys, monkeypatch):
    real = cli.probe_spectrum
    calls = []

    def fails_on_second_value(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise SolverFailure("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "probe_spectrum", fails_on_second_value)
    outdir = tmp_path / "fig7a"
    argv = ["reproduce", "7a", "--output", str(outdir), "--n-max", "3"]
    assert cli.main(argv) == 4
    assert not outdir.exists()
    # a directory the command did not create stays, without NOTES.txt
    outdir.mkdir()
    (outdir / "keep.txt").write_text("kept", encoding="utf-8")
    assert cli.main(argv) == 4
    assert (outdir / "keep.txt").exists()
    assert not (outdir / "NOTES.txt").exists()
    capsys.readouterr()


def test_populations_at_zero_temperature(tmp_path, capsys):
    base = {"gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2, "eta": 2.0, "n_max": 8}

    def run(name, extra):
        out = tmp_path / f"{name}.csv"
        cfg = _write_config(tmp_path, f"{name}.json",
                            {**base, **extra, "output": str(out)})
        assert cli.main(["populations", "--config", cfg]) == 0
        return out

    zero = run("zero", {"temperature_mK": 0, "omega_c_GHz": 5.0})
    vacuum = run("vacuum", {"n_th": 0.0})
    sweep = run("sweep", {"omega_c_GHz": 5.0, "sweep_key": "temperature_mK",
                          "sweep_values": [0.0, 10.0]})
    capsys.readouterr()
    assert zero.read_bytes() == vacuum.read_bytes()
    meta = ".meta.json"
    assert zero.with_name(zero.name + meta).read_bytes() == \
        vacuum.with_name(vacuum.name + meta).read_bytes()
    rows = _read_csv(zero)[1]
    assert _read_csv(sweep)[1][0] == ["0", *(p for _, p in rows[:4])]

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("vitats ")
