"""Command line front end: exit codes, file formats, determinism, presets.

Everything runs in-process through cli.main so exit codes and stdio can be
asserted without subprocesses.
"""

import json
import math

import pytest

from vitats import cli


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


def test_spectrum_sweep_key_must_be_known(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 0.2, "eta": 2.0,
        "delta_min": -3.0, "delta_max": 3.0, "delta_points": 5,
        "method": "analytic", "output": str(tmp_path / "s.csv"),
        "sweep_key": "n_max", "sweep_values": [2, 3]})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    capsys.readouterr()


def test_spectrum_byte_identical_across_runs_and_threads(tmp_path):
    def run(name, threads):
        out = tmp_path / name
        cfg = _write_config(tmp_path, f"{name}.json", {
            "gamma_e": 5.0, "gamma_f": 1.0, "kappa": 1.0, "eta": 4.0,
            "n_th": 0.05, "n_max": 12,
            "delta_min": -10.0, "delta_max": 10.0, "delta_points": 9,
            "method": "linear_response", "output": str(out)})
        assert cli.main(["spectrum", "--config", cfg,
                         "--threads", str(threads)]) == 0
        return out.read_bytes(), (tmp_path / f"{name}.meta.json").with_name(
            name + ".meta.json").read_bytes()

    first, meta_first = run("a.csv", 1)
    second, meta_second = run("b.csv", 1)
    threaded, meta_threaded = run("c.csv", 2)
    assert first == second == threaded
    assert meta_first == meta_second == meta_threaded


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
    assert "n_max = 0" in capsys.readouterr().err
    assert not (outdir / "populations_vs_Omega.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("vitats ")
