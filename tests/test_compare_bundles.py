"""tools/compare_bundles.py: equal trees pass, every kind of difference fails."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_bundles.py"
_SPEC = importlib.util.spec_from_file_location("compare_bundles", _PATH)
compare_bundles = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bundles)


def _bundle(root, *, notes="Preset notes.", header="n,level,P",
            cell="0.25", meta_value=1.5e-15):
    root.mkdir()
    (root / "NOTES.txt").write_text(notes + "\n", encoding="utf-8")
    (root / "p.csv").write_text(f"{header}\n0,g,{cell}\n1,f,0\n",
                                encoding="utf-8")
    (root / "p.csv.meta.json").write_text(json.dumps(
        {"n_max": 20, "residual_max": meta_value, "warnings": ["w"]}),
        encoding="utf-8")
    return root


def test_equal_trees_pass(tmp_path, capsys):
    a, b = _bundle(tmp_path / "a"), _bundle(tmp_path / "b")
    assert compare_bundles.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.startswith("ok: 3 files")


@pytest.mark.parametrize("change, message", [
    ({"notes": "Other notes."}, "NOTES.txt"),
    ({"header": "n,level,Q"}, "headers differ"),
    ({"cell": "0.2500001"}, "row 1 column P"),
    ({"meta_value": 1.6e-15}, "residual_max"),
])
def test_differences_fail(tmp_path, capsys, change, message):
    a, b = _bundle(tmp_path / "a"), _bundle(tmp_path / "b", **change)
    assert compare_bundles.main([str(a), str(b)]) == 1
    assert message in capsys.readouterr().out


def test_byte_identical_files_are_counted(tmp_path, capsys):
    a, b = _bundle(tmp_path / "a"), _bundle(tmp_path / "b")
    assert compare_bundles.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "3 of 3 files are byte-identical"
    # equal within rtol but not byte for byte: the CSV and the sidecar
    b2 = _bundle(tmp_path / "b2", cell="0.2500001", meta_value=1.6e-15)
    assert compare_bundles.main([str(a), str(b2), "--rtol", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok: 3 files agree within rtol 0.1", "1 of 3 files are byte-identical"]
    # the same numbers written differently agree, and are not byte-identical
    b3 = _bundle(tmp_path / "b3", cell="2.5e-1")
    assert compare_bundles.main([str(a), str(b3)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2 of 3 files are byte-identical"


def test_tolerance_and_missing_file(tmp_path, capsys):
    a = _bundle(tmp_path / "a")
    b = _bundle(tmp_path / "b", cell="0.2500001", meta_value=1.6e-15)
    assert compare_bundles.main([str(a), str(b), "--rtol", "0.1"]) == 0
    (b / "NOTES.txt").unlink()
    assert compare_bundles.main([str(a), str(b), "--rtol", "0.1"]) == 1
    assert "file sets differ" in capsys.readouterr().out


def test_ignored_key_is_skipped_on_both_sides(tmp_path, capsys):
    a = _bundle(tmp_path / "a")
    b = _bundle(tmp_path / "b", meta_value=1.6e-15)
    assert compare_bundles.main([str(a), str(b), "--ignore-key", "residual_max"]) == 0
    # a key present on one side only is skipped too
    meta = b / "p.csv.meta.json"
    doc = json.loads(meta.read_text(encoding="utf-8"))
    del doc["residual_max"]
    meta.write_text(json.dumps(doc), encoding="utf-8")
    assert compare_bundles.main([str(a), str(b), "--ignore-key", "residual_max"]) == 0
    assert compare_bundles.main([str(a), str(b)]) == 1
    assert "keys" in capsys.readouterr().out


def test_ignore_key_repeats_and_reaches_nested_objects(tmp_path, capsys):
    a, b = _bundle(tmp_path / "a"), _bundle(tmp_path / "b")
    for root, value in ((a, 1.0), (b, 2.0)):
        (root / "p.csv.meta.json").write_text(json.dumps(
            {"n_max": 20, "residual_max": value,
             "diagnostics": [{"wall_s": value, "n": 3}]}), encoding="utf-8")
    one = [str(a), str(b), "--ignore-key", "wall_s"]
    assert compare_bundles.main(one) == 1
    assert "residual_max" in capsys.readouterr().out
    both = one + ["--ignore-key", "residual_max"]
    assert compare_bundles.main(both) == 0
    # only .json keys are skipped: a CSV column of that name still counts
    (b / "p.csv").write_text("n,level,P\n0,g,0.3\n1,f,0\n", encoding="utf-8")
    assert compare_bundles.main(both + ["--ignore-key", "P"]) == 1
    assert "row 1 column P" in capsys.readouterr().out


def test_largest_relative_change_is_reported(tmp_path, capsys):
    a = _bundle(tmp_path / "a")
    assert compare_bundles.main([str(a), str(_bundle(tmp_path / "same"))]) == 0
    assert capsys.readouterr().err == ""
    # the CSV cell moves by 4e-7 relative and the sidecar value by 0.0625
    b = _bundle(tmp_path / "b", cell="0.2500001", meta_value=1.6e-15)
    assert compare_bundles.main([str(a), str(b), "--rtol", "0.1"]) == 0
    assert capsys.readouterr().err == (
        "largest relative change: 0.0625 at p.csv.meta.json.residual_max\n")
    c = _bundle(tmp_path / "c", cell="0.2500001")
    assert compare_bundles.main([str(a), str(c), "--rtol", "1e-6"]) == 0
    assert capsys.readouterr().err == (
        "largest relative change: 4e-07 at p.csv row 1 column P\n")
    # the same numbers written differently: no number moved
    d = _bundle(tmp_path / "d", cell="2.5e-1")
    assert compare_bundles.main([str(a), str(d)]) == 0
    assert capsys.readouterr().err == "largest relative change: 0 (no number moved)\n"
