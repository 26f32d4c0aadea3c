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


def test_tolerance_and_missing_file(tmp_path, capsys):
    a = _bundle(tmp_path / "a")
    b = _bundle(tmp_path / "b", cell="0.2500001", meta_value=1.6e-15)
    assert compare_bundles.main([str(a), str(b), "--rtol", "0.1"]) == 0
    (b / "NOTES.txt").unlink()
    assert compare_bundles.main([str(a), str(b), "--rtol", "0.1"]) == 1
    assert "file sets differ" in capsys.readouterr().out
