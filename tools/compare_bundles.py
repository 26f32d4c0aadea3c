"""Compare two `vitats reproduce` output trees within a relative tolerance.

Usage: python tools/compare_bundles.py DIR_A DIR_B [--rtol 1e-9] [--ignore-key KEY ...]

DIR_A and DIR_B are bundle directories (or directories of bundles; files
are matched by path relative to the root). The trees must hold the same
files. NOTES.txt files must be equal, CSV files must have equal headers,
equal row counts and equal text cells, and numeric CSV cells and values in
`.json` files (the `.meta.json` sidecars included) must agree within rtol.
Any other file must be byte-identical. Each --ignore-key KEY (repeatable)
drops that key from every object in the `.json` files, on both sides, at
any depth: for example `residual_max`, which moves in its last digits
whenever a solver changes. Prints the first mismatch and exits 1 on any
difference; when the trees agree, prints how many files did and how many of
those are byte-identical, and exits 0. If some file is not byte-identical,
it also prints to stderr the largest relative change of a number, with its
file and cell (CSV row and column, or `.json` key path), so that the cells
a change moved can be listed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    pass


class _Largest:
    """The largest relative change |a - b| / max(|a|, |b|) among the number
    pairs noted, and where it was (None while no number moved)."""

    def __init__(self):
        self.rel, self.where = 0.0, None

    def note(self, a: float, b: float, where: str) -> None:
        if a != b and not (math.isnan(a) and math.isnan(b)):
            rel = abs(a - b) / max(abs(a), abs(b))
            if self.where is None or rel > self.rel:
                self.rel, self.where = rel, where


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _compare_cells(a: str, b: str, rtol: float, where: str, largest: _Largest) -> None:
    x, y = _number(a), _number(b)
    if x is None or y is None:
        if a != b:
            raise Mismatch(f"{where}: {a!r} != {b!r}")
    elif not _close(x, y, rtol):
        raise Mismatch(f"{where}: {a} vs {b} differ beyond rtol {rtol:g}")
    else:
        largest.note(x, y, where)


def _compare_csv(a: Path, b: Path, rtol: float, name: str, largest: _Largest) -> None:
    lines_a = a.read_text(encoding="utf-8").splitlines()
    lines_b = b.read_text(encoding="utf-8").splitlines()
    if not lines_a or not lines_b or lines_a[0] != lines_b[0]:
        raise Mismatch(f"{name}: headers differ: {lines_a[:1]} vs {lines_b[:1]}")
    if len(lines_a) != len(lines_b):
        raise Mismatch(f"{name}: {len(lines_a) - 1} vs {len(lines_b) - 1} rows")
    columns = lines_a[0].split(",")
    for row, (line_a, line_b) in enumerate(zip(lines_a[1:], lines_b[1:]), 1):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        if len(cells_a) != len(cells_b):
            raise Mismatch(f"{name} row {row}: {len(cells_a)} vs {len(cells_b)} cells")
        for col, (cell_a, cell_b) in enumerate(zip(cells_a, cells_b)):
            label = columns[col] if col < len(columns) else str(col)
            _compare_cells(cell_a, cell_b, rtol, f"{name} row {row} column {label}",
                           largest)


def _compare_json(a, b, rtol: float, where: str, ignore: frozenset,
                  largest: _Largest) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a, keys_b = sorted(set(a) - ignore), sorted(set(b) - ignore)
        if keys_a != keys_b:
            raise Mismatch(f"{where}: keys {keys_a} vs {keys_b}")
        for key in keys_a:
            _compare_json(a[key], b[key], rtol, f"{where}.{key}", ignore, largest)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"{where}: lengths {len(a)} vs {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, rtol, f"{where}[{i}]", ignore, largest)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if not _close(float(a), float(b), rtol):
            raise Mismatch(f"{where}: {a!r} vs {b!r} differ beyond rtol {rtol:g}")
        largest.note(float(a), float(b), where)
    elif a != b or type(a) is not type(b):
        raise Mismatch(f"{where}: {a!r} != {b!r}")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare_trees(root_a: Path, root_b: Path, rtol: float,
                  ignore: frozenset = frozenset()) -> tuple[int, _Largest]:
    """Raise Mismatch at the first difference between the two trees; keys
    in ignore are skipped in `.json` files. Returns how many files are
    byte-identical, and the largest relative change of a number."""
    names_a, names_b = _files(root_a), _files(root_b)
    if names_a != names_b:
        raise Mismatch(f"file sets differ: only in {root_a}: "
                       f"{sorted(names_a - names_b)}; only in {root_b}: "
                       f"{sorted(names_b - names_a)}")
    identical, largest = 0, _Largest()
    for name in sorted(names_a):
        a, b = root_a / name, root_b / name
        same = a.read_bytes() == b.read_bytes()
        identical += same
        if name.endswith(".csv"):
            _compare_csv(a, b, rtol, name, largest)
        elif name.endswith(".json"):
            _compare_json(json.loads(a.read_text(encoding="utf-8")),
                          json.loads(b.read_text(encoding="utf-8")), rtol, name,
                          ignore, largest)
        elif not same:
            raise Mismatch(f"{name}: contents differ")
    return identical, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-9,
                        help="relative tolerance for numeric values")
    parser.add_argument("--ignore-key", action="append", default=[], metavar="KEY",
                        help="skip this key in .json files (repeatable)")
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    try:
        identical, largest = compare_trees(args.dir_a, args.dir_b, args.rtol,
                                           frozenset(args.ignore_key))
    except Mismatch as exc:
        print(f"mismatch: {exc}")
        return 1
    total = len(_files(args.dir_a))
    print(f"ok: {total} files agree within rtol {args.rtol:g}")
    print(f"{identical} of {total} files are byte-identical")
    if identical < total:
        moved = (f"{largest.rel:.3g} at {largest.where}" if largest.where
                 else "0 (no number moved)")
        print(f"largest relative change: {moved}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
