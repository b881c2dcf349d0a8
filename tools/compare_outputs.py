"""Write the builtin outputs of this checkout, or compare two sets of them.

    python tools/compare_outputs.py run DIR
    python tools/compare_outputs.py diff A B

``run`` writes the CSV files and manifests of the nine builtin scenarios and
of ``tests/mixed_families.ini`` into DIR, with the relwave of this checkout's
``src/``, and prints each scenario's file count and its manifest's
``wall_time_s``.  ``diff`` prints one line per CSV file of A and B: ``identical``,
or its largest |B - A| over the column's scale, the column's max |A|
(max(max |A|, 1) for G_psi, G_rho and imag_residual, whose values are
fractions of one).  A summary line ends the output.  The exit code is 1 when
the two directories hold different CSV files or a file's columns or rows
differ, else 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
UNIT_SCALE = {"G_psi", "G_rho", "imag_residual"}


def run(out_dir: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from relwave import scenarios

    todo = list(scenarios.builtin_scenarios().values())
    todo += scenarios.load_config(ROOT / "tests" / "mixed_families.ini")
    for scn in todo:
        manifest = scenarios.run(scn, out_dir)
        print(f"{scn.name}: {len(manifest.outputs)} file(s), "
              f"{manifest.wall_time_s:.3f} s")


def _read(path: Path):
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def deviation(a: Path, b: Path):
    """(largest |B - A| over its column's scale, that column), (0, None) for
    identical bytes, or None when the files' columns or rows differ."""
    if a.read_bytes() == b.read_bytes():
        return 0.0, None
    (head_a, data_a), (head_b, data_b) = _read(a), _read(b)
    if head_a != head_b or data_a.shape != data_b.shape:
        return None
    scale = np.max(np.abs(data_a), axis=0)
    scale = np.array([max(v, 1.0) if col in UNIT_SCALE else v
                      for col, v in zip(head_a, scale)])
    rel = np.max(np.abs(data_b - data_a), axis=0) / np.maximum(scale, np.finfo(float).tiny)
    k = int(np.argmax(rel))
    return float(rel[k]), head_a[k]


def diff(dir_a: Path, dir_b: Path) -> int:
    names_a = {p.name for p in dir_a.glob("*.csv")}
    names_b = {p.name for p in dir_b.glob("*.csv")}
    for name in sorted(names_a - names_b):
        print(f"{name}: only in {dir_a}")
    for name in sorted(names_b - names_a):
        print(f"{name}: only in {dir_b}")
    identical, broken, worst = 0, 0, (0.0, None, None)
    for name in sorted(names_a & names_b):
        dev = deviation(dir_a / name, dir_b / name)
        if dev is None:
            broken += 1
            print(f"{name}: columns or rows differ")
        elif dev[1] is None:
            identical += 1
            print(f"{name}: identical")
        else:
            print(f"{name}: {dev[0]:.2g} of the scale of {dev[1]}")
            worst = max(worst, (dev[0], name, dev[1]), key=lambda w: w[0])
    common = len(names_a & names_b)
    summary = f"{common} common files: {identical} identical"
    if worst[1] is not None:
        summary += f", worst {worst[0]:.2g} ({worst[1]}, {worst[2]})"
    if broken:
        summary += f", {broken} with other columns or rows"
    if names_a != names_b:
        summary += f"; {len(names_a ^ names_b)} in one directory only"
    print(summary)
    return int(names_a != names_b or broken > 0)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "run":
        run(Path(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]))
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
