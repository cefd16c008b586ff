"""Compare the CSV rows lpakit writes on this checkout with a parent's.

    python3 scripts/row_moves.py PARENT_CHECKOUT

For each ``lpakit analyze`` command of output_digest.py (the configs/*.json
and the perfbench scan workloads at seeds 0 and 7), it runs the same inputs
on PARENT_CHECKOUT's src/ and on this checkout's, and prints, per CSV the
command writes, whether its integer cells (the int fields of
lpakit.analysis.LpaDiagnostics) and the verdict lines of stdout are equal,
then the largest |change| of each float field, parent to this checkout.
The last line counts the CSVs in which anything moved.
"""

import csv
import io
import sys
from pathlib import Path

from output_digest import ROOT, commands, lpakit

from lpakit.scan import _INT_FIELDS as INT_FIELDS


def verdicts(stdout: bytes) -> list[str]:
    """The lines under stdout's "verdicts:" heading."""
    lines = stdout.decode().splitlines()
    start = lines.index("verdicts:") + 1 if "verdicts:" in lines else len(lines)
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


def compare(name: str, old: bytes, new: bytes, same_verdicts: bool) -> bool:
    """Print one CSV's comparison; return whether anything moved."""
    old_rows = list(csv.DictReader(io.StringIO(old.decode())))
    new_rows = list(csv.DictReader(io.StringIO(new.decode())))
    fields = list(new_rows[0]) if new_rows else []
    same_shape = len(old_rows) == len(new_rows) and all(list(r) == fields for r in old_rows)
    same_ints = same_shape and all(a[f] == b[f] for a, b in zip(old_rows, new_rows)
                                   for f in INT_FIELDS & set(fields))
    print(f"{name}: {len(new_rows)} rows, integers {'equal' if same_ints else 'DIFFER'}, "
          f"verdicts {'equal' if same_verdicts else 'DIFFER'}")
    moved = not (same_ints and same_verdicts)
    for field in fields if same_shape else ():
        if field not in INT_FIELDS:
            change = max(abs(float(b[field]) - float(a[field])) if a[field] != b[field] else 0.0
                         for a, b in zip(old_rows, new_rows))
            moved |= change > 0.0
            print(f"    {field:<16}max |change| {change:.3g}")
    return moved


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        sys.exit(__doc__)
    parent = Path(argv[1]).resolve()
    csvs = moved = 0
    for name, args, config in commands():
        if args[0] != "analyze":
            continue
        (old_out, _, old_files), (new_out, _, new_files) = (
            lpakit(root, args, config) for root in (parent, ROOT))
        for file in sorted(new_files):
            if file.endswith(".csv"):
                csvs += 1
                moved += compare(f"{name}:{file}", old_files.get(file, b""), new_files[file],
                                 verdicts(old_out) == verdicts(new_out))
    print(f"{moved} of {csvs} CSVs moved")


if __name__ == "__main__":
    main(sys.argv)
