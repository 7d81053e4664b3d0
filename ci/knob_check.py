#!/usr/bin/env python3
"""Environment-knob table gate.

Collects every quoted "AIO_[A-Z0-9_]+" literal under src/, bench/ and tools/
and fails unless the table in DESIGN.md section 8 names exactly that set.

Usage:
  knob_check.py ROOT             check ROOT's code against ROOT/DESIGN.md
  knob_check.py ROOT --negative  drop one table row from an in-memory copy of
                                 DESIGN.md and succeed only if the check then
                                 fails (proves the gate can fail)
"""
import pathlib
import re
import sys

LITERAL = re.compile(r'"(AIO_[A-Z0-9_]+)"')
ROW = re.compile(r"^\| `(AIO_[A-Z0-9_]+)` \|", re.M)


def code_knobs(root):
    knobs = set()
    for top in ("src", "bench", "tools"):
        for path in (root / top).rglob("*"):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                knobs.update(LITERAL.findall(path.read_text(errors="replace")))
    return knobs


def table_knobs(design):
    start = design.index("\n## 8.")
    end = design.index("\n## 9.", start)
    return ROW.findall(design[start:end])


def problems(code, rows):
    out = []
    dupes = sorted({k for k in rows if rows.count(k) > 1})
    if dupes:
        out.append("listed twice in DESIGN.md section 8: " + ", ".join(dupes))
    table = set(rows)
    if code - table:
        out.append("read by the code but missing from DESIGN.md section 8: " +
                   ", ".join(sorted(code - table)))
    if table - code:
        out.append("listed in DESIGN.md section 8 but read nowhere: " +
                   ", ".join(sorted(table - code)))
    return out


def main(argv):
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--negative"):
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1])
    design = (root / "DESIGN.md").read_text()
    code = code_knobs(root)
    if not code:
        print(f"knob_check: no AIO_* literals under {root}", file=sys.stderr)
        return 1
    if len(argv) == 3:
        rows = table_knobs(design)
        dropped = rows[len(rows) // 2]
        found = problems(code, [k for k in rows if k != dropped])
        if not found:
            print(f"knob_check: removing the {dropped} row went unnoticed", file=sys.stderr)
            return 1
        print(f"knob_check: negative case ok (removing {dropped} fails: {found[0]})")
        return 0
    found = problems(code, table_knobs(design))
    for p in found:
        print("knob_check: " + p, file=sys.stderr)
    if found:
        return 1
    print(f"knob_check: {len(code)} variables, DESIGN.md section 8 matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
