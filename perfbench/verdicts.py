"""Verdict tables: the stored references and the correctness check.

Rows are matched on their key columns plus the occurrence of that key,
because parameter variants (two fractional orders, two high-order N)
emit rows with equal keys in a fixed order.  Verdicts must match
exactly; ``empirical_error`` and ``bound`` within REL_TOL.  REL_TOL
admits the last-digit drift of a different erf implementation (about
1e-12 relative) and catches any change to an operator's kernel or a
bound's formula.  The CSV bytes are never compared, since its ``.12g``
formatting turns such drift into byte changes.
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

KEY_COLUMNS = ("theorem", "function", "family", "n", "exponent", "point_mode")
VALUE_COLUMNS = ("verdict", "empirical_error", "bound")
REL_TOL = 1e-9
ABS_TOL = 1e-15


def row_key(row: dict) -> Tuple:
    return (row["theorem"], row["function"], row["family"], int(row["n"]),
            float(row["exponent"]), row["point_mode"])


def _keyed(rows: Sequence[dict]) -> Dict[Tuple, dict]:
    seen: Counter = Counter()
    out = {}
    for row in rows:
        key = row_key(row)
        out[key + (seen[key],)] = row
        seen[key] += 1
    return out


def failure_counts(report: dict) -> Tuple[int, int]:
    """(failed, attempted): groups that raised plus rows not 'holds',
    against rows plus groups that raised."""
    raised = sum(1 for s in report["skipped"] if s["reason"].startswith("group failed"))
    not_holding = sum(1 for r in report["rows"] if r["verdict"] != "holds")
    return raised + not_holding, len(report["rows"]) + raised


def write_reference(rows: Sequence[dict], path: str):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(KEY_COLUMNS + VALUE_COLUMNS)
        for row in rows:
            out.writerow([row[c] if not isinstance(row[c], float) else repr(row[c])
                          for c in KEY_COLUMNS + VALUE_COLUMNS])


def read_reference(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for c in ("empirical_error", "bound"):
            row[c] = float(row[c])
    return rows


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def mismatches(rows: Sequence[dict], reference: Sequence[dict]) -> List[str]:
    """One line per row missing, extra, or differing from the reference."""
    got, want = _keyed(rows), _keyed(reference)
    out = [f"missing {k}" for k in want if k not in got]
    out += [f"extra {k}" for k in got if k not in want]
    for k in want.keys() & got.keys():
        g, w = got[k], want[k]
        if g["verdict"] != w["verdict"]:
            out.append(f"verdict {k}: {g['verdict']} != {w['verdict']}")
        elif not (_close(g["empirical_error"], w["empirical_error"])
                  and _close(g["bound"], w["bound"])):
            out.append(f"value {k}: error {g['empirical_error']!r} vs "
                       f"{w['empirical_error']!r}, bound {g['bound']!r} vs {w['bound']!r}")
    return sorted(out)


def invariant_mismatches(rows: Sequence[dict], expected_keys: Sequence[Tuple]) -> List[str]:
    """Check for a seed with no stored table: exactly the rows the config
    implies, every one holding with a finite positive error below a
    finite bound."""
    got = _keyed(rows)
    want = set(_keyed([dict(zip(KEY_COLUMNS, k)) for k in expected_keys]))
    out = [f"missing {k}" for k in want if k not in got]
    out += [f"extra {k}" for k in got if k not in want]
    for k, row in got.items():
        e, b = row["empirical_error"], row["bound"]
        if row["verdict"] != "holds":
            out.append(f"verdict {k}: {row['verdict']}")
        elif not (math.isfinite(e) and math.isfinite(b) and 0.0 < e <= b * (1.0 + 1e-9)):
            out.append(f"value {k}: error {e!r}, bound {b!r}")
    return sorted(out)


def reference_path(directory: str, stem: str, seed: Optional[int]) -> str:
    name = stem if seed is None else f"{stem}-seed{seed}"
    return os.path.join(directory, f"{name}.csv")
