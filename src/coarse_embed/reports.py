"""Deterministic CSV and JSON emission.

Floating values print with 12 significant digits, rationals as "num/den"
and integral ones as integers (the str of the Fraction), column order is
fixed by the caller's row dicts.  Identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import os
from fractions import Fraction


def format_value(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


def rows_to_csv_text(rows):
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row.get(c, "")) for c in columns])
    return buf.getvalue()


def jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return float(f"{v:.12g}")
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def write_report(path_base, rows, meta=None):
    """Write path_base.csv and path_base.json side by side; returns paths."""
    csv_path = path_base + ".csv"
    json_path = path_base + ".json"
    text = rows_to_csv_text(rows)
    os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
    with open(csv_path, "w") as fh:
        fh.write(text)
    doc = {"rows": [jsonable(r) for r in rows]}
    if meta:
        doc["meta"] = jsonable(meta)
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return csv_path, json_path

