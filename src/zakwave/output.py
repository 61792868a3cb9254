"""The one writer of every output file: CSV tables and JSON documents.

A float is written with 17 significant digits, which round-trips every
double.  A CSV file has one header row and `\\r\\n` line ends; a JSON file
is indented by one space and ends with a newline.
"""

from __future__ import annotations

import csv
import json

__all__ = ["fmt", "write_csv", "write_json"]


def fmt(x) -> str:
    """A number as text with 17 significant digits; an index stays an integer."""
    return f"{x:.17g}"


def write_csv(path, header, rows) -> None:
    """Write the header row, then each row of numbers through `fmt`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def write_json(path, payload) -> None:
    """Write a JSON-serializable payload."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
