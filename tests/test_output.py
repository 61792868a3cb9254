"""The output writer is the only code that formats floats for a file or
writes CSV or JSON."""

import json
import re
from pathlib import Path

from zakwave.output import fmt, write_csv, write_json

ROOT = Path(__file__).resolve().parents[1]
WRITER = ROOT / "src" / "zakwave" / "output.py"
# the 17-digit rule, the CSV writer and the JSON writer
FORMAT_CODE = re.compile(r"\.17g|csv\.writer|json\.dump\(")


def test_only_the_writer_module_formats_output():
    files = sorted((ROOT / "src" / "zakwave").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert WRITER in files
    offenders = [f"{path.relative_to(ROOT)}:{i}"
                 for path in files if path != WRITER
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if FORMAT_CODE.search(line)]
    assert offenders == []


def test_fmt_round_trips_doubles_and_keeps_integers():
    for x in (0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23):
        assert float(fmt(x)) == x
    assert fmt(7) == "7"
    assert fmt(float("-inf")) == "-inf"


def test_writers_keep_their_byte_layout(tmp_path):
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    write_csv(csv_path, ["i", "x"], [(0, 0.1), (1, 2.0)])
    assert csv_path.read_bytes() == b"i,x\r\n0,0.10000000000000001\r\n1,2\r\n"
    write_json(json_path, {"x": [0.1, 2.0]})
    assert json_path.read_bytes() == b'{\n "x": [\n  0.1,\n  2.0\n ]\n}\n'
    assert json.loads(json_path.read_text()) == {"x": [0.1, 2.0]}
