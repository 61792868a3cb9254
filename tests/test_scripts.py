"""Smoke tests of the study scripts under scripts/."""

import csv
import os
import runpy
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def test_band_structure_edges_match_closed_form(tmp_path, monkeypatch, capsys):
    out = tmp_path / "band.csv"
    monkeypatch.setattr(sys, "argv", ["band_structure.py", "--points", "2",
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(os.path.join(SCRIPTS, "band_structure.py"),
                       run_name="__main__")
    assert exc.value.code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        for edge, rho in (("edge0", "rho0"), ("gap2_lo", "rho1"), ("gap2_hi", "rho2")):
            assert abs(float(row[edge]) - float(row[rho])) <= 1e-8, (row["k"], edge)
