"""Smoke tests of the study scripts under scripts/."""

import csv
import hashlib
import json
import math
import os
import runpy
import sys

import numpy as np
import pytest

from zakwave.dynamics import stability_experiment
from zakwave.wavefamily import build_wave

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def _run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(os.path.join(SCRIPTS, name), run_name="__main__")
    assert exc.value.code == 0


def test_band_structure_edges_match_closed_form(tmp_path, monkeypatch, capsys):
    out = tmp_path / "band.csv"
    _run_script("band_structure.py", monkeypatch, "--points", "2", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        for edge, rho in (("edge0", "rho0"), ("gap2_lo", "rho1"), ("gap2_hi", "rho2")):
            assert abs(float(row[edge]) - float(row[rho])) <= 1e-8, (row["k"], edge)


BAND_STRUCTURE_HEADER = ["k", "edge0", "gap1_lo", "gap1_hi", "gap2_lo", "gap2_hi",
                         "max_higher_gap", "rho0", "rho1", "rho2"]

# the CSV rows of `band_structure.py --points 4`
BAND_STRUCTURE_POINTS4 = [
    [0.050000000000000003, 0.0074953066360840623, 1.0025000000001858, 1.0100000000002691,
     4.0025000000015689, 4.0025046933633126, 2.5934809855243657e-12, 0.0074953066388054879,
     4.0025000000000004, 4.0025046933611943],
    [0.34999999999999998, 0.35554902154018136, 1.1224999999989917, 1.4899999999992306,
     4.122500000000886, 4.1344509784595456, 5.2171600373185356e-12, 0.35554902154091317,
     4.1224999999999996, 4.1344509784590873],
    [0.65000000000000002, 1.1060276022902404, 1.4224999999988552, 2.6899999999990305,
     4.4224999999984238, 4.5839723977113529, 3.872457909892546e-12, 1.1060276022892142,
     4.4225000000000003, 4.5839723977107862],
    [0.94999999999999996, 1.8950196336084837, 1.9024999999993613, 4.6099999999996024,
     4.9024999999998959, 5.71498036639065, 1.6342482922482304e-12, 1.8950196336087646,
     4.9024999999999999, 5.7149803663912344],
]


def test_band_structure_csv_is_pinned(tmp_path, monkeypatch):
    # the band edges are LAPACK eigenvalues, so they are compared within the
    # golden manifest's number bound, as the CLI's spectrum outputs are
    with open(os.path.join(ROOT, "tests", "golden", "manifest.json")) as fh:
        rel = json.load(fh)["number_bound"]["rel"]
    out = tmp_path / "band.csv"
    _run_script("band_structure.py", monkeypatch, "--points", "4", "--out", str(out))
    with open(out, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == BAND_STRUCTURE_HEADER
    got, want = np.array(rows, dtype=float), np.array(BAND_STRUCTURE_POINTS4)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


def test_perturbation_scaling_matches_serial_scalar_runs(tmp_path, monkeypatch):
    out = tmp_path / "scaling.csv"
    _run_script("perturbation_scaling.py", monkeypatch, "--t-end", "0.05",
                "--N", "64", "--points", "3", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    # the script's defaults: the standard wave, delta in [1e-4, 1e-2], seed 0
    wave = build_wave(8.0 * math.pi, 0.5, 0.2)
    expected = [["delta", "sup_rho_nu"]]
    for delta in np.geomspace(1e-4, 1e-2, 3):
        rec = stability_experiment(wave, delta=float(delta), t_end=0.05, seed=0, N=64)
        expected.append([f"{delta:.17g}", f"{float(np.max(rec.rho_nu)):.17g}"])
    assert rows == expected


# SHA-256 of the CSV of `perturbation_scaling.py --t-end 0.2 --N 128
# --seed 3`: five deltas stepped as one (3, 5, 128) batch, 125 steps
PERTURBATION_SCALING_SHA256 = \
    "e870773cb788a220af4d5c98fb16d97ca77cfc9356f38c4ce46d02ae91ada388"


def test_perturbation_scaling_batched_csv_is_pinned(tmp_path, monkeypatch):
    out = tmp_path / "scaling.csv"
    _run_script("perturbation_scaling.py", monkeypatch, "--t-end", "0.2",
                "--N", "128", "--seed", "3", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PERTURBATION_SCALING_SHA256
