"""Smoke tests of the study scripts under scripts/."""

import csv
import hashlib
import math
import os
import runpy
import sys

import numpy as np
import pytest

from zakwave.dynamics import stability_experiment
from zakwave.wavefamily import build_wave

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


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
    "09089219c3ff8c00d198938ac013298ea6da886beb586258d3ed0245da0f32c4"


def test_perturbation_scaling_batched_csv_is_pinned(tmp_path, monkeypatch):
    out = tmp_path / "scaling.csv"
    _run_script("perturbation_scaling.py", monkeypatch, "--t-end", "0.2",
                "--N", "128", "--seed", "3", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PERTURBATION_SCALING_SHA256
