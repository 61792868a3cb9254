"""Exit-code contract, output formats, and config precedence of the CLI."""

import filecmp
import json

import numpy as np

from zakwave.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# exit codes

def test_construct_success(capsys):
    code, out, _ = run(capsys, "construct", "--L", "6.283185307179586",
                       "--c", "0", "--nu", "1.0")
    assert code == 0
    assert "ode residuals" in out
    assert "wave:" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_parameters_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--L", "6.28")
    assert code == 1
    assert "missing required parameter" in err


def test_subthreshold_nu_is_domain_error(capsys):
    # nu <= 2 pi^2 / L^2 admits no periodic wave of period L
    code, _, err = run(capsys, "construct", "--L", "6.283185307179586",
                       "--c", "0", "--nu", "0.3")
    assert code == 2
    assert "domain error" in err


def test_collapsed_gaps_fail_lame_verdict(capsys):
    # just above threshold the modulus is tiny and the second finite
    # instability interval collapses, so the three-interval verdict fails
    thr = 0.5  # 2 pi^2 / (2 pi)^2
    code, out, err = run(capsys, "spectrum", "--operator", "lame",
                         "--L", "6.283185307179586", "--c", "0",
                         "--nu", str(thr * 1.000001), "--N", "512")
    assert code == 3
    assert "[FAIL]" in out
    assert "verdict FAIL" in err


def test_unstable_timestep_is_blowup(capsys):
    code, _, err = run(capsys, "evolve", "--L", "6.283185307179586",
                       "--c", "0", "--nu", "1.0", "--N", "256",
                       "--dt", "0.05", "--t-end", "2.0")
    assert code == 4
    assert "blow-up at t=" in err


# --------------------------------------------------------------------------
# outputs

def test_construct_csv_header(tmp_path, capsys):
    out = tmp_path / "wave.csv"
    code, _, _ = run(capsys, "construct", "--L", "6.283185307179586",
                     "--c", "0", "--nu", "1.0", "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "x,phi,psi,varphi,phi_prime"


def test_construct_json_roundtrips_into_spectrum(tmp_path, capsys):
    wave_json = tmp_path / "wave.json"
    code, _, _ = run(capsys, "construct", "--L", "25.132741228718345",
                     "--c", "0.5", "--nu", "0.2", "--format", "json",
                     "--out", str(wave_json))
    assert code == 0
    payload = json.loads(wave_json.read_text())
    assert set(payload) == {"params", "x", "phi", "psi", "varphi", "phi_prime"}
    phi = np.asarray(payload["phi"])
    assert np.all(np.isfinite(phi)) and phi.min() > 0.0

    code, out, _ = run(capsys, "spectrum", "--operator", "L3",
                       "--wave-file", str(wave_json), "--N", "512")
    assert code == 0
    assert out.count("[pass]") >= 5


def test_sweep_writes_family_table(tmp_path, capsys):
    out = tmp_path / "family.csv"
    code, stdout, _ = run(capsys, "sweep", "--L", "6.283185307179586",
                          "--c", "0", "--nu-min", "0.6", "--nu-max", "5.0",
                          "--points", "8", "--out", str(out))
    assert code == 0
    assert "8 rows" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "nu,eta2,eta1,k,omega,d0,mass"
    assert len(lines) == 9


def test_spectrum_verdicts_on_standard_wave(capsys):
    for op in ("L3", "L4", "lame"):
        code, out, _ = run(capsys, "spectrum", "--operator", op,
                           "--L", "25.132741228718345", "--c", "0.5",
                           "--nu", "0.2", "--N", "512")
        assert code == 0, op
        assert "[FAIL]" not in out


def test_too_few_spectrum_modes_is_usage_error(capsys):
    for op, modes in (("L3", "2"), ("L4", "0"), ("L4", "-3")):
        code, _, err = run(capsys, "spectrum", "--operator", op,
                           "--L", "25.132741228718345", "--c", "0.5",
                           "--nu", "0.2", "--modes", modes)
        assert code == 1, (op, modes)
        assert "--modes" in err
        assert "Traceback" not in err


# --------------------------------------------------------------------------
# determinism and config precedence

def test_stability_runs_are_byte_identical(tmp_path, capsys):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        code, _, _ = run(capsys, "stability", "--L", "6.283185307179586",
                         "--c", "0", "--nu", "1.0", "--N", "128",
                         "--delta", "1e-3", "--seed", "7",
                         "--t-end", "0.2", "--out", str(out))
        assert code == 0
    assert filecmp.cmp(outs[0], outs[1], shallow=False)


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 6.283185307179586, "c": 0.0, "nu": 1.0}))
    code, out_cfg, _ = run(capsys, "construct", "--config", str(cfg))
    assert code == 0
    code, out_direct, _ = run(capsys, "construct", "--L", "6.283185307179586",
                              "--c", "0", "--nu", "1.0")
    assert code == 0
    assert out_cfg == out_direct


def test_explicit_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 6.283185307179586, "c": 0.0, "nu": 1.0}))
    code, out_override, _ = run(capsys, "construct", "--config", str(cfg),
                                "--nu", "2.0")
    assert code == 0
    code, out_direct, _ = run(capsys, "construct", "--L", "6.283185307179586",
                              "--c", "0", "--nu", "2.0")
    assert code == 0
    assert out_override == out_direct


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--config",
                       str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read config" in err
