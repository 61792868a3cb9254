"""Exit-code contract, output formats, and config precedence of the CLI."""

import dataclasses
import filecmp
import inspect
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zakwave import cli, wavefamily
from zakwave.cli import main
from zakwave.dynamics import invariants, stability_experiment, wave_state
from zakwave.errors import AccuracyError, VerdictError
from zakwave.spectral import periodic_spectrum
from zakwave.wavefamily import build_wave, family_sweep


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


STD_WAVE = ("--L", "25.132741228718345", "--c", "0.5", "--nu", "0.2")


RUN_WAVES = {
    "evolve": STD_WAVE,
    "stability": STD_WAVE + ("--delta", "1e-3", "--seed", "1"),
    "solitary": ("--omega", "-1", "--c", "0.5", "--delta", "1e-3", "--seed", "1"),
}


def test_bad_time_step_or_end_time_is_domain_error(capsys):
    for command, flags in RUN_WAVES.items():
        for bad in (("--dt", "0"), ("--dt", "nan"), ("--dt=-1e-3",),
                    ("--dt", "-1e-3"), ("--t-end", "-1"), ("--t-end", "inf")):
            code, _, err = run(capsys, command, *flags, *bad)
            assert code == 2, (command, bad)
            assert "domain error" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(RUN_WAVES))
def test_end_time_that_rounds_to_no_step_is_domain_error(capsys, command):
    # round(t_end / dt) = round(0.1) = 0: the run would save t = 0 alone
    code, out, err = run(capsys, command, *RUN_WAVES[command], "--dt", "10", "--t-end", "1")
    assert code == 2
    assert "domain error: dt=10.0 takes no step to t_end=1.0" in err
    assert out == ""


@pytest.mark.parametrize("command,flags", [
    ("stability", ("--delta", "0", "--seed", "0")), ("evolve", ()), ("spectrum", ())],
    ids=["stability", "evolve", "spectrum"])
def test_wave_whose_carrier_is_not_periodic_is_not_evolved(capsys, command, flags):
    # c L / (4 pi) = 0.6: the sampled u jumps at the wrap, where phi = eta2 != 0,
    # so a run would not start from a solution; the spectra do not use the
    # carrier and run with the construction warning
    wave = ("--L", "25.132741228718345", "--c", "0.3", "--nu", "0.05")
    if command != "spectrum":
        flags = (*flags, "--t-end", "2")
    with pytest.warns(UserWarning, match=r"cL/\(4\*pi\)=0.6 is not an integer"):
        code, out, err = run(capsys, command, *wave, *flags)
    if command == "spectrum":
        assert code == 0
        return
    assert code == 2
    assert err == ("domain error: cannot evolve: cL/(4*pi)=0.6 is not an integer: "
                   "the envelope carrier e^(icx/2) is not L-periodic\n")
    assert out == ""


def test_stability_at_N512_does_not_blow_up(capsys):
    # plain RK4 at the default dt is past its k_max^2 dt bound here
    code, _, err = run(capsys, "stability", "--L", "25.132741228718345",
                       "--c", "0.5", "--nu", "0.2", "--delta", "1e-3",
                       "--seed", "1", "--N", "512", "--t-end", "0.05")
    assert code == 0, err


def test_too_few_sweep_points_is_usage_error(capsys):
    for points in ("-1", "0", "1"):
        code, out, err = run(capsys, "sweep", "--L", "6.283185307179586",
                             "--c", "0", "--nu-min", "0.6", "--nu-max", "5.0",
                             "--points", points)
        assert code == 1, points
        assert "--points" in err
        assert "rows" not in out
        assert "Traceback" not in err


@pytest.mark.parametrize("nu_min,nu_max", [("5", "0.6"), ("1", "1")])
def test_reversed_or_empty_nu_range_is_usage_error(tmp_path, capsys, nu_min, nu_max):
    # a range that does not increase is a mistyped command, not a failed
    # monotonicity verdict
    out = tmp_path / "family.csv"
    code, stdout, err = run(capsys, "sweep", "--L", "6.2832", "--c", "0",
                            "--nu-min", nu_min, "--nu-max", nu_max, "--out", str(out))
    assert code == 1
    assert "--nu-max must exceed --nu-min" in err
    assert "verdict" not in err
    assert "rows" not in stdout
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_too_few_construct_samples_is_usage_error(tmp_path, capsys, samples):
    out = tmp_path / "wave.csv"
    code, stdout, err = run(capsys, "construct", "--L", "6.283185307179586",
                            "--c", "0", "--nu", "1.0", "--samples", samples,
                            "--out", str(out))
    assert code == 1
    assert "--samples" in err
    assert "wave:" not in stdout
    assert not out.exists()


def test_falling_mass_chain_fails_sweep(monkeypatch, tmp_path, capsys):
    # family_sweep itself checks the documented mass chain, so a falling
    # mass raises there and the CLI reports it as a verdict failure
    falling = itertools.count()
    monkeypatch.setattr(wavefamily, "mass_integral", lambda w: -float(next(falling)))
    with pytest.raises(VerdictError, match="mass chain"):
        family_sweep(6.283185307179586, 0.0, np.geomspace(0.6, 5.0, 4))
    out = tmp_path / "family.csv"
    code, _, err = run(capsys, "sweep", "--L", "6.283185307179586",
                       "--c", "0", "--nu-min", "0.6", "--nu-max", "5.0",
                       "--points", "4", "--out", str(out))
    assert code == 3
    assert "mass chain not strictly increasing" in err


def test_only_main_chooses_an_exit_code():
    # a failed check raises, never AssertionError, and cli.main alone turns
    # each outcome into its exit code
    lines = [(path.name, i, line)
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)]
    assert [f"{name}:{i}" for name, i, line in lines if "AssertionError" in line] == []
    returns = [line for _, _, line in lines if "return EXIT_" in line]
    assert returns == [line for line in inspect.getsource(main).splitlines()
                       if "return EXIT_" in line]


def _falling_mass(monkeypatch):
    falling = itertools.count()
    monkeypatch.setattr(wavefamily, "mass_integral", lambda w: -float(next(falling)))


def _unconverged_lame(monkeypatch):
    def fail(m, N):
        raise AccuracyError(f"band edges moved between N/8 and N/4 modes at N={N}")
    monkeypatch.setattr(cli, "instability_intervals", fail)


@pytest.mark.parametrize("patch,argv,code,prefix", [
    (None, ("construct", "--bogus"), 1, "usage: zakwave"),
    (None, ("construct", "--L", "25.132741228718345", "--c", "0.5", "--nu", "0.2",
            "--out", "{tmp}/no/such/dir/w.csv"), 1, "error: cannot write --out {tmp}/no/such"),
    (None, ("construct", "--L", "1e-200", "--c", "0", "--nu", "1"), 2,
     "domain error: period L=1e-200"),
    (None, ("construct", "--L", "1e200", "--c", "0", "--nu", "1"), 2,
     "domain error: period L=1e+200"),
    (None, ("sweep", "--L", "1e-170", "--c", "0", "--nu-min", "1", "--nu-max", "2",
            "--points", "2"), 2, "domain error: family_sweep failed at nu=1.0: period L=1e-170"),
    (_unconverged_lame, ("spectrum", "--operator", "lame", *STD_WAVE), 2,
     "accuracy error: band edges moved"),
    (_falling_mass, ("sweep", "--L", "6.283185307179586", "--c", "0", "--nu-min", "0.6",
                     "--nu-max", "5.0", "--points", "4"), 3,
     "verdict FAIL: mass chain not strictly increasing"),
    (None, ("spectrum", "--operator", "lame", "--L", "6.283185307179586", "--c", "0",
            "--nu", "0.5000005"), 3, "verdict FAIL: three instability intervals\n"),
    (None, ("evolve", "--L", "6.283185307179586", "--c", "0", "--nu", "1.0",
            "--dt", "0.05", "--t-end", "2.0"), 4, "blow-up at t="),
], ids=["usage-flag", "usage-out", "domain-L-tiny", "domain-L-huge", "domain-sweep-L",
        "accuracy", "verdict-mass-chain", "verdict-lame-gaps", "blow-up"])
def test_main_returns_the_exit_code_of_each_failure_class(
        monkeypatch, tmp_path, capsys, patch, argv, code, prefix):
    if patch is not None:
        patch(monkeypatch)
    try:
        returned = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    except (Exception, SystemExit) as exc:
        pytest.fail(f"main raised {exc!r} instead of returning an exit code")
    assert returned == code
    assert capsys.readouterr().err.startswith(prefix.replace("{tmp}", str(tmp_path)))


# --------------------------------------------------------------------------
def test_unconverged_lame_spectrum_is_accuracy_error(capsys):
    # at nu=5 the band edges at N/8 modes disagree with the N/4 check
    lame = ("spectrum", "--operator", "lame", "--L", "25.132741228718345",
            "--c", "0.5", "--nu", "5")
    code, _, err = run(capsys, *lame)
    assert code == 2
    assert "accuracy error" in err and "--N" in err
    assert "Traceback" not in err
    code, _, err = run(capsys, *lame, "--N", "1024")
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("stability", *STD_WAVE, "--delta", "1e-3"),
    ("solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3"),
], ids=["stability", "solitary"])
def test_negative_seed_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv, "--seed", "-1", "--t-end", "0.05")
    assert code == 1
    assert "--seed" in err
    assert "Traceback" not in err


RUN_FLAGS = ("--seed", "1", "--t-end", "0.05")


@pytest.mark.parametrize("named,argv", [
    ("delta=nan", ("stability", *STD_WAVE, "--delta", "nan", *RUN_FLAGS)),
    ("delta=nan", ("solitary", "--omega", "-1", "--c", "0.5", "--delta", "nan", *RUN_FLAGS)),
    ("box_factor", ("solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3",
                    "--box-factor", "nan", *RUN_FLAGS)),
    ("omega", ("solitary", "--omega", "nan", "--c", "0.5", "--delta", "1e-3", *RUN_FLAGS)),
    ("L=-5", ("construct", "--L", "-5", "--c", "0.5", "--nu", "0.2")),
    ("L=nan", ("construct", "--L", "nan", "--c", "0.5", "--nu", "0.2")),
    ("L=inf", ("construct", "--L", "inf", "--c", "0.5", "--nu", "0.2")),
    ("c=nan", ("construct", "--L", "25.132741228718345", "--c", "nan", "--nu", "0.2")),
    ("nu=nan", ("construct", "--L", "25.132741228718345", "--c", "0.5", "--nu", "nan")),
    ("nu=inf", ("construct", "--L", "25.132741228718345", "--c", "0.5", "--nu", "inf")),
    ("box_factor", ("solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3",
                    "--box-factor", "inf", *RUN_FLAGS)),
    ("L=0.0", ("sweep", "--L", "0", "--c", "0", "--nu-min", "0.6", "--nu-max", "5")),
    ("nu_min=0.0", ("sweep", "--L", "8", "--c", "0", "--nu-min", "0", "--nu-max", "5")),
    ("nu_min=-1.0", ("sweep", "--L", "8", "--c", "0", "--nu-min", "-1", "--nu-max", "5")),
    ("nu_max=inf", ("sweep", "--L", "8", "--c", "0", "--nu-min", "0.6", "--nu-max", "inf")),
    # N = 64 solves on the Fourier modes |n| <= 15: at most 31 eigenpairs
    ("at most 31", ("spectrum", "--operator", "L3", *STD_WAVE, "--N", "64", "--modes", "32")),
    # 2 pi^2 / L^2 is no finite positive double once L**2 under- or overflows
    ("L=1e-200", ("construct", "--L", "1e-200", "--c", "0", "--nu", "1")),
    ("L=1e+200", ("construct", "--L", "1e200", "--c", "0", "--nu", "1")),
    ("L=1e-170", ("sweep", "--L", "1e-170", "--c", "0", "--nu-min", "1", "--nu-max", "2",
                  "--points", "2")),
    # k'^2 underflows before the period reaches L sqrt(nu) = 1000
    ("L=1000.0 is too long", ("construct", "--L", "1000", "--c", "0", "--nu", "1")),
])
def test_bad_input_is_domain_error_naming_the_parameter(capsys, named, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code == 2, err
    assert "domain error" in err
    assert named in err, err


def test_renormalize_q2_starts_at_the_wave_q2(tmp_path, capsys, wave_std, grid_std):
    q2_wave = invariants(wave_state(wave_std, grid_std), grid_std).Q2
    rec = stability_experiment(wave_std, 1e-2, t_end=0.05, seed=3, renormalize_q2=True)
    assert rec.Q2[0] == pytest.approx(q2_wave, rel=1e-14, abs=0.0)
    out = tmp_path / "run.csv"
    code, _, err = run(capsys, "stability", *STD_WAVE, "--delta", "1e-2", "--seed", "3",
                       "--t-end", "0.05", "--renormalize-q2", "--out", str(out))
    assert code == 0, err
    header, first = out.read_text().splitlines()[:2]
    assert float(first.split(",")[header.split(",").index("Q2")]) == rec.Q2[0]


@pytest.mark.parametrize("flags, recorded", [((), False), (("--renormalize-q2",), True)])
def test_stability_json_records_renormalize_q2(tmp_path, capsys, flags, recorded):
    out = tmp_path / "run.json"
    code, _, err = run(capsys, "stability", *STD_WAVE, "--delta", "1e-2", "--seed", "3",
                       "--N", "64", "--t-end", "0.01", *flags, "--format", "json",
                       "--out", str(out))
    assert code == 0, err
    assert json.loads(out.read_text())["metadata"]["renormalize_q2"] is recorded


def test_run_summary_prints_the_time_reached(capsys):
    # round(5 / 3.2e-3) = 1562 steps stop at 4.9984, short of the t_end asked for
    code, out, err = run(capsys, "stability", *STD_WAVE, "--delta", "1e-3", "--seed", "1",
                         "--N", "64", "--dt", "3.2e-3", "--t-end", "5")
    assert code == 0, err
    line = next(ln for ln in out.splitlines() if ln.startswith("steps saved: "))
    assert "t_end" not in line
    assert float(line.split("t_final=")[1]) == 1562 * 3.2e-3


# outputs

def _strict_json(path):
    """JSON as the standard defines it: -Infinity, Infinity and NaN raise."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


STD_WAVE_ARGS = ["--L", "25.132741228718345", "--c", "0.5", "--nu", "0.2"]
SERIES_HEADER = "t,E,Q1,Q2,B,rho_nu,y_star,theta_star,dist_v,dist_V"
COMMANDS = {
    "construct": (["construct", *STD_WAVE_ARGS], "x,phi,psi,varphi,phi_prime"),
    "sweep": (["sweep", "--L", "6.283185307179586", "--c", "0", "--nu-min", "0.6",
               "--nu-max", "5.0", "--points", "4"], "nu,eta2,eta1,k,omega,d0,mass"),
    "spectrum-L3": (["spectrum", "--operator", "L3", *STD_WAVE_ARGS], "index,eigenvalue"),
    "spectrum-lame": (["spectrum", "--operator", "lame", *STD_WAVE_ARGS], "gap_lo,gap_hi"),
    "evolve": (["evolve", *STD_WAVE_ARGS, "--t-end", "0.05"], SERIES_HEADER),
    "stability": (["stability", *STD_WAVE_ARGS, "--delta", "1e-3", "--seed", "1",
                   "--t-end", "0.05"], SERIES_HEADER),
    "solitary": (["solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3",
                  "--seed", "1", "--t-end", "0.05"], SERIES_HEADER),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_writes_the_requested_format(tmp_path, capsys, command, fmt):
    argv, header = COMMANDS[command]
    out = tmp_path / f"out.{fmt}"
    code, _, err = run(capsys, *argv, "--format", fmt, "--out", str(out))
    assert code == 0, err
    if fmt == "json":
        _strict_json(out)
    else:
        assert out.read_text().splitlines()[0] == header


def test_lame_json_holds_gap_columns_as_strict_json(tmp_path, capsys):
    out = tmp_path / "lame.json"
    code, _, _ = run(capsys, "spectrum", "--operator", "lame", *STD_WAVE_ARGS,
                     "--format", "json", "--out", str(out))
    assert code == 0
    payload = _strict_json(out)
    assert set(payload) == {"gap_lo", "gap_hi"}
    assert len(payload["gap_lo"]) == len(payload["gap_hi"]) == 10
    # the semi-infinite interval (-inf, edge0) has no finite lower end
    assert payload["gap_lo"][0] is None
    assert all(lo < hi for lo, hi in zip(payload["gap_lo"][1:], payload["gap_hi"][1:]))


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


def _construct_kprime_and_residuals(tmp_path, capsys, L, nu):
    out = tmp_path / f"wave_{L}.json"
    code, stdout, err = run(capsys, "construct", "--L", L, "--c", "0", "--nu", nu,
                            "--format", "json", "--out", str(out))
    assert code == 0, err
    params = json.loads(out.read_text())["params"]
    residuals = [float(r) for r in re.findall(r"r\d=(\S+)", stdout)]
    assert len(residuals) == 2
    return params["eta2"] / params["eta1"], residuals


def test_construct_depends_on_L_sqrt_nu_only(tmp_path, capsys):
    # L sqrt(nu) = 10 at nu = 1e-300: eta2 is about 4e-152, but k' is not
    # built from eta2^2, so the wave is the L = 10, nu = 1 wave rescaled
    kprime, residuals = _construct_kprime_and_residuals(tmp_path, capsys, "1e151", "1e-300")
    kprime_ref, residuals_ref = _construct_kprime_and_residuals(tmp_path, capsys, "10", "1")
    assert kprime == pytest.approx(0.027, abs=5e-4)
    assert kprime == pytest.approx(kprime_ref, rel=1e-12)
    assert max(residuals) <= max(residuals_ref)


def test_unreadable_wave_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "evolve", "--wave-file", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read wave file" in err


def test_wave_file_without_params_is_usage_error(tmp_path, capsys):
    wave_json = tmp_path / "wave.json"
    wave_json.write_text(json.dumps({"x": [0.0]}))
    code, _, err = run(capsys, "evolve", "--wave-file", str(wave_json))
    assert code == 1
    assert "cannot read wave file" in err


@pytest.mark.parametrize("flag,value", [("nu", 0.5), ("L", 30.0), ("c", 0.1)])
@pytest.mark.parametrize("via_config", [False, True])
def test_wave_file_with_wave_flags_is_usage_error(tmp_path, capsys, flag, value, via_config):
    wave_json = tmp_path / "wave.json"
    code, _, _ = run(capsys, "construct", "--L", "25.132741228718345", "--c", "0.5",
                     "--nu", "0.2", "--format", "json", "--out", str(wave_json))
    assert code == 0
    argv = ["--operator", "L4", "--wave-file", str(wave_json)]
    if via_config:
        code, out, err = _run_with_config(tmp_path, capsys, "spectrum", {flag: value}, *argv)
    else:
        code, out, err = run(capsys, "spectrum", *argv, f"--{flag}", str(value))
    assert code == 1, out
    assert "--wave-file" in err and f"--{flag}" in err, err
    assert out == ""


@pytest.mark.parametrize("via_config", [False, True])
def test_modes_with_lame_is_usage_error(tmp_path, capsys, via_config):
    argv = ["--operator", "lame", "--L", "25.132741228718345", "--c", "0.5", "--nu", "0.2"]
    if via_config:
        code, out, err = _run_with_config(tmp_path, capsys, "spectrum", {"modes": 3}, *argv)
    else:
        code, out, err = run(capsys, "spectrum", *argv, "--modes", "3")
    assert code == 1, out
    assert "--modes" in err and "lame" in err, err
    assert out == ""


def test_solitary_writes_series_header(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solitary", "--omega", "-1", "--c", "0.5",
                     "--delta", "1e-3", "--seed", "1", "--t-end", "0.05",
                     "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,E,Q1,Q2,B,rho_nu,y_star,theta_star,dist_v,dist_V"


def test_exponent_form_negative_is_a_value(tmp_path, capsys):
    outs = []
    for omega in ("-1", "-1e0", "-1.0E+0", "-.1e1"):
        outs.append(tmp_path / f"sol{len(outs)}.csv")
        code, _, err = run(capsys, "solitary", "--omega", omega, "--c", "0.5",
                           "--delta", "1e-3", "--seed", "1", "--t-end", "0.02",
                           "--out", str(outs[-1]))
        assert code == 0, (omega, err)
    assert all(filecmp.cmp(outs[0], out, shallow=False) for out in outs[1:])


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


def test_L3_L4_verdicts_read_parity_and_solve_no_eigenvector(monkeypatch, capsys):
    # the kernels are named by parity (phi even, phi' odd), so the command
    # solves eigenvalues only
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
    for op, line in (("L3", "[pass] lambda1 odd, as phi': parity=odd"),
                     ("L4", "[pass] ground state even, as phi: parity=even")):
        code, out, _ = run(capsys, "spectrum", "--operator", op, *STD_WAVE, "--N", "256")
        assert code == 0, op
        assert line in out.splitlines()[-1], op
    assert calls == []


def test_kernel_of_the_wrong_parity_is_a_verdict_failure(monkeypatch, capsys):
    def flipped(op, m):
        spec = periodic_spectrum(op, m)
        return dataclasses.replace(spec, even=~spec.even)

    monkeypatch.setattr(cli, "periodic_spectrum", flipped)
    for op, name, parity in (("L3", "lambda1 odd, as phi'", "even"),
                             ("L4", "ground state even, as phi", "odd")):
        code, out, err = run(capsys, "spectrum", "--operator", op, *STD_WAVE, "--N", "256")
        assert code == 3, op
        assert f"[FAIL] {name}: parity={parity}" in out
        assert err == f"verdict FAIL: {name}\n"


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


def test_evolve_is_stability_at_delta_zero_seed_zero(tmp_path, capsys):
    for fmt in ("csv", "json"):
        outs, stdouts = [tmp_path / f"evolve.{fmt}", tmp_path / f"stability.{fmt}"], []
        for out, argv in zip(outs, (("evolve",), ("stability", "--delta", "0", "--seed", "0"))):
            code, stdout, err = run(capsys, *argv, *STD_WAVE, "--t-end", "0.05",
                                    "--format", fmt, "--out", str(out))
            assert code == 0, err
            stdouts.append(stdout)
        assert filecmp.cmp(outs[0], outs[1], shallow=False), fmt
        assert stdouts[0] == stdouts[1]


def test_momentum_free_run_reports_absolute_q1_drift(capsys):
    # at c = 0, Q1(0) is rounding noise (about -9e-17 here), so a relative
    # Q1 drift would be noise over noise; E and Q2 stay relative
    code, out, err = run(capsys, "evolve", "--L", "6.283185307179586", "--c", "0",
                         "--nu", "1", "--t-end", "0.1")
    assert code == 0, err
    line = next(ln for ln in out.splitlines() if ln.startswith("relative drift: "))
    drifts = dict(item.split("=") for item in line.removeprefix("relative drift: ").split())
    assert set(drifts) == {"E", "Q1(absolute)", "Q2"}
    assert all(float(d) <= 1e-12 for d in drifts.values()), line


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


def test_config_that_is_no_json_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "construct", "--config", str(cfg))
    assert code == 1
    assert "config file must hold a JSON object" in err


def test_one_parser_serves_every_call(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    codes = [run(capsys, *argv)[0] for argv in (
        ("construct", "--L", "6.283185307179586", "--c", "0", "--nu", "1.0"),
        ("frobnicate",), ("spectrum", "--operator", "L4", *STD_WAVE, "--N", "256"))]
    assert codes == [0, 1, 0]
    assert built == [1]


def test_config_values_do_not_reach_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 6.283185307179586, "c": 0.0, "nu": 1.0, "samples": 16}))
    code, _, _ = run(capsys, "construct", "--config", str(cfg), "--out", str(tmp_path / "a.csv"))
    assert code == 0
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 1 + 16
    code, _, err = run(capsys, "construct")
    assert code == 1
    assert "missing required parameter(s): --L, --c, --nu" in err
    code, _, _ = run(capsys, "construct", "--L", "6.283185307179586", "--c", "0", "--nu", "1.0",
                     "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert len((tmp_path / "b.csv").read_text().splitlines()) == 1 + 512


def test_usage_error_leaves_the_next_call_as_in_a_fresh_process(tmp_path, capsys):
    argv = ["spectrum", "--operator", "L4", *STD_WAVE, "--N", "256", "--format", "json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "zakwave.cli", *argv,
                            "--out", str(tmp_path / "fresh.json")],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert fresh.returncode == 0, fresh.stderr
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"operator": "L5"}))
    for bad in (("spectrum", "--operator", "bogus"), ("stability", "--N", "1.5"),
                ("frobnicate",), ("spectrum", *STD_WAVE, "--config", str(bad_cfg))):
        code, _, _ = run(capsys, *bad)
        assert code == 1, bad
        out = tmp_path / "inproc.json"
        assert run(capsys, *argv, "--out", str(out)) == (0, fresh.stdout, fresh.stderr)
        assert filecmp.cmp(out, tmp_path / "fresh.json", shallow=False), bad


def test_config_fills_flags_that_have_parser_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 6.283185307179586, "c": 0.0, "nu": 1.0,
                               "samples": 64}))
    out = tmp_path / "wave.csv"
    code, _, _ = run(capsys, "construct", "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 64


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 6.283185307179586, "c": 0.0, "nu": 1.0,
                               "smaples": 64}))
    code, _, err = run(capsys, "construct", "--config", str(cfg))
    assert code == 1
    assert "smaples" in err


def _run_with_config(tmp_path, capsys, command, cfg, *argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return run(capsys, command, "--config", str(path), *argv)


def test_config_value_outside_choices_is_usage_error(tmp_path, capsys):
    code, out, err = _run_with_config(
        tmp_path, capsys, "spectrum",
        {"L": 25.132741228718345, "c": 0.5, "nu": 0.2, "operator": "bogus"})
    assert code == 1
    assert "bogus" in err
    assert "eigenvalues" not in out
    out_file = tmp_path / "wave.out"
    for command in ("construct", "sweep"):
        cfg = {"L": 6.283185307179586, "c": 0.0, "format": "xml"}
        cfg.update({"nu": 1.0} if command == "construct"
                   else {"nu_min": 0.6, "nu_max": 5.0, "points": 4})
        code, _, err = _run_with_config(tmp_path, capsys, command, cfg,
                                        "--out", str(out_file))
        assert code == 1, command
        assert "xml" in err
        assert not out_file.exists()


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    wave = {"L": 25.132741228718345, "c": 0.5, "nu": 0.2}
    for extra in ({"N": 256.5}, {"N": "256.5"}, {"N": True}, {"L": "long"},
                  {"L": None}, {"out": 3}):
        code, _, err = _run_with_config(tmp_path, capsys, "spectrum",
                                        {**wave, **extra})
        assert code == 1, extra
        assert "domain error" not in err
        assert "Traceback" not in err


def test_config_on_off_flag_takes_only_true_or_false(tmp_path, capsys):
    base = {"L": 6.283185307179586, "c": 0.0, "nu": 1.0, "N": 128,
            "delta": 1e-3, "seed": 7, "t_end": 0.02}
    for val in (1, "false", None):
        code, _, err = _run_with_config(tmp_path, capsys, "stability",
                                        {**base, "respect_mean_condition": val})
        assert code == 1, val
        assert "respect_mean_condition" in err
    outs = {}
    for val in (True, False):
        outs[val] = tmp_path / f"{val}.csv"
        code, _, _ = _run_with_config(tmp_path, capsys, "stability",
                                      {**base, "respect_mean_condition": val,
                                       "renormalize_q2": False},
                                      "--out", str(outs[val]))
        assert code == 0, val
    direct = tmp_path / "direct.csv"
    code, _, _ = run(capsys, "stability", "--L", "6.283185307179586", "--c", "0",
                     "--nu", "1.0", "--N", "128", "--delta", "1e-3", "--seed", "7",
                     "--t-end", "0.02", "--no-respect-mean-condition",
                     "--out", str(direct))
    assert code == 0
    assert filecmp.cmp(outs[False], direct, shallow=False)


# --------------------------------------------------------------------------
# README

def test_readme_cli_waves_build_without_warnings():
    # every --L/--c/--nu triple the README's CLI block shows is a clean run:
    # c L / (4 pi) an integer to rounding, so no carrier warning
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    triples = re.findall(r"--L (\S+) --c (\S+) --nu (\S+)", block)
    assert triples
    for triple in triples:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_wave(*map(float, triple))


def test_readme_cli_block_runs_clean(tmp_path, monkeypatch, capsys):
    # every `zakwave` line of the README's CLI block, in order, from one
    # directory (`construct` writes the wave.json later lines read); runs
    # are cut to --t-end 0.05 unless the line gives its own --t-end
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("zakwave ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        if argv[0] in ("evolve", "stability", "solitary") and "--t-end" not in argv:
            argv = [*argv, "--t-end", "0.05"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert err == "", (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
