"""Golden CLI outputs: the argv table, how a run is observed, and the
script that rewrites `manifest.json`.

Each case runs in-process through `zakwave.cli.main` with `--out` in a
given directory.  A run is observed as its exit code and three streams:
the `--out` file (`file`), stdout, and stderr (with any Python warning appended as
a `warning: Category: message` line).

Outputs that depend only on FFTs and elementwise arithmetic are compared
exactly, each stream by its SHA-256.  Outputs that carry LAPACK
eigenvalues (`spectrum`) may move in the last digits with the BLAS build
or thread count, so each of their streams is kept as the SHA-256 of its
text with every number replaced by `#`, plus the list of those numbers,
which must match within the manifest's `number_bound`.

A change that moves outputs on purpose regenerates the manifest and
states the moves in CHANGES.md:

    PYTHONPATH=src python3 tests/golden/regenerate.py

Run it from the repository root.  It writes `tests/golden/manifest.json`
and prints, for each case and stream, what moved against the manifest it
replaces: for exact streams whether the bytes changed, for number-compared
ones whether the text with its numbers masked changed and the largest move
of any number, |new - old| / max(1, |old|), the measure of `number_bound`.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

from zakwave import cli

MANIFEST = Path(__file__).with_name("manifest.json")

STD_WAVE = ["--L", "25.132741228718345", "--c", "0.5", "--nu", "0.2"]

# (name, argv without --out, name of the --out file, compare numbers within a bound);
# each command's output is pinned in both of its formats
CASES = [
    ("construct", ["construct", *STD_WAVE, "--samples", "64", "--format", "json"],
     "wave.json", False),
    ("construct_csv", ["construct", *STD_WAVE, "--samples", "64"], "wave.csv", False),
    # L sqrt(nu) = 10 at a scale where the profile ODE's terms underflow
    ("construct_underflow", ["construct", "--L", "1e151", "--c", "0", "--nu", "1e-300",
                             "--samples", "64", "--format", "json"], "wave.json", False),
    ("sweep", ["sweep", "--L", "6.2832", "--c", "0", "--nu-min", "0.6", "--nu-max", "5",
               "--points", "8"], "family.csv", False),
    ("sweep_json", ["sweep", "--L", "6.2832", "--c", "0", "--nu-min", "0.6", "--nu-max", "5",
                    "--points", "8", "--format", "json"], "family.json", False),
    ("evolve", ["evolve", "--L", "6.283185307179586", "--c", "0", "--nu", "1",
                "--N", "64", "--t-end", "0.05"], "evolve.csv", False),
    ("evolve_json", ["evolve", "--L", "6.283185307179586", "--c", "0", "--nu", "1",
                     "--N", "64", "--t-end", "0.05", "--format", "json"], "evolve.json", False),
    ("stability", ["stability", *STD_WAVE, "--delta", "1e-3", "--seed", "7", "--N", "128",
                   "--t-end", "0.2", "--format", "json"], "run.json", False),
    ("stability_csv", ["stability", *STD_WAVE, "--delta", "1e-3", "--seed", "7", "--N", "128",
                       "--t-end", "0.2"], "run.csv", False),
    ("solitary", ["solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3",
                  "--seed", "5", "--N", "256", "--t-end", "0.2"], "solitary.csv", False),
    ("solitary_json", ["solitary", "--omega", "-1", "--c", "0.5", "--delta", "1e-3",
                       "--seed", "5", "--N", "256", "--t-end", "0.2", "--format", "json"],
     "solitary.json", False),
    ("spectrum_L3", ["spectrum", "--operator", "L3", *STD_WAVE, "--N", "256"],
     "L3.csv", True),
    ("spectrum_L3_json", ["spectrum", "--operator", "L3", *STD_WAVE, "--N", "256",
                          "--format", "json"], "L3.json", True),
    ("spectrum_L4", ["spectrum", "--operator", "L4", *STD_WAVE, "--N", "256", "--format", "json"],
     "L4.json", True),
    ("spectrum_L4_csv", ["spectrum", "--operator", "L4", *STD_WAVE, "--N", "256"],
     "L4.csv", True),
    ("spectrum_lame", ["spectrum", "--operator", "lame", *STD_WAVE, "--format", "json"],
     "lame.json", True),
    ("spectrum_lame_csv", ["spectrum", "--operator", "lame", *STD_WAVE], "lame.csv", True),
]

# |observed - stored| <= rel * max(1, |stored|) for each number of a
# number-compared stream: about 30 times the 3.7e-13 by which OpenBLAS's
# Prescott, Sandybridge, Haswell and SkylakeX kernels (OPENBLAS_CORETYPE)
# moved these numbers, and below the 1e-11 to 3e-10 by which changes of
# method have moved Lame band edges.
NUMBER_BOUND = {"rel": 1e-11}

NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(text: str, numbers: bool):
    if not numbers:
        return _sha256(text)
    return {"text_sha256": _sha256(NUMBER.sub("#", text)),
            "numbers": [float(x) for x in NUMBER.findall(text)]}


def observe(argv, out_name, directory, numbers):
    """Run one case into `directory`; returns its exit code and digests."""
    out = Path(directory) / out_name
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main([*argv, "--out", str(out)])
    err = stderr.getvalue() + "".join(
        f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    # bytes decoded as they are, so the CSV writer's \r\n line ends count
    streams = {"file": out.read_bytes().decode() if out.exists() else "",
               "stdout": stdout.getvalue(), "stderr": err}
    return {"exit": code, **{k: _digest(v, numbers) for k, v in streams.items()}}


def _move(old, new) -> str:
    """What moved in one stream between two digests of it."""
    if isinstance(old, str) and isinstance(new, str):
        return "bytes identical" if old == new else "bytes changed"
    if isinstance(old, str) or isinstance(new, str):
        return "compare mode changed"
    text = "masked text " + ("identical" if old["text_sha256"] == new["text_sha256"] else "changed")
    a, b = old["numbers"], new["numbers"]
    # numbers pair in order; when their count changed, only the leading
    # ones pair, and a large move shows that the pairing slipped
    move = max((abs(y - x) / max(1.0, abs(x)) for x, y in zip(a, b)), default=0.0)
    paired = f"{len(a)} numbers" if len(a) == len(b) else \
        f"{len(a)} -> {len(b)} numbers, the first {min(len(a), len(b))} paired"
    return f"{text}, largest number move {move:.2g} over {paired}"


def main() -> int:
    old = {}
    if MANIFEST.exists():
        old = {c["name"]: c for c in json.loads(MANIFEST.read_text())["cases"]}
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, out_name, numbers in CASES:
            cases.append({"name": name, "argv": argv, "out": out_name, "numbers": numbers,
                          **observe(argv, out_name, tmp, numbers)})
    for case in cases:
        before = old.get(case["name"])
        if before is None:
            print(f"{case['name']}: new case")
            continue
        if before["exit"] != case["exit"]:
            print(f"{case['name']}: exit {before['exit']} -> {case['exit']}")
        for stream in ("file", "stdout", "stderr"):
            print(f"{case['name']} {stream}: {_move(before[stream], case[stream])}")
    MANIFEST.write_text(json.dumps({"number_bound": NUMBER_BOUND, "cases": cases},
                                   indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
