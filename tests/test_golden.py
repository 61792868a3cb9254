"""Golden CLI outputs: each case of `tests/golden/manifest.json` runs
in-process through `zakwave.cli.main` and must reproduce its stored exit
code and output digests (see `tests/golden/regenerate.py`, which also
regenerates the manifest)."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import regenerate as golden  # noqa: E402

MANIFEST = json.loads(golden.MANIFEST.read_text())


def test_manifest_holds_every_case():
    assert [(c["name"], c["argv"], c["out"], c["numbers"]) for c in MANIFEST["cases"]] == \
        [(name, argv, out, numbers) for name, argv, out, numbers in golden.CASES]


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda c: c["name"])
def test_cli_output_matches_golden(case, tmp_path):
    seen = golden.observe(case["argv"], case["out"], tmp_path, case["numbers"])
    assert seen["exit"] == case["exit"]
    for stream in ("file", "stdout", "stderr"):
        if not case["numbers"]:
            assert seen[stream] == case[stream], stream
            continue
        assert seen[stream]["text_sha256"] == case[stream]["text_sha256"], stream
        got, want = seen[stream]["numbers"], case[stream]["numbers"]
        assert len(got) == len(want), stream
        rel = MANIFEST["number_bound"]["rel"]
        bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want))
               if not abs(g - w) <= rel * max(1.0, abs(w))]
        assert not bad, (stream, bad[:5])
