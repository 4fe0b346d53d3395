"""Byte identity as a check: every golden output, regenerated in a fresh
process with BLAS on one thread, has the sha256 that
``tests/golden_reports.json`` records."""

import json
import subprocess
import sys

import golden_reports


def test_golden_outputs_keep_their_bytes(tmp_path):
    run = subprocess.run(
        [sys.executable, golden_reports.__file__, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    with open(golden_reports.GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    new = sorted(got.keys() - want.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}; not written: {missing}; not in the golden file: {new} "
        f"(outputs under {tmp_path})"
    )
