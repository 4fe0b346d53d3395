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


def test_reports_keep_their_bytes_on_two_blas_threads(tmp_path):
    """The two reports that moved with numpy's default two OpenBLAS
    threads while the cost contraction was a BLAS dot write the same
    bytes at one and at two threads, each run in a fresh process."""
    names = ["s1/wide.pbp", "s3/wide.pbp"]
    digests = []
    for threads in (1, 2):
        run = subprocess.run(
            [sys.executable, golden_reports.__file__, str(tmp_path / str(threads)),
             "--blas-threads", str(threads), *(a for n in names for a in ("--only", n))],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        digests.append(json.loads(run.stdout))
    assert sorted(digests[0]) == names and None not in digests[0].values()
    assert digests[0] == digests[1]
