"""Golden digests: the outputs whose bytes must not move.

Regenerates the CLI reports and problem files of the benchmark's
``finite-teams`` set-up and round (seeds in SEEDS) and the gallery
reports in GALLERY, and maps each output's name to the sha256 of its
bytes::

    python tests/golden_reports.py [WORKDIR]          # print the digests
    python tests/golden_reports.py [WORKDIR] --write  # rewrite GOLDEN

A change that means to move bytes reruns it with ``--write``, commits
the new digests with the change and says which outputs moved and why.
BLAS runs on one thread, as in ``bench/run.py``: on two threads a PBP
trace entry can differ in its last digit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden_reports.json")

SEEDS = (1, 2, 3)
GALLERY = {
    "witsenhausen.affine-vs-quantizer": ["witsenhausen", "--check", "affine-vs-quantizer"],
    "witsenhausen.certify": ["witsenhausen", "--check", "certify"],
    "witsenhausen.analytic-pair": ["witsenhausen", "--check", "analytic-pair"],
    "witsenhausen.equivalence": ["witsenhausen", "--check", "equivalence"],
    "signaling.affine-vs-search": ["signaling"],
    "signaling.zero-encoder": ["signaling", "--check", "zero-encoder"],
    "square-wave": ["square-wave", "--n", "5"],
    "example1": ["example1"],
    "decoupled": ["decoupled"],
    "decoupled.coupled": ["decoupled", "--coupled"],
}


def _digest(path: str):
    """The sha256 of the file's bytes, or None when it was not written."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def regenerate(workdir: str) -> dict:
    """Name -> digest of every output, written under ``workdir``; needs
    ``src`` and ``bench`` on the import path."""
    import teamdec.cli
    from workloads import FiniteTeams

    out, teams = {}, FiniteTeams()
    for seed in SEEDS:
        st = teams.setup(seed, os.path.join(workdir, f"s{seed}"))
        teams.round(st)
        for name, path in st.files.items():
            out[f"s{seed}/{name}.json"] = _digest(path)
        for team, cmd, _, path in st.ops:
            out[f"s{seed}/{team}.{cmd}"] = _digest(path)
    for name, argv in GALLERY.items():
        path = os.path.join(workdir, f"gallery.{name}.json")
        teamdec.cli.main(["gallery", *argv, "--out", path])
        out[f"gallery/{name}"] = _digest(path)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workdir", nargs="?", help="where outputs go (default: a temporary directory)")
    p.add_argument("--write", action="store_true", help=f"rewrite {os.path.relpath(GOLDEN, ROOT)}")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = regenerate(args.workdir or tmp)
    text = json.dumps(digests, sort_keys=True, indent=2) + "\n"
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.exit(main())
