"""Golden digests: the outputs whose bytes must not move.

Regenerates the CLI reports and problem files of the benchmark's
``finite-teams`` set-up and round (seeds in SEEDS) and the gallery
reports in GALLERY, and maps each output's name to the sha256 of its
bytes::

    python tests/golden_reports.py [WORKDIR]          # print the digests
    python tests/golden_reports.py [WORKDIR] --write  # rewrite GOLDEN
    python tests/golden_reports.py --only s1/wide.pbp --blas-threads 2

A change that means to move bytes reruns it with ``--write``, commits
the new digests with the change and says which outputs moved and why.
``--only NAME`` (repeatable) regenerates just the named outputs.  BLAS
runs on one thread unless ``--blas-threads`` says otherwise, as in
``bench/run.py``.  The digests do not depend on it: the cost
contraction, whose BLAS dot once wrote two reports one ulp apart at two
threads, adds in a fixed order of its own (``model._chain_cost``), and
the BLAS matrix products left (action factors, prefix tables, response
tables) wrote the same bytes at one and two OpenBLAS threads.
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


def regenerate(workdir: str, only=None) -> dict:
    """Name -> digest of every output, or of the names in ``only``,
    written under ``workdir``; needs ``src`` and ``bench`` on the import
    path."""
    import teamdec.cli
    from workloads import FiniteTeams

    out, teams = {}, FiniteTeams()
    for seed in SEEDS:
        if only is not None and not any(n.startswith(f"s{seed}/") for n in only):
            continue
        st = teams.setup(seed, os.path.join(workdir, f"s{seed}"))
        if only is not None:
            st.ops = [op for op in st.ops if f"s{seed}/{op[0]}.{op[1]}" in only]
        teams.round(st)
        for name, path in st.files.items():
            out[f"s{seed}/{name}.json"] = _digest(path)
        for team, cmd, _, path in st.ops:
            out[f"s{seed}/{team}.{cmd}"] = _digest(path)
    for name, argv in GALLERY.items():
        if only is None or f"gallery/{name}" in only:
            path = os.path.join(workdir, f"gallery.{name}.json")
            teamdec.cli.main(["gallery", *argv, "--out", path])
            out[f"gallery/{name}"] = _digest(path)
    return out if only is None else {n: d for n, d in out.items() if n in only}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workdir", nargs="?", help="where outputs go (default: a temporary directory)")
    p.add_argument("--write", action="store_true", help=f"rewrite {os.path.relpath(GOLDEN, ROOT)}")
    p.add_argument("--only", action="append", metavar="NAME", help="regenerate only this output")
    p.add_argument("--blas-threads", type=int, default=1, metavar="N", help="BLAS threads (default 1)")
    args = p.parse_args(argv)
    if args.write and args.only:
        p.error("--write rewrites every digest; it takes no --only")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)  # read when numpy loads, in regenerate
    with tempfile.TemporaryDirectory() as tmp:
        digests = regenerate(args.workdir or tmp, args.only)
    text = json.dumps(digests, sort_keys=True, indent=2) + "\n"
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    sys.exit(main())
