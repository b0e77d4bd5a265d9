"""Output-identity check for the experiment CLI.

Runs a fixed list of commands through ``pinv_minres.cli.main`` in this
process, each with ``--assert`` and with ``--csv`` (and ``--outdir``)
inside a fresh temporary directory, and prints one line per command: its
exit code and one sha256 over its stdout (the temporary path masked), its
CSV and its image files.

To compare two source trees, run it once with each tree's ``src`` on
PYTHONPATH, with the same BLAS thread count, and diff the two outputs:

    OMP_NUM_THREADS=1 PYTHONPATH=src python tools/cli_hashes.py > new.txt
    OMP_NUM_THREADS=1 PYTHONPATH=../old/src python tools/cli_hashes.py > old.txt
    diff old.txt new.txt

It uses the standard library and ``pinv_minres`` only.  The test suite
does not run it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from pinv_minres.cli import main

COMMANDS = {
    "synthetic": ["synthetic"],
    "synthetic-reorth": ["synthetic", "--reorth"],
    "synthetic-cs": ["synthetic", "--kind", "cs"],
    "synthetic-cs-reorth": ["synthetic", "--kind", "cs", "--reorth"],
    "precon-sweep": ["precon-sweep"],
    "npc": ["npc"],
    "npc-d128": ["npc", "--d", "128", "--rank", "81"],
    "equiv": ["equiv"],
    "equiv-cs": ["equiv", "--kind", "cs"],
    "deblur-n64": ["deblur", "--n", "64"],
}


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code of ``main(argv)`` and the sha256 of what it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "out.csv")
        outdir = os.path.join(tmp, "images")
        argv = argv + ["--assert", "--csv", csv]
        if argv[0] == "deblur":
            argv += ["--outdir", outdir]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().replace(tmp, "<tmp>").encode())
        images = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
        for path in [csv] + [os.path.join(outdir, name) for name in images]:
            digest.update(os.path.basename(path).encode())
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return code, digest.hexdigest()


def report() -> int:
    """Print one line per command; 0 when every command exits 0."""
    worst = 0
    for name, argv in COMMANDS.items():
        code, digest = run(argv)
        print(f"{name:20s} exit {code} sha256 {digest}", flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(report())
