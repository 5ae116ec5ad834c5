"""Capture the reference answers in ``refs/`` from a checkout's library.

    python3 bench/make_refs.py [--root PATH]

``--root`` names the checkout whose ``src/lefschetz`` produces the answers
(default: the checkout holding this file).  The committed files were
captured from the seed commit of the library; the benchmark compares every
later commit against them and never recomputes them with the code it
measures.  ``tests/test_bench.py`` re-derives the enumerator references
with an independent integer re-implementation.

refs/enumerate.json: for every (g, B) the ``enumerate`` workload can draw,
the verdict histogram, pre-chi survivors and admitted vectors; and
(n_lower, n_upper, m_lower, m_upper) of ``min_fiber_bounds`` for g = 1..5.

refs/cli.json: stdout and exit code of every argv the ``cli`` workload can
issue.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracing import NullTracer  # noqa: E402
from workloads import CLI_TMP, ENTRIES, Enumerate, cli_commands, cli_env, cli_key  # noqa: E402

ENUMERATE_KEYS = [(g, b) for g in (2, 3) for b in range(14, 34)] + [
    (g, b) for g in (4, 5) for b in range(14, 33)
]


def enumerate_refs(root: Path) -> dict:
    wl = Enumerate(root, seed=0)
    tr = NullTracer()
    rows = {}
    for g, b in ENUMERATE_KEYS:
        _n, hist, pre_chi, admitted = wl.run(("rows", (g, b)), tr)
        rows[f"{g},{b}"] = {"hist": dict(sorted(hist.items())), "pre_chi": pre_chi,
                            "admitted": admitted}
    bounds = {str(g): wl.run(("bounds", g), tr) for g in range(1, 6)}
    return {"rows": rows, "bounds": bounds}


def cli_refs(root: Path) -> dict:
    env = cli_env(root)

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "lefschetz", *argv], cwd=root,
                              env=env, capture_output=True, timeout=120)
        return {"exit": proc.returncode, "stdout": proc.stdout.decode()}

    tmp = root / CLI_TMP
    tmp.mkdir(exist_ok=True)
    try:
        for e in ENTRIES:
            (tmp / f"{e}.mono").write_text(run(("catalog", "export", e))["stdout"])
        return {cli_key(argv): run(argv) for argv in cli_commands()}
    finally:
        for e in ENTRIES:
            (tmp / f"{e}.mono").unlink(missing_ok=True)
        tmp.rmdir()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    (refs / "enumerate.json").write_text(json.dumps(enumerate_refs(root), indent=1) + "\n")
    (refs / "cli.json").write_text(json.dumps(cli_refs(root), indent=1) + "\n")


if __name__ == "__main__":
    main()
