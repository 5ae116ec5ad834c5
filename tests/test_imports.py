"""Each CLI subcommand, run in a fresh interpreter, loads only its layers.

In-process CLI tests cannot see a lazy import that is missing, because
earlier tests have already loaded every module.  Here every case starts
its own ``python -c``: the set of ``lefschetz`` modules it leaves loaded,
and whether it loaded the standard library's ``fractions``, are pinned, and
its stdout and exit code must match the recorded bytes.  No case loads
``dataclasses`` or ``inspect``: the records are plain classes, and those
two modules cost a fresh process several milliseconds.  Each subcommand
loads one handler module, ``lefschetz._cli_<subcommand>``, and no other.

CI also runs this file against the installed package, from a copy of
``tests`` outside the checkout: ``run_fresh``'s ``src`` entry then names a
missing directory, so each case imports the wheel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CLI_REFS = ROOT / "bench" / "refs" / "cli.json"

# Standard library modules that no case may load.
UNLOADED = {"dataclasses", "inspect"}

# Runs the argv through cli.main (or only imports the package when there is
# none), then writes the loaded lefschetz modules, and fractions, dataclasses
# and inspect when they are loaded, as the last stderr line.
SCRIPT = """
import sys
if sys.argv[1:]:
    from lefschetz.cli import main
    code = main(sys.argv[1:])
else:
    import lefschetz
    code = 0
sys.stdout.flush()
print(" ".join(sorted(m for m in sys.modules
                      if m.partition(".")[0] == "lefschetz"
                      or m in ("fractions", "dataclasses", "inspect"))),
      file=sys.stderr)
sys.exit(code)
"""

# ``cli`` and invariants, which holds the option reader ``integer``:
# all that a usage error loads, and with its handler, all that a command
# that only counts fibers loads.
BASE = {"cli", "invariants"}
# The catalog is built from factorization values over surface curves; the
# calculus on them (twists) is loaded only by verify.
CATALOG = BASE | {"surface", "words", "catalog", "factorization"}

# argv (a key of the recorded refs, or None) -> (lefschetz submodules loaded
# besides the handler module, whether fractions is loaded: only commands that
# print a rational load it).
CASES = {
    "import lefschetz": (None, set(), False),
    "catalog list": ("catalog list", CATALOG, False),
    "catalog show": ("catalog show W1 --json", CATALOG, True),
    "catalog export": ("catalog export W2", CATALOG | {"mono"}, False),
    "verify": (
        "verify .bench-tmp/W1.mono",
        BASE | {"surface", "words", "factorization", "mono", "twists"}, False,
    ),
    "invariants": ("invariants --genus 3 --n 12 --s1 6 --hyperelliptic", BASE, True),
    "pi1": ("pi1 W1", CATALOG | {"fpgroup"}, False),
    "bounds g=2": ("bounds --genus 2", BASE | {"feasibility"}, False),
    "bounds g=4": ("bounds --genus 4 --json", BASE | {"feasibility"}, False),
    "enumerate": (
        "enumerate --genus 3 --max-fibers 18 --hyperelliptic", BASE | {"feasibility"}, True
    ),
}
# Commands that only count fibers build no curve.
COUNT_ONLY = ("invariants", "bounds g=2", "bounds g=4", "enumerate")


def loaded_modules(proc):
    """The module names ``SCRIPT`` wrote as its last stderr line, none of
    them ``UNLOADED``."""
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert not loaded & UNLOADED
    return loaded


def run_fresh(args, cwd):
    """``python *args`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60,
    )


@pytest.fixture(scope="module")
def refs():
    return json.loads(CLI_REFS.read_text())


@pytest.mark.parametrize("case", CASES)
def test_fresh_process_imports_and_output(case, refs, tmp_path):
    key, submodules, fractions = CASES[case]
    argv = key.split() if key else []
    if argv[:1] == ["verify"]:
        mono = tmp_path / argv[1]
        mono.parent.mkdir()
        mono.write_text(refs[f"catalog export {mono.stem}"]["stdout"])
    proc = run_fresh(["-c", SCRIPT, *argv], tmp_path)
    loaded = loaded_modules(proc)
    handlers = {m for m in loaded if m.startswith("lefschetz._cli_")}
    assert handlers == ({f"lefschetz._cli_{argv[0]}"} if argv else set())
    assert sorted(loaded - handlers) == sorted(
        {"lefschetz"} | {f"lefschetz.{name}" for name in submodules}
        | ({"fractions"} if fractions else set())
    )
    if case in COUNT_ONLY:
        assert not loaded & {"lefschetz.surface", "lefschetz.words"}
    if key is None:
        assert (proc.returncode, proc.stdout) == (0, "")
    else:
        assert (proc.returncode, proc.stdout) == (refs[key]["exit"], refs[key]["stdout"])


def test_pi1_of_a_mono_file_loads_mono_and_prints_the_entry_result(refs, tmp_path):
    # The one pi1 path that parses a file: only the label line differs.
    (tmp_path / "W1.mono").write_text(refs["catalog export W1"]["stdout"])
    proc = run_fresh(["-c", SCRIPT, "pi1", "W1.mono"], tmp_path)
    assert loaded_modules(proc) == {"lefschetz", "lefschetz._cli_pi1"} | {
        f"lefschetz.{name}" for name in CATALOG | {"fpgroup", "mono"}
    }
    ref = refs["pi1 W1"]
    assert (proc.returncode, proc.stdout) == (
        ref["exit"], ref["stdout"].replace("of catalog entry W1:", "of W1.mono:", 1)
    )


# argv that argparse answers itself -> exit code and the start of stdout.
PARSER_ONLY = {
    "unknown subcommand": ("frobnicate", 2, ""),
    "missing option": ("enumerate --max-fibers 18 --hyperelliptic", 2, ""),
    "subcommand help": ("enumerate --help", 0, "usage: lefschetz enumerate "),
}


@pytest.mark.parametrize("case", PARSER_ONLY)
def test_parser_answers_load_no_handler_or_layer(case, tmp_path):
    argv, code, stdout = PARSER_ONLY[case]
    proc = run_fresh(["-c", SCRIPT, *argv.split()], tmp_path)
    assert proc.returncode == code
    assert proc.stdout.startswith(stdout) and bool(proc.stdout) == bool(stdout)
    assert loaded_modules(proc) == {"lefschetz", "lefschetz.cli", "lefschetz.invariants"}


def test_a_public_value_name_loads_neither_the_calculus_nor_fractions(tmp_path):
    proc = run_fresh(["-c", "import sys, lefschetz; lefschetz.Factorization; "
                            "print(*sorted(sys.modules))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "lefschetz.factorization" in loaded
    assert not loaded & {"lefschetz.twists", "fractions"}


def test_every_public_name_loads_neither_dataclasses_nor_inspect(tmp_path):
    proc = run_fresh(["-c", "import sys, lefschetz\n"
                            "for name in lefschetz.__all__: getattr(lefschetz, name)\n"
                            "print(*sorted(sys.modules))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    defining = {"surface", "factorization", "twists", "invariants", "fpgroup",
                "feasibility", "catalog", "mono", "words"}
    assert {f"lefschetz.{name}" for name in defining} <= loaded
    assert not loaded & UNLOADED
