"""Source mutants that named tests must kill, and a runner that checks it.

Each record is one text replacement in one module of ``src/lefschetz``:
its ``old`` text must occur exactly once there, and the tests in ``kills``
are expected to fail once it reads ``new``.  ``tests/test_package.py``
checks the cheap half on every run: each old text occurs exactly once in
today's source and each killing test exists, so a rewrite of the target
fails loudly instead of leaving a stale record.

The runner, from a checkout::

    python tests/mutants.py

copies ``src``, ``tests``, ``bench`` and ``pyproject.toml`` to a temporary
directory (tests that find the source from their own path then read the
copy too), applies one record there, and runs only its tests in a fresh
``pytest -x`` process with ``PYTHONPATH`` on the copy.  A record is killed
only when one of its tests fails; a collection or usage error does not
count.  It prints one line a record and the total time, and exits 1 unless
every record was killed.  A record that survives is a finding: it is
never deleted or weakened to get a pass.  A change that rewrites a
record's target restates the record.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # a module of src/lefschetz
    old: str
    new: str
    kills: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = (
    Mutant(
        "coset-quick-columns-without-back-last", "fpgroup.py",
        "quick.update((xs[0], xs[-1] ^ 1))",
        "quick.update((xs[0],))",
        ("tests/test_fpgroup.py::test_pinned_coset_counters",
         "tests/test_fpgroup.py::test_random_enumerations_counters_digest"),
    ),
    Mutant(
        "coset-skip-with-a-length-1-relator", "fpgroup.py",
        "skips = all(last for _, _, last in relators)",
        "skips = True",
        ("tests/test_fpgroup.py::test_pinned_coset_counters",
         "tests/test_fpgroup.py::test_random_enumerations_counters_digest"),
    ),
    Mutant(
        "coset-scan-without-free-reduce", "fpgroup.py",
        "for reduced in map(free_reduce, p.relators):",
        "for reduced in p.relators:",
        ("tests/test_fpgroup.py::test_outcome_independent_of_relator_order_and_names",),
    ),
    Mutant(
        "pairing-sign-flipped", "surface.py",
        "total += x[i] * y[i + 1] - x[i + 1] * y[i]",
        "total += x[i + 1] * y[i] - x[i] * y[i + 1]",
        ("tests/test_surface.py::test_pairing_matches_matrix_form",
         "tests/test_surface.py::test_pair_coords_is_the_matrix_form"),
    ),
    Mutant(
        "product-bound-sign-blind", "twists.py",
        "entry = supports[a] = support, (top * total).bit_length()",
        "entry = supports[a] = support, (max(a) * sum(a)).bit_length()",
        ("tests/test_twists.py::test_product_at_field_boundaries",),
    ),
    Mutant(
        "product-signs-dropped", "twists.py",
        "twists.append((a, letter.sign))",
        "twists.append((a, 1))",
        ("tests/test_twists.py::test_verify_braid_word_on_genus_two",
         "tests/test_twists.py::test_factorization_matrix_matches_dense_reference"),
    ),
    Mutant(
        "w2-total-off-by-one", "feasibility.py",
        '("W2 (genus-4 hyperelliptic)", 24)',
        '("W2 (genus-4 hyperelliptic)", 25)',
        ("tests/test_feasibility.py::test_recorded_witnesses_match_their_catalog_entries",
         "tests/test_routes.py::test_routes_agree_wherever_two_run"),
    ),
    Mutant(
        "pi1-worded-count-with-surface-relator", "_cli_pi1.py",
        "carried = len(presentation.relators) - 1",
        "carried = len(presentation.relators)",
        ("tests/test_cli.py::test_pi1_mono_file",),
    ),
    Mutant(
        "pi1-enumerates-free-h1", "_cli_pi1.py",
        "if free_rank:",
        "if False:",
        ("tests/test_cli.py::test_pi1_infinite_skips_enumeration",),
    ),
    Mutant(
        "pi1-section-ignored", "_cli_pi1.py",
        "conclusive = order == 1 or (carried == distinct and sectioned)",
        "conclusive = order == 1 or carried == distinct",
        ("tests/test_cli.py::test_pi1_worded_without_a_section_describes_the_presented_group",),
    ),
    Mutant(
        "pi1-words-ignored", "_cli_pi1.py",
        "conclusive = order == 1 or (carried == distinct and sectioned)",
        "conclusive = order == 1 or sectioned",
        ("tests/test_cli.py::test_pi1_worded_with_a_section_decides_the_total_space",),
    ),
    Mutant(
        "record-eq-without-class-test", "invariants.py",
        "if other.__class__ is self.__class__:",
        "if True:",
        ("tests/test_records.py::test_record_semantics",),
    ),
    Mutant(
        "record-hash-drops-a-field", "invariants.py",
        "return hash(self._values())",
        "return hash(self._values()[1:])",
        ("tests/test_records.py::test_record_semantics",),
    ),
    Mutant(
        "record-setattr-assigns", "invariants.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ("tests/test_records.py::test_record_semantics",),
    ),
)


def _failures(report: Path) -> int:
    """Test cases with a ``failure`` element in a JUnit XML report."""
    return sum(case.find("failure") is not None
               for case in ET.parse(report).getroot().iter("testcase"))


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply one record to a copy of the checkout and run its tests."""
    start = time.perf_counter()
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for top in ("src", "tests", "bench"):
            shutil.copytree(ROOT / top, copy / top, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "lefschetz" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"STALE: old text occurs {text.count(mutant.old)} times", 0.0
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        report = copy / "report.xml"
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", f"--junitxml={report}",
             *mutant.kills],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        failed = _failures(report) if report.exists() else 0
    seconds = time.perf_counter() - start
    if code == 1 and failed:
        return "killed", seconds
    return ("SURVIVED" if code == 0 else f"ERROR: pytest exit {code}"), seconds


def main() -> int:
    start = time.perf_counter()
    outcomes = []
    for mutant in MUTANTS:
        outcome, seconds = run(mutant)
        outcomes.append(outcome)
        print(f"{mutant.id:45} {outcome} ({seconds:.1f} s)", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
