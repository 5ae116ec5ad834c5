"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Smoke runs on tiny decks, failure counting with corrupted answers, the
reference files against an independent integer enumerator, and the
benchmark's own matrix arithmetic.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from harness import CAL_REF_S, calibrate, closed_loop  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Cli,
    Enumerate,
    Monodromy,
    chain_classes,
    chain_word,
    expected_rows,
    identity,
    load_enumerate_refs,
    own_is_symplectic,
    own_product,
    random_primitive,
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload):
    out = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == list(END_TO_END)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0


def test_traced_smoke_run_reports_every_layer_and_exact_counts():
    args = ("--workload", "monodromy", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["correct"] and list(first["metrics"]) == list(PER_LAYER)
    for name in PER_LAYER:
        if PER_LAYER[name] in ("count", "bits", "bytes"):
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["twists.hurwitz.moves"]["value"] > 0


def test_benchmark_json_names_the_workloads_and_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_a_result_when_the_library_is_missing():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-test-") as d:
        shutil.copy(ROOT / "BENCHMARK.json", d)
        shutil.copytree(BENCH, Path(d) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "enumerate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=Path(d))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tampered_reference_histogram_is_counted_as_failed():
    wl = Enumerate(ROOT, seed=1, smoke=True)
    wl.setup(NullTracer())
    for ref in wl.refs["rows"].values():
        ref["hist"]["congruence"] = ref["hist"].get("congruence", 0) + 1
    out = closed_loop(wl, seconds=0, min_samples=1)
    row_jobs = sum(1 for kind, _ in wl.slots() if kind == "rows")
    assert row_jobs > 0
    assert out["failed"] == row_jobs
    assert out["attempted"] == len(wl.slots())


def test_each_job_gets_the_calibration_scale_of_its_deck():
    wl = Monodromy(ROOT, seed=4, smoke=True)
    wl.setup(NullTracer())
    out = closed_loop(wl, seconds=0, min_samples=2 * len(wl.slots()) + 1)
    assert out["decks"] == 3
    scales = out["scales"]
    assert len(scales) == len(out["latencies"]) == out["attempted"]
    assert all(s > 0 for s in scales)
    per_deck = [set(scales[i:i + len(wl.slots())]) for i in range(0, len(scales), len(wl.slots()))]
    assert all(len(deck) == 1 for deck in per_deck)
    assert 0.05 < CAL_REF_S / calibrate() < 20


def test_matrix_with_one_entry_changed_is_counted_as_failed():
    wl = Monodromy(ROOT, seed=2, smoke=True)
    wl.setup(NullTracer())
    job = wl.deck(0)[0]
    matrix_ok, m, f, walked, again = wl.run(job, NullTracer())
    assert wl.check(job, (matrix_ok, m, f, walked, again))
    rows = [list(r) for r in m]
    rows[0][0] += 1
    bad = tuple(tuple(r) for r in rows)
    assert not wl.check(job, (matrix_ok, bad, f, walked, again))


def test_wrong_cli_output_or_exit_code_is_a_failure():
    wl = Cli(ROOT, seed=1, smoke=True)
    wl.refs = json.loads((BENCH / "refs" / "cli.json").read_text())
    argv = ("pi1", "W2")
    ref = wl.refs["pi1 W2"]
    assert wl.check(argv, (ref["exit"], ref["stdout"].encode()))
    assert not wl.check(argv, (ref["exit"] + 1, ref["stdout"].encode()))
    assert not wl.check(argv, (ref["exit"], ref["stdout"].encode() + b" "))


def independent_verdicts(g: int, bound: int):
    """The constraint chain in plain integers, sigma scaled by q = 2g + 1."""
    q = 2 * g + 1
    w = g // 2
    hist: Counter = Counter()
    pre_chi, admitted = [], []
    for n in range(bound):
        for s in product(range(bound - n), repeat=w):
            total = n + sum(s)
            if total >= bound or total == 0:
                continue
            sigma_q = -(g + 1) * n + sum((4 * h * (g - h) - q) * c for h, c in enumerate(s, 1))
            weighted = n + sum(2 * h * (4 * h + 2) * c for h, c in enumerate(s, 1))
            if n < 4 * g:
                verdict = "n-lower-bound"
            elif weighted % ((4 if g % 2 else 2) * q):
                verdict = "congruence"
            elif sigma_q % q:
                verdict = "sigma-integrality"
            elif sigma_q // q > n - sum(s) - 4 * g:
                verdict = "sigma-bound"
            else:
                chi4 = 4 - 4 * g + total + sigma_q // q
                verdict = "admitted" if chi4 % 4 == 0 and chi4 >= 4 else "chi-h"
            hist[verdict] += 1
            if verdict in ("admitted", "chi-h"):
                pre_chi.append([n, *s])
                if verdict == "admitted":
                    admitted.append([n, *s])
    return dict(hist), pre_chi, admitted


def test_enumerate_references_match_an_independent_integer_enumerator():
    refs = load_enumerate_refs()["rows"]
    assert len(refs) == 78
    for key, ref in refs.items():
        g, bound = map(int, key.split(","))
        hist, pre_chi, admitted = independent_verdicts(g, bound)
        assert sum(hist.values()) == expected_rows(g, bound)
        assert (hist, pre_chi, admitted) == (ref["hist"], ref["pre_chi"], ref["admitted"]), key


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_chain_relators_are_the_identity_in_own_arithmetic(g):
    for family in ("a", "b"):
        assert own_product(g, chain_classes(g), chain_word(g, family)) == identity(2 * g)


def test_own_product_agrees_with_the_library_and_is_symplectic():
    from lefschetz.mono import parse_mono
    from lefschetz.twists import factorization_matrix
    from workloads import render_mono

    rng = random.Random(7)
    for g in (2, 3, 5):
        classes = [random_primitive(g, rng) for _ in range(6)]
        word = [(rng.randrange(6), rng.choice((1, -1))) for _ in range(25)]
        ours = own_product(g, classes, word)
        assert ours == factorization_matrix(parse_mono(render_mono(g, "r", classes, word)))
        assert own_is_symplectic(ours)
        assert not own_is_symplectic(((2,) + ours[0][1:],) + ours[1:])


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.call("outer", lambda: tr.call("inner", sum, range(10000)))
    busy = tr.self_ms()
    outer, inner = [end - start for _sid, _n, start, end, _p, _j in sorted(tr.spans)]
    assert math.isclose(busy["outer"] + busy["inner"], outer * 1000.0)
    assert math.isclose(busy["inner"], inner * 1000.0)
