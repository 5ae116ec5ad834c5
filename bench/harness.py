"""One benchmark process: set-up, then the closed loop or the traced run.

``run.py`` starts this file as a fresh process, once per set-up sample and
once for the measurement, with one JSON argument::

    {"root": ..., "workload": ..., "seed": ..., "seconds": ...,
     "trace": 0 | 1, "smoke": bool, "setup_only": bool}

It prints one JSON object on its last stdout line.

Set-up, timed as ``setup_s`` from the start of this file (interpreter
start-up is not in it) and scaled by the calibration loop run right after
it (see ``CAL_REF_S``), is: ``import lefschetz`` from the checkout's
``src``, one small call into every layer (this builds the lru-cached
catalog, and pays every module's first-call cost before timing), the
workload's input generation, and a warm-up of a few jobs.

Closed loop, one client: each job starts after the previous one and its
answer check finish.  Whole decks run until ``seconds`` have passed and at
least ``MIN_SAMPLES`` jobs are done, so at least ten samples lie beyond
p90.  Only the job itself is timed; throughput is jobs over the summed job
time, so deck generation and answer checks are left out.  Before each job,
untimed calibration passes measure the machine's speed; job times are
scaled by it per deck (see ``CAL_REF_S``), and the raw times are kept.

The traced run makes a fixed number of decks, set from ``seconds`` and the
workload's nominal deck time, and runs each deck twice: untraced, then
traced.  The difference of the two passes is the tracing overhead.  It
then times fresh-process probes: a bare interpreter, ``import lefschetz``
and one CLI command.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

_START = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, cli_env  # noqa: E402

MIN_SAMPLES = 110
PROBE_REPEATS = 5

# The calibration loop: fixed pure-Python integer and list work that never
# touches lefschetz and allocates no containers, so the program under test
# cannot change its time; only the machine's speed at that moment can.
# Measured times are scaled by CAL_REF_S over its mean time, measured
# interleaved with the work, so figures read as on a machine where one pass
# takes CAL_REF_S (the quiet speed of a 2-vCPU VM running CPython 3.11).
# On a shared 2-vCPU host the raw job times drifted by 30-70% over minutes
# while the scaled ones moved by under a tenth.
CAL_LOOPS = 5000
CAL_REF_S = 0.0006
CAL_PASSES = 3
SETUP_CAL_PASSES = 30
CAL_TABLE = [(k * 2654435761) % 1000003 for k in range(256)]

TORUS = (
    "genus 1\nboundary 0\n"
    "curve a kind nonsep hom 1 0\ncurve b kind nonsep hom 0 1\n"
    + "twist a\ntwist b\n" * 6
    + "target identity\n"
)


def import_library(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import lefschetz

    if Path(lefschetz.__file__).resolve().parent != (src / "lefschetz").resolve():
        raise SystemExit(f"imported lefschetz from {lefschetz.__file__}, not from {src}")
    return lefschetz


def prime(tr) -> None:
    """One small call into every layer."""
    from lefschetz.catalog import load_catalog, pi1_presentation
    from lefschetz.cli import main
    from lefschetz.feasibility import ConstraintProfile, enumerate_feasible, min_fiber_bounds
    from lefschetz.fpgroup import GroupPresentation, abelianization, todd_coxeter
    from lefschetz.mono import parse_mono, serialize_mono
    from lefschetz.twists import factorization_matrix, hurwitz_move
    from lefschetz.words import parse_word

    tr.call("catalog.load", load_catalog)
    tr.call("catalog.presentation", pi1_presentation, "W2")
    rows = tr.call("feasibility.enumerate", enumerate_feasible, ConstraintProfile(2, 10))
    tr.count("feasibility.enumerate.calls")
    tr.count("feasibility.enumerate.rows", len(rows))
    tr.call("feasibility.bounds", min_fiber_bounds, 1)
    rels = tuple(tr.call("words.parse", parse_word, r) for r in ("s s", "t t", "s t s t s t"))
    s3 = GroupPresentation(("s", "t"), rels)
    result = tr.call("fpgroup.coset", todd_coxeter, s3)
    tr.count("fpgroup.coset.cosets_defined", result.cosets_defined)
    tr.count("fpgroup.coset.closed_order", result.order)
    tr.count("fpgroup.coset.closed_defined", result.cosets_defined)
    tr.call("fpgroup.smith", abelianization, s3)
    f = tr.call("mono.parse", parse_mono, TORUS)
    tr.count("mono.parse.bytes", len(TORUS))
    m = tr.call("twists.product", factorization_matrix, f)
    tr.count("twists.product.letters", len(f.letters))
    tr.peak("twists.product.max_entry_bits", max(abs(x) for row in m for x in row).bit_length())
    moved = tr.call("twists.hurwitz", hurwitz_move, f, 1)
    tr.count("twists.hurwitz.moves")
    tr.call("mono.serialize", serialize_mono, moved)
    with redirect_stdout(io.StringIO()):
        tr.call("cli.main", main, ["catalog", "list"])


def set_up(cfg: dict, tr):
    root = Path(cfg["root"])
    import_library(root)
    prime(tr)
    wl = WORKLOADS[cfg["workload"]](root, cfg["seed"], cfg["smoke"])
    wl.setup(tr)
    for job in wl.warmup():
        try:
            wl.run(job, tr)
        except Exception:  # the timed loop counts failures; warm-up only warms
            pass
    return wl


def run_job(wl, job, tr, log) -> tuple[float, bool]:
    """Time one job, then check it outside the timed span."""
    start = time.perf_counter()
    try:
        result = tr.call("job", wl.run, job, tr)
    except Exception:
        elapsed = time.perf_counter() - start
        log(f"job {job!r:.120} raised:\n{traceback.format_exc()}")
        return elapsed, False
    elapsed = time.perf_counter() - start
    try:
        ok = wl.check(job, result)
    except Exception:
        log(f"check of job {job!r:.120} raised:\n{traceback.format_exc()}")
        ok = False
    return elapsed, ok


class Log:
    """Writes at most a few failure reports to stderr."""

    def __init__(self, limit: int = 3):
        self.left = limit

    def __call__(self, text: str) -> None:
        if self.left > 0:
            self.left -= 1
            print(text, file=sys.stderr)


def calibrate() -> float:
    """Time one pass of the calibration loop, in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc = (acc + CAL_TABLE[(i + acc) & 255] * i) % 1000003
    return time.perf_counter() - start


def closed_loop(wl, seconds: float, min_samples: int) -> dict:
    """Whole decks, each job preceded by CAL_PASSES untimed calibration passes.

    ``scales`` holds, for each job, CAL_REF_S over the mean calibration
    time of its deck.
    """
    tr = NullTracer()
    log = Log()
    latencies: list[float] = []
    scales: list[float] = []
    failed = 0
    start = time.perf_counter()
    d = 0
    while True:
        cals = []
        for job in wl.deck(d):
            cals += [calibrate() for _ in range(CAL_PASSES)]
            elapsed, ok = run_job(wl, job, tr, log)
            latencies.append(elapsed)
            failed += not ok
        scales += [CAL_REF_S / statistics.fmean(cals)] * (len(latencies) - len(scales))
        d += 1
        if time.perf_counter() - start >= seconds and len(latencies) >= min_samples:
            break
    return {
        "latencies": latencies,
        "scales": scales,
        "attempted": len(latencies),
        "failed": failed,
        "decks": d,
        "wall_s": time.perf_counter() - start,
    }


def probe_ms(argv, root: Path, repeats: int) -> float:
    env = cli_env(root)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, cwd=root, env=env, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def traced_run(wl, tr: Tracer, cfg: dict) -> dict:
    root = Path(cfg["root"])
    decks = 1 if cfg["smoke"] else max(1, round(cfg["seconds"] / (2 * wl.nominal_deck_s)))
    log = Log()
    null = NullTracer()
    plain: list[float] = []
    traced: list[float] = []
    failed = 0
    for d in range(decks):
        jobs = wl.deck(d)
        for job in jobs:
            elapsed, ok = run_job(wl, job, null, log)
            plain.append(elapsed)
            failed += not ok
        tr.watch_gc(True)
        try:
            for i, job in enumerate(jobs):
                tr.job = f"{d}.{i}"
                elapsed, ok = run_job(wl, job, tr, log)
                traced.append(elapsed)
                if not wl.after_traced(job, tr):
                    ok = False
                failed += not ok
        finally:
            tr.watch_gc(False)

    tr.job = "probe"
    repeats = 1 if cfg["smoke"] else PROBE_REPEATS
    py = sys.executable
    bare_ms = probe_ms([py, "-c", "pass"], root, repeats)
    import_ms = probe_ms([py, "-c", "import lefschetz"], root, repeats)
    env = cli_env(root)
    for _ in range(repeats):
        tr.call("cli.process", subprocess.run, [py, "-m", "lefschetz", "catalog", "list"],
                cwd=root, env=env, capture_output=True, timeout=60)

    busy = tr.self_ms()
    counts = tr.counts
    closed_defined = counts["fpgroup.coset.closed_defined"]
    layers = {
        "feasibility.enumerate.busy_ms": busy["feasibility.enumerate"],
        "feasibility.enumerate.calls": counts["feasibility.enumerate.calls"],
        "feasibility.enumerate.rows": counts["feasibility.enumerate.rows"],
        "feasibility.bounds.busy_ms": busy["feasibility.bounds"],
        "twists.product.busy_ms": busy["twists.product"],
        "twists.product.letters": counts["twists.product.letters"],
        "twists.product.max_entry_bits": tr.peaks.get("twists.product.max_entry_bits", 0),
        "twists.hurwitz.busy_ms": busy["twists.hurwitz"],
        "twists.hurwitz.moves": counts["twists.hurwitz.moves"],
        "mono.parse.busy_ms": busy["mono.parse"],
        "mono.parse.bytes": counts["mono.parse.bytes"],
        "mono.serialize.busy_ms": busy["mono.serialize"],
        "words.parse.busy_ms": busy["words.parse"],
        "fpgroup.coset.busy_ms": busy["fpgroup.coset"],
        "fpgroup.coset.cosets_defined": counts["fpgroup.coset.cosets_defined"],
        "fpgroup.coset.exceeded": counts["fpgroup.coset.exceeded"],
        "fpgroup.coset.useful_ratio": (
            counts["fpgroup.coset.closed_order"] / closed_defined if closed_defined else 0.0
        ),
        "fpgroup.smith.busy_ms": busy["fpgroup.smith"],
        "catalog.presentation.busy_ms": busy["catalog.presentation"],
        "catalog.load.busy_ms": busy["catalog.load"],
        "cli.interpreter_ms": bare_ms,
        "cli.import_ms": import_ms - bare_ms,
        "cli.main.busy_ms": busy["cli.main"],
        "cli.process.busy_ms": busy["cli.process"],
        "python.gc.busy_ms": busy["python.gc"],
        "trace.overhead_pct": (sum(traced) / sum(plain) - 1.0) * 100.0,
    }
    return {
        "layers": layers,
        "job_self_ms": busy["job"],
        "traced_ms": sum(traced) * 1000.0,
        "plain_latencies": plain,
        "traced_latencies": traced,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "decks": decks,
        "spans": len(tr.spans),
    }


def main(cfg: dict) -> dict:
    tr = Tracer() if cfg["trace"] else NullTracer()
    if cfg["trace"]:
        tr.job = "setup"
        tr.watch_gc(True)
    try:
        wl = set_up(cfg, tr)
    finally:
        if cfg["trace"]:
            tr.watch_gc(False)
    setup_raw = time.perf_counter() - _START
    cal = statistics.fmean(calibrate() for _ in range(SETUP_CAL_PASSES))
    out = {"setup_s": setup_raw * CAL_REF_S / cal, "setup_raw_s": setup_raw}
    if cfg["setup_only"]:
        wl.close()
        return out
    try:
        if cfg["trace"]:
            out.update(traced_run(wl, tr, cfg))
        else:
            out.update(closed_loop(wl, cfg["seconds"], 1 if cfg["smoke"] else MIN_SAMPLES))
    finally:
        wl.close()
    who = resource.RUSAGE_CHILDREN if cfg["workload"] == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
