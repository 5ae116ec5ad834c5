"""Benchmark of the lefschetz library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``enumerate`` (feasibility enumerator and
bounds), ``monodromy`` (.mono parsing, transvection products, Hurwitz
moves), ``groups`` (coset enumeration and Smith form) and ``cli`` (the
README commands as subprocesses).  Load is one closed-loop client in one
process.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
jobs_per_s, latency_p50_ms, latency_p90_ms, setup_s (median of
``SETUP_SAMPLES`` fresh processes) and peak_rss_mb.  Times are scaled by a
calibration loop run beside the work (``harness.CAL_REF_S``), which takes
out the shared host's drift in speed; the unscaled figures are printed on
a comment line.  failed_frac is
printed on the lines above it; in the JSON it is ``failed`` over
``attempted``.  With ``--trace 1`` a separate traced run prints the
per-layer metrics and the tracing overhead.  ``--smoke`` runs tiny decks
for the benchmark's own tests.

Every job's answer is checked; ``correct`` is false if any job failed.
The exit code is non-zero, with no result line, if the run itself cannot
be made (for example when ``src/lefschetz`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# Metric names and units, in output order, come from the benchmark's spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def worker(cfg: dict, timeout: float) -> dict:
    """Run harness.py in a fresh process and return its result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), json.dumps(cfg)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def percentiles(latencies: list[float]) -> tuple[float, float, int]:
    """Median and p90 in ms, and how many samples lie beyond p90."""
    ms = [x * 1000.0 for x in latencies]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return p50, p90, sum(1 for x in ms if x > p90)


def machine_line() -> str:
    return (f"# machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"({platform.python_implementation()}) platform={sys.platform}")


def end_to_end(cfg: dict, seconds: int) -> tuple[dict, dict]:
    setup_runs = [worker(dict(cfg, setup_only=True), 20)
                  for _ in range(1 if cfg["smoke"] else SETUP_SAMPLES - 1)]
    out = worker(cfg, 2 * seconds + 60)
    setup_runs.append(out)
    raw = out["latencies"]
    lat = [x * s for x, s in zip(raw, out["scales"])]
    p50, p90, beyond = percentiles(lat)
    raw50, raw90, _ = percentiles(raw)
    values = {
        "jobs_per_s": (out["attempted"] - out["failed"]) / sum(lat),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    print(machine_line())
    print(f"# workload {cfg['workload']}: closed loop, one client, {out['decks']} decks, "
          f"{out['attempted']} jobs in {out['wall_s']:.2f} s wall")
    print(f"# latency samples={len(lat)} (p50 and p90 over all; {beyond} beyond p90); "
          f"setup samples={len(setup_runs)}")
    print(f"# times scaled to calibration speed: machine at {statistics.median(out['scales']):.3f}x "
          f"(median over decks); unscaled jobs_per_s "
          f"{(out['attempted'] - out['failed']) / sum(raw):.4f}, p50 {raw50:.4f} ms, "
          f"p90 {raw90:.4f} ms, setup_s "
          f"{statistics.median(r['setup_raw_s'] for r in setup_runs):.4f}")
    for name, unit in END_TO_END.items():
        print(f"{name:16s} {values[name]:12.4f} {unit}")
    print(f"{'failed_frac':16s} {out['failed'] / out['attempted']:12.4f} ratio "
          f"({out['failed']} of {out['attempted']})")
    return values, out


def traced(cfg: dict, seconds: int) -> tuple[dict, dict]:
    out = worker(cfg, 2 * seconds + 100)
    layers = out["layers"]
    plain50, plain90, _ = percentiles(out["plain_latencies"])
    trace50, trace90, _ = percentiles(out["traced_latencies"])
    print(machine_line())
    print(f"# workload {cfg['workload']} traced: {out['decks']} decks, each run untraced "
          f"then traced; {out['spans']} spans kept in memory")
    print(f"# tracing overhead: {layers['trace.overhead_pct']:+.2f}% summed job time; "
          f"p50 {plain50:.3f} -> {trace50:.3f} ms, p90 {plain90:.3f} -> {trace90:.3f} ms "
          f"(samples {len(out['plain_latencies'])} each)")
    print(f"# busy_ms values are self times over set-up, the traced decks and the probes; "
          f"traced job time {out['traced_ms']:.1f} ms, of it outside any layer "
          f"{out['job_self_ms']:.1f} ms")
    print("# invariants and surface run only inside the calls above; they get no "
          "numbers of their own")
    for name, unit in PER_LAYER.items():
        print(f"{name:32s} {layers[name]:14.4f} {unit}")
    return layers, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny decks and one set-up sample, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lefschetz" / "__init__.py").is_file():
        print(f"error: no lefschetz package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cfg = {
        "root": str(ROOT), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "setup_only": False,
    }
    if args.trace:
        values, out = traced(cfg, args.seconds)
        specs = PER_LAYER
    else:
        values, out = end_to_end(cfg, args.seconds)
        specs = END_TO_END
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
