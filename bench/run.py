"""Run one workload of the scoreline benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it measures the package in
``src/`` of the checkout that holds this file.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Working files, the spans of a traced run and a record
of every run go to ``bench/out/``.  See ``bench/README.md`` for what is
measured and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = OUT / "work"

# Set-up is timed in fresh interpreters, half before and half after the
# passes, so that one slow spell of the machine cannot hold every sample.
SETUP_SAMPLES = 6

# Counters that must repeat exactly for the same code and inputs.
DETERMINISTIC = (
    "search.types", "search.types_pruned", "search.lp_rows", "search.lp_cols",
    "lpcore.optimal", "lpcore.infeasible", "verify.ledger_entries",
    "profiles.pieces", "cli.output_bytes",
)

# The machine's speed drifts by a third and more over minutes, largely in
# step for all work, so timings are reported in units of this fixed job:
# small exact eliminations and a JSON dump, the kinds of work the program
# does.  Its median time in the run is taken in its own interpreter, which
# never imports scoreline, between passes.
REFERENCE = """
import json, random, sys, time
from fractions import Fraction

def job():
    rng = random.Random(1)
    total = Fraction(0)
    for _ in range(12):
        n = 6
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(n + 1)] for _ in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if a[r][c]), None)
            if p is None:
                continue
            a[c], a[p] = a[p], a[c]
            a[c] = [v / a[c][c] for v in a[c]]
            for r in range(n):
                if r != c and a[r][c]:
                    f = a[r][c]
                    a[r] = [v - f * w for v, w in zip(a[r], a[c])]
        total += sum(row[-1] for row in a)
    return json.dumps([{"i": i, "x": str(total / (i + 1))} for i in range(300)], indent=2)

for line in sys.stdin:
    started = time.perf_counter()
    for _ in range(10):
        job()
    print(time.perf_counter() - started, flush=True)
"""

# Set-up in a fresh interpreter: import the package and build the inputs.
PROBE = """
import sys, time
from pathlib import Path
src, bench, name, seed, work = sys.argv[1:]
sys.path[:0] = [src, bench]
import workloads
started = time.perf_counter()
import scoreline.cli
workloads.WORKLOADS[name].make(int(seed), Path(work))
print(time.perf_counter() - started)
"""


@dataclass
class Pass:
    wall: float
    times: list[float]
    codes: list
    hashes: list[str]
    ends: list[int]  # where each item's output ends in the pass's file
    counters: dict[str, int]


def load_package():
    """Import scoreline from this checkout's src/, never from elsewhere."""
    if not (SRC / "scoreline" / "__init__.py").is_file():
        raise SystemExit(f"error: no scoreline sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scoreline.cli

    if Path(scoreline.__file__).resolve().parent != (SRC / "scoreline").resolve():
        raise SystemExit(f"error: scoreline was imported from {scoreline.__file__}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scoreline").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(name: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), name, str(seed), str(WORK)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return samples


class Reference:
    """The reference job's interpreter, alive for the whole run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", REFERENCE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self, at_least: float) -> None:
        """Time the job until at least ``at_least`` seconds are spent; once
        at minimum."""
        spent = 0.0
        while True:
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            self.samples.append(float(self._proc.stdout.readline()))
            spent += self.samples[-1]
            if spent >= at_least:
                return

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def run_pass(workloads, items, path: Path, tracer=None) -> Pass:
    """Every item once, stdout going to a file as it would from the CLI."""
    times, codes, ends = [], [], []
    with open(path, "w", encoding="utf-8") as out:
        root = tracer.open("bench.pass") if tracer else None
        started = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = workloads.run_item(item)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a program failure counts against the item
                traceback.print_exc()
                code = None
            times.append(time.perf_counter() - t0)
            codes.append(code)
            ends.append(out.tell())
        wall = time.perf_counter() - started
        if tracer:
            tracer.close(root)
    data = path.read_bytes()
    starts = [0] + ends[:-1]
    hashes = [hashlib.sha256(data[a:b]).hexdigest() for a, b in zip(starts, ends)]
    counters = {"cli.output_bytes": len(data)}
    if tracer:
        counters.update(tracer.counts)
        tracer.counts.clear()
    return Pass(wall, times, codes, hashes, ends, counters)


def run_phase(workloads, items, seconds: float, first: int, tracer=None,
              reference: Reference | None = None) -> list[Pass]:
    """Whole passes until the next one would end further from ``seconds``
    than stopping now; at least one.  Only the first pass's output is kept.
    The reference job runs before the passes and after each one, for at
    least a tenth of the pass."""
    passes: list[Pass] = []
    total = 0.0
    if reference:
        reference.measure(0.25)
    while True:
        path = OUT / f"pass-{first + len(passes)}.out"
        passes.append(run_pass(workloads, items, path, tracer))
        if first + len(passes) > 1:
            path.unlink()
        if reference:
            reference.measure(passes[-1].wall / 10)
        total += passes[-1].wall
        if total + passes[-1].wall / 2 >= seconds:
            return passes


def count_failures(workload, items, passes: list[Pass]) -> int:
    """Check the first pass's outputs in full; a later pass must reproduce
    them byte for byte."""
    data = (OUT / "pass-0.out").read_bytes()
    first = passes[0]
    ref = []
    start = 0
    for item, code, end in zip(items, first.codes, first.ends):
        failed = item.ops
        if code == 0:
            try:
                failed = workload.check(item, json.loads(data[start:end]))
            except Exception:  # a malformed document fails the item
                traceback.print_exc()
        ref.append(failed)
        start = end
    total = 0
    for p in passes:
        for item, code, digest, r, h in zip(items, p.codes, p.hashes, ref, first.hashes):
            total += r if (code == 0 and digest == h) else item.ops
    return total


def quantile(pairs, q: float) -> float:
    """Nearest-rank quantile of (value, weight) pairs."""
    pairs = sorted(pairs)
    target = q * sum(w for _, w in pairs)
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc >= target:
            return value
    return 0.0


def band_mean(pairs, lo: float, hi: float) -> float:
    """Mean of the (value, weight) pairs between two quantiles."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    a, b = lo * total, hi * total
    acc = mass = 0.0
    for value, weight in pairs:
        mass += value * max(0.0, min(acc + weight, b) - max(acc, a))
        acc += weight
    return mass / (b - a)


def end_to_end(items, passes, ref_s, setup_s, peak_rss_mib) -> tuple[dict, dict]:
    """Timings are medians over passes, so that a slow spell of the machine
    during one pass does not move them, and are divided by the reference
    job's median time ``ref_s``.  An operation's latency is its item's
    median time over the passes divided by the item's operations.  The
    median latency is estimated as the mean of the 40-60 % band, which is
    steadier than one order statistic where latencies are sparse.  Returns
    the metrics and the same timings in seconds."""
    ops = sum(item.ops for item in items)
    latencies = [
        (statistics.median(times) / item.ops, item.ops)
        for item, times in zip(items, zip(*(p.times for p in passes)))
    ]
    seconds = {
        "wall_s": statistics.median(p.wall for p in passes),
        "ops_per_s": statistics.median(ops / p.wall for p in passes),
        "op_p50_s": band_mean(latencies, 0.4, 0.6),
        "op_p90_s": quantile(latencies, 0.9),
        "ref_s": ref_s,
    }
    metrics = {
        "wall_ref": (seconds["wall_s"] / ref_s, "ref"),
        "setup_s": (setup_s, "s"),
        "ops_per_ref": (seconds["ops_per_s"] * ref_s, "1/ref"),
        "op_p50_ref": (seconds["op_p50_s"] / ref_s, "ref"),
        "op_p90_ref": (seconds["op_p90_s"] / ref_s, "ref"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return metrics, seconds


def per_layer(tracer, untraced: list[Pass], traced: list[Pass]) -> dict:
    layers = tracer.layers()
    n = len(traced)
    per_pass = traced[0].counters

    def self_s(name):
        return layers[name]["self_s"] / n if name in layers else 0.0

    def calls(name):
        return layers[name]["calls"] / n if name in layers else 0.0

    def count(name):
        return per_pass.get(name, 0)

    solved = count("lpcore.optimal") + count("lpcore.infeasible")
    solve_times = [(d, 1) for d in layers.get("lpcore.solve", {}).get("durations", [])]
    types = count("search.types")
    traced_wall = statistics.fmean(p.wall for p in traced)
    return {
        "lpcore.solve.self_s": (self_s("lpcore.solve"), "s"),
        "lpcore.solve.calls": (calls("lpcore.solve"), "count"),
        "lpcore.solve.p50_s": (quantile(solve_times, 0.5), "s"),
        "lpcore.solve.p90_s": (quantile(solve_times, 0.9), "s"),
        "lpcore.optimal": (count("lpcore.optimal"), "count"),
        "lpcore.infeasible": (count("lpcore.infeasible"), "count"),
        "lpcore.eq_ratio": (count("lpcore.eq") / solved if solved else 0.0, "ratio"),
        "search.build.self_s": (self_s("search.build"), "s"),
        "search.build.calls": (calls("search.build"), "count"),
        "search.lp_rows": (count("search.lp_rows"), "count"),
        "search.lp_cols": (count("search.lp_cols"), "count"),
        "search.enumerate.self_s": (self_s("search.enumerate"), "s"),
        "search.types": (types, "count"),
        "search.types_pruned": (count("search.types_pruned"), "count"),
        "analytic.prune.self_s": (self_s("analytic.prune"), "s"),
        "analytic.prune.calls": (calls("analytic.prune"), "count"),
        "analytic.kept_ratio": (calls("search.build") / types if types else 0.0, "ratio"),
        "search.find_ncne.self_s": (self_s("search.find_ncne"), "s"),
        "analytic.verdicts.self_s": (self_s("analytic.verdicts"), "s"),
        "verify.verify_profile.self_s": (self_s("verify.verify_profile"), "s"),
        "verify.verify_profile.calls": (calls("verify.verify_profile"), "count"),
        "verify.ledger_entries": (count("verify.ledger_entries"), "count"),
        "profiles.score_pieces.self_s": (self_s("profiles.score_pieces"), "s"),
        "profiles.score_pieces.calls": (calls("profiles.score_pieces"), "count"),
        "profiles.pieces": (count("profiles.pieces"), "count"),
        "rulekit.self_s": (self_s("rulekit"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.output_bytes": (count("cli.output_bytes"), "B"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.unattributed_s": (self_s("bench.pass"), "s"),
        "trace.overhead_s": (traced_wall - statistics.fmean(p.wall for p in untraced), "s"),
    }


def check_counters(name: str, digest: str, traced: list[Pass]) -> list[str]:
    """Deterministic counters must match between the passes of this run
    and every earlier run of the same code on the same inputs."""
    problems = []
    counters = {k: traced[0].counters.get(k, 0) for k in DETERMINISTIC}
    for p in traced[1:]:
        if {k: p.counters.get(k, 0) for k in DETERMINISTIC} != counters:
            problems.append("counters differ between passes of this run")
    store = OUT / "counters.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{name} inputs={digest} source={source_digest()}"
    if known.setdefault(key, counters) != counters:
        problems.append(f"counters differ from an earlier run: {known[key]} != {counters}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import inputs
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    setup = [] if args.trace else measure_setup(workload.name, args.seed, SETUP_SAMPLES // 2)
    items = workload.make(args.seed, WORK)
    workloads.write_files(items)
    digest = inputs.digest([item.key for item in items])

    problems = []
    seconds = {}
    if args.trace:
        untraced = run_phase(workloads, items, args.seconds / 2, 0)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            traced = run_phase(workloads, items, args.seconds / 2, len(untraced), tracer)
        finally:
            tracer.restore()
        passes = untraced + traced
        metrics = per_layer(tracer, untraced, traced)
        layers = tracer.layers()
        problems += [f"span {name} never fired" for name in workload.layers
                     if name not in layers]
        problems += check_counters(workload.name, digest, traced)
        tracer.dump(OUT / f"spans-{workload.name}.json.gz")
    else:
        reference = Reference()
        try:
            passes = run_phase(workloads, items, args.seconds, 0, reference=reference)
        finally:
            reference.close()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup(workload.name, args.seed, SETUP_SAMPLES - len(setup))
        metrics, seconds = end_to_end(items, passes, statistics.median(reference.samples),
                                      statistics.median(setup), peak_rss_mib)

    attempted = sum(item.ops for item in items) * len(passes)
    failed = count_failures(workload, items, passes)
    for problem in problems:
        print(f"flagged: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "inputs": digest, "source": source_digest(), "passes": len(passes),
              "problems": problems, "seconds": seconds, **result}
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"# {workload.name} seed={args.seed} inputs={digest} passes={len(passes)}",
          *(f"{k}={v:.6g}" for k, v in seconds.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
