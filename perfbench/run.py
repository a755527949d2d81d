"""avoidpairs benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  One single-threaded client runs the
workload's seeded rounds of calls in a closed loop: each call is a fresh
``python -m avoidpairs.cli`` process, started only after the previous one has
ended and been checked.  A new round starts only while it is expected to end
within ``--seconds``.  Stdout of each call goes to a file that is checked
after the call's timing stops (checks.py).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` each
round is replayed in-process in two fresh interpreters, traced and untraced
(tracer.py), and the per-layer metrics are printed.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_call
from tracer import LAYER_UNITS
from workloads import ROUNDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SPAWNS = 15
RUN_LIMIT_S = 150  # every child is killed by then, so a run ends within 180 s
SETUP_CODE = "import os\nfrom avoidpairs.cli import build_parser\nbuild_parser()\nos.write(1, b'r')\n"

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_per_s": "1/s",
    "queries_per_s": "1/s",
}


class Harness:
    """Runs the child processes of one benchmark run and owns its work
    directory.  CLI children are started by launcher.py, so their peak RSS
    is their own and not this process's."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.start = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "AVOID_THREADS"}
        self.env["PYTHONPATH"] = SRC
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def _timeout(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.start))

    def _launch(self, request: dict) -> dict:
        self.launcher.stdin.write(json.dumps({**request, "timeout": self._timeout()}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def setup_times(self, spawns: int) -> list[float]:
        """Spawn-to-parser-ready of fresh interpreters: import avoidpairs.cli
        plus build_parser(), timed until the child writes one byte."""
        times = []
        for _ in range(spawns):
            reply = self._launch({"setup": SETUP_CODE})
            if reply["code"] != 0:
                raise RuntimeError(f"set-up child exited {reply['code']} before parser-ready")
            times.append(reply["wall"])
        return times

    def cli_call(self, call: dict, sink: str) -> dict:
        """One CLI call in a fresh process; stdout to a file, checked after timing."""
        reply = self._launch({"argv": call["argv"], "stdout": sink})
        with open(sink, "rb") as fh:
            stdout = fh.read()
        os.unlink(sink)
        return {"wall": reply["wall"], "rss_kb": reply["rss_kb"],
                "records": stdout.count(b"\n"),
                "problems": check_call(call, reply["code"], stdout)}

    def replay(self, calls: list[dict], traced: bool, tag: str) -> dict:
        """One round in-process in a fresh interpreter (tracer.py)."""
        calls_path = os.path.join(self.workdir, f"{tag}.calls.json")
        result_path = os.path.join(self.workdir, f"{tag}.result.json")
        sink_prefix = os.path.join(self.workdir, f"{tag}.")
        with open(calls_path, "w") as fh:
            json.dump(calls, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), calls_path,
                        result_path, sink_prefix, "1" if traced else "0"],
                       stdout=subprocess.DEVNULL, env=self.env, cwd=ROOT,
                       timeout=self._timeout(), check=True)
        with open(result_path) as fh:
            result = json.load(fh)
        result["call_problems"] = []
        for i, (call, exit_code) in enumerate(zip(calls, result["codes"])):
            sink = f"{sink_prefix}{i}.out"
            with open(sink, "rb") as fh:
                result["call_problems"].append(check_call(call, exit_code, fh.read()))
            os.unlink(sink)
        return result


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, inclusive linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_rounds(harness: Harness, rng: random.Random, golden: dict, workload: str,
               seconds: float, body) -> int:
    """Run body(round_index, calls) for seeded rounds while the next round is
    expected to end within `seconds`; return the number of rounds run."""
    t0 = time.monotonic()
    durations: list[float] = []
    while True:
        calls = ROUNDS[workload](rng, golden, harness.workdir)
        r0 = time.monotonic()
        body(len(durations), calls)
        durations.append(time.monotonic() - r0)
        if time.monotonic() - t0 + statistics.median(durations) > seconds:
            return len(durations)


def run_e2e(harness: Harness, rng, golden: dict, workload: str, seconds: float):
    setup = harness.setup_times(SETUP_SPAWNS)
    rounds: list[list[dict]] = []

    def body(index: int, calls: list[dict]) -> None:
        rounds.append([harness.cli_call(call, os.path.join(harness.workdir, f"call{index}.{i}.out"))
                       for i, call in enumerate(calls)])

    run_rounds(harness, rng, golden, workload, seconds, body)
    results = [r for rnd in rounds for r in rnd]
    lat = [r["wall"] for r in results]
    busy = sum(lat)
    # Gated timings are ratios of totals: per-call wall time drifts by up to
    # 25% over 10-30 s on a small shared machine, and within a run the calls
    # split between a fast and a slow mode, where a median jumps between the
    # modes while a mean moves with their mix.
    metrics = {
        "wall_s": busy / len(rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
        "records_per_s": sum(r["records"] for r in results) / busy,
        "queries_per_s": len(results) / busy,
    }
    samples = {name: len(results) for name in metrics}
    samples.update(wall_s=len(rounds), setup_s=len(setup))
    problems = [p for r in results for p in r["problems"]]
    failed = sum(1 for r in results if r["problems"])
    latency = {}
    for name, p in (("latency_p50_s", 50), ("latency_p90_s", 90)):
        value = percentile(lat, p)
        latency[name] = {"value": value, "unit": "s", "samples": len(lat),
                         "samples_beyond": sum(1 for x in lat if x > value)}
    return metrics, E2E_UNITS, samples, len(results), failed, problems, {"latency": latency}


def run_trace(harness: Harness, rng, golden: dict, workload: str, seconds: float):
    per_round: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    absent: set[str] = set()
    absent_wrappers: set[str] = set()

    def body(index: int, calls: list[dict]) -> None:
        nonlocal attempted, failed
        traced = harness.replay(calls, True, f"traced{index}")
        untraced = harness.replay(calls, False, f"untraced{index}")
        layers = traced["layers"]
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        per_round.append(layers)
        absent.update(traced["absent"])
        absent_wrappers.update(traced["absent_wrappers"])
        for result in (traced, untraced):
            attempted += len(calls)
            failed += sum(1 for p in result["call_problems"] if p)
            problems.extend(result["errors"])
            problems.extend(p for ps in result["call_problems"] for p in ps)

    run_rounds(harness, rng, golden, workload, seconds, body)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in LAYER_UNITS}
    samples = {name: len(per_round) for name in metrics}
    extra = {"absent": sorted(absent), "absent_wrappers": sorted(absent_wrappers)}
    return metrics, LAYER_UNITS, samples, attempted, failed, problems, extra


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "avoidpairs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    load1 = os.getloadavg()[0]
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    harness = Harness(workdir)
    try:
        runner = run_trace if trace else run_e2e
        metrics, units, samples, attempted, failed, problems, extra = runner(
            harness, random.Random(seed), golden, workload, seconds)
    finally:
        harness.close()
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_sha": git_sha(),
        "src_sha256": source_digest(), "loadavg_1m_start": load1,
        "samples": samples, "error_rate": failed / attempted if attempted else 0.0,
        "problems": problems[:20], **extra,
    }
    return {
        "meta": meta,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def print_report(run: dict) -> None:
    meta, result = run["meta"], run["result"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={meta['error_rate']:.4g}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']:6s} n={meta['samples'][name]}")
    for name, m in meta.get("latency", {}).items():
        print(f"{name + ' (not gated)':32s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['samples']} beyond={m['samples_beyond']}")
    for problem in meta["problems"]:
        print(f"! {problem}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*ROUNDS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "avoidpairs", "cli.py")):
        print(f"error: no avoidpairs package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    names = list(ROUNDS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), golden)
        print_report(run)
        runs.append(run)
    if len(runs) == 1:
        final = runs[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['meta']['workload']}.{k}": v for r in runs
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps({"meta": [r["meta"] for r in runs]}))
    print(json.dumps(final))
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
