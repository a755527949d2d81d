"""Small process that starts, times and reaps the benchmark's CLI children.

Usage:  python3 perfbench/launcher.py   (driven by run.py over stdin/stdout)

Each request is one JSON line on stdin and gets one JSON line back:

* ``{"argv": [...], "stdout": PATH, "timeout": S}`` runs one child with its
  stdout sent to PATH and answers ``{"code", "wall", "rss_kb"}``, where
  ``rss_kb`` is that child's own peak RSS from ``os.wait4``;
* ``{"setup": CODE, "timeout": S}`` runs ``python -c CODE`` and answers
  ``{"code", "wall"}``, the time until the child wrote its first byte.

Why a separate process: a child starts as a copy of its parent's address
space, and Linux carries the parent's RSS high-water mark into the child's
``ru_maxrss`` through exec.  run.py grows while it checks large outputs, so
children spawned from it would report its peak instead of their own.  This
process stays small, below any CLI child's RSS.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def _reap(proc: subprocess.Popen, timeout: float):
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_call(req: dict) -> dict:
    with open(req["stdout"], "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "avoidpairs.cli", *req["argv"]],
                                stdout=out, stderr=subprocess.DEVNULL)
        code, usage = _reap(proc, req["timeout"])
        wall = time.perf_counter() - t0
    return {"code": code, "wall": wall, "rss_kb": usage.ru_maxrss}


def run_setup(req: dict) -> dict:
    rfd, wfd = os.pipe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", req["setup"]], stdout=wfd,
                            stderr=subprocess.DEVNULL)
    os.close(wfd)
    ready = os.read(rfd, 1)
    wall = time.perf_counter() - t0
    os.close(rfd)
    code, _ = _reap(proc, req["timeout"])
    return {"code": code if ready else -1, "wall": wall}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_setup(req) if "setup" in req else run_call(req)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
