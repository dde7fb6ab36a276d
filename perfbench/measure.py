"""Child processes timed from outside, and the statistics reported on them.

Run as a script, this module is the spawner: a small helper process that
reads one JSON request per line on stdin, runs that child and answers
with its measurements. Children must not be started by the benchmark
process itself. Linux starts a child's ``ru_maxrss`` at the resident
size of the process it was forked from, so every child of a process
holding numpy, scipy and the benchmark's inputs would report at least
that size. The spawner is a fresh, small interpreter, so its children
report their own peak.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class ChildRun:
    """One finished child process, measured by its parent."""

    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict[str, str], stdout_path: str) -> ChildRun:
    """Start ``argv``, wait for it and read its own rusage via ``os.wait4``.

    ``os.wait4`` returns the resources of exactly this child. The
    alternative, ``getrusage(RUSAGE_CHILDREN)``, keeps ``ru_maxrss`` as a
    maximum over every child reaped so far, so a small child run after a
    large one would report the large one's peak.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # The child is reaped; tell Popen so it does not try again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
    )


class Spawner:
    """Runs children through the spawner process (see the module docstring)."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def run(self, argv: list[str], env: dict[str, str], stdout_path: Path) -> tuple[ChildRun, bytes]:
        """Run one child; return its measurements and what it wrote to stdout."""
        request = {"argv": argv, "env": env, "stdout": str(stdout_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        return ChildRun(**json.loads(line)), stdout_path.read_bytes()

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50/p75/p90/p95/p99/p99.9 with ten samples or more beyond it.

    Nearest rank: pXX is the ceil(XX% of n)-th smallest value. None when
    there are fewer than 20 samples, so not even the median has ten
    beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    levels = (("p50", 500), ("p75", 750), ("p90", 900), ("p95", 950), ("p99", 990), ("p99.9", 999))
    for name, permille in levels:
        rank = -(-permille * n // 1000)
        if n - rank >= 10:
            best = name, ordered[rank - 1]
    return best


def summary(values: list[float]) -> str:
    """Median, tail percentile (or maximum) and sample count, for the log lines."""
    tail = tail_percentile(values)
    tail_text = f"{tail[0]} {tail[1]:.4f}" if tail else f"max {max(values):.4f}"
    return f"median {statistics.median(values):.4f}  {tail_text}  n={len(values)}"


if __name__ == "__main__":
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(asdict(run_child(req["argv"], req["env"], req["stdout"]))), flush=True)
