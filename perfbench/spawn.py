"""Run one CLI process and report what it cost, as one JSON line on stdout.

    python3 spawn.py run TIMEOUT STDOUT STDERR -- CMD...
        {"code": 0, "wall_s": 2.1, "cpu_s": 2.0, "rss_mb": 33.8}
    python3 spawn.py probe TIMEOUT FIFO -- CMD...
        {"setup_s": 0.14}        (null if CMD never opened FIFO)

The benchmark starts every measured process through this small, freshly
started interpreter instead of spawning it itself. Linux charges a child
the peak resident set of the process it was spawned from (the memory it
had before exec), so a child of the benchmark, which holds the generated
inputs and the trace spans, would report the benchmark's peak rather than
its own.
"""
from __future__ import annotations

import errno
import json
import os
import select
import subprocess
import sys
import time


def run(timeout: float, stdout: str, stderr: str, cmd: list[str]) -> dict:
    """Wall, CPU and peak memory of ``cmd``, reaped the moment it exits."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode if ready else None,  # None: timed out
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def probe(timeout: float, fifo: str, cmd: list[str]) -> dict:
    """Seconds from spawning ``cmd`` until it opens ``fifo`` for reading.

    Opening a FIFO for writing without blocking fails until a reader has
    it open, so the first successful open marks the moment ``cmd`` starts
    on its input. ``cmd`` is then killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    fd = None
    try:
        while fd is None:
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                if exc.errno != errno.ENXIO:
                    raise
                if proc.poll() is not None or time.perf_counter() - start > timeout:
                    return {"setup_s": None}
                time.sleep(0.0002)
        return {"setup_s": time.perf_counter() - start}
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if fd is not None:
            os.close(fd)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    (mode, timeout, *paths), cmd = argv[:split], argv[split + 1:]
    report = run(float(timeout), *paths, cmd) if mode == "run" else probe(
        float(timeout), *paths, cmd)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
