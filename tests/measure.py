"""Run a call in a fresh interpreter, read its peak RSS, or trace its peak.

A child is `python <args>` in a new interpreter, with the checkout's src
first on PYTHONPATH, one at a time, each under a 60 s wall-time limit.  Any
RLIMIT_AS is set in the child only (preexec_fn: the tests start no thread).
pytest does not collect this module.
"""

import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT = 60  # seconds, per child

# runs `python <argv>` with stdout to /dev/null and prints its exit code and
# ru_maxrss: a child's ru_maxrss starts at its spawner's high-water mark, so a
# small launcher, not the test process, spawns the measured child
_LAUNCHER = ("import resource, subprocess, sys\n"
             "code = subprocess.run([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL,\n"
             f"                      timeout={TIMEOUT}).returncode\n"
             "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")


def child(*args: str, address_space: int | None = None) -> tuple[int, str, str]:
    """`python <args>` in a new interpreter: (exit code, stdout, stderr).
    address_space, if given, is the child's RLIMIT_AS in bytes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=TIMEOUT,
                          preexec_fn=limit)
    return done.returncode, done.stdout, done.stderr


def fresh(code: str, *argv: str) -> str:
    """stdout of `python -c code argv`, which must exit 0 and write no stderr."""
    returncode, out, err = child("-c", code, *argv)
    assert (returncode, err) == (0, ""), err
    return out


def peak_rss(*args: str) -> tuple[int, int]:
    """`python <args>` with stdout to /dev/null, which must write no stderr:
    (exit code, ru_maxrss in kB)."""
    code, rss = fresh(_LAUNCHER, *args).split()
    return int(code), int(rss)


def traced(call, *args):
    """call(*args) under tracemalloc: (its value, seconds taken, traced peak in bytes)."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value = call(*args)
        seconds = time.perf_counter() - start
        return value, seconds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
