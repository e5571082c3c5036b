"""Runs one CLI command in a forked child, as one ``rfva`` invocation would.

The parent imports rfva but never calls it, so every child starts with the
module-level caches empty, whatever form they take: no cache is cleared by
name. Commands run one at a time; the parent waits for each child before it
forks the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass


@dataclass
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    trace: dict | None = None


def _child(argv, traced: bool) -> dict:
    from rfva import cli

    from .tracer import Tracer

    out, err = io.StringIO(), io.StringIO()
    tracer = Tracer() if traced else contextlib.nullcontext()
    with tracer, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        code = cli.run(list(argv))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.snapshot() if traced else None,
    }


def fork_call(fn, *args) -> tuple[dict | None, float]:
    """Runs fn(*args) in a forked child; returns (its JSON result, wall seconds).

    The result is None when the child fails; its traceback goes to stderr.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(fn(*args)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    if status != 0 or not data:
        return None, elapsed
    return json.loads(data), elapsed


def run_command(argv, traced: bool = False) -> CommandResult:
    result, _ = fork_call(_child, list(argv), traced)
    if result is None:
        return CommandResult(-1, "", "child process failed", 0.0, 0.0, 0.0)
    return CommandResult(**result)
