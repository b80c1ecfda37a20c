"""Run one program in a fresh process and time it from exec to exit."""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Exit:
    code: int  # exit status, or -signal if killed
    wall_s: float
    peak_rss_mib: float
    output: str  # tail of stdout and stderr when the exit code is not 0


def run(argv: list[str], env: dict[str, str], log: Path, timeout_s: float) -> Exit:
    """Spawn ``argv``, reap it with ``wait4`` and return its exit, time and peak RSS.

    Standard output and error both go to ``log``. The process is killed
    after ``timeout_s``, and always reaped before this returns.
    """
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        started = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    finally:
        os.close(fd)
    killer = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    output = log.read_text(errors="replace")[-2000:] if code != 0 else ""
    return Exit(code, wall, usage.ru_maxrss / 1024.0, output)  # ru_maxrss is KiB on Linux
