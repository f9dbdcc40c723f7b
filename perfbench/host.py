"""Host fingerprint and peak memory of the measured processes."""

from __future__ import annotations

import os
import platform
import resource
import threading
from pathlib import Path

__all__ = ["nproc", "fingerprint", "program_processes", "worker_check", "PeakSampler"]

#: Length of one peak-RSS window (seconds).
WINDOW_S = 1.0


def nproc() -> int:
    """Cores this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def fingerprint() -> dict:
    """What the numbers depend on: cores, versions, substrate, load."""
    import numpy

    from repro.backends import backend_availability

    cores = nproc()
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": backend_availability("numba") is None,
        "machine": platform.machine(),
        "loadavg_before": list(os.getloadavg()),
    }


def program_processes() -> list[int]:
    """This process's live children, less multiprocessing's resource
    tracker (a bookkeeping process, not a worker)."""
    out = []
    for pid in _child_pids():
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue  # already gone
        if b"resource_tracker" not in cmdline:
            out.append(pid)
    return out


def worker_check(cores: int) -> dict:
    """Count the program's worker processes, running now, against the
    cores.  ``valid`` is false when they outnumber the cores, because
    such a run measures oversubscription."""
    workers = len(program_processes())
    return {"program_workers": workers, "valid": workers <= cores}


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _child_pids() -> list[int]:
    me = os.getpid()
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # Field 4 of /proc/PID/stat is the parent pid; the command
            # name (field 2) may hold spaces, so split after its ')'.
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out.append(int(entry.name))
    return out


class PeakSampler:
    """Peak RSS of this process plus its children, per fixed window.

    A background thread reads the high-water marks (VmHWM) every
    :data:`WINDOW_S` seconds and restarts them (``/proc/PID/clear_refs``),
    so each window's peak is its own: memory touched before the sampler
    starts, such as the oracle's reference computation, is not counted.
    The children are the ones alive when sampling starts (a warm pool).
    Linux only; elsewhere ``peaks`` holds the process's lifetime peak.
    """

    def __init__(self) -> None:
        self.peaks: list[float] = []
        self._pids: list[int | str] = ["self"]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "PeakSampler":
        self._pids = ["self", *_child_pids()]
        self._restart()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        if not self.peaks:  # shorter than one window
            self._window()

    def _run(self) -> None:
        while not self._stop.wait(WINDOW_S):
            self._window()

    def _window(self) -> None:
        kb = sum(_vm_hwm_kb(pid) for pid in self._pids)
        if kb == 0:  # no /proc: ru_maxrss is KiB on Linux
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.peaks.append(kb / 1024.0)
        self._restart()

    def _restart(self) -> None:
        for pid in self._pids:
            try:
                Path(f"/proc/{pid}/clear_refs").write_text("5")
            except OSError:
                pass
