import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import host
from perfbench.host import PeakSampler, program_processes, worker_check

CLEAR_REFS = Path("/proc/self/clear_refs")


@pytest.mark.skipif(not CLEAR_REFS.exists(), reason="needs Linux /proc")
def test_each_window_has_its_own_peak(monkeypatch):
    monkeypatch.setattr(host, "WINDOW_S", 0.05)
    with PeakSampler() as rss:
        big = np.ones(8_000_000)  # 64 MB, touched
        time.sleep(0.2)
        del big
        time.sleep(0.3)
    assert len(rss.peaks) >= 5
    assert max(rss.peaks) - rss.peaks[-1] > 50


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
def test_live_worker_processes_beyond_the_cores_make_the_run_invalid():
    assert program_processes() == []
    assert worker_check(cores=1) == {"program_workers": 0, "valid": True}
    children = [
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
        for _ in range(2)
    ]
    try:
        assert sorted(program_processes()) == sorted(c.pid for c in children)
        assert worker_check(cores=2)["valid"] is True
        assert worker_check(cores=1) == {"program_workers": 2, "valid": False}
    finally:
        for child in children:
            child.kill()
            child.wait()
