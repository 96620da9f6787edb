"""The benchmark's own self-test passes against this checkout.

`bench/` finds the program by the names it wraps and calls, so a rename of
one of them (for example `consistency.median_sigmas`) fails here, not only
when the benchmark itself runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout, proc.stdout
