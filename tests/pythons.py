"""The supported Python versions other than the running one, and where each is.

Plain Python with no third-party import, so that tests/test_versions.py and
.github/workload_checks.py find the same interpreters.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

CURRENT = "%d.%d" % sys.version_info[:2]
# the running interpreter gives the reference
OTHERS = [v for v in ("3.10", "3.11", "3.12", "3.13") if v != CURRENT]


def find_python(version: str) -> str | None:
    """An interpreter that reports this version: pyenv's copy first, then PATH."""
    candidates = [str(p) for p in sorted(
        (Path.home() / ".pyenv" / "versions").glob(f"{version}.*/bin/python{version}"))]
    on_path = shutil.which(f"python{version}")
    if on_path:
        candidates.append(on_path)
    for exe in candidates:
        probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                               capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return exe
    return None
