"""Run rounds of CLI commands for run.py from a small, separate process.

Reads one JSON request per line on stdin, {"argvs": [[...], ...], "log": path},
runs the commands one after another with their output going to the log, and
answers with one JSON line: {"wall": s, "rss_mb": MB, "codes": [...]}.

A child's ru_maxrss starts from the peak RSS of the process that spawned it
(Linux keeps the old address space's high-water mark across exec, and
subprocess uses vfork), so children are launched from here, where that peak
stays at a bare interpreter's, and never from run.py, which holds the
workload's rows and reference.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        codes = []
        rss = 0.0
        with open(request["log"], "w", encoding="utf-8") as log:
            start = time.perf_counter()
            for argv in request["argvs"]:
                proc = subprocess.Popen(argv, stdout=log, stderr=log)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                codes.append(proc.returncode)
                rss = max(rss, usage.ru_maxrss / 1024.0)
            wall = time.perf_counter() - start
        print(json.dumps({"wall": wall, "rss_mb": rss, "codes": codes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
