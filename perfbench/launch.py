"""Run one command; write its exit code, wall seconds and peak RSS as JSON.

    python3 -S perfbench/launch.py RESULT.json ARGV...

The benchmark starts every timed command through this small process. The peak
RSS the kernel reports for a child includes the memory of the process that
spawned it, and the benchmark's main process, which imports numpy to check
outputs, is about as large as the program under test; spawned from here,
a command's peak RSS is its own.
"""

import json
import os
import subprocess
import sys
import time

result, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
proc = subprocess.Popen(argv)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
with open(result, "w", encoding="utf-8") as f:
    json.dump({"rc": proc.returncode, "wall_s": wall,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}, f)
