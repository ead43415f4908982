"""Run the midlevels command line as `python -m midlevels.cli ARGS` does,
then append this process's peak resident memory to stderr as
`perfbench-peak-rss-kb N`.

The peak is read from the process's own VmHWM: the ru_maxrss a parent
gets from wait4 also counts the parent's memory at the time of the
fork, which would make a child look as large as the benchmark.
"""

import runpy
import sys


def _peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


try:
    runpy.run_module("midlevels.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\nperfbench-peak-rss-kb {_peak_rss_kb()}\n")
