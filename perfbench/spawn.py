"""Child-process launcher for the benchmark.

Reads one JSON request per stdin line ({"argv", "out", "err", "env",
"cwd", "timeout"}), runs it to completion and answers with one JSON line
({"wall", "cpu", "rss_mb", "code", "timed_out"}).

It exists because a child's max RSS, as the kernel reports it, includes
the memory of the process that forked it. This launcher imports nothing
heavy, so the figure read for a CLI child is the child's own; the
benchmark process itself holds numpy and the reference data.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode,
            "timed_out": wall >= req["timeout"]}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
