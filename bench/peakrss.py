"""Peak resident memory of a fresh process running CLI operations.

    echo '{"src": "src", "ops": [[["verify", "--suite", "all"], 30]]}' \
        | python3 bench/peakrss.py

Reads {"src": <directory holding the astute package>, "ops": [[argv,
time limit in seconds], ...]} from stdin, runs each operation once
through `astute.cli.main(argv)` with its output sent to os.devnull, and
prints the process's peak resident memory in MiB.  Exits 1 when an
operation passes its time limit or raises.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import sys


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import astute.cli

    def on_alarm(signum, frame):
        raise TimeoutError("operation passed its time limit")

    signal.signal(signal.SIGALRM, on_alarm)
    with open(os.devnull, "w") as sink:
        for argv, limit in job["ops"]:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        astute.cli.main(argv)
                    except SystemExit:
                        pass
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
