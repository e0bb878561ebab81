"""Starts CLI commands on behalf of the benchmark and times them.

Linux carries a process's peak RSS across exec, so a command started by the
benchmark process itself would report at least the benchmark's own peak.
The benchmark therefore starts this small process before it imports numpy
or cpseq, and sends it one JSON request per line on standard input:
``{"argv": [...], "cwd": "...", "env": {...}}``.  Each reply line holds the
exit code, the captured output, the wall time of the command and the
largest peak RSS of any command so far.  End of input ends the process.
"""

import json
import resource
import subprocess
import sys
import time


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.run(req["argv"], cwd=req["cwd"], env=req["env"], capture_output=True,
                              text=True, timeout=120)
        seconds = time.perf_counter() - start
        reply = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                 "seconds": seconds,
                 "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


class Launcher:
    """Client side: owns the launcher process and stops it on close."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, cwd: str, env: dict) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": cwd, "env": env}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=130)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
