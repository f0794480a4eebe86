#!/usr/bin/env python3
"""Run a command, report its wall time and peak resident set, enforce a bound.

Usage: peak_rss.py MAX_MIB COMMAND [ARG ...]

The command's stdout is discarded (its stderr passes through). The peak
is the child's VmHWM as getrusage(RUSAGE_CHILDREN) reports it after the
wait, so it covers every thread of the process; its floor is this
interpreter's own resident size (≈ 14 MiB), which the child shares
until it execs the command. Prints one line,
`wall <s> s, peak <MiB> MiB (bound <MiB> MiB)`, and exits 1 if the
command fails or its peak exceeds MAX_MIB.
"""

import resource
import subprocess
import sys
import time


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    bound = float(sys.argv[1])
    cmd = sys.argv[2:]
    t0 = time.monotonic()
    status = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    wall = time.monotonic() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"wall {wall:.1f} s, peak {peak:.0f} MiB (bound {bound:.0f} MiB)")
    if status != 0:
        print(f"command exited {status}: {' '.join(cmd)}", file=sys.stderr)
        return 1
    if peak > bound:
        print(f"peak {peak:.0f} MiB exceeds {bound:.0f} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
