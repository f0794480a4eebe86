#!/usr/bin/env python3
"""Run a command, report its wall time, peak resident set and output digest.

Usage: peak_rss.py MAX_MIB COMMAND [ARG ...]

The command's stdout is read as it is written and hashed, never kept
(its stderr passes through). The peak is the child's VmHWM as
getrusage(RUSAGE_CHILDREN) reports it after the wait, so it covers
every thread of the process; its floor is this interpreter's own
resident size (≈ 14 MiB), which the child shares until it execs the
command. Prints two lines,
`wall <s> s, peak <MiB> MiB (bound <MiB> MiB)` and
`stdout sha256 <hex>`, and exits 1 if the command fails or its peak
exceeds MAX_MIB.
"""

import hashlib
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
    digest = hashlib.sha256()
    t0 = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            digest.update(chunk)
    status = child.returncode
    wall = time.monotonic() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"wall {wall:.1f} s, peak {peak:.0f} MiB (bound {bound:.0f} MiB)")
    print(f"stdout sha256 {digest.hexdigest()}")
    if status != 0:
        print(f"command exited {status}: {' '.join(cmd)}", file=sys.stderr)
        return 1
    if peak > bound:
        print(f"peak {peak:.0f} MiB exceeds {bound:.0f} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
