#!/usr/bin/env python3
"""Checks perfbench warm-up digests against a pinned list.

    python3 tools/check_perfbench_digests.py PINNED OUTPUT...

PINNED holds one `<workload> <platform> <digest>` line per pinned run
(`#` starts a comment); bench/baselines/perfbench_digests.seed1.txt pins
every workload and platform at --seed 1. Each OUTPUT is the captured stdout
of one `perfbench/run.py` call. A run at another seed is ignored. Exits 1
when a digest differs from its pin, or when some pinned workload and
platform appears in none of the outputs; prints one line per check.
"""

import re
import sys

HEADER = re.compile(r"^workload (\S+): .*, seed (\d+)$")
WARM_UP = re.compile(r"^  (\S+)\s+attempted .*, digest ([0-9a-f]{16}),")


def read_pins(path):
    pins = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                sys.exit("%s:%d: expected <workload> <platform> <digest>"
                         % (path, n))
            pins[(fields[0], fields[1])] = fields[2]
    return pins


def read_digests(path, seed):
    """Yields (workload, platform, digest) for the warm-up lines of a run."""
    workload = None
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            header = HEADER.match(line)
            if header:
                workload = header.group(1) if header.group(2) == seed else None
                continue
            warm_up = WARM_UP.match(line)
            if workload and warm_up:
                yield workload, warm_up.group(1), warm_up.group(2)


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    pins = read_pins(argv[1])
    seen = set()
    failed = False
    for path in argv[2:]:
        for workload, platform, digest in read_digests(path, seed="1"):
            want = pins.get((workload, platform))
            if want is None:
                print("%s: %s/%s digest %s is not pinned"
                      % (path, workload, platform, digest))
                failed = True
            elif digest != want:
                print("%s: %s/%s digest %s, pinned %s"
                      % (path, workload, platform, digest, want))
                failed = True
            else:
                seen.add((workload, platform))
    for workload, platform in sorted(set(pins) - seen):
        print("%s/%s: no output checked its pinned digest"
              % (workload, platform))
        failed = True
    if not failed:
        print("perfbench digests: all %d pinned digests match" % len(pins))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
