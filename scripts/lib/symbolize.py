"""Reads the dump a frame-pointer instrument writes and names its
addresses. Shared by scripts/profile.sh and scripts/alloc_sites.sh.

A dump is lines of `KIND REST`. The `map` lines are /proc/self/maps,
which say where the executable was loaded; every other line is the
instrument's own record and is handed back as it is.
"""

import os
import re
import subprocess


def read_dump(path, binary, tool):
    """The executable's load address and the dump's other lines, as
    (kind, rest) pairs in order."""
    binary = os.path.realpath(binary)
    base, records = None, []
    for line in open(path):
        kind, _, rest = line.rstrip("\n").partition(" ")
        if kind != "map":
            records.append((kind, rest))
            continue
        f = rest.split()
        # The executable's mapping at file offset 0 is where it was loaded.
        if len(f) >= 6 and os.path.realpath(f[5]) == binary and int(f[2], 16) == 0 and base is None:
            base = int(f[0].split("-")[0], 16)
    if base is None:
        raise SystemExit(f"{tool}: the executable's mapping is not in the dump")
    return base, records


def symbolize(binary, offsets):
    """For each offset into the executable, its frames as (function,
    file:line) pairs, the innermost inlined function first."""
    wanted = sorted(set(offsets))
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", os.path.realpath(binary)],
                         input="\n".join(f"{a:x}" for a in wanted), capture_output=True, text=True,
                         check=True).stdout
    frames, current = {}, None
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[i]):
            current = int(lines[i], 16)
            frames[current] = []
            i += 1
            continue
        # function, then file:line
        frames[current].append((re.sub(r"::h[0-9a-f]{16}$", "", lines[i]), lines[i + 1]))
        i += 2
    return frames
