#!/usr/bin/env python3
"""Compare two certificate-store directories, ignoring timing fields.

Usage: python3 bench/store_diff.py DIR_A DIR_B

Two runs of the same code never write byte-identical stores: every
`spiv-cert` carries `synth_seconds`, a `seconds` field per verdict and a
`checksum` over both.  This tool masks exactly those three fields in
`*.spivcert` files; every other byte must match, and both directories must
hold the same set of files.  It prints one line per difference and a
summary, and exits 1 on any difference, 0 when the stores agree.
"""

import os
import sys


def masked_lines(path):
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if not path.endswith(".spivcert"):
        return lines
    out = []
    for line in lines:
        tokens = line.split(b" ")
        if tokens[0] in (b"synth_seconds", b"checksum") and len(tokens) == 2:
            tokens[1] = b"*"
        elif (tokens[0] in (b"positivity", b"decrease") and len(tokens) > 3
              and tokens[2] == b"seconds"):
            tokens[3] = b"*"
        out.append(b" ".join(tokens))
    return out


def files_under(root):
    found = set()
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(d) for d in argv[1:]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = argv[1], argv[2]
    files_a, files_b = files_under(dir_a), files_under(dir_b)
    differences = 0
    for rel in sorted(files_a ^ files_b):
        side = dir_a if rel in files_a else dir_b
        print(f"only in {side}: {rel}")
        differences += 1
    common = sorted(files_a & files_b)
    for rel in common:
        a = masked_lines(os.path.join(dir_a, rel))
        b = masked_lines(os.path.join(dir_b, rel))
        if a != b:
            line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                        min(len(a), len(b)))
            print(f"differs: {rel} (line {line + 1})")
            differences += 1
    print(f"{len(common)} common files, {differences} differences "
          "(synth_seconds, verdict seconds and checksum masked)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
