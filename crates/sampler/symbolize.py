#!/usr/bin/env python3
"""Turn uat-sampler sample files into a per-source-line and a
per-function table.

usage: symbolize.py BINARY FILE.samples...

Each sample becomes an address in BINARY's ELF (the sample less the
start of the executable's mapping at file offset 0), which
`llvm-symbolizer --inlining` resolves into its inlined frames, innermost
first. A sample counts once for a source line — its innermost frame
outside Rust's standard library (`library/`), so that an inlined
`ptr::read` or atomic load is charged to the line that called it, with
that innermost frame's function beside it — and once for its outermost
frame's function (the symbol the code sits in).
Samples outside the executable (libc, the kernel's vDSO) count as
`[outside]`. Both tables print every row, most samples first, so a
file's share is the sum of its rows in the line table.
"""
import collections
import os
import subprocess
import sys


def load(path):
    base, exe_ranges, addrs = None, [], []
    for line in open(path):
        if line.startswith('#'):
            continue
        if line.startswith('map '):
            f = line.split()
            lo, hi = (int(x, 16) for x in f[1].split('-'))
            if int(f[3], 16) == 0 and base is None:
                base = lo
            exe_ranges.append((lo, hi))
            continue
        if line.strip():
            addrs.append(int(line, 16))
    inside = [a - base for a in addrs if base is not None and any(lo <= a < hi for lo, hi in exe_ranges)]
    return inside, len(addrs) - len(inside)


def symbolize(binary, addrs):
    """address -> [(function, file:line)], innermost first."""
    uniq = sorted(set(addrs))
    out = subprocess.run(['llvm-symbolizer', '--obj=' + binary, '--inlining', '--demangle'],
                         input='\n'.join(hex(a) for a in uniq) + '\n',
                         capture_output=True, text=True, check=True).stdout
    frames, blocks = [], []
    lines = out.split('\n')
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            if frames:
                blocks.append(frames)
                frames = []
            i += 1
            continue
        func, loc = lines[i], lines[i + 1] if i + 1 < len(lines) else '??:0'
        loc = loc.rsplit(':', 1)[0]  # drop the column
        frames.append((func, short(loc)))
        i += 2
    if frames:
        blocks.append(frames)
    return dict(zip(uniq, blocks))


def short(loc):
    """A path relative to the working directory, or from `crates/`,
    `src/` or `library/` on."""
    path, _, line = loc.rpartition(':')
    if path.startswith(os.getcwd() + '/'):
        path = os.path.relpath(path)
    else:
        for marker in ('/crates/', '/library/', '/src/'):
            if marker in path:
                path = path[path.index(marker) + 1:]
                break
    return f'{path}:{line}'


def main(argv):
    binary, files = argv[1], argv[2:]
    addrs, outside = [], 0
    for f in files:
        a, o = load(f)
        addrs += a
        outside += o
    frames = symbolize(binary, addrs)
    by_line, by_func = collections.Counter(), collections.Counter()
    for a in addrs:
        fr = frames.get(a) or [('??', '??:0')]
        own = next((f for f in fr if not f[1].startswith('library/')), fr[0])
        by_line[(own[1], fr[0][0])] += 1
        by_func[fr[-1][0]] += 1
    total = len(addrs) + outside
    by_line[('[outside]', '')] += outside
    by_func['[outside]'] += outside
    print(f'{total} samples in {len(files)} file(s), {outside} outside the executable')
    print(f'\n{"%":>6} {"samples":>8}  source line (innermost outside library/)  [innermost function]')
    for (loc, func), n in by_line.most_common():
        print(f'{100 * n / total:6.1f} {n:8}  {loc}  [{func}]')
    print(f'\n{"%":>6} {"samples":>8}  function (outermost frame)')
    for func, n in by_func.most_common():
        print(f'{100 * n / total:6.1f} {n:8}  {func}')


if __name__ == '__main__':
    main(sys.argv)
