#!/usr/bin/env python3
"""Print a flat CPU profile from a pc_sampler sample file.

``tools/pc_sampler.cc`` (built as ``build/tools/libpc_sampler.so``) records
the program counter of a process every millisecond of its CPU time and, at
exit, writes ``pc_sample.<pid>.txt``: the sampled addresses followed by the
process's ``/proc/<pid>/maps``.  This script maps each address to its
module, resolves it with ``addr2line -f -C`` and prints the share of samples
per function, then per module.  Several files (runs of one command, each
with its own load addresses) are summed.

Usage:
  LD_PRELOAD=$PWD/build/tools/libpc_sampler.so ./build/<binary> ...
  tools/pc_symbolize.py pc_sample.<pid>.txt [more files] [--top 25]

A module without a symbol table (libm, libc and libstdc++ ship stripped)
resolves through its dynamic symbols instead, since addr2line would name
the nearest exported symbol below any address.  An address inside a sized
symbol gets its name; any other gets ``~name``, the nearest entry point
below it, which may be a static helper of that function.  Entry points
include the variant each IFUNC symbol (``sin``, ``cos``, ``sincos`` in libm)
resolves to, found by loading the module with ctypes, so symbolize on the
host that took the sample: the modules named in the maps are read from
disk.  Samples outside every mapped module are listed as ``[unmapped]``.

Exit status: 0 when at least one sample resolved to a function name.
"""

import argparse
import bisect
import collections
import ctypes
import functools
import os
import subprocess
import sys


def read_sample(path):
    """Returns (pcs, mappings) from a sample file; each mapping is
    (start, end, file_offset, module_path) of an executable mapping."""
    with open(path) as f:
        header = f.readline().split()
        if not header or header[0] != "pc_sampler":
            raise ValueError(f"{path}: not a pc_sampler file")
        pcs = []
        for line in f:
            line = line.strip()
            if line == "maps":
                break
            pcs.append(int(line, 16))
        mappings = []
        for line in f:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or "x" not in fields[1]:
                continue
            start, end = (int(a, 16) for a in fields[0].split("-"))
            mappings.append((start, end, int(fields[2], 16), fields[5].strip()))
    mappings.sort()
    return pcs, mappings


@functools.lru_cache(maxsize=None)
def is_position_independent(module):
    """ET_DYN objects (shared libraries, PIE executables) are resolved by
    offset from their load address; ET_EXEC ones by absolute address."""
    try:
        with open(module, "rb") as f:
            header = f.read(18)
    except OSError:
        return True
    return len(header) == 18 and header[16] == 3


@functools.lru_cache(maxsize=None)
def has_symtab(module):
    out = subprocess.run(["nm", "--defined-only", module],
                         capture_output=True, text=True)
    return bool(out.stdout.strip())


def addr2line(module, addrs):
    """Function name per address, or None where addr2line has none."""
    query = "".join(f"{a:x}\n" for a in addrs)
    out = subprocess.run(["addr2line", "-f", "-C", "-e", module],
                         input=query, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    names = {}
    for i, a in enumerate(addrs):
        name = lines[2 * i] if 2 * i < len(lines) else "??"
        names[a] = None if name == "??" else name
    return names


def ifunc_targets(module, names):
    """Module offset of the function each IFUNC symbol resolves to here."""
    try:
        lib = ctypes.CDLL(module)
    except OSError:
        return {}
    base = None
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split()
            if fields[-1] == module and int(fields[2], 16) == 0:
                base = int(fields[0].split("-")[0], 16)
                break
    if base is None:
        return {}
    targets = {}
    for name in names:
        try:
            targets[name] = ctypes.cast(getattr(lib, name), ctypes.c_void_p).value - base
        except AttributeError:
            pass
    return targets


@functools.lru_cache(maxsize=None)
def entry_points(module):
    """Sorted (start, end, name) of a stripped module's dynamic symbols;
    end is None for a resolved IFUNC target, whose size is unknown."""
    out = subprocess.run(["nm", "-D", "-C", "-S", "--defined-only", module],
                         capture_output=True, text=True)
    entries, ifuncs = [], []
    for line in out.stdout.splitlines():
        fields = line.split()
        if len(fields) != 4 or fields[2].lower() not in ("t", "w", "i"):
            continue
        name = fields[3].split("@")[0]
        if fields[2] == "i":
            ifuncs.append(name)
        else:
            start = int(fields[0], 16)
            entries.append((start, start + int(fields[1], 16), name))
    for name, start in ifunc_targets(module, ifuncs).items():
        entries.append((start, None, name))
    # Aliases share an address (sin, sinf64): keep the shortest name.
    entries.sort(key=lambda e: (e[0], len(e[2]), e[2]))
    return [e for i, e in enumerate(entries)
            if i == 0 or e[0] != entries[i - 1][0]]


def label_by_entry(entries, addr):
    j = bisect.bisect_right(entries, addr, key=lambda e: e[0]) - 1
    if j < 0:
        return None
    start, end, name = entries[j]
    return name if end is not None and addr < end else f"~{name}"


def symbolize(pcs, mappings):
    """Counter of function label -> samples, and module -> samples."""
    starts = [m[0] for m in mappings]
    by_module = collections.defaultdict(collections.Counter)
    unmapped = 0
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= mappings[i][1]:
            unmapped += 1
            continue
        start, _, offset, module = mappings[i]
        addr = pc - start + offset if is_position_independent(module) else pc
        by_module[module][addr] += 1

    functions = collections.Counter()
    modules = collections.Counter()
    for module, counts in by_module.items():
        base = os.path.basename(module)
        modules[base] += sum(counts.values())
        if not os.path.exists(module):
            names = {}
        elif has_symtab(module):
            names = addr2line(module, sorted(counts))
        else:
            entries = entry_points(module)
            names = {a: label_by_entry(entries, a) for a in counts}
        for addr, n in counts.items():
            name = names.get(addr)
            functions[f"{name}  ({base})" if name else f"[{base}]"] += n
    if unmapped:
        functions["[unmapped]"] += unmapped
        modules["[unmapped]"] += unmapped
    return functions, modules


def print_table(title, counts, total, top):
    print(f"{title:>8}  {'samples':>7}")
    for label, n in counts.most_common(top):
        print(f"{100.0 * n / total:7.1f}%  {n:7d}  {label}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sample_files", nargs="+")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to list (default 25)")
    args = parser.parse_args()

    functions, modules = collections.Counter(), collections.Counter()
    for path in args.sample_files:
        f, m = symbolize(*read_sample(path))
        functions.update(f)
        modules.update(m)
    total = sum(modules.values())
    if not total:
        print("no samples", file=sys.stderr)
        return 1
    print(f"{total} samples from {len(args.sample_files)} file(s)")
    print_table("share", functions, total, args.top)
    print()
    print_table("module", modules, total, None)
    named = sum(n for label, n in functions.items() if not label.startswith("["))
    return 0 if named else 1


if __name__ == "__main__":
    sys.exit(main())
