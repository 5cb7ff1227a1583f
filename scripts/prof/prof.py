#!/usr/bin/env python3
"""Sample where a program spends its CPU time, without perf or valgrind.

    scripts/prof/prof.py [--dir D] [--only COMM] [--top N] -- CMD [ARGS...]

It compiles scripts/prof/sampler.c into D (default .prof/),
runs CMD with the sampler preloaded (LD_PRELOAD), and then reports every
profile the command and its children wrote to D. Each process that exits
normally writes D/htprof.<comm>.<pid>.txt; --only keeps the processes whose
name (comm, at most 15 characters) is COMM.

A report gives each function's share of the samples, three ways: by the
innermost frame at the sampled address (an inlined helper counts on its
own), by the symbol that contains it (inlined code counts for its caller),
and by object file. Addresses are resolved with addr2line; build with
debug info (RelWithDebInfo, the default) to resolve inlined frames.

Examples:
    scripts/prof/prof.py --only htbench_run -- \\
        python3 htbench/run.py --workload l7_cps --seed 1 --seconds 10 --trace 0
    scripts/prof/prof.py -- ./build/bench/fig9_throughput_single_port
"""

import argparse
import bisect
import collections
import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_sampler(out_dir):
    lib = os.path.join(out_dir, "libhtprof.so")
    src = os.path.join(HERE, "sampler.c")
    cc = os.environ.get("CC", "cc")
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", lib, src, "-lpthread", "-lrt"], check=True)
    return lib


def read_profile(path):
    """Returns (header, [(start, end, offset, path)], [pc])."""
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0]
    maps, pcs = [], []
    section = None
    for line in lines[1:]:
        if line in ("maps", "samples"):
            section = line
        elif section == "maps":
            fields = line.split(maxsplit=5)
            if len(fields) < 5 or "x" not in fields[1]:
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            name = fields[5] if len(fields) == 6 else "[anon]"
            maps.append((start, end, int(fields[2], 16), name))
        elif section == "samples" and line:
            pcs.append(int(line, 16))
    maps.sort()
    return header, maps, pcs


def load_segments(path):
    """PT_LOAD (file offset, vaddr, file size) triples of an ELF file."""
    try:
        out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    except OSError:
        return []
    segs = []
    for line in out.splitlines():
        f = line.split()
        if len(f) >= 5 and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def has_symtab(path):
    try:
        out = subprocess.run(["readelf", "-SW", path], capture_output=True, text=True).stdout
    except OSError:
        return False
    return " .symtab " in out


def dynamic_symbols(path, vaddrs):
    """Names vaddrs from the exported symbols of a stripped object (libc,
    libm). addr2line would name an unexported function after the nearest
    exported symbol before it; here an address outside every exported
    symbol's extent stays "??". Among aliases the shortest name wins."""
    try:
        out = subprocess.run(["nm", "-D", "-S", "--defined-only", path],
                             capture_output=True, text=True).stdout
    except OSError:
        return {}
    best = {}
    for line in out.splitlines():
        f = line.split()
        if len(f) != 4 or f[2] not in "TtWi":
            continue
        span = (int(f[0], 16), int(f[1], 16))
        name = f[3].split("@")[0]
        if span not in best or (len(name), name) < (len(best[span]), best[span]):
            best[span] = name
    spans = sorted(best)
    starts = [a for a, _ in spans]
    result = {}
    for v in vaddrs:
        i = bisect.bisect_right(starts, v) - 1
        name = best[spans[i]] if i >= 0 and v < spans[i][0] + spans[i][1] else "??"
        result[v] = (name, name)
    return result


def addr2line(path, vaddrs):
    """Maps each vaddr to (innermost frame, outermost frame) function names."""
    if not vaddrs:
        return {}
    text = "".join("%x\n" % a for a in vaddrs)
    try:
        out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", path],
                             input=text, capture_output=True, text=True).stdout
    except OSError:
        return {}
    frames, result, current = [], {}, None
    lines = out.splitlines()

    def flush():
        if current is not None:
            names = frames[0::2] or ["??"]
            result[current] = (names[0], names[-1])

    for line in lines:
        if line.startswith("0x") and len(frames) % 2 == 0:
            flush()
            current, frames = int(line, 16), []
        else:
            frames.append(line)
    flush()
    return result


def symbolize(maps, pcs):
    """Returns [(innermost, outermost, object)] per sample."""
    starts = [m[0] for m in maps]
    per_object = collections.defaultdict(set)
    located = []
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            located.append((pc, None))
            continue
        start, _, offset, name = maps[i]
        located.append((pc, (name, pc - start + offset)))
        per_object[name].add(pc - start + offset)

    names = {}
    for obj, offsets in per_object.items():
        segs = load_segments(obj) if obj.startswith("/") else []
        to_vaddr = {}
        for off in offsets:
            for p_off, p_vaddr, p_filesz in segs:
                if p_off <= off < p_off + p_filesz:
                    to_vaddr[off] = off - p_off + p_vaddr
                    break
        vaddrs = sorted(set(to_vaddr.values()))
        lookup = addr2line if has_symtab(obj) else dynamic_symbols
        resolved = lookup(obj, vaddrs)
        for off in offsets:
            names[(obj, off)] = resolved.get(to_vaddr.get(off), ("??", "??"))

    out = []
    for pc, where in located:
        if where is None:
            out.append(("?", "?", "?"))
            continue
        inner, outer = names[where]
        out.append((inner, outer, os.path.basename(where[0])))
    return out


def report(path, top):
    header, maps, pcs = read_profile(path)
    print("== %s (%s)" % (path, header.lstrip("# ")))
    if not pcs:
        print("   no samples")
        return
    rows = symbolize(maps, pcs)
    total = len(rows)
    for title, key in (("innermost frame", 0), ("symbol", 1), ("object", 2)):
        counts = collections.Counter((r[key], r[2]) if key < 2 else r[2] for r in rows)
        print("-- by %s" % title)
        for what, n in counts.most_common(top):
            label = "%s  [%s]" % what if key < 2 else what
            print("%7.2f%% %8d  %s" % (100.0 * n / total, n, label))


def comm_of(path):
    base = os.path.basename(path)
    return base[len("htprof."):].rsplit(".", 2)[0]


def main():
    argv = sys.argv[1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", default=".prof", help="sampler and profile directory")
    parser.add_argument("--only", help="report only processes with this name")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    if "--" not in argv:
        parser.error("usage: prof.py [options] -- CMD [ARGS...]")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    cmd = argv[split + 1:]
    if not cmd:
        parser.error("no command after --")
    out_dir = os.path.abspath(args.dir)
    os.makedirs(out_dir, exist_ok=True)
    for old in glob.glob(os.path.join(out_dir, "htprof.*.txt")):
        os.remove(old)
    lib = build_sampler(out_dir)
    env = dict(os.environ, HT_PROF_DIR=out_dir)
    env["LD_PRELOAD"] = " ".join(filter(None, [os.environ.get("LD_PRELOAD"), lib]))
    status = subprocess.call(cmd, env=env)
    if status != 0:
        print("prof: command exited with status %d" % status, file=sys.stderr)
    paths = sorted(glob.glob(os.path.join(out_dir, "htprof.*.txt")))
    if args.only:
        paths = [p for p in paths if comm_of(p) == args.only]
    if not paths:
        sys.exit("prof: no profiles to report")
    for path in paths:
        report(path, args.top)


if __name__ == "__main__":
    main()
