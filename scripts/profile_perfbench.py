#!/usr/bin/env python3
"""Samples where one perfbench workload spends its CPU time, by phase.

    python3 scripts/profile_perfbench.py --workload hybrid_flood \\
        [--seconds 60] [--phase query|publish|all] [--folded PATH]

Builds perfbench/ into .profile_build/ (Release plus -g
-fno-omit-frame-pointer) and scripts/sigprof_sampler.c into a shared
library beside it, then runs the perfbench driver once (seed 1, --trace 0
for --seconds; the driver still does its minimum three reps) with the
sampler preloaded. The sampler records one stack per SIGPROF of
setitimer(ITIMER_PROF), that is per slice of the process's CPU time. It
asks for 1000 a second, but the kernel tick caps ITIMER_PROF: on the 4-CPU
host this was written on (a 250 Hz tick) that is about 250 samples/s, so
a 60 s run gives about 15k samples. The header line reports the rate a
run got.

Driver frames are symbolized with `addr2line -f -C -i`, inlined
functions included. A sample belongs to a phase when its stack passes
through the driver's call that runs the phase: the statement that takes
`&rep.<phase>_gauge` in perfbench/<workload>.cc. Set-up, the oracle and
teardown fall in neither phase. On dht_churn_sharded only the driver
thread's samples can be scoped (a shard worker's stack does not start in
the driver), so use --phase all there.

For the phase's samples it prints the top 30 functions by the share (and
count) of samples in which each is the innermost frame (self), then by
the share in which each is anywhere on the stack (inclusive). A sample
whose innermost frame lies in a shared library is reported under the
library's file name and the first driver function up its stack, e.g.
"[libc.so.6] < gnutella::KeywordIndex::Match". The nearest exported
symbol would name the wrong function: a libc without .symtab resolves
malloc internals as __nss_database_lookup or timer_settime. --folded PATH
also writes the phase's stacks in the "outer;...;inner count" form that
flame-graph tools read, which is how to check that one function never
runs under another.

Exits non-zero if the build or the driver fails, or if no sample falls in
the phase.
"""

import argparse
import bisect
import collections
import os
import re
import resource
import struct
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(REPO, ".profile_build")
SAMPLER_SRC = os.path.join(REPO, "scripts", "sigprof_sampler.c")
# Workloads that share another workload's driver source.
SOURCE_OF = {"dht_churn_sharded": "dht_churn"}
TOP = 30
SEED = 1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("profile: failed: " + " ".join(cmd))
    return proc.returncode == 0


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(REPO, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_CXX_FLAGS=-g -fno-omit-frame-pointer"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    sampler = os.path.join(BUILD, "libsigprof_sampler.so")
    steps.append(["cc", "-O2", "-shared", "-fPIC", "-o", sampler,
                  SAMPLER_SRC])
    if not all(run_quiet(cmd) for cmd in steps):
        return None, None
    return os.path.join(BUILD, "perfbench_driver"), sampler


def phase_lines(workload, phase):
    """(file name, line numbers) of the statements that run `phase`."""
    src = os.path.join(REPO, "perfbench",
                       SOURCE_OF.get(workload, workload) + ".cc")
    with open(src) as f:
        lines = f.read().splitlines()
    found = set()
    for i, line in enumerate(lines):
        if "&rep.%s_gauge" % phase not in line:
            continue
        start = i  # back to the first line of the statement
        while start > 0 and not lines[start - 1].rstrip().endswith(
                (";", "{", "}")):
            start -= 1
        found.update(range(start + 1, i + 2))
    return os.path.basename(src), found


def read_samples(path):
    with open(path) as f:
        header = f.readline().split()  # samples <n> dropped <n>
        samples = []
        for line in f:
            if line == "maps\n":
                break
            if line.strip():
                samples.append([int(a, 16) for a in line.split()])
        maps = []
        for line in f:
            parts = line.split()
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16),
                         parts[5] if len(parts) > 5 else ""))
    maps.sort()
    return samples, int(header[3]), maps


def load_segments(elf_path):
    """(file offset, size, virtual address) of each PT_LOAD segment."""
    with open(elf_path, "rb") as f:
        ehdr = f.read(64)
        phoff = struct.unpack_from("<Q", ehdr, 32)[0]
        phentsize, phnum = struct.unpack_from("<HH", ehdr, 54)
        segments = []
        for i in range(phnum):
            f.seek(phoff + i * phentsize)
            ptype, _, offset, vaddr, _, filesz = struct.unpack(
                "<IIQQQQ", f.read(40))
            if ptype == 1:
                segments.append((offset, filesz, vaddr))
    return segments


def symbolize(driver, vaddrs):
    """vaddr -> [(function, file, line)], innermost inlined level first."""
    if not vaddrs:
        return {}
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", driver],
        input="\n".join("%x" % a for a in vaddrs), stdout=subprocess.PIPE,
        text=True, check=True)
    out, chain = {}, None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            chain = out.setdefault(int(lines[i], 16), [])
            i += 1
            continue
        loc = lines[i + 1].split(" ")[0]  # drop " (discriminator N)"
        file, _, line = loc.rpartition(":")
        chain.append((short_name(lines[i]), os.path.basename(file),
                      int(line) if line.isdigit() else 0))
        i += 2
    return out


OPERATORS = ("operator()", "operator<<", "operator>>", "operator<=",
             "operator>=", "operator<", "operator>", "operator->")


def strip_groups(name, open_ch, close_ch):
    out, depth = [], 0
    for ch in name:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth:
            depth -= 1
        elif not depth:
            out.append(ch)
    return "".join(out)


def short_name(name):
    """A demangled name without parameters, templates or `pierstack::`."""
    if name == "??":
        return "??"
    for i, op in enumerate(OPERATORS):
        name = name.replace(op, "\x01%d\x02" % i)
    name = re.sub(r"\[abi:\w+\]", "", name)
    name = name.replace("(anonymous namespace)::", "")
    name = strip_groups(strip_groups(name, "(", ")"), "<", ">")
    name = re.sub(r"\s+const$", "", name).replace("pierstack::", "")
    return re.sub("\x01(\\d+)\x02", lambda m: OPERATORS[int(m.group(1))],
                  name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--phase", choices=("publish", "query", "all"),
                    default="query")
    ap.add_argument("--folded", help="also write folded stacks here")
    args = ap.parse_args()

    driver, sampler = build()
    if driver is None:
        return 3
    out = os.path.join(BUILD, "samples.%s.txt" % args.workload)
    env = dict(os.environ, LD_PRELOAD=sampler, SIGPROF_OUT=out)
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(SEED),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=REPO, env=env, stdout=subprocess.DEVNULL)
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        log("profile: driver failed with exit code %d" % proc.returncode)
        return 4
    cpu_s = (cpu_after.ru_utime + cpu_after.ru_stime -
             cpu_before.ru_utime - cpu_before.ru_stime)

    samples, dropped, maps = read_samples(out)
    driver_path = os.path.realpath(driver)
    segments = load_segments(driver_path)
    starts = [m[0] for m in maps]

    def locate(addr, is_leaf):
        """('driver', vaddr) or ('lib', name) for one sampled address."""
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            return "lib", "[unknown]"
        start, _, offset, path = maps[i]
        if path != driver_path:
            return "lib", "[%s]" % (os.path.basename(path) or "anon")
        file_off = addr - start + offset
        for seg_off, size, vaddr in segments:
            if seg_off <= file_off < seg_off + size:
                # A return address points past its call instruction.
                return "driver", file_off - seg_off + vaddr - (not is_leaf)
        return "lib", "[unknown]"

    located = [[locate(a, i == 0) for i, a in enumerate(s)] for s in samples]
    symbols = symbolize(driver_path, sorted(
        {v for s in located for kind, v in s if kind == "driver"}))

    src_file, lines = phase_lines(args.workload, args.phase)
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    folded = collections.Counter()
    in_phase = 0
    for frames in located:
        chains = [symbols.get(v, [("??", "", 0)]) if kind == "driver"
                  else [(v, "", 0)] for kind, v in frames]
        if args.phase != "all" and not any(
                f == src_file and line in lines
                for chain in chains for _, f, line in chain):
            continue
        in_phase += 1
        leaf = chains[0][0][0]
        if frames[0][0] == "lib":
            caller = next((chain[0][0] for (kind, _), chain in
                           zip(frames, chains) if kind == "driver"), None)
            if caller:
                leaf = "%s < %s" % (leaf, caller)
        self_counts[leaf] += 1
        names = [fn for chain in chains for fn, _, _ in chain]
        incl_counts.update(set(names))
        folded[";".join(reversed(names))] += 1

    rate = len(samples) / cpu_s if cpu_s > 0 else 0.0
    print("%s seed %d, phase %s: %d of %d samples (%d dropped), "
          "%.1f s of CPU, %.0f samples/s" % (
              args.workload, SEED, args.phase, in_phase, len(samples),
              dropped, cpu_s, rate))
    if in_phase == 0:
        log("profile: no samples in phase %s" % args.phase)
        return 1
    for title, counts in (("self", self_counts),
                          ("inclusive", incl_counts)):
        print("\n%9s %8s  function" % (title, "samples"))
        for name, n in counts.most_common(TOP):
            print("%8.1f%% %8d  %s" % (100.0 * n / in_phase, n, name))
    if args.folded:
        with open(args.folded, "w") as f:
            for stack, n in folded.most_common():
                f.write("%s %d\n" % (stack, n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
