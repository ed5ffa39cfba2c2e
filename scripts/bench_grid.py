#!/usr/bin/env python3
"""Run the component and grid benchmarks and write BENCH_grid.json.

Run it from the repository root:

    python3 scripts/bench_grid.py [output.json]

It runs every internal/grid benchmark, BenchmarkSelect, BenchmarkSimulator
and BenchmarkEmulator, the internal/mem and internal/emu micro-benchmarks,
serve's memo-hit benchmark and the dist fleet benchmark, echoing their
output. It then writes one row per benchmark line, the fleet's two-worker
speedup and the non-test Go source lines per package to the output file
(default BENCH_grid.json).
It exits non-zero when a benchmark fails, when no benchmark line parses, or
when the two-worker fleet is not faster than one process.
"""
import json
import os
import re
import subprocess
import sys

COMMANDS = [
    ["go", "test", "-run", "XXX", "-bench", ".", "-benchtime", "2x", "-benchmem",
     "-timeout", "15m", "./internal/grid/"],
    ["go", "test", "-run", "XXX", "-bench", "^Benchmark(Select|Simulator|Emulator)$",
     "-benchtime", "2x", "-benchmem", "."],
    ["go", "test", "-run", "XXX", "-bench", ".", "-benchmem", "./internal/mem/"],
    ["go", "test", "-run", "XXX", "-bench", ".", "-benchmem", "./internal/emu/"],
    ["go", "test", "-run", "XXX", "-bench", "BenchmarkSimulateMemoHit", "-benchmem",
     "./internal/serve/"],
    ["go", "test", "-run", "XXX", "-bench", "BenchmarkFleet", "-benchtime", "3x",
     "-benchmem", "./internal/dist/"],
]

LINE = re.compile(r"^(Benchmark\S+)\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(?:\s+(\d+(?:\.\d+)?) jobs/s)?")
MEM = re.compile(r"\s(\d+) B/op\s+(\d+) allocs/op")


def run_benchmarks():
    """Runs COMMANDS, echoing and collecting their output lines."""
    lines = []
    for cmd in COMMANDS:
        print("$ " + " ".join(cmd), flush=True)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line)
        if proc.wait() != 0:
            sys.exit(f"benchmark command failed: {' '.join(cmd)}")
    return lines


def parse(lines):
    rows = []
    for line in lines:
        m = LINE.match(line)
        if not m:
            continue
        mem = MEM.search(line)
        rows.append({
            "name": m.group(1),
            "iters": int(m.group(2)),
            "ns_per_op": float(m.group(3)),
            "jobs_per_s": float(m.group(4)) if m.group(4) else None,
            "bytes_per_op": int(mem.group(1)) if mem else None,
            "allocs_per_op": int(mem.group(2)) if mem else None,
        })
    return rows


def go_lines(d):
    return sum(sum(1 for _ in open(os.path.join(d, f)))
               for f in os.listdir(d)
               if f.endswith(".go") and not f.endswith("_test.go"))


def sloc():
    """Non-test Go source lines per package: the root package plus every
    package under internal/ and cmd/, testdata skipped (perfbench is a
    separate module at the root and not counted)."""
    out = {".": go_lines(".")}
    for top in ("internal", "cmd"):
        for d, dirs, _ in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "testdata")
            n = go_lines(d)
            if n:
                out[d] = n
    return out


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_grid.json"
    rows = parse(run_benchmarks())
    # go test names a benchmark run with GOMAXPROCS > 1 with a "-<procs>"
    # suffix (BenchmarkFleet/workers=2-4); the fleet's sub-benchmarks are
    # looked up without it.
    fleet = {re.sub(r"-\d+$", "", r["name"].split("/")[-1]): r
             for r in rows if r["name"].startswith("BenchmarkFleet/")}
    speedup = None
    if "workers=0" in fleet and "workers=2" in fleet:
        speedup = fleet["workers=2"]["jobs_per_s"] / fleet["workers=0"]["jobs_per_s"]
    out = {"benchmarks": rows, "dist_speedup_2_workers": speedup, "sloc": sloc()}
    with open(path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(json.dumps(out, indent=2))
    assert rows, "no benchmark lines parsed"
    assert speedup and speedup > 1.0, f"distributed fleet slower than single process: {speedup}"


if __name__ == "__main__":
    main()
