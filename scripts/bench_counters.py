#!/usr/bin/env python3
"""Regenerates BENCH_counters.json: the deterministic `--jobs 1` engine
counters that `tests/counter_gate.rs` holds every change to.

Usage (from the repository root, after `cargo build` and, for `--info`,
`cargo build --release`):

    scripts/bench_counters.py                 # re-measure the gated rows
    scripts/bench_counters.py --info          # also every information-only row
    scripts/bench_counters.py --info mal-18   # also the named information rows

Gated rows run the debug-profile binary, the one `cargo test` runs; debug
assertions do no counted engine work, so a release build reads the same
counters (CI runs the gate on both). Information-only rows run the release
binary.

Each row is one `specmatcher check ... --jobs 1 --trace-out <tmp>` process,
so the process-wide automaton memo starts empty for every row. Gated rows
record the work counters the gate compares; information-only rows (the MAL
family curve on the symbolic engine) record phase seconds, fixpoints, the
BDD peak and the exit code, and are kept as they are unless `--info` is
given. `--info` with row names re-runs only those rows (a row is named by
its row name, `mal-18-symbolic`, or by its design, `mal-18`) and keeps the
other rows' committed values and revision: the last row, mal-45, peaks at
about 9.5 GB RSS before its node-budget refusal, so a routine refresh
leaves it out. An unknown name exits 2 and lists the valid ones. A change
that trades counters on purpose regenerates the file and says so in
CHANGES.md.
"""
import json
import os
import subprocess
import sys
import tempfile
import time

SCHEMA = "specmatcher-counters/1"
OUT = "BENCH_counters.json"
GATED_BIN = os.path.join("target", "debug", "specmatcher")
INFO_BIN = os.path.join("target", "release", "specmatcher")

# Counters that measure engine work; a gated row fails when one grows
# more than `tolerance` past its committed value.
WORK_COUNTERS = [
    "explicit.states_expanded",
    "gba.cache_misses",
    "gap.fixpoint_verified",
    "bmc.queries",
    "sat.conflicts",
    "bdd.ite_ops",
    "bdd.and_exists_ops",
    "bdd.peak_nodes",
]
# Recorded beside the work counters for reading, never compared.
CONTEXT_COUNTERS = ["gap.probe_refuted", "gap.implication_settled"]

GATED = [
    ("mal-ex2-explicit", "--design mal-ex2 --backend explicit"),
    ("mal-ex2-symbolic", "--design mal-ex2 --backend symbolic"),
    ("amba-ahb-explicit", "--design amba-ahb --backend explicit"),
    ("pipeline", "--design pipeline"),
    ("chain-6-gap", "--design chain-6-gap"),
]

# The MAL family k = 3..6 on the symbolic engine. mal-45 gets a deadline.
INFO = [
    ("mal-18-symbolic", "--design mal-18 --backend symbolic"),
    ("mal-26-symbolic", "--design mal-26 --backend symbolic"),
    ("mal-35-symbolic", "--design mal-35 --backend symbolic"),
    ("mal-45-symbolic", "--design mal-45 --backend symbolic --timeout 900"),
]


def run(binary, args):
    """Runs one traced check; returns (exit code, wall s, peak RSS MiB,
    counters, spans, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.jsonl")
        report = os.path.join(tmp, "report.txt")
        cmd = [binary, "check", *args.split(), "--jobs", "1", "--trace-out", trace]
        t0 = time.monotonic()
        with open(report, "w") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        values, spans = {}, []
        if os.path.exists(trace):
            for line in open(trace):
                rec = json.loads(line)
                if rec["type"] in ("counter", "gauge"):
                    values[rec["name"]] = rec["value"]
                elif rec["type"] == "span":
                    spans.append(rec)
        rss_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        return os.waitstatus_to_exitcode(status), wall, rss_mib, values, spans, open(report).read()


def revision():
    """The measured tree: `tree <id>`, the id `git write-tree` gives the
    working tree (ignored files left out) without this script's own output
    file, which cannot name the tree it is part of. It is staged into a
    temporary index, so the real one is untouched. When nothing but this
    file changes before the rows are committed, the commit gives the same
    id: `GIT_INDEX_FILE=<tmp> sh -c 'git read-tree <commit> &&
    git rm -q --cached BENCH_counters.json && git write-tree'`."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        for cmd in (["git", "add", "-A"], ["git", "rm", "-q", "--cached", "--ignore-unmatch", OUT]):
            subprocess.run(cmd, env=env, check=True, capture_output=True)
        tree = subprocess.run(["git", "write-tree"], env=env, check=True, capture_output=True,
                              text=True).stdout.strip()
    return f"tree {tree[:12]}"


def command(args):
    return f"specmatcher check {args} --jobs 1 --trace-out <tmp>"


def gated_row(name, args):
    code, _, _, values, _, _ = run(GATED_BIN, args)
    if code not in (0, 1):
        sys.exit(f"{name}: exit {code}")
    return {
        "row": name,
        "args": args,
        "exit": code,
        "counters": {c: values.get(c, 0) for c in WORK_COUNTERS},
        "context": {c: values.get(c, 0) for c in CONTEXT_COUNTERS},
    }


def info_row(name, args):
    code, wall, rss_mib, values, spans, stdout = run(INFO_BIN, args)

    def seconds(span):
        return round(sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == span) / 1e9, 3)

    ended = next((l.strip() for l in stdout.splitlines() if l.startswith("incomplete:")), None)
    return {
        "row": name,
        "revision": revision(),
        "command": command(args),
        "exit": code,
        "ended": ended or ("complete" if code in (0, 1) else f"exit {code}"),
        "wall_s": round(wall, 3),
        "peak_rss_mib": round(rss_mib, 1),
        "primary_s": seconds("phase.primary"),
        "gap_s": seconds("phase.gap_find"),
        "gap_verify_s": seconds("gap.verify"),
        "fixpoints": values.get("gap.fixpoint_verified", 0),
        "bdd.peak_nodes": values.get("bdd.peak_nodes", 0),
        "counters": {c: values.get(c, 0) for c in WORK_COUNTERS + CONTEXT_COUNTERS},
    }


def info_names(args):
    """The names an information row answers to: its row name and its design."""
    row, check = args
    return {row, check.split()[1]}


def parse_info(argv):
    """The information rows to re-run: none without `--info`, all with a
    bare `--info`, else the named ones (exits 2 on an unknown name)."""
    if "--info" not in argv:
        return []
    names = argv[argv.index("--info") + 1:]
    if not names:
        return INFO
    valid = sorted(n for row in INFO for n in info_names(row))
    unknown = [n for n in names if n not in valid]
    if unknown:
        print(f"unknown information row {', '.join(unknown)}; valid: {', '.join(valid)}",
              file=sys.stderr)
        sys.exit(2)
    return [row for row in INFO if info_names(row) & set(names)]


def main():
    rerun = parse_info(sys.argv[1:])
    for binary in [GATED_BIN] + ([INFO_BIN] if rerun else []):
        if not os.path.exists(binary):
            sys.exit(f"{binary} missing: build it first")
    old = json.load(open(OUT)) if os.path.exists(OUT) else {}
    info = {r["row"]: r for r in old.get("info", [])}
    info.update({n: info_row(n, a) for n, a in rerun})
    doc = {
        "schema": SCHEMA,
        "revision": revision(),
        "command": command("<args>"),
        "tolerance": 0.02,
        "gated": [gated_row(n, a) for n, a in GATED],
        "info": [info[n] for n, _ in INFO if n in info],
        "info_host": old.get("info_host"),
    }
    if rerun:
        doc["info_host"] = f"{os.cpu_count()} logical CPUs, release build, traced, one run each"
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
