#!/usr/bin/env python3
"""The specmatcher benchmark: what a `specmatcher check` user waits for.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --audit [--workload <name>]

The script builds the measuring probe (`perfbench/src/main.rs`, a package
of its own that links the repository's crates) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it one process per check, so every
check starts as cold as a `specmatcher check` does. It is a closed loop
with one client: each check starts when the last one ends.

* `--trace 0` runs one warm-up check, then untraced checks until
  `--seconds` have passed (at least one), and reports the medians of the
  end-to-end metrics over those checks. The times are taken at the
  reference host speed: each check process first times a fixed reference
  kernel that runs none of the repository's code (`ref_s`), and each of
  its times is scaled by `REFERENCE_S / ref_s`. The shared host's speed
  swings by a third within minutes and moves the kernel with the check,
  so the scaled times stay steady where the raw ones do not. The raw
  medians are in the provenance line.
* `--trace 1` runs untraced and traced checks in alternation until
  `--seconds` have passed (at least one pair), and reports the median of
  each per-layer metric over the traced checks, with the tracing overhead
  against the untraced checks of the same run.
* `--audit` repeats the traced check at `--jobs 1` and at `--jobs 2` and
  says, per worker count, which counter-based per-layer metrics repeated
  exactly and which varied.

Every check is verified against `perfbench/expected/<design>.json`: the
per-property verdicts, the ordered gap fingerprint, and the resolved
backends. A mismatch, an incomplete report, an error or a panic counts as
a failed check; its timings are still reported. The workloads are fixed
packaged designs, so the seed selects nothing: every seed gives the same
inputs, and it is echoed in the provenance line.

The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
provenance object. Exit status 0 with a result, 2 without one (the build
failed, the environment carries a `SPECMATCHER_*` override, bad usage).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# workload -> (design, expected primary backend, expected gap backend).
# The first two are the ones BENCHMARK.json lists; the Table 1 designs
# take 13-50 s a check and are run by hand.
WORKLOADS = {
    "malex2-symbolic": ("mal-ex2", "symbolic", "symbolic"),
    "malex2-explicit": ("mal-ex2", "explicit", "explicit"),
    "mal26-symbolic": ("mal-26", "symbolic", "symbolic"),
    "amba-explicit": ("amba-ahb", "explicit", "explicit"),
    "amba-symbolic": ("amba-ahb", "symbolic", "symbolic"),
}

# The reference kernel's wall time at the reference host speed: about its
# median on the 2-vCPU VM the benchmark was made on.
REFERENCE_S = 0.02
# The end-to-end times, scaled to the reference host speed.
TIMES = ("setup_s", "primary_s", "gap_s", "report_s")

# Every process the script starts is killed past this point, so a run
# always ends within three minutes.
RUN_BUDGET_S = 170.0
# Traced checks per worker count in the counter audit.
AUDIT_REPEATS = 5

with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as _f:
    _DECLARED = json.load(_f)
# Metric name -> unit, as BENCHMARK.json declares them.
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
# The per-layer metrics made from counters alone (no time in them): the
# ones the determinism audit rates exact or varying.
COUNTER_METRICS = [m["name"] for m in _DECLARED["per_layer"]
                   if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def refuse_overrides():
    overrides = sorted(k for k in os.environ if k.startswith("SPECMATCHER_"))
    if overrides:
        die(f"refusing to measure with {', '.join(overrides)} set")


def build_probe():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        # Cargo's progress goes to stderr; keep stdout for the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"cannot build the probe: {e}")
    if done.returncode != 0:
        die("building the probe failed")
    return Path(target).resolve() / "release" / "perfbench-probe"


def source_revision():
    """The git revision, or a digest of the sources outside a repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    root = BENCH_DIR.parent
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "src", BENCH_DIR.name):
        files += (root / top).rglob("*.rs")
        files += (root / top).rglob("Cargo.toml")
    for path in sorted(p for p in files if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


class Probe:
    def __init__(self, binary, workload, deadline):
        self.binary = binary
        self.workload = workload
        self.deadline = deadline
        self.expected = load_expected(WORKLOADS[workload][0])
        self.attempted = 0
        self.failed = 0

    def check(self, traced=False, jobs=2):
        """One verified check in a fresh process: its record, with the
        check's wall time, or an `error` record."""
        cmd = [str(self.binary), "--workload", self.workload, "--jobs", str(jobs)]
        if traced:
            cmd.append("--trace")
        timeout = self.deadline - time.monotonic()
        self.attempted += 1
        t0 = time.monotonic()
        if timeout <= 0:
            record = {"error": "no time left in the run"}
        else:
            record = self._run(cmd, timeout)
        record["wall_s"] = time.monotonic() - t0
        found = problems(record, self.workload, self.expected)
        if found:
            self.failed += 1
            kind = "traced check" if traced else "check"
            print(f"perfbench: failed {kind}: {'; '.join(found)}", file=sys.stderr)
        return record

    @staticmethod
    def _run(cmd, timeout):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": "check timed out"}
        if done.returncode == 2:
            die(f"probe refused: {done.stderr.strip()}")
        try:
            return json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = done.stderr.strip()[-400:]
            return {"error": f"check exited {done.returncode} without a record: {tail}"}

    def time_left_for(self, records):
        """Whether another check like the last one fits in the run."""
        return time.monotonic() + records[-1]["wall_s"] * 1.2 <= self.deadline


def load_expected(design):
    with open(BENCH_DIR / "expected" / f"{design}.json", encoding="utf-8") as f:
        return json.load(f)


def problems(record, workload, expected):
    """Why a check record is wrong; empty when it is right."""
    if "error" in record:
        return [record["error"]]
    _, primary, gap = WORKLOADS[workload]
    found = []
    if record.get("incomplete"):
        found.append(f"incomplete report: {record['incomplete']}")
    if record["verdicts"] != expected["verdicts"]:
        found.append(f"verdicts {record['verdicts']} != {expected['verdicts']}")
    if record["fingerprint"] != expected["fingerprint"]:
        found.append("gap fingerprint differs from the expected record")
    if (record["primary_backend"], record["gap_backend"]) != (primary, gap):
        found.append(f"backends {record['primary_backend']}/{record['gap_backend']} "
                     f"!= {primary}/{gap}")
    return found


PROVENANCE_KEYS = ["primary_backend", "gap_backend", "bmc", "jobs", "nproc",
                   "reduction", "bdd_node_limit", "partition", "reorder"]


def provenance(args, records, raw):
    prov = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "revision": source_revision(), "raw_medians": raw}
    for record in records:
        if "error" not in record:
            prov.update({k: record[k] for k in PROVENANCE_KEYS})
            break
    return prov


def median(key, records):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def metric(name, value):
    return {"value": value, "unit": UNITS[name]}


def untraced(probe, seconds):
    """A warm-up check, then checks for the run; medians over the latter."""
    warmup = probe.check()
    checks = []
    start = time.monotonic()
    while not checks or time.monotonic() - start < seconds:
        if checks and not probe.time_left_for(checks):
            break
        checks.append(probe.check())
    measured = [r for r in checks if "ref_s" in r]
    values = {name: statistics.median(r[name] * REFERENCE_S / r["ref_s"] for r in measured)
              if measured else 0.0 for name in TIMES}
    values["peak_rss_mib"] = median("peak_rss_mib", checks)
    values["pass_share"] = 1 - probe.failed / probe.attempted
    metrics = {name: metric(name, value) for name, value in values.items()}
    raw = {name: median(name, checks) for name in TIMES + ("ref_s",)}
    return [warmup] + checks, metrics, raw


def traced(probe, seconds):
    """Untraced and traced checks in alternation; per-layer medians over
    the traced ones, and the tracing overhead."""
    plain, recorded = [], []
    start = time.monotonic()
    while not recorded or time.monotonic() - start < seconds:
        if recorded and not probe.time_left_for(plain + recorded):
            break
        plain.append(probe.check())
        recorded.append(probe.check(traced=True))
    layers = [r["metrics"] for r in recorded if "metrics" in r]
    names = layers[0].keys() if layers else []
    values = {name: statistics.median(m[name] for m in layers) for name in names}
    values["trace.report_s"] = median("report_s", recorded)
    values["trace.untraced_report_s"] = median("report_s", plain)
    # Each traced check against the untraced one just before it, so a
    # shift in the host's speed during the run cancels out.
    ratios = [r["report_s"] / p["report_s"] for p, r in zip(plain, recorded)
              if "report_s" in p and "report_s" in r]
    values["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
    metrics = {name: metric(name, value) for name, value in values.items()}
    return plain + recorded, metrics, {"ref_s": median("ref_s", plain + recorded)}


def audit(binary, workloads):
    """Which counter metrics repeat exactly, at each worker count."""
    report = {}
    for workload in workloads:
        runs = {1: [], 2: []}
        for jobs, repeats in runs.items():
            for _ in range(AUDIT_REPEATS):
                probe = Probe(binary, workload, time.monotonic() + RUN_BUDGET_S)
                record = probe.check(traced=True, jobs=jobs)
                if probe.failed:
                    die(f"{workload} jobs {jobs}: traced check failed")
                repeats.append(record["metrics"])

        def verdict(name, jobs):
            return "exact" if len({r[name] for r in runs[jobs]}) == 1 else "varying"

        report[workload] = {
            name: {
                "jobs1": verdict(name, 1),
                "jobs2": verdict(name, 2),
                "values": {f"jobs{j}": [r[name] for r in rs] for j, rs in runs.items()},
            }
            for name in COUNTER_METRICS
        }
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--audit", action="store_true")
    args = parser.parse_args()
    if not args.audit and args.workload is None:
        parser.error("--workload is required")
    refuse_overrides()
    binary = build_probe()
    if args.audit:
        listed = [w["name"] for w in _DECLARED["workloads"]]
        workloads = [args.workload] if args.workload else listed
        print(json.dumps(audit(binary, workloads), indent=1, sort_keys=True))
        return
    probe = Probe(binary, args.workload, time.monotonic() + RUN_BUDGET_S)
    run = traced if args.trace else untraced
    records, metrics, raw = run(probe, args.seconds)
    print(json.dumps({"provenance": provenance(args, records, raw)}))
    print(json.dumps({"correct": probe.failed == 0, "attempted": probe.attempted,
                      "failed": probe.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
