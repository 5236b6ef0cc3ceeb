#!/usr/bin/env python3
"""Build memo-ledger from this checkout and run it.

Run from the root of a checkout:

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload. The last line of stdout is one JSON object with the
      keys correct, attempted, failed and metrics: the end-to-end metrics
      of BENCHMARK.json with --trace 0, its per-layer metrics with
      --trace 1 (the Chrome trace goes to the build directory).
  python3 benchmark/run.py all --seed N [--seconds S] [--out FILE]
      Every BENCHMARK.json workload, each in its own process, one after
      another; FILE collects their results.
  python3 benchmark/run.py compare BASE.json... -- HEAD.json...
      Per workload and end-to-end metric: each side's median and
      quartiles over its runs and a verdict against the bound.
  python3 benchmark/run.py selftest
      memo-ledger selftest: every workload's check must catch a fault.

The build goes to $CARGO_TARGET_DIR (default .bench_build) and spill
files to its tmp/ directory, so nothing is written outside the checkout.
"""

import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
# A run must end within 180 s; stop the child before the caller does.
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then bring memo-ledger up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "memo-ledger"]]
        # A configure that failed leaves a cache but no build system.
        if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
            steps.insert(0, ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build failed: " + " ".join(cmd))
    return BUILD / "memo-ledger"


def ledger(args, timeout=None):
    """Run memo-ledger with spill files kept inside the build directory."""
    exe = build()
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    return subprocess.run([str(exe)] + args + ["--root", str(ROOT)], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)


def run_one(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"} \
            or opts["--trace"] not in ("0", "1"):
        sys.exit(__doc__)
    workload, seed, traced = opts["--workload"], opts["--seed"], opts["--trace"] == "1"
    args = ["run", "--workload", workload, "--seed", seed, "--seconds", opts["--seconds"]]
    if traced:
        args += ["--trace", str(BUILD / f"trace-{workload}-{seed}.json")]
    p = ledger(args, timeout=RUN_TIMEOUT_S)
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    # The binary's metric table and BENCHMARK.json must agree exactly.
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()} if result else None
    if got != want:
        print(p.stdout, end="", file=sys.stderr)
        sys.exit(f"run.py: memo-ledger metrics {got} do not match BENCHMARK.json {want}")
    print(p.stdout, end="")
    return p.returncode


def run_all(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or "--seed" not in opts or not set(opts) <= {"--seed", "--seconds", "--out"}:
        sys.exit(__doc__)
    seconds = opts.get("--seconds", str(SPEC["run_seconds"]))
    runs, rc = [], 0
    for w in SPEC["workloads"]:
        out = BUILD / "tmp" / f"all-{w['name']}.json"
        p = ledger(["run", "--workload", w["name"], "--seed", opts["--seed"],
                    "--seconds", seconds, "--out", str(out)])
        print(p.stdout, end="")
        rc = rc or p.returncode
        if not out.exists():
            print(f"FAILED {w['name']} wrote no result")
            continue
        runs.append(json.loads(out.read_text()))
        out.unlink()
    digests = {r["workload"]: r["result_digest"] for r in runs}
    if digests.get("capped_fig3", digests.get("fig3_sweep")) != digests.get("fig3_sweep"):
        print("FAILED capped_fig3 result_digest differs from fig3_sweep's")
        rc = rc or 1
    if "--out" in opts:
        Path(opts["--out"]).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"{'workload':16} {'correct':8} {'failed':>9}  result_digest")
    for r in runs:
        print(f"{r['workload']:16} {str(r['correct']).lower():8} "
              f"{r['failed']:>4}/{r['attempted']:<4}  {r['result_digest']}")
    return rc


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def compare(argv):
    if "--" not in argv:
        if len(argv) != 2:
            sys.exit(__doc__)
        argv = [argv[0], "--", argv[1]]
    cut = argv.index("--")

    def load(files):
        by_workload = {}
        for f in files:
            doc = json.loads(Path(f).read_text())
            for r in doc.get("runs", [doc]):
                by_workload.setdefault(r["workload"], []).append(r)
        return by_workload

    base, head = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not head:
        sys.exit(__doc__)
    rc = 0
    print(f"{'workload':16} {'metric':20} {'base q1/median/q3':>34} "
          f"{'head q1/median/q3':>34} {'worse by':>8} {'bound':>6}  verdict")
    for w in sorted(set(base) | set(head)):
        a, b = base.get(w, []), head.get(w, [])
        if not a or not b:
            print(f"{w:16} only on one side")
            rc = 1
            continue
        digests = {r["result_digest"] for r in a + b}
        if len(digests) > 1:
            print(f"{w:16} result_digest MISMATCH: {sorted(digests)}")
            rc = 1
        if any(not r["correct"] for r in a + b):
            print(f"{w:16} a run FAILED its checks")
            rc = 1
        for m in SPEC["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (qb[1] - qa[1]) / qa[1]
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
            if spread > m["bound"]:
                # Too noisy to judge, unless every head run beats every base run.
                head_wins = max(vb) < min(va) if sign > 0 else min(vb) > max(va)
                verdict = "ok" if head_wins else "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rc = rc or (verdict == "worse")
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
            print(f"{w:16} {m['name']:20} {fmt(qa):>34} {fmt(qb):>34} "
                  f"{100 * worse_by:+7.2f}% {m['bound']:6.2f}  {verdict}")
    return rc


def main(argv):
    if argv[:1] == ["all"]:
        return run_all(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["selftest"]:
        p = ledger(["selftest"])
        print(p.stdout, end="")
        return p.returncode
    return run_one(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
