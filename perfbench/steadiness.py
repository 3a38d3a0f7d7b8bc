#!/usr/bin/env python3
"""Steadiness check for the engine benchmark.

    python3 perfbench/steadiness.py [--workloads q4_shed,mp_wal]
                                    [--runs 10] [--seconds 10] [--first-seed 1]

Runs every workload in two sets of `--runs` untraced runs, alternating
between the sets (A, B, A, B, ...).  Set A uses seeds first..first+runs-1 and
set B the next `--runs` seeds, so the comparison covers both machine noise
and input variation.  For each end-to-end metric it prints both sets'
median, quartiles (statistics.quantiles, n=4) and spread (Q3 - Q1 over the
median), and whether

  * each set's spread stays within the metric's bound in BENCHMARK.json
    (setup_s exempt), and below a third of it (the target),
  * set B's median is not worse than set A's by more than the bound,
  * both sets fail the same share of operations.

Run from the repository root; each run goes through perfbench/run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    all_ok = True
    for workload in args.workloads.split(","):
        sets = ([], [])
        for i in range(args.runs):
            for s in (0, 1):
                seed = args.first_seed + s * args.runs + i
                result = run_once(workload, seed, args.seconds)
                sets[s].append(result)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"  {workload} set {'AB'[s]} seed {seed}: {values}",
                      file=sys.stderr, flush=True)
        print(f"\n### {workload} ({args.runs} runs per set, "
              f"{args.seconds} s each)\n")
        print("| metric | set | median | Q1 | Q3 | spread | bound | "
              "spread ok | B vs A | median ok |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in (0, 1):
                vals = [r["metrics"][name]["value"] for r in sets[s]]
                med, q1, q3, spread = stats(vals)
                meds.append(med)
                ok = name == "setup_s" or spread <= bound
                target = "yes" if spread <= bound / 3 else ("ok" if ok else "NO")
                if name == "setup_s":
                    target = "exempt"
                all_ok &= ok
                if s == 0:
                    print(f"| {name} | A | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                          f"{spread:.4f} | {bound} | {target} | | |")
                else:
                    a, b = meds
                    worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                    mok = worse <= bound
                    all_ok &= mok
                    print(f"| {name} | B | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                          f"{spread:.4f} | {bound} | {target} | "
                          f"{(b - a) / a:+.4f} | {'yes' if mok else 'NO'} |")
        shares = [sum(r["failed"] for r in st) / sum(r["attempted"] for r in st)
                  for st in sets]
        same = shares[0] == shares[1]
        all_ok &= same
        print(f"\nfailed share: A {shares[0]:.6f}, B {shares[1]:.6f} "
              f"({'equal' if same else 'DIFFERENT'})")
    print(f"\nverdict: {'steady' if all_ok else 'NOT steady'}")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
