#!/usr/bin/env python3
"""Collect and compare result sets of the service benchmark.

    # ten runs of every workload (seeds 1..10), end-to-end and traced:
    python3 perfbench/compare.py run --out base.jsonl --runs 10
    # same for the change, then compare:
    python3 perfbench/compare.py run --out change.jsonl --runs 10
    python3 perfbench/compare.py diff base.jsonl change.jsonl

A result set is a JSON-lines file; each line is one benchmark result (the
last line run.py prints) with "workload" and "seed" added. `diff` prints,
per workload and end-to-end metric, each set's median and quartiles and
the change against the bound in BENCHMARK.json, then names the per-layer
metrics whose medians moved most, so a regression comes with the layer
that moved.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOP_LAYERS = 5  # per-layer metrics named per workload by `diff`


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def load_set(path):
    """{workload: {metric: [values]}} from a JSON-lines result set."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            per = out.setdefault(r["workload"], {})
            for name, m in r["metrics"].items():
                per.setdefault(name, []).append(m["value"])
            per.setdefault("_failed", []).append(r["failed"])
            per.setdefault("_incorrect", []).append(0 if r["correct"] else 1)
    return out


def rel_change(a, b):
    return (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))


def cmd_run(args):
    spec = load_spec()
    with open(args.out, "a") as out:
        for w in [w["name"] for w in spec["workloads"]]:
            for seed in range(1, args.runs + 1):
                for trace in (0, 1):
                    cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                             "--seconds", str(spec["run_seconds"]),
                                             "--trace", str(trace)]
                    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                    if p.returncode != 0:
                        sys.stderr.write(p.stderr[-2000:])
                        sys.exit(f"run failed: {' '.join(cmd)}")
                    r = json.loads(p.stdout.strip().splitlines()[-1])
                    out.write(json.dumps({"workload": w, "seed": seed, "trace": trace, **r}) + "\n")
                    out.flush()
                    print(f"{w} seed {seed} trace {trace}: correct={r['correct']}", file=sys.stderr)


def cmd_diff(args):
    spec = load_spec()
    a, b = load_set(args.base), load_set(args.change)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = [m["name"] for m in spec["per_layer"]]
    print(f"{'workload':16} {'metric':16} {'base q1/median/q3':>32} {'change q1/median/q3':>32}"
          f" {'delta':>8} {'bound':>6}  verdict")
    for w in sorted(set(a) & set(b)):
        for name, m in e2e.items():
            if name not in a[w] or name not in b[w]:
                continue
            qa, qb = quartiles(a[w][name]), quartiles(b[w][name])
            d = rel_change(qa[1], qb[1])
            worse = d if m["better"] == "lower" else -d
            spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0 for q in (qa, qb))
            if spread > m["bound"]:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            elif worse > m["bound"]:
                verdict = "WORSE"
            elif -worse > m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            fmt = lambda q: "%.4g / %.4g / %.4g" % q
            print(f"{w:16} {name:16} {fmt(qa):>32} {fmt(qb):>32} {100 * d:+7.2f}% "
                  f"{100 * m['bound']:5.0f}%  {verdict}")
        for key in ("_failed", "_incorrect"):
            if sum(b[w].get(key, [])) > sum(a[w].get(key, [])):
                print(f"{w:16} {key[1:]:16} base {sum(a[w][key])} -> change {sum(b[w][key])}  WORSE")
    print()
    print(f"per-layer metrics whose medians moved most (top {TOP_LAYERS} per workload):")
    for w in sorted(set(a) & set(b)):
        moved = []
        for name in layers:
            if name in a[w] and name in b[w]:
                ma, mb = statistics.median(a[w][name]), statistics.median(b[w][name])
                moved.append((abs(rel_change(ma, mb)), name, ma, mb))
        moved.sort(reverse=True)
        for mag, name, ma, mb in moved[:TOP_LAYERS]:
            if mag == 0:
                break
            print(f"  {w:16} {name:30} {ma:12.5g} -> {mb:12.5g} ({100 * rel_change(ma, mb):+.1f}%)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="append runs of the benchmark to a result set")
    r.add_argument("--out", required=True)
    r.add_argument("--runs", type=int, default=10)
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("base")
    d.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
    else:
        cmd_diff(args)


if __name__ == "__main__":
    main()
