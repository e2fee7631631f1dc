#!/usr/bin/env python3
"""Benchmark entry point (see perfbench/README.md). Run from the repo root.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Build the runner with dune, run one workload, and print its result
      as the last line of standard output.

  python3 perfbench/run.py sweep --workload W [--seeds tuning|held-out|A-B]
                                 [--trace 0|1] [--out FILE]
      Run the workload once per seed, each run run_seconds long (the length
      the bounds hold for), and print, per metric, the median,
      the quartiles and their distance as a share of the median (the
      spread the bounds in BENCHMARK.json are checked against).

  python3 perfbench/run.py compare BASE.json NEW.json
      Compare two sweep files of the same workload, length and trace
      setting metric by metric against the bounds in BENCHMARK.json;
      exits 1 if an end-to-end metric got worse by more than its bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("perfbench", "_out")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def seeds_of(spec):
    named = load_json(os.path.join(HERE, "seeds.json"))
    if spec in named:
        return named[spec]
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("perfbench: run from the repository root (BENCHMARK.json not found)")
    # dune's shared cache lives outside the checkout: keep it off
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./perfbench/calib.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        sys.exit("perfbench: building the runner failed")
    # keep the native engine's compiler temporaries inside the checkout
    tmp = os.path.abspath(os.path.join(OUT, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # the runner on one CPU, its serve daemons on another
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[0]})
        env["PERFBENCH_DAEMON_CPU"] = str(cpus[-1])
    # start with no dirty pages left by an earlier run's disk caches, whose
    # writeback would otherwise land in this run's measurement
    os.sync()
    sys.stdout.flush()
    os.execve(EXE, [EXE] + args, env)


def option(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def sweep(args):
    workload = option(args, "--workload")
    if workload is None:
        sys.exit("perfbench sweep: --workload is required")
    seconds = str(load_json("BENCHMARK.json")["run_seconds"])
    trace = option(args, "--trace", "0")
    seeds = seeds_of(option(args, "--seeds", "tuning"))
    out = option(args, "--out", os.path.join(OUT, f"sweep-{workload}-t{trace}.json"))
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", trace]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"perfbench sweep: seed {seed} failed (exit {p.returncode})")
        line = json.loads(lines[-1])
        runs.append({"seed": seed, **line})
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", file=sys.stderr)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump({"workload": workload, "seconds": seconds, "trace": trace, "runs": runs}, f, indent=1)
    report(runs)
    print(f"wrote {out}")


def series(runs):
    names = list(runs[0]["metrics"])
    return {n: [r["metrics"][n]["value"] for r in runs] for n in names}


def bounds():
    b = load_json("BENCHMARK.json")
    return {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}


def report(runs):
    meta = bounds()
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in series(runs).items():
        med, q1, q3, sp = spread(vals)
        bound = meta.get(name, {}).get("bound")
        flag = "" if bound is None or sp <= bound / 3 else "  > bound/3"
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(f"correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
          f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)} attempted")


def compare(args):
    if len(args) != 2:
        sys.exit("perfbench compare: BASE.json NEW.json")
    files = [load_json(p) for p in args]
    for key in ("workload", "seconds", "trace"):
        if files[0][key] != files[1][key]:
            sys.exit(f"perfbench compare: the files differ in {key} "
                     f"({files[0][key]} against {files[1][key]})")
    base, new = (series(f["runs"]) for f in files)
    meta = bounds()
    worse_than_bound = []
    print(f"{'metric':32} {'base':>12} {'new':>12} {'worse by':>9} {'bound':>6} verdict")
    for name in base:
        if name not in new:
            continue
        m = meta.get(name, {})
        bmed, _, _, bsp = spread(base[name])
        nmed = statistics.median(new[name])
        sign = -1 if m.get("better") == "higher" else 1
        worse = sign * (nmed - bmed) / bmed if bmed else 0.0
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif bsp > bound:
            verdict = "unresolved (base spread above bound)"
        elif worse > bound:
            verdict = "REGRESSION"
            worse_than_bound.append(name)
        else:
            verdict = "within bound"
        print(f"{name:32} {bmed:12.6g} {nmed:12.6g} {worse:+9.3f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    sys.exit(1 if worse_than_bound else 0)


def main():
    args = sys.argv[1:]
    if args[:1] == ["sweep"]:
        sweep(args[1:])
    elif args[:1] == ["compare"]:
        compare(args[1:])
    else:
        run(args)


if __name__ == "__main__":
    main()
