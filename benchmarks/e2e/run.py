"""End-to-end benchmark runner: Lyra on five named workloads.

One run of one workload (what ``BENCHMARK.json``'s command executes):

    python3 benchmarks/e2e/run.py --workload lyra_pair --seed 0 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line.  ``--trace 0`` is the untraced run that gives the
end-to-end metrics; ``--trace 1`` is a separate traced run that gives
the per-layer metrics.  The whole benchmark, each workload in a fresh
subprocess, into one result file:

    python3 benchmarks/e2e/run.py --all [--seed 0]

and to judge one result file against another with the metrics' bounds:

    python3 benchmarks/e2e/run.py compare BASE.json CHANGE.json

``--smoke`` runs every workload at a tiny size and checks only the
shape of the output.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import e2e_metrics as M  # noqa: E402

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

#: untraced runs of each workload in ``--all`` (plus one traced run)
ALL_UNTRACED_RUNS = 3


def _require_program() -> None:
    """The benchmark measures the program in this checkout or nothing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def _paper354_solve_ms(seed: int) -> float:
    """§5.2's worst case — 354 items over 245 GPUs — beside the paper's
    20 ms: Fig. 6-shaped groups, median of five solves."""
    from repro.core.mckp import Item, solve_mckp

    rng = random.Random(seed)
    groups, items = [], 0
    while items < 354:
        size = min(rng.randint(1, 8), 354 - items)
        gpw, base = rng.choice([1, 2]), rng.uniform(50, 5000)
        groups.append([
            Item(weight=k * gpw, value=base * k / (k + 1))
            for k in range(1, size + 1)
        ])
        items += size
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        solve_mckp(groups, 245)
        samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def _median_of(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def _run_sim(name, seed, seconds, trace, smoke) -> dict:
    import e2e_sim

    out = e2e_sim.run_workload(name, seed, seconds, bool(trace), smoke)
    samples, warm = out["samples"], out["warmup"]
    record = {
        "attempted": out["attempted"], "failed": out["failed"],
        "problems": out["problems"],
        "info": {
            "samples": len(samples),
            "sub_seeds": [s["sub_seed"] for s in samples],
            "digest_sample0": samples[0]["digest"],
            "run_wall_s_each": [s["run_wall_s"] for s in samples],
        },
    }
    if trace:
        layers = {
            key: statistics.median(s["layers"].get(key, 0) for s in samples)
            for key, _, _ in M.PER_LAYER
        }
        layers["harness.trace_overhead_share"] = (
            samples[0]["run_wall_s"] / warm["run_wall_s"] - 1.0
        )
        record["metrics"] = layers
        record["info"]["missing_targets"] = samples[0]["missing_targets"]
        record["info"]["traced_run_wall_s"] = _median_of(samples, "run_wall_s")
    else:
        record["metrics"] = {
            "cpu_s": _median_of(samples, "cpu_s"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _median_of(samples, "setup_s"),
        }
        record["extended"] = {
            "run_wall_s": _median_of(samples, "run_wall_s"),
            **samples[0]["simulated"],
            "failed_share": out["failed"] / out["attempted"],
        }
    return record


def _run_serve(seed, seconds, trace, smoke) -> dict:
    import e2e_serve

    boots = 1 if smoke else e2e_serve.SETUP_BOOTS
    out = e2e_serve.run_workload(seed, seconds, bool(trace), boots)
    record = {
        "attempted": out["attempted"], "failed": out["failed"],
        "problems": out["problems"],
        "info": {
            "steps": out["steps"],
            "setup_samples": out["setup_samples"],
            "ack_samples": out["ack_samples"],
            "submit_to_start_samples": out["submit_to_start_samples"],
            "recovered_jobs_checked": out["recovered_jobs_checked"],
            "cancel_raced": out["cancel_raced"],
        },
    }
    if trace:
        layers = M.layer_metrics(out["summary"])
        layers["recovery.restart_replayed"] = out["restart_replayed"]
        layers["serve.generator_late_p99_ms"] = out["generator_late_p99_ms"]
        layers["harness.trace_overhead_share"] = out["trace_overhead_share"]
        record["metrics"] = layers
        record["info"]["missing_targets"] = out["summary"]["missing_targets"]
    else:
        record["metrics"] = {
            key: out[key] for key, _, _, _ in M.END_TO_END
        }
        record["extended"] = {
            key: out[key] for key, _, _, _ in M.EXTENDED["serve"]
            if key != "failed_share"
        }
        record["extended"]["failed_share"] = out["failed"] / out["attempted"]
        record["info"]["generator_late_p99_ms"] = out["generator_late_p99_ms"]
    return record


def run_one(workload, seed, seconds, trace, smoke=False):
    if M.kind_of(workload) == "serve":
        record = _run_serve(seed, seconds, trace, smoke)
    else:
        record = _run_sim(workload, seed, seconds, trace, smoke)
    if trace:
        record["metrics"]["mckp.paper354_solve_ms"] = _paper354_solve_ms(seed)
        record["metrics"] = {
            key: record["metrics"].get(key, 0) for key, _, _ in M.PER_LAYER
        }
    record.update(workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), smoke=smoke,
                  correct=not record["problems"])
    return record


def print_record(record: dict) -> None:
    mode = "traced, per-layer" if record["trace"] else "untraced, end-to-end"
    print(f"== {record['workload']}  seed {record['seed']}  ({mode})")
    for title in ("metrics", "extended"):
        for key, value in record.get(title, {}).items():
            print(f"  {key:32s} {value:16.6f} {M.unit_of(key)}")
    info = record["info"]
    for key in ("samples", "setup_samples", "ack_samples",
                "submit_to_start_samples", "recovered_jobs_checked",
                "cancel_raced", "sub_seeds", "digest_sample0",
                "missing_targets"):
        if key in info:
            print(f"  {key:32s} {info[key]}")
    for step in info.get("steps", ()):
        print("  step " + "  ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in step.items()
        ))
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": value, "unit": M.unit_of(key)}
            for key, value in record["metrics"].items()
        },
    }))


# ----------------------------------------------------------------------
# the whole benchmark, and the smoke run
# ----------------------------------------------------------------------
def _child(workload, seed, seconds, trace, smoke=False) -> dict:
    """One workload in a fresh subprocess, so its peak RSS is its own."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record_path = results / f".record-{workload}-{trace}-{time.time_ns()}.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--record", str(record_path)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, capture_output=True, text=True, cwd=str(ROOT))
    lines = done.stdout.strip().splitlines()
    record = None
    if record_path.exists():
        record = json.loads(record_path.read_text())
        record_path.unlink()
    return {"returncode": done.returncode, "stderr": done.stderr,
            "last_line": lines[-1] if lines else "", "record": record}


def run_all(seed: int, seconds: float, out_path: Path) -> int:
    records, ok = [], True
    for workload in M.WORKLOADS:
        for trace, repeats in ((0, ALL_UNTRACED_RUNS), (1, 1)):
            for _ in range(repeats):
                child = _child(workload, seed, seconds, trace)
                if child["record"] is None:
                    print(f"{workload}: run failed\n{child['stderr']}",
                          file=sys.stderr)
                    ok = False
                    continue
                print_record(child["record"])
                records.append(child["record"])
                ok = ok and child["record"]["correct"]
    with open(out_path, "w") as fh:
        json.dump({"seed": seed, "seconds": seconds, "records": records},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


def _shape_errors(trace: int, last_line: str) -> list:
    try:
        result = json.loads(last_line)
    except ValueError:
        return [f"last line is not JSON: {last_line[:80]!r}"]
    errors = []
    if tuple(result) != RESULT_KEYS:
        errors.append(f"keys {list(result)} != {list(RESULT_KEYS)}")
        return errors
    table = M.PER_LAYER if trace else M.END_TO_END
    want = {row[0]: row[1] for row in table}
    if set(result["metrics"]) != set(want):
        errors.append(f"metric names differ: "
                      f"{sorted(set(result['metrics']) ^ set(want))}")
    for key, cell in result["metrics"].items():
        if (set(cell) != {"value", "unit"}
                or not isinstance(cell["value"], (int, float))
                or cell["unit"] != want.get(key)):
            errors.append(f"bad cell {key}: {cell}")
    if not trace and any(c["value"] <= 0 for c in result["metrics"].values()):
        errors.append("an end-to-end metric is not positive")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted={result['attempted']!r}")
    return errors


def run_smoke(seed: int) -> int:
    """Every workload, both modes, tiny sizes; checks output shape only."""
    jobs = [(w, t) for w in M.WORKLOADS for t in (0, 1)]

    def one(job):
        workload, trace = job
        seconds = 1.5 if M.kind_of(workload) == "serve" else 2.0
        child = _child(workload, seed, seconds, trace, smoke=True)
        errors = _shape_errors(trace, child["last_line"])
        if child["returncode"] != 0:
            errors.append(f"exit code {child['returncode']}: "
                          f"{child['stderr'][-400:]}")
        return workload, trace, errors

    failures = []
    # shape, not speed: the children may share the cores
    with ThreadPoolExecutor(max_workers=3) as pool:
        for workload, trace, errors in pool.map(one, jobs):
            print(f"{workload:14s} trace={trace}  "
                  f"{'ok' if not errors else 'FAIL'}")
            for error in errors:
                print(f"    {error}")
            failures.extend(errors)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} problem(s)"))
    return 0 if not failures else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _spread(values) -> float:
    """Run-to-run spread as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / abs(med)
    return (max(values) - min(values)) / abs(med)


def _verdict(base, change, better: str, bound) -> str:
    if bound is None:  # deterministic output: must repeat exactly
        return "ok" if set(base) == set(change) and len(set(base)) == 1 \
            else "worse"
    sign = 1.0 if better == "lower" else -1.0
    mb, mc = statistics.median(base), statistics.median(change)
    if bound == "step":  # one ladder step = a factor of two
        return "ok" if mc >= mb / 2.0 else "worse"
    if max(_spread(base), _spread(change)) > bound:
        every_run_better = max(sign * c for c in change) < min(
            sign * b for b in base)
        return "ok" if every_run_better else "unresolved"
    worse_by = sign * (mc - mb) / abs(mb) if mb else 0.0
    return "ok" if worse_by <= bound else "worse"


def run_compare(base_path: str, change_path: str) -> int:
    def load(path):
        cells = {}
        for record in json.loads(Path(path).read_text())["records"]:
            if record["trace"]:
                continue
            for title in ("metrics", "extended"):
                for key, value in record[title].items():
                    cells.setdefault((record["workload"], key), []).append(
                        value)
        return cells

    base, change = load(base_path), load(change_path)
    bad = 0
    print(f"{'workload':14s} {'metric':26s} {'base':>12s} {'change':>12s} "
          f"{'bound':>6s}  verdict")
    for workload in M.WORKLOADS:
        rows = [(n, b, bd) for n, _, b, bd in M.END_TO_END]
        rows += [(n, b, bd) for n, _, b, bd in M.EXTENDED[M.kind_of(workload)]]
        for name, better, bound in rows:
            key = (workload, name)
            if key not in base or key not in change:
                verdict, mb, mc = "unresolved", float("nan"), float("nan")
            else:
                verdict = _verdict(base[key], change[key], better, bound)
                mb = statistics.median(base[key])
                mc = statistics.median(change[key])
            bad += verdict != "ok"
            shown = "exact" if bound is None else str(bound)
            print(f"{workload:14s} {name:26s} {mb:12.4f} {mc:12.4f} "
                  f"{shown:>6s}  {verdict}")
    print(f"{bad} row(s) not ok")
    return 0 if bad == 0 else 1


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare BASE.json CHANGE.json",
                  file=sys.stderr)
            return 2
        return run_compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(M.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=M.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced, each in "
                             "a fresh subprocess, into one result file")
    parser.add_argument("--out", help="result file for --all")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; alone: all workloads, shape check")
    parser.add_argument("--record", help="also write this run's full record")
    args = parser.parse_args(argv)
    _require_program()

    if args.workload is None:
        if args.smoke:
            return run_smoke(args.seed)
        if args.all:
            out = Path(args.out) if args.out else (
                HERE / "results" / f"e2e-seed{args.seed}-{int(time.time())}.json"
            )
            return run_all(args.seed, args.seconds, out)
        parser.error("give --workload, --all or --smoke")

    record = run_one(args.workload, args.seed, args.seconds, args.trace,
                     smoke=args.smoke)
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
