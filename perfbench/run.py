#!/usr/bin/env python3
"""Screening benchmark: builds the driver, runs one workload, prints metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid-kepler-32k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --make-reference grid-kepler-32k

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench. A run prints the run record, every metric by name
with its unit, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "scod_perfbench"
SELFTEST = BUILD / "perfbench_selftest"
REFERENCE_DIR = HERE / "reference"

# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_BOUND = 0.25

# Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class SpecError(ValueError):
    """BENCHMARK.json breaks the benchmark contract."""


def validate_spec(spec):
    """Raises SpecError when BENCHMARK.json's shape, names or bounds are invalid."""
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        raise SpecError(f"keys {sorted(spec)} != {sorted(expected)}")
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        raise SpecError("command must be a list of at most 32 strings")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        raise SpecError("paths must list 1 to 16 directories")
    for p in paths:
        if not (isinstance(p, str) and PATH_RE.match(p)) or p.startswith("/") or ".." in p.split("/"):
            raise SpecError(f"bad path {p!r}")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        raise SpecError("run_seconds must be a whole number from 1 to 60")

    names = set()

    def take(name):
        if not (isinstance(name, str) and NAME_RE.match(name)):
            raise SpecError(f"bad name {name!r}")
        if name in names:
            raise SpecError(f"name {name!r} used twice")
        names.add(name)

    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        raise SpecError("2 to 8 workloads")
    for w in workloads:
        if not (isinstance(w, dict) and set(w) == {"name", "why"}):
            raise SpecError(f"workload {w!r} needs exactly name and why")
        take(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            raise SpecError(f"why of {w['name']} must be one line of at most 200 characters")

    def check_metrics(key, low, high, bounded):
        metrics = spec[key]
        if not (isinstance(metrics, list) and low <= len(metrics) <= high):
            raise SpecError(f"{key} must hold {low} to {high} metrics")
        fields = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in metrics:
            if not (isinstance(m, dict) and set(m) == fields):
                raise SpecError(f"{key} metric {m!r} needs exactly {sorted(fields)}")
            take(m["name"])
            if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
                raise SpecError(f"bad unit {m['unit']!r} of {m['name']}")
            if m["better"] not in ("lower", "higher"):
                raise SpecError(f"better of {m['name']} must be lower or higher")
            if bounded:
                bound = m["bound"]
                if not (isinstance(bound, (int, float)) and not isinstance(bound, bool)
                        and 0 < bound <= MAX_BOUND):
                    raise SpecError(f"bound of {m['name']} must be in (0, {MAX_BOUND}]")

    check_metrics("end_to_end", 1, 16, True)
    check_metrics("per_layer", 1, 128, False)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"):
        raise SpecError("end_to_end needs setup_s in s, better lower")


def load_spec(path=SPEC):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    validate_spec(spec)
    return spec


def nearest_rank(ordered, p):
    """The ceil(p/100 * n)-th smallest of the sorted samples, and its rank."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], rank


def tail(values):
    """Highest candidate percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond) by nearest rank, or None
    when even the median has fewer than ten samples beyond it.
    """
    ordered = sorted(values)
    best = None
    for p in TAIL_PERCENTILES:
        if not ordered:
            break
        value, rank = nearest_rank(ordered, p)
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            best = (p, value, len(ordered) - rank)
    return best


def median(values):
    return statistics.median(values) if values else 0.0


def derived_layers(driver):
    """Per-layer values computed from the driver's raw samples."""
    epochs = driver.get("epoch_s", [])
    found = tail(epochs)
    return {
        "service.epochs": float(len(epochs)),
        # Nearest rank, like the tail, so the tail is never below it.
        "service.epoch_p50_s": nearest_rank(sorted(epochs), 50.0)[0] if epochs else 0.0,
        "service.epoch_tail_s": found[1] if found else 0.0,
    }


def metrics_from(driver, spec, trace):
    """The contract's metrics object for one driver record."""
    if trace:
        values = dict(driver["layers"])
        values.update(derived_layers(driver))
        declared = spec["per_layer"]
    else:
        values = {
            "latency_s": median(driver["op_s"]),
            "setup_s": median(driver["setup_s"]),
            "peak_rss_mb": driver["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    unknown = sorted(set(values) - set(names))
    if missing or unknown:
        raise SpecError(f"metrics missing {missing}, undeclared {unknown}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def result_line(driver, metrics):
    return {
        "correct": bool(driver["correct"]),
        "attempted": int(driver["attempted"]),
        "failed": int(driver["missed"]) + int(driver["extra"]),
        "metrics": metrics,
    }


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def print_human(driver, metrics, trace):
    print("record: " + json.dumps(driver["record"], sort_keys=True))
    print("facts: " + json.dumps(driver["facts"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"conj_reference {driver['attempted']} count")
    print(f"conj_missed {driver['missed']} count")
    print(f"conj_extra {driver['extra']} count")
    print(f"conj_known_misses {driver['known_misses']} count")
    epochs = driver["epoch_s"] if trace else []
    if not trace and driver["record"]["workload"].startswith("service"):
        epochs = driver["op_s"]
    if epochs:
        found = tail(epochs)
        if found:
            print(f"epoch tail: p{found[0]:g} = {found[1]:.6g} s over {len(epochs)} epochs "
                  f"({found[2]} beyond)")
        else:
            print(f"epoch tail: none ({len(epochs)} epochs, fewer than "
                  f"{2 * TAIL_MIN_BEYOND} needed for a median with {TAIL_MIN_BEYOND} beyond)")
    if trace:
        print("spans: " + json.dumps(driver["spans"]))
    if driver["failure"]:
        print("failure: " + driver["failure"])


def run_driver(args):
    command = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference-dir", str(REFERENCE_DIR)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no record")
    return json.loads(lines[-1])


def selftest():
    build(["scod_perfbench", "perfbench_selftest"])
    failed = subprocess.run([str(SELFTEST)]).returncode != 0
    suite = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                            str(HERE / "tests"), "-p", "test_*.py", "-v"])
    return 1 if failed or suite.returncode != 0 else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--make-reference", metavar="WORKLOAD")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.selftest:
            return selftest()
        if args.make_reference:
            build(["scod_perfbench"])
            command = [str(DRIVER), "--make-reference", args.make_reference,
                       "--reference-dir", str(REFERENCE_DIR)]
            return subprocess.run(command).returncode
        if not args.workload:
            parser.error("--workload is required")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build(["scod_perfbench"])
        driver = run_driver(args)
        metrics = metrics_from(driver, spec, args.trace == 1)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print_human(driver, metrics, args.trace == 1)
    print(json.dumps(result_line(driver, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
