#!/usr/bin/env python3
"""camvitals benchmark: the synth -> estimate -> groundtruth -> evaluate
round trip on seeded synthetic datasets.

    python3 bench/run.py --workload paper-manual --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is taken from its `src/`.
With `--trace 0` every step is a `camvitals` subprocess, as a user runs
it, and the end-to-end metrics are reported. With `--trace 1` the same
steps run in this process through `cli.main` with per-module timing
wrappers (see tracer.py), and the per-layer metrics are reported. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. A failed correctness check prints `"correct": false` and exits 1.
See README.md for why each workload exists and what each metric should
move.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"    # kept across runs: passed cascade hit checks
PY = sys.executable
CLI = [PY, "-m", "camvitals.cli"]
RENDER = [PY, str(BENCH / "render.py")]
RUN_LIMIT_S = 170.0      # every run must end within 180 s

END_TO_END = (  # (name, unit)
    ("setup_s", "s"),
    ("estimate_s", "s"),
    ("groundtruth_s", "s"),
    ("evaluate_s", "s"),
    ("setup_peak_rss_mb", "MB"),
    ("estimate_peak_rss_mb", "MB"),
    ("hr_mae_bpm", "bpm"),
    ("rr_mae_brpm", "brpm"),
    ("ok_trial_frac", "1"),
)

# traced-run metrics beside the tracer's spans and counters: {name: unit}
TRACE_EXTRAS = {"cli.import_s": "s", "trace.setup_s": "s", "trace.estimate_s": "s",
                "trace.groundtruth_s": "s", "trace.evaluate_s": "s",
                "trace.overhead_frac": "1"}


@dataclass(frozen=True)
class Workload:
    setup_reps: int
    trips: int               # at least 2: outputs are compared across round trips
    reps: int                # groundtruth/evaluate pairs per round trip
    cascade: bool
    estimate_args: tuple

    def setup_argv(self, seed, data):
        """The rendering command; --seed goes to the renderer unchanged."""
        seed = str(seed)
        if self.cascade:
            return RENDER + ["render", "--seed", seed, "--out", str(data)]
        return CLI + ["synth", "--out", str(data), "--protocol", "paper", "--seed", seed,
                      "--width", "32", "--height", "32", "--noise-sigma", "1.0"]

    def trip_argvs(self, data, out, reps):
        """(step, CLI arguments) of one round trip that writes into `out`:
        one estimate, then `reps` groundtruth/evaluate pairs. Pair r > 0
        writes gt{r}.csv and report{r}, so its outputs can be compared
        with those of pair 0."""
        est = str(out / "est.csv")
        cascade = ["--cascade", str(data / "cascade.json")] if self.cascade else []
        steps = [("estimate", ["estimate", "--data", str(data), "--out", est]
                  + cascade + list(self.estimate_args))]
        for tag in [""] + [str(r) for r in range(1, reps)]:
            gt = str(out / f"gt{tag}.csv")
            steps += [("groundtruth", ["groundtruth", "--data", str(data), "--out", gt]),
                      ("evaluate", ["evaluate", "--estimates", est, "--groundtruth", gt,
                                    "--out", str(out / f"report{tag}")])]
        return steps


WORKLOADS = {
    # 80 trials, 33,000 frames of 32x32; the ROI is the rendered face. One
    # set-up per run: writing 33,000 files takes 6-25 s, and the median
    # across runs carries setup_s. groundtruth and evaluate are short and
    # jittery (interpreter start), so each round trip runs them twice
    "paper-manual": Workload(1, 2, 2, False,
                             ("--roi", "manual:12,5,8,10", "--crop", "0,0,0,0")),
    # one 270-frame trial of 24x24 through the face-matched cascade; its
    # CLI calls are short, so it takes more round trips
    "cascade-face": Workload(2, 5, 1, True, ("--crop", "0,0,0,0")),
}


class CheckFailed(Exception):
    """A correctness check failed; the run reports no metrics."""


class Tally:
    """Trials attempted and failed across every estimate of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, log, deadline):
    """Run one process to its end: (wall seconds, peak RSS in MB, exit code).

    Peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which is a running maximum over all children.
    """
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def step(argv, log, deadline):
    """run_child that turns a non-zero exit into a failed check."""
    wall, rss, rc = run_child(argv, log, deadline)
    if rc != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        raise CheckFailed(f"{' '.join(str(a) for a in argv[1:4])} exited {rc}: "
                          + " | ".join(tail))
    return wall, rss


# ------------------------- output checks -------------------------
# The checks read the files with their own parsers, not the package's, so
# a defect in a package parser cannot hide itself.

def read_rows(path):
    with open(path, newline="", encoding="ascii") as f:
        return list(csv.DictReader(f))


def manifest_tasks(data):
    """{trial_id: task_id} in manifest order."""
    tasks = {}
    for line in (data / "manifest.txt").read_text(encoding="ascii").splitlines():
        parts = line.split()
        if len(parts) == 6 and not line.startswith("#"):
            tasks[parts[0]] = int(parts[2])
    return tasks


def check_rows(path, data):
    rows = read_rows(path)
    ids = [r["trial_id"] for r in rows]
    if ids != list(manifest_tasks(data)):
        raise CheckFailed(f"{path.name}: trial ids {ids} do not match the manifest")
    return rows


def digest(out):
    """{relative path: sha256} of every output file of one round trip."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def failed_trials(est_rows):
    return sum(1 for r in est_rows
               if "roi_failure" in r["flags"].split(";") or r["hr_est"] == "")


def accuracy(est_rows, data):
    """(hr MAE over all trials, rr MAE over non-hold-breath trials) against
    the injected rates in truth.csv."""
    truth = {r["trial_id"]: r for r in read_rows(data / "truth.csv")}
    tasks = manifest_tasks(data)
    hr = [abs(float(r["hr_est"]) - float(truth[r["trial_id"]]["hr_bpm"]))
          for r in est_rows if r["hr_est"]]
    rr = [abs(float(r["rr_est"]) - float(truth[r["trial_id"]]["rr_brpm"]))
          for r in est_rows if r["rr_est"] and tasks[r["trial_id"]] != 2]
    if not hr or not rr:
        raise CheckFailed("no trial has an estimate to score")
    return statistics.fmean(hr), statistics.fmean(rr)


def check_outputs(out, data, first_digest, tally):
    """Row and byte-identity checks on one round trip's outputs; returns
    its est.csv rows."""
    est = check_rows(out / "est.csv", data)
    check_rows(out / "gt.csv", data)
    repeats = ([(p, p.read_bytes(), (out / "gt.csv").read_bytes())
                for p in sorted(out.glob("gt?*.csv"))]
               + [(p, digest(p), digest(out / "report"))
                  for p in sorted(out.glob("report?*"))])
    for path, got, want in repeats:
        if got != want:
            raise CheckFailed(f"{out.name}: {path.name} differs from the round "
                              "trip's first")
    tally.attempted += len(est)
    tally.failed += failed_trials(est)
    if first_digest is not None and digest(out) != first_digest:
        raise CheckFailed(f"{out.name}: outputs differ from the first round trip")
    return est


def check_hits(data, deadline):
    """`render.py hits`: the cascade must find the face box on every frame.

    The result depends only on the package source, the renderer, the
    Python and numpy versions and the files `hits` reads, so a pass is
    recorded in CACHE under their digest and not repeated by later runs
    of the same checkout. The 270-frame scan costs as much as an estimate.
    """
    h = hashlib.sha256(f"{sys.version} numpy {metadata.version('numpy')}".encode())
    inputs = (sorted(SRC.rglob("*.py")) + [BENCH / "render.py", data / "manifest.txt",
                                           data / "cascade.json"]
              + sorted(data.rglob("*.ppm")))
    for path in inputs:
        h.update(f"\0{path.relative_to(ROOT)}\0".encode())
        h.update(path.read_bytes())
    mark = CACHE / f"hits-{h.hexdigest()}"
    if mark.exists():
        return
    step(RENDER + ["hits", "--data", data], WORK / "hits.log", deadline)
    CACHE.mkdir(exist_ok=True)
    mark.touch()


# ------------------------- untraced run -------------------------

def import_seconds(deadline):
    """Fresh-interpreter `import camvitals.cli`."""
    wall, _ = step([PY, "-c", "import camvitals.cli"], WORK / "import.log", deadline)
    return wall


def measured_run(w, seed, seconds, deadline, tally):
    data = WORK / "data"
    samples = {n: [] for n, _ in END_TO_END}
    for _ in range(w.setup_reps):
        shutil.rmtree(data, ignore_errors=True)
        wall, rss = step(w.setup_argv(seed, data), WORK / "setup.log", deadline)
        samples["setup_s"].append(wall)
        samples["setup_peak_rss_mb"].append(rss)
        # flush the rendered files now, not while the round trips are timed
        os.sync()
    if w.cascade:
        check_hits(data, deadline)

    first = None
    t0 = time.monotonic()
    trips = 0
    while True:
        out = WORK / f"trip{trips}"
        out.mkdir()
        trip_start = time.monotonic()
        for key, argv in w.trip_argvs(data, out, w.reps):
            wall, rss = step(CLI + argv, WORK / "step.log", deadline)
            samples[f"{key}_s"].append(wall)
            if key == "estimate":
                samples["estimate_peak_rss_mb"].append(rss)
        est = check_outputs(out, data, first, tally)
        if first is None:
            first = digest(out)
            hr_mae, rr_mae = accuracy(est, data)
        trips += 1
        now = time.monotonic()
        if trips >= w.trips and (now - t0 >= seconds
                                         or now + (now - trip_start) > deadline):
            break

    samples["hr_mae_bpm"] = [hr_mae]
    samples["rr_mae_brpm"] = [rr_mae]
    samples["ok_trial_frac"] = [1.0 - tally.failed / tally.attempted]
    metrics = {n: (statistics.median(samples[n]), unit) for n, unit in END_TO_END}
    return metrics, samples, ()


# ------------------------- traced run -------------------------

def traced_run(w, seed, deadline, tally):
    sys.path[:0] = [str(SRC), str(BENCH)]
    import render
    import tracer as tr
    from camvitals import cli

    data = WORK / "data"
    t = tr.Tracer()
    walls = {}

    def timed(key, fn, *args):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = fn(*args)
            walls[key] = walls.get(key, 0.0) + time.perf_counter() - t0
        if rc not in (0, None):
            raise CheckFailed(f"{key}: cli.main returned {rc}")

    def round_trip(out, prefix):
        out.mkdir()
        for key, argv in w.trip_argvs(data, out, 1):
            timed(prefix + key, cli.main, argv)

    with t.installed():
        if w.cascade:
            timed("setup", render.render, seed, data)
        else:
            timed("setup", cli.main, w.setup_argv(seed, data)[len(CLI):])
    # untraced, traced, untraced: the overhead compares the traced trip
    # with the mean of the two around it, which cancels a linear drift
    round_trip(WORK / "plain0", "plain.")
    first = digest(WORK / "plain0")
    check_outputs(WORK / "plain0", data, None, tally)
    with t.installed():
        round_trip(WORK / "traced", "")
    check_outputs(WORK / "traced", data, first, tally)
    round_trip(WORK / "plain1", "plain.")
    check_outputs(WORK / "plain1", data, first, tally)

    metrics = t.metrics()
    if w.cascade and metrics["detect.hit_frac"][0] != 1.0:
        raise CheckFailed(f"cascade found a face on {metrics['detect.hit_frac'][0]:.3f} "
                          "of the frames, not all")
    steps = ("estimate", "groundtruth", "evaluate")
    values = {"cli.import_s": import_seconds(deadline),
              "trace.overhead_frac": (2 * sum(walls[k] for k in steps)
                                      / sum(walls["plain." + k] for k in steps) - 1.0)}
    values.update({f"trace.{k}_s": walls[k] for k in ("setup",) + steps})
    metrics.update({n: (values[n], unit) for n, unit in TRACE_EXTRAS.items()})
    return metrics, {n: [v] for n, (v, _) in metrics.items()}, tr.COMPUTED_COUNTERS


# ------------------------- entry point -------------------------

def environment(args, samples, import_s, computed):
    """The run's environment record; `computed` names the work counts that
    come from call arguments rather than from counting work."""
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "cli.import_s": import_s, "samples": {n: len(v) for n, v in samples.items()},
            "values": samples, "computed_counters": list(computed)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measuring time; each workload also runs a "
                             "minimum number of round trips")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "camvitals" / "cli.py").is_file():
        print(f"error: no camvitals package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + RUN_LIMIT_S
    w = WORKLOADS[args.workload]
    tally = Tally()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            metrics, samples, computed = traced_run(w, args.seed, deadline, tally)
            import_s = metrics["cli.import_s"][0]
        else:
            import_s = import_seconds(deadline)
            metrics, samples, computed = measured_run(w, args.seed, args.seconds,
                                                      deadline, tally)
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, tally.attempted),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        # leave no writeback of the deletions to slow whatever runs next
        os.sync()

    print(json.dumps({"env": environment(args, samples, import_s, computed)}))
    for name, (value, unit) in metrics.items():
        label = ", computed" if name in computed else ""
        print(f"{name} {value:.6g} {unit} (n={len(samples[name])}{label})")
    print(json.dumps({"correct": True, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
