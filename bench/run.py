"""Certified-distance benchmark for mpm.

Usage, from the repository root::

    python3 bench/run.py --workload matchdist-random --seed 0 --seconds 35 --trace 0

Closed loop: one process, one thread, one op at a time.  The ops run in
whole passes over the workload's fixtures, in a fixed order, as many
passes as come closest to ``--seconds`` of op time.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates an untraced and
a traced pass over the fixtures and prints the per-layer metrics of the
traced passes.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds diagnostics.  Per-op records go to ``bench/out/``.  The
library is imported from ``src/`` next to this directory; without it the
benchmark exits with a non-zero code and prints no result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

from spans import COUNTERS, Tracer
from workloads import WORKLOADS, op_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_CAP_S = 30.0          # an op running longer fails (the library has no budget)
SETUP_REPEATS = 2        # set-ups before the first pass; one more follows each pass
MODULES = ("cellular", "errors", "fixtures", "fpm", "lines", "matchdist",
           "presdist", "presentation", "wasserstein")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeds OP_CAP_S."""


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S:g} s")


def load_library():
    """Import mpm afresh from ROOT/src; returns the modules namespace."""
    src = ROOT / "src"
    if not (src / "mpm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mpm sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "mpm" or n.startswith("mpm.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{name: importlib.import_module(f"mpm.{name}")
                              for name in MODULES})
    if Path(mods.fpm.__file__).resolve().parent != src / "mpm":
        raise SystemExit(f"bench: mpm imported from {mods.fpm.__file__}, not {src}")
    return mods


def timed_op(workload, mods, fx):
    """Run one op under the time cap; returns (wall seconds, output, error)."""
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = time.perf_counter()
    try:
        out = workload.op(mods, fx)
        err = None
    except (Exception, OpTimeout) as exc:  # a failed op is counted, the run goes on
        out, err = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return wall, out, err


class Runner:
    """Runs ops, checks their outputs and keeps the per-op records."""

    def __init__(self, workload, seed: int, reference):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.mods = self.fixtures = None
        self.setup_runs: list[float] = []
        self.warmup_errors: list[str] = []
        self.first_out: dict[str, object] = {}
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.mismatch = False

    def set_up(self):
        """Fresh import, fixtures from the seed and one warm-up op, timed.

        Runs before the first pass and again after every pass, so that
        the median set-up time samples the whole run rather than one
        moment of the host's load.
        """
        t0 = time.perf_counter()
        self.mods = load_library()
        self.fixtures = self.workload.build(self.mods, self.seed)
        # a failed warm-up is not fatal: the same op fails again when measured
        _, _, err = timed_op(self.workload, self.mods, self.fixtures[0])
        self.setup_runs.append(time.perf_counter() - t0)
        if err:
            self.warmup_errors.append(err)

    def run(self, fx, tracer=None) -> dict:
        wall, out, err = timed_op(self.workload, self.mods, fx)
        if tracer is not None:
            tracer.end_op()
        rec = {"fixture": fx.name, "wall_s": wall, "traced": tracer is not None}
        problems = [f"{self.workload.name}/{fx.name}: {err}"] if err else []
        if out is not None:
            rec.update(op_record(out))
            problems += self.check(fx, out)
        rec["ok"] = not problems
        self.problems += problems
        self.records.append(rec)
        return rec

    def check(self, fx, out) -> list[str]:
        """Full checks on a fixture's first op; later ops must repeat it exactly."""
        first = self.first_out.get(fx.name)
        if first is None:
            problems = self.workload.check(self.mods, fx, out, self.reference)
            self.first_out[fx.name] = (out, problems)
            self.mismatch |= bool(problems)
            return problems
        if op_record(first[0]) != op_record(out):
            self.mismatch = True
            return [f"{self.workload.name}/{fx.name}: output differs from its first op"]
        return first[1]

    def run_pass(self, tracer=None) -> float:
        """One op per fixture; returns the summed op wall time."""
        return sum(self.run(fx, tracer)["wall_s"] for fx in self.fixtures)


def measure(runner, seconds: float) -> dict:
    """Whole passes, as many as come closest to ``seconds`` of op time."""
    passes = []
    while not passes or sum(passes) + passes[-1] / 2 < seconds:
        passes.append(runner.run_pass())
        runner.set_up()
    return {"timed_s": sum(passes), "passes": len(passes)}


def measure_traced(runner, seconds: float, tracer) -> dict:
    """Untraced and traced passes in turn; counters come from traced passes."""
    untraced, traced, layer_runs = [], [], []
    while not traced or sum(untraced) + sum(traced) + (untraced[-1] + traced[-1]) / 2 < seconds:
        untraced.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.close()
            tracer.uninstall()
        layer_runs.append(tracer.metrics())
        runner.set_up()
    return {"timed_s": sum(untraced) + sum(traced), "passes": 2 * len(traced),
            "untraced": untraced,
            "traced": traced, "layer_runs": layer_runs, "missing": tracer.missing,
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "fn_calls": dict(tracer.fn_calls), "fn_s": dict(tracer.fn_s)}


def op_times(runner) -> list[tuple[float, int]]:
    """(mean wall time, op count) per fixture.

    Each fixture's repeats in the run are averaged before percentiles are
    taken, which keeps swings in host speed during single ops out of them;
    a fixture stands for as many ops as it ran.
    """
    by_fixture = defaultdict(list)
    for r in runner.records:
        by_fixture[r["fixture"]].append(r["wall_s"])
    return sorted((statistics.mean(t), len(t)) for t in by_fixture.values())


def e2e_metrics(runner, setup_s: float, timed_s: float) -> dict:
    recs = runner.records
    means = [m for m, _ in op_times(runner)]
    ok = sum(r["ok"] for r in recs)
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(means), "s"),
        "op_s.tail": (statistics.quantiles(means, n=100, method="inclusive")
                      [runner.workload.tail_pct - 1], "s"),
        "ops_per_s": (ok / timed_s, "1/s"),
        "ok_frac": (ok / len(recs), "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


LAYER_UNITS = {"self_s": "s", "assign_s": "s", "bottleneck_s": "s",
               "lines_per_s": "1/s", "repeat_frac": "frac", "overhead_frac": "frac",
               "cpu_frac": "frac", "bytes": "B", "assign_mean_n": "n"}


def layer_metrics(result: dict, cpu_frac: float) -> dict:
    runs = result["layer_runs"]
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        kind = name.split(".", 1)[1]
        unit = LAYER_UNITS.get(kind, "count")
        # times vary from pass to pass; counters repeat, so take the first
        value = statistics.median(values) if unit in ("s", "1/s") else values[0]
        out[name] = (value, unit)
    overhead = statistics.median(result["traced"]) / statistics.median(result["untraced"]) - 1
    out["trace.overhead_frac"] = (overhead, "frac")
    out["bench.cpu_frac"] = (cpu_frac, "frac")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(workload, seed: int) -> dict:
    data = json.loads((HERE / "reference.json").read_text())
    ref = data.get(workload.name, {})
    if workload.name == "exact-cellular":
        return ref if seed == ref.get("seed") else {}
    return ref


def write_record(args, info: dict, runner, result: dict | None) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    doc = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "workload": args.workload, "seed": args.seed, "info": info,
           "ops": runner.records}
    if result is not None:
        doc["layers"] = {layer: {"calls": result["calls"].get(layer, 0), "self_s": t}
                         for layer, t in result["self_s"].items()}
        doc["functions"] = {name: {"calls": result["fn_calls"][name],
                                   "total_s": result["fn_s"].get(name, 0.0)}
                            for name in result["fn_calls"]}
    path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_removed = os.environ.pop("MPM_THREADS", None)
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)

    runner = Runner(workload, args.seed, reference)
    for _ in range(SETUP_REPEATS):
        runner.set_up()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if args.trace:
        result = measure_traced(runner, args.seconds, Tracer())
    else:
        result = measure(runner, args.seconds)
    cpu_frac = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    if args.trace:
        metrics = layer_metrics(result, cpu_frac)
    else:
        metrics = e2e_metrics(runner, statistics.median(runner.setup_runs), result["timed_s"])
    n_beyond = (sum(n for m, n in op_times(runner) if m > metrics["op_s.tail"][0])
                if "op_s.tail" in metrics else None)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": attempted, "fixtures": len(runner.fixtures), "passes": result["passes"],
        "fail_frac": failed / attempted,
        "tail_pct": workload.tail_pct, "ops_beyond_tail": n_beyond,
        "setup_runs_s": runner.setup_runs, "warmup_errors": runner.warmup_errors,
        "cpu_frac": cpu_frac,
        "mpm_threads_removed": threads_removed,
        "missing": sorted(result.get("missing", [])),
        "counters_repeat": all(run.get(c) == result["layer_runs"][0].get(c)
                               for run in result["layer_runs"] for c in COUNTERS)
        if args.trace else None,
        "problems": runner.problems[:20],
    }
    info["record"] = str(write_record(args, info, runner,
                                      result if args.trace else None).relative_to(ROOT))
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": not runner.mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
