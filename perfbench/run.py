"""gravpulse benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  One client in one process drives
`gravpulse.cli.main(argv)` in a closed loop: each command starts when the
previous one returns, sweeps run with `--workers 1`.  The seed generates
the workload's pass of commands (see workloads.py); passes repeat until
`--seconds` have elapsed, and every output is checked (check.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass, requires their outputs to match byte for byte, and prints
the per-layer metrics, including the tracing overhead; spans are written
to .perfbench_out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better, bound); BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

COMMANDS = ("redshift", "overlap", "optimize", "sweep", "purity", "validate", "dump-config")
VALIDATION_CHECKS = (
    "gaussian-linear closed form vs quadrature",
    "gaussian-quadratic closed form vs quadrature",
    "mixed-overlap benchmark vs optimizer",
    "pure/mixed phase-penalty ratio",
    "optimizer vs analytic stationary point",
    "weak-field deficit coefficients (Richardson)",
    "purity invariance under the redshift map",
    "multi-photon overlap laws",
    "comb weak-field optimal vs quadrature",
    "relative-change consistency with closed forms",
    "comb quadratic weak-field consistency",
    "relative-change headline values",
    "earth-scale redshift sanity",
    "density-matrix oracle vs quadrature",
    "overlap ordering on random profiles",
)


def check_slug(name: str) -> str:
    return "validation.check_s." + re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


# name -> (unit, better)
PER_LAYER = {
    "profiles.modulus.calls": ("count", "lower"),
    "profiles.modulus.s": ("s", "lower"),
    "overlap.calls": ("count", "lower"),
    "overlap.quad_calls": ("count", "lower"),
    "overlap.integrand_evals": ("count", "lower"),
    "overlap.self_s": ("s", "lower"),
    "optimize.maximize_shift.calls": ("count", "lower"),
    "optimize.n_evals": ("count", "lower"),
    "optimize.useful_eval_ratio": ("ratio", "higher"),
    "optimize.flat_evals": ("count", "lower"),
    "optimize.self_s": ("s", "lower"),
    "analytic.calls": ("count", "lower"),
    "analytic.s": ("s", "lower"),
    "spacetime.s": ("s", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "scenario.with_param.calls": ("count", "lower"),
    **{f"states.{fn}.s": ("s", "lower")
       for fn in ("pure_state", "mixed_state", "apply_redshift", "fidelity", "purity")},
    "states.bytes_computed": ("bytes", "lower"),
    "multiphoton.calls": ("count", "lower"),
    "multiphoton.s": ("s", "lower"),
    **{check_slug(name): ("s", "lower") for name in VALIDATION_CHECKS},
    **{f"cli.{cmd}.self_s": ("s", "lower") for cmd in COMMANDS},
    "setup.import_s": ("s", "lower"),
    "setup.scipy_integrate_import_s": ("s", "lower"),
    "accuracy.worst_err_over_bound": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

SETUP_RUNS = 3
OUT_DIR = ".perfbench_out"
# The child times the speed kernel right after loading the preset, so its
# set-up time is normalized by the speed it ran at.
SETUP_SNIPPET = ("import time, gravpulse.cli\n"
                 "from gravpulse.scenario import load_preset\n"
                 "load_preset('desk-scale')\n"
                 "print(time.perf_counter())\n"
                 "import speed\n"
                 "print(speed.kernel_seconds())\n")


# -- set-up time ---------------------------------------------------------------


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    paths = [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(src: str, importtime: bool) -> dict[str, list[float]]:
    """Fresh interpreters importing gravpulse.cli and loading a preset.

    setup_s runs from spawning the interpreter to the preset being loaded
    (perf_counter is CLOCK_MONOTONIC, shared by both processes), normalized
    by the speed the child measures right afterwards.  With importtime,
    `-X importtime` also yields the cumulative import times of gravpulse.cli
    and scipy.integrate.
    """
    res: dict[str, list[float]] = {"setup_s": [], "setup.import_s": [],
                                   "setup.scipy_integrate_import_s": []}
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", SETUP_SNIPPET],
                              env=_child_env(src), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        loaded, kernel = (float(x) for x in proc.stdout.split()[-2:])
        res["setup_s"].append((loaded - t0) * speed.CAL_NOMINAL_S / kernel)
        if importtime:
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 \
                        and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
            res["setup.import_s"].append(cumulative["gravpulse.cli"])
            res["setup.scipy_integrate_import_s"].append(cumulative.get("scipy.integrate", 0.0))
    return res


# -- running commands ------------------------------------------------------------


class Record:
    __slots__ = ("cmd", "rc", "out", "t0", "t1", "seconds", "norm")

    def __init__(self, cmd, rc, out, t0, t1):
        self.cmd, self.rc, self.out, self.t0, self.t1 = cmd, rc, out, t0, t1
        self.seconds = t1 - t0
        self.norm = math.nan


def run_pass(cli, cmds, argvs, tracer=None) -> list[Record]:
    """Run each command once, in order."""
    records = []
    for cmd, argv in zip(cmds, argvs):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.op += 1
                    with tracer.span(f"cli.{cmd.kind}"):
                        rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            print(f"perfbench: {cmd.name} raised\n{traceback.format_exc()}", file=sys.stderr)
        records.append(Record(cmd, rc, out.getvalue(), t0, time.perf_counter()))
    return records


def normalize(passes: list[list[Record]], sampler: speed.Speed) -> None:
    for records in passes:
        for rec in records:
            rec.norm = rec.seconds * sampler.factor(rec.t0, rec.t1)


class Tally:
    """Attempted/failed operations, worst error over bound, failure log."""

    def __init__(self, presets):
        self.presets = presets
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.failures: list[dict] = []
        self.reference: list[str] | None = None

    def add(self, records: list[Record], label: str) -> int:
        import check   # imports gravpulse, so only after main() has put src/ on the path
        rows = 0
        outs = []
        for rec in records:
            verdict, n = check.check(rec.cmd, rec.rc, rec.out, self.presets)
            rows += n
            outs.append(f"rc={rec.rc}\n" + check.comparable(rec.cmd.kind, rec.out))
            self.attempted += 1
            self.worst = max(self.worst, verdict.worst)
            problems = list(verdict.problems)
            if self.reference is not None and outs[-1] != self.reference[len(outs) - 1]:
                problems.append(f"output differs from the first pass ({label})")
            if problems:
                self.failed += 1
                self.failures.append({"command": rec.cmd.name, "argv": list(rec.cmd.argv),
                                      "config": rec.cmd.config, "pass": label,
                                      "problems": problems[:10]})
            rec.out = None   # checked; keeping every pass's output would inflate peak RSS
        if self.reference is None:
            self.reference = outs
        return rows


# -- statistics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least 10 samples beyond it, or None when
    that percentile would be below p75 (too few samples for a tail)."""
    n = len(values)
    if n < 40:
        return None
    k = n - 10
    return f"p{math.floor(100 * k / n)}", sorted(values)[k - 1]


def command_table(passes: list[list[Record]], rows: int) -> list[tuple]:
    """(metric, value, unit, samples) per command kind, from normalized times."""
    by_kind: dict[str, list[float]] = {}
    for records in passes:
        for rec in records:
            by_kind.setdefault(rec.cmd.kind, []).append(rec.norm)
    table = []
    for kind, secs in by_kind.items():
        scale, unit, name = (1e3, "ms", "overlap_ms") if kind == "overlap" else \
            (1.0, "s", f"{kind}_s")
        if kind == "validate":
            table.append((name, statistics.median(secs), unit, len(secs)))
            continue
        table.append((f"{name}.p50", statistics.median(secs) * scale, unit, len(secs)))
        t = tail(secs)
        if t is not None:
            table.append((f"{name}.tail({t[0]})", t[1] * scale, unit, len(secs)))
    if "sweep" in by_kind:
        table.append(("rows_per_s", rows / sum(by_kind["sweep"]), "1/s", rows))
    return table


def command_medians(passes: list[list[Record]]) -> list[float]:
    """Median normalized time of each command of the pass, over the run's
    passes; a slow or fast stretch moves a per-pass total, not a median."""
    return [statistics.median(p[i].norm for p in passes) for i in range(len(passes[0]))]


def headline_rate(workload: str, passes: list[list[Record]], rows: list[int]) -> float:
    """Headline operations per second of their median time: sweep rows for
    sweeps, commands otherwise."""
    kind = workloads.HEADLINE[workload]
    medians = command_medians(passes)
    picked = [i for i, rec in enumerate(passes[0]) if rec.cmd.kind == kind]
    work = rows[0] if kind == "sweep" else len(picked)
    return work / sum(medians[i] for i in picked)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(summary: dict, setup: dict, worst: float, overhead: float) -> dict:
    """Every PER_LAYER metric; layers a workload does not reach read 0."""
    m = {name: summary.get(name, 0.0) for name in PER_LAYER}
    m["scenario.parse_s"] = summary.get("scenario.parse_scenario.s", 0.0)
    calls = summary.get("optimize.overlap_calls", 0)
    m["optimize.useful_eval_ratio"] = summary.get("optimize.n_evals", 0) / calls if calls else 0.0
    for name, secs in summary.get("check_seconds", {}).items():
        if check_slug(name) in m:
            m[check_slug(name)] = secs
    for key in ("setup.import_s", "setup.scipy_integrate_import_s"):
        m[key] = statistics.median(setup[key])
    m["accuracy.worst_err_over_bound"] = worst
    m["trace.overhead_frac"] = overhead
    return m


# -- main ------------------------------------------------------------------------


def read_presets(src: str) -> dict[str, str]:
    """Preset name -> config text, for checking `--preset` commands."""
    folder = pathlib.Path(src, "gravpulse", "presets")
    return {p.stem: p.read_text(encoding="utf-8") for p in folder.glob("*.cfg")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gravpulse", "cli.py")):
        print(f"perfbench: no gravpulse sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from gravpulse import cli

    cmds = workloads.generate(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cfg_dir = os.path.join(root, OUT_DIR, tag)
    os.makedirs(cfg_dir, exist_ok=True)
    argvs = []
    for i, cmd in enumerate(cmds):
        path = None
        if cmd.config is not None:
            path = os.path.join(cfg_dir, f"{i:02d}-{cmd.name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cmd.config)
        argvs.append([path if a == "{cfg}" else a for a in cmd.argv])
    tally = Tally(read_presets(src))

    setup = measure_setup(src, importtime=bool(args.trace))
    table = [("setup_s", statistics.median(setup["setup_s"]), "s", SETUP_RUNS)]
    passes, rows = [], []
    if args.trace == 0:
        t_start = time.perf_counter()
        with speed.Speed() as sampler:
            while not passes or time.perf_counter() - t_start < args.seconds:
                records = run_pass(cli, cmds, argvs)
                passes.append(records)
                rows.append(tally.add(records, f"pass {len(passes)}"))
        normalize(passes, sampler)
        metrics = {
            "setup_s": statistics.median(setup["setup_s"]),
            "wall_s": sum(command_medians(passes)),
            "ops_per_s": headline_rate(args.workload, passes, rows),
            "peak_rss_mb": peak_rss_mb(),
        }
        raw_walls = [sum(r.seconds for r in p) for p in passes]
        table += [("wall_s", metrics["wall_s"], "s", len(passes)),
                  ("wall_s(raw, median pass)", statistics.median(raw_walls), "s", len(passes)),
                  ("ops_per_s", metrics["ops_per_s"], "1/s", len(passes)),
                  ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
                  ("machine speed (nominal/measured)",
                   statistics.median(speed.CAL_NOMINAL_S / c for _, c in sampler.points),
                   "ratio", len(sampler.points))]
        table += command_table(passes, sum(rows))
    else:
        import tracing
        tracer = tracing.Tracer()
        with speed.Speed() as sampler:
            records = run_pass(cli, cmds, argvs)
            tracer.install()
            try:
                traced = run_pass(cli, cmds, argvs, tracer)
            finally:
                tracer.uninstall()
        passes = [records, traced]
        normalize(passes, sampler)
        tally.add(records, "untraced")
        tally.add(traced, "traced")
        summary = tracing.summarize(tracer)
        summary["check_seconds"] = tracer.check_seconds
        wall_u, wall_t = (sum(r.norm for r in p) for p in passes)
        metrics = layer_metrics(summary, setup, tally.worst, wall_t / wall_u - 1.0)
        tracer.write_jsonl(os.path.join(root, OUT_DIR, f"spans-{tag}.jsonl"))
        table += [("wall_s(untraced)", wall_u, "s", 1), ("wall_s(traced)", wall_t, "s", 1)]
        table += [(k, v, PER_LAYER[k][0], 1) for k, v in metrics.items()
                  if k != "accuracy.worst_err_over_bound"]
    table += [("fail_frac", tally.failed / tally.attempted, "ratio", tally.attempted),
              ("accuracy.worst_err_over_bound", tally.worst, "ratio", tally.attempted)]

    for f in tally.failures:
        print(f"perfbench: FAILED {f['command']} ({f['pass']}): {'; '.join(f['problems'])}\n"
              f"  argv: {' '.join(f['argv'])}\n  config:\n{f['config'] or '  (preset)'}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"commands/pass={len(cmds)}")
    for name, value, unit, n in table:
        print(f"{name:58s} {value:14.6g} {unit:6s} n={n}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": (END_TO_END.get(k) or PER_LAYER[k])[0]}
                          for k, v in metrics.items()}}
    with open(os.path.join(root, OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "passes": len(passes),
                   "commands": [{"name": c.name, "argv": list(c.argv), "config": c.config}
                                for c in cmds],
                   "table": [list(t) for t in table], "failures": tally.failures,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
