"""Tests for the benchmark itself: python3 -m pytest perfbench -q (from the
repository root)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gravpulse import cli  # noqa: E402

PRESETS = run.read_presets(os.path.join(ROOT, "src"))


def _run(cmd: workloads.Command, tmp_path) -> tuple[int, str]:
    argv = list(cmd.argv)
    if cmd.config is not None:
        path = tmp_path / f"{cmd.name}.cfg"
        path.write_text(cmd.config)
        argv = [str(path) if a == "{cfg}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _first(workload: str, kind: str, seed: int = 3) -> workloads.Command:
    return next(c for c in workloads.generate(workload, seed) if c.name.startswith(kind))


def _perturb(out: str, key: str, factor: float) -> str:
    def bump(m):
        return f"{m.group(1)}{float(m.group(2)) * factor!r}"
    return re.sub(rf"^({re.escape(key)} = )(\S+)", bump, out, count=1, flags=re.M)


@pytest.mark.parametrize("name", ["overlap-gaussian_linear-0", "overlap-gaussian_quadratic-1",
                                  "overlap-comb_linear-0", "overlap-comb_quadratic-2"])
def test_checker_accepts_overlap_and_rejects_perturbation(name, tmp_path):
    cmd = _first("crosscheck", name)
    rc, out = _run(cmd, tmp_path)
    verdict, _ = check.check(cmd, rc, out, PRESETS)
    assert verdict.ok, verdict.problems
    bad, _ = check.check(cmd, rc, _perturb(out, "delta_m", 1.0 - 2e-6), PRESETS)
    assert not bad.ok
    assert bad.worst > 1.0


def test_checker_rejects_perturbed_multiphoton_law(tmp_path):
    cmd = _first("crosscheck", "overlap-gaussian_linear-0")
    rc, out = _run(cmd, tmp_path)
    bad = re.sub(r"^(fock delta_p\(N=\S+\) = )(\S+)",
                 lambda m: f"{m.group(1)}{float(m.group(2)) * (1 + 1e-11)!r}", out, flags=re.M)
    assert bad != out
    assert not check.check(cmd, rc, bad, PRESETS)[0].ok


def test_checker_rejects_sweep_row_and_ordering(tmp_path):
    cmd = _first("near-earth", "sweep-gaussian_quadratic")
    rc, out = _run(cmd, tmp_path)
    verdict, rows = check.check(cmd, rc, out, PRESETS)
    assert verdict.ok, verdict.problems
    assert rows == workloads.NEAR_EARTH_ROWS
    lines = out.splitlines()
    f = lines[5].split(",")
    f[3] = repr(float(f[3]) * (1 + 1e-5))            # z_bar_opt
    assert not check.check(cmd, rc, "\n".join(lines[:5] + [",".join(f)] + lines[6:]),
                           PRESETS)[0].ok
    f = lines[7].split(",")
    f[5] = repr(float(f[6]) + 1e-8)                  # delta_p above delta_m
    assert not check.check(cmd, rc, "\n".join(lines[:7] + [",".join(f)] + lines[8:]),
                           PRESETS)[0].ok


def test_checker_rejects_failed_exit_and_garbage(tmp_path):
    cmd = _first("near-earth", "redshift-earth-leo")
    rc, out = _run(cmd, tmp_path)
    assert check.check(cmd, rc, out, PRESETS)[0].ok
    assert not check.check(cmd, 3, out, PRESETS)[0].ok
    assert not check.check(cmd, 0, "nothing here\n", PRESETS)[0].ok
    assert not check.check(cmd, 0, _perturb(out, "chi", 1 + 1e-11), PRESETS)[0].ok


def test_checker_rejects_failing_validate_summary():
    cmd = _first("crosscheck", "validate")
    assert check.check(cmd, 0, "15/15 checks passed\n", PRESETS)[0].ok
    assert not check.check(cmd, 0, "14/15 checks passed\n", PRESETS)[0].ok


def test_timing_fields_are_masked_only_for_validate():
    line = "PASS  x: measured 1.0e-16 vs tolerance 1.0e-07  (0.13 s)\n"
    assert check.comparable("validate", line) == check.comparable(
        "validate", line.replace("0.13", "2.50"))
    assert check.comparable("overlap", line) == line


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert [c.name for c in first] == [c.name for c in other]
    assert [c.config for c in first] != [c.config for c in other]


def test_traced_counts_repeat_and_outputs_match(tmp_path):
    cmds = [workloads.Command("optimize-desk", ("optimize", "--preset", "desk-scale")),
            _first("crosscheck", "overlap-comb_quadratic-0")]
    argvs = []
    for cmd in cmds:
        argv = list(cmd.argv)
        if cmd.config is not None:
            path = tmp_path / "c.cfg"
            path.write_text(cmd.config)
            argv = [str(path) if a == "{cfg}" else a for a in argv]
        argvs.append(argv)
    plain = run.run_pass(cli, cmds, argvs)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(cli, cmds, argvs, tracer)
        finally:
            tracer.uninstall()
        assert [r.out for r in traced] == [r.out for r in plain]
        s = tracing.summarize(tracer)
        counts.append({k: s[k] for k in ("overlap.quad_calls", "overlap.integrand_evals",
                                         "optimize.n_evals", "profiles.modulus.calls")})
    assert counts[0] == counts[1]
    assert counts[0]["optimize.n_evals"] > 0 and counts[0]["overlap.quad_calls"] > 0


def test_uninstall_restores_every_binding():
    import gravpulse.optimize
    import gravpulse.overlap
    before = (gravpulse.overlap.modulus, gravpulse.optimize.overlap_pure, cli.maximize_shift,
              gravpulse.overlap.quad, gravpulse.optimize.warnings)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.maximize_shift is not before[2]
    tracer.uninstall()
    assert before == (gravpulse.overlap.modulus, gravpulse.optimize.overlap_pure,
                      cli.maximize_shift, gravpulse.overlap.quad, gravpulse.optimize.warnings)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("cli.x"):
        with tracer.span("overlap.y"):
            sum(range(10000))
    s = tracing.summarize(tracer)
    assert s["cli.x.s"] >= s["overlap.y.s"] > 0
    assert s["cli.x.self_s"] == pytest.approx(s["cli.x.s"] - s["overlap.y.s"], abs=1e-12)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "near-earth", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
