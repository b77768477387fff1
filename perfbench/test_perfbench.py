"""Self-tests of the benchmark: generators, oracles and tracing.

Run from the root of a vz checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import vz.cli  # noqa: E402

vz_pkg = sys.modules["vz"]
WORKLOADS = sorted(run.WORKLOADS)


def report_of(workload: str, seed: int, tmp_path) -> tuple[bytes, dict]:
    text, model = run.generate(workload, seed)
    path = tmp_path / f"{workload}.vz"
    path.write_text(text, encoding="utf-8")
    _, code, out = run.invoke_in_process(vz_pkg, run.WORKLOADS[workload][0] + [str(path)])
    assert code == 0
    return out, model


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    assert run.generate(workload, 3)[0] == run.generate(workload, 3)[0]
    assert run.generate(workload, 3)[0] != run.generate(workload, 4)[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_file_passes_vz_check(workload, tmp_path):
    path = tmp_path / "input.vz"
    path.write_text(run.generate(workload, 5)[0], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "vz.cli", "check", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: ")


def _drop_first(report: bytes, prefix: bytes) -> bytes:
    lines = report.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    return b"".join(lines[:index] + lines[index + 1:])


def _alter_trait(report: bytes) -> bytes:
    lines = report.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(b"(trait "))
    lines[index] = lines[index].replace(b"(action (utter ?", b"(action (utter ?Z")
    return b"".join(lines)


def _drop_planted_knows(report: bytes, model) -> bytes:
    planted = model["planted"][0].encode("utf-8") + b"\n"
    assert planted in report
    return report.replace(planted, b"")


# One deliberate defect per workload: a dropped admiration-for record, a
# dropped holds line, an altered trait, a missing planted knows.
CORRUPTIONS = {
    "run-sweep": lambda r, m: _drop_first(r, b"(admiration-for "),
    "project-long": lambda r, m: _drop_first(r, b'{"fluent": '),
    "learn-traits": lambda r, m: _alter_trait(r),
    "infer-saturate": _drop_planted_knows,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_accepts_report_and_rejects_corruption(workload, tmp_path):
    report, model = report_of(workload, 7, tmp_path)
    oracle = run.WORKLOADS[workload][3]
    assert oracle(report, model) == []
    corrupted = CORRUPTIONS[workload](report, model)
    assert corrupted != report
    assert oracle(corrupted, model) != []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_output_and_restores_bindings(workload, tmp_path):
    before = {name: getattr(vz_pkg.emotions, name) for name in ("nu_bar", "mu_bar", "eval_joy", "print_record")}
    occurrence = vz_pkg.ec.Timeline.__dict__["occurrence"]
    commands = dict(vz_pkg.cli._COMMANDS)
    plain, _ = report_of(workload, 2, tmp_path)
    tracer = tracing.Tracer(vz_pkg)
    tracer.install()
    try:
        assert vz_pkg.emotions.nu_bar is not before["nu_bar"]
        traced, _ = report_of(workload, 2, tmp_path)
    finally:
        assert tracer.restore()
    assert traced == plain
    assert tracer.spans and tracer.spans[0][0] == "cli.command"
    assert {name: getattr(vz_pkg.emotions, name) for name in before} == before
    assert vz_pkg.ec.Timeline.__dict__["occurrence"] is occurrence
    assert vz_pkg.cli._COMMANDS == commands
    assert vz_pkg.learner.match is vz_pkg.subst.match


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_self_time_subtracts_child_coverage():
    spans = [["cli.command", 0, 100, -1, 0], ["ec.project", 10, 30, 0, 0],
             ["emotions.sweep", 40, 90, 0, 0], ["utility.nu_bar", 50, 60, 2, 0],
             ["cli.emit_timeline", 91, 99, 0, 0], ["cli.print_term", 92, 94, 4, 0],
             ["cli.emit", 99, 100, 0, 0]]
    assert tracing.self_times(spans) == [21, 20, 40, 10, 6, 2, 1]
    metrics = tracing.layer_metrics(spans, Counter({"utility.nu_bar": 1}))
    assert metrics["emotions.self_s"] == pytest.approx(40e-9)
    assert metrics["utility.self_s"] == pytest.approx(10e-9)
    # report time: the outermost report spans only, not the command's own time
    assert metrics["cli.report_s"] == pytest.approx(9e-9)
