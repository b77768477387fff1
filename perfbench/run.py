"""vz benchmark: drive the unmodified `vz` CLI from outside.

Usage, from the root of a vz checkout:

    python3 perfbench/run.py --workload run-sweep --seed 1 --seconds 24 --trace 0

With --trace 0 one single-threaded client, pinned to one CPU, runs a
closed loop for --seconds: one `vz` invocation at a time, each a fresh
process on the same generated `.vz` file, each followed by one set-up
sample (a fresh interpreter that imports `vz.cli` and builds its
argument parser) and one run of a fixed reference program. It reports
the end-to-end metrics, with times taken relative to the reference
runs around them. With --trace 1 it instead runs the workload in this
process, alternating untraced and traced invocations for --seconds, and
reports the per-layer metrics (see METRICS.md).

Before measuring it runs every `corpus/*.vz` through its subcommand and
one unrecorded warm-up invocation on the workload's pinned input, whose
report must match the sha256 digest in digests.json. Every measured
report is checked by an independent oracle (oracles.py). The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; lines before it, starting
with "#", describe the environment and the sample distribution.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

PINNED_SEED = 0
SETUP_CODE = "import vz.cli; vz.cli.build_parser()"
# The reference program: fixed pure-Python work (tuple and string
# hashing, dict updates) that shares no code with vz.
REFERENCE_CODE = """
table = {}
for i in range(100000):
    key = (i % 97, f"k{i % 1013}", (i & 15, i % 7))
    table[key] = table.get(key, 0) + 1
"""
# The reference program's median wall time over 40 runs, pinned to one
# CPU, on the machine the baseline was recorded on (2-core x86 VM, Python
# 3.11.7). setup_s is the set-up time at this measured reference speed.
REFERENCE_WALL_S = 0.224

# name -> (vz arguments, generator, sizes, oracle)
WORKLOADS = {
    "run-sweep": (["run"], gen.sweep_family,
                  {"agents": 6, "events": 8, "horizon": 14, "fluents": 8},
                  oracles.check_sweep),
    "project-long": (["project", "--json"], gen.sweep_family,
                     {"agents": 3, "events": 360, "horizon": 180, "fluents": 40},
                     oracles.check_project),
    "learn-traits": (["run"], gen.learn_family,
                     {"situations": 45, "queries": 10},
                     oracles.check_learn),
    "infer-saturate": (["infer"], gen.infer_family,
                       {"agents": 6, "horizon": 30},
                       oracles.check_infer),
}

# The subcommand each corpus scenario is written for; others get `check`.
CORPUS_COMMANDS = {"marketplace.vz": "run", "obligation.vz": "infer",
                   "likes.vz": "generalize", "honesty.vz": "generalize"}

END_TO_END_UNITS = {"wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "scenario.parse_s": "s", "scenario.facts": "count", "scenario.source_bytes": "bytes",
    "ec.project_s": "s", "ec.holds_pairs": "count", "ec.occurrences": "count",
    "ec.occurrence_lookups": "count",
    "utility.nu_bar_calls": "count", "utility.mu_bar_calls": "count", "utility.self_s": "s",
    "emotions.sweep_s": "s", "emotions.self_s": "s", "emotions.evaluations": "count",
    "emotions.records": "count", "emotions.records_per_eval": "ratio",
    "learner.identify_s": "s", "learner.detect_s": "s", "learner.learn_s": "s",
    "learner.apply_s": "s", "learner.consistency_checks": "count",
    "learner.proposals": "count", "learner.proposals_per_match": "ratio",
    "generalize.generalize_sets_s": "s", "generalize.anti_unify_s": "s",
    "generalize.calls": "count",
    "subst.match_calls": "count", "subst.apply_calls": "count",
    "inference.saturate_s": "s", "inference.horn_closure_calls": "count",
    "inference.horn_closure_s": "s", "inference.derived": "count",
    "cli.report_s": "s", "cli.lines": "count", "cli.bytes": "bytes",
    "trace.overhead_s": "s",
}


def info(line: str) -> None:
    print(f"# {line}", flush=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(workload: str, seed: int):
    _, family, sizes, _ = WORKLOADS[workload]
    return family(seed, **sizes)


def git_commit(root: str) -> str:
    """The checked-out commit; "unknown" when `root` is not a git work
    tree (git is not asked to look above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Client:
    """One closed-loop client: each call spawns one process, waits for
    it, and returns its wall time, rusage and output."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, argv: list[str]):
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        with open(out_path, "rb") as fh:
            out = fh.read()
        with open(err_path, "rb") as fh:
            err = fh.read()
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "code": os.waitstatus_to_exitcode(status), "out": out, "err": err}

    def vz(self, args: list[str]):
        return self.spawn(["-m", "vz.cli"] + args)

    def setup(self):
        return self.spawn(["-c", SETUP_CODE])

    def reference(self):
        return self.spawn(["-c", REFERENCE_CODE])


def clean(run) -> bool:
    return run["code"] == 0 and b"Traceback" not in run["err"]


def preflight(client: Client) -> tuple[int, int]:
    """Every corpus scenario through its subcommand; each must exit 0."""
    corpus = os.path.join(client.root, "corpus")
    names = sorted(n for n in os.listdir(corpus) if n.endswith(".vz"))
    failed = 0
    for name in names:
        run = client.vz([CORPUS_COMMANDS.get(name, "check"), os.path.join(corpus, name)])
        if not clean(run):
            failed += 1
            info(f"pre-flight failed: {name} exit {run['code']}")
    return len(names), failed


def pinned_check(client: Client, workload: str) -> bool:
    """The unrecorded warm-up: the pinned input's report must match the
    digest recorded in digests.json."""
    text, _ = generate(workload, PINNED_SEED)
    path = os.path.join(client.work, "pinned.vz")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    run = client.vz(WORKLOADS[workload][0] + [path])
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        want = json.load(fh)[workload]
    got = sha256(run["out"])
    if not clean(run) or got != want:
        info(f"pinned report digest {got} != recorded {want} (exit {run['code']})")
        return False
    return True


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return "none (fewer than 11 samples)"
    return f"p{100 * k // len(ordered)} = {ordered[k - 1]:.4f}"


def measure(client: Client, workload: str, seed: int, seconds: float):
    argv, _, _, oracle = WORKLOADS[workload]
    text, model = generate(workload, seed)
    path = os.path.join(client.work, "input.vz")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    attempted, failed = preflight(client)
    attempted += 1
    failed += not pinned_check(client, workload)

    # Each invocation is bracketed by runs of the fixed reference
    # program, and its times are divided by their mean: the machine's
    # speed drifts by up to 2x over tens of seconds, and the ratio
    # cancels that drift (see METRICS.md). Each set-up sample is divided
    # by the reference run that follows it.
    runs, setups, setup_ratios, refs = [], [], [], []
    before = client.reference()
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(client.vz(argv + [path]))
        setups.append(client.setup()["wall"])
        after = client.reference()
        setup_ratios.append(setups[-1] / after["wall"])
        refs.append({k: (before[k] + after[k]) / 2 for k in ("wall", "cpu")})
        before = after

    verified = None
    for run in runs:
        attempted += 1
        if not clean(run):
            failed += 1
            continue
        digest = sha256(run["out"])
        if verified is None:
            problems = oracle(run["out"], model)
            for p in problems:
                info(f"oracle: {p}")
            verified = digest if not problems else ""
        failed += digest != verified

    walls = [r["wall"] for r in runs]
    raw = {"wall_s": statistics.median(walls),
           "cpu_s": statistics.median(r["cpu"] for r in runs),
           "setup_wall_s": statistics.median(setups),
           "reference_wall_s": statistics.median(r["wall"] for r in refs),
           "samples": len(walls), "failed_frac": failed / attempted}
    info(f"wall_s samples {len(walls)}: median {raw['wall_s']:.4f} s, "
         f"{tail_percentile(walls)}; setup_s samples {len(setups)}")
    info(f"failed_frac {raw['failed_frac']:.4f} ({failed} of {attempted} invocations)")
    info(f"raw {json.dumps(raw)}")
    metrics = {
        "wall_rel": statistics.median(r["wall"] / ref["wall"] for r, ref in zip(runs, refs)),
        "cpu_rel": statistics.median(r["cpu"] / ref["cpu"] for r, ref in zip(runs, refs)),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "setup_s": statistics.median(setup_ratios) * REFERENCE_WALL_S,
    }
    units = END_TO_END_UNITS
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def invoke_in_process(vz, args: list[str]):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = vz.cli.main(args)
    return time.perf_counter() - start, code, buf.getvalue().encode("utf-8")


def traced(root: str, work: str, workload: str, seed: int, seconds: float):
    """Alternate untraced and traced in-process invocations for
    `seconds`; report per-layer medians (times) and counts, which must
    repeat exactly from pass to pass."""
    sys.path.insert(0, os.path.join(root, "src"))
    import vz.cli  # noqa: F401  (binds the vz package and its submodules)
    vz = sys.modules["vz"]

    argv, _, _, oracle = WORKLOADS[workload]
    text, model = generate(workload, seed)
    path = os.path.join(work, "input.vz")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    args = argv + [path]

    invoke_in_process(vz, args)  # warm-up, not recorded
    attempted = failed = 0
    passes, all_spans = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain_wall, plain_code, plain_out = invoke_in_process(vz, args)
        tracer = tracing.Tracer(vz)
        tracer.invocation = len(passes)
        tracer.install()
        try:
            wall, code, out = invoke_in_process(vz, args)
        finally:
            restored = tracer.restore()
        attempted += 2
        if not passes:
            first_out = plain_out
            problems = oracle(plain_out, model)
        else:
            problems = [] if plain_out == first_out else ["report differs from the first pass"]
        if plain_code != 0 or problems:
            failed += 1
        if code != 0 or out != plain_out or not restored:
            failed += 1
            info(f"traced pass {len(passes)}: exit {code}, identical output {out == plain_out}, "
                 f"wrappers restored {restored}")
        for p in problems:
            info(f"oracle: {p}")
        layer = tracing.layer_metrics(tracer.spans, tracer.counts)
        layer["scenario.source_bytes"] = len(text.encode("utf-8"))
        layer["cli.lines"] = out.count(b"\n")
        layer["cli.bytes"] = len(out)
        layer["trace.overhead_s"] = wall - plain_wall
        passes.append(layer)
        all_spans += tracer.spans

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [p[name] for p in passes]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                failed += 1
                info(f"count {name} differs between passes: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}

    out_path = os.path.join(root, ".perfbench", f"spans-{workload}-seed{seed}.jsonl")
    with open(out_path, "w", encoding="utf-8") as fh:
        for span in all_spans:
            fh.write(json.dumps(span) + "\n")
    info(f"traced passes {len(passes)}; {len(all_spans)} spans written to {out_path}")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vz", "cli.py")):
        print("error: run from the root of a vz checkout (src/vz/cli.py not found)",
              file=sys.stderr)
        return 2

    _, _, sizes, _ = WORKLOADS[args.workload]
    load = os.getloadavg()
    info(f"workload {args.workload} seed {args.seed} sizes {json.dumps(sizes)} "
         f"seconds {args.seconds:g} trace {args.trace}")
    info(f"python {platform.python_version()} nproc {os.cpu_count()} "
         f"loadavg {load[0]:.2f} {load[1]:.2f} {load[2]:.2f} commit {git_commit(root)}")

    # One client on one CPU: the benchmark and every process it starts
    # stay on the lowest CPU this process may use.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    info(f"pinned to cpu {cpu}")
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.join(root, ".perfbench"))
    try:
        if args.trace:
            attempted, failed, metrics = traced(root, work, args.workload, args.seed, args.seconds)
        else:
            client = Client(root, work)
            attempted, failed, metrics = measure(client, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
