"""Run vz from two source trees on one fixed matrix, and list every run
whose result differs.

    python tests/differential.py PARENT [CHANGE]

PARENT and CHANGE are the roots of two checkouts of this repository, for
example the parent commit unpacked with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

CHANGE defaults to the checkout that holds this script. A run is
`python -m vz.cli ARGS` with PYTHONPATH=<tree>/src, and its result is its
exit code, its stderr, and the sha256 of its stdout and of the trait file
it leaves. The two trees run under different PYTHONHASHSEEDs, so a report
that depends on the hash seed differs as well: given the same tree twice,
the script checks that.

Every input comes from CHANGE: the scenarios of corpus/ and tests/data/,
seeds 0-1 of every benchmark workload (made by perfbench/run.py's
generate), and one malformed input per diagnostic class. The matrix runs
every subcommand on each scenario as text, with --json and with --mode ho;
then `learn --traits T`, `act --traits T` and `run --traits T` on the trait
file T that learn wrote. The script prints each run that differs and
exits 1 if any does. pytest does not collect it.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

COMMANDS = ("check", "project", "utility", "emotions", "infer", "generalize", "learn",
            "act", "run")
VARIANTS = ((), ("--json",), ("--mode", "ho"))
HERE = pathlib.Path(__file__).resolve().parent.parent


def scenarios(root: pathlib.Path, work: pathlib.Path) -> list[pathlib.Path]:
    """The well-formed inputs: corpus/, tests/data/, and seeds 0-1 of every
    workload, written to work."""
    paths = sorted((root / "corpus").glob("*.vz")) + sorted((root / "tests" / "data").glob("*.vz"))
    sys.path.insert(0, str(root / "perfbench"))
    import run as perfbench  # the benchmark's workload generators
    for workload in perfbench.WORKLOADS:
        for seed in (0, 1):
            text, _ = perfbench.generate(workload, seed)
            path = work / f"{workload}-{seed}.vz"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
    return paths


def malformed(root: pathlib.Path, work: pathlib.Path) -> list[tuple]:
    """One chain of runs per diagnostic class, on inputs written to work."""
    def write(name, data):
        path = work / name
        (path.write_bytes if isinstance(data, bytes) else path.write_text)(data)
        return str(path)

    marketplace = (root / "corpus" / "marketplace.vz").read_text(encoding="utf-8")
    obligation = (root / "corpus" / "obligation.vz").read_text(encoding="utf-8")
    query = "(query fresh (time 5) (formulas (holds (broken) 5)))"
    belief = "(believes jack 1 (payday))"
    if query not in marketplace or belief not in obligation:
        raise SystemExit("corpus/ no longer holds the items the malformed inputs edit")
    non_horn = write("non-horn.vz", marketplace.replace(
        query, query[:-2] + " (or (holds (unbroken) 5) (holds (trusted) 5))))"))
    trait = write("trait.vz", "(trait (pattern (holds ?X0 ?t)) (action (utter ?X0)))\n")
    bad_trait = write("bad-trait.vz", "(trait foo)\n")
    market = str(root / "corpus" / "marketplace.vz")
    return [
        ("lexical", [["check", write("lexical.vz", "(declare-agent jack)\n(nu jack $)\n")]]),
        ("structural", [["check", write("structural.vz", "(declare-fluent a)\n")]]),
        ("sort", [["check", write("sort.vz", obligation.replace(
            belief, "(believes (pay) 1 (payday))"))]]),
        ("non-UTF-8", [["check", write("non-utf-8.vz", b"(declare-agent a\xff)\n")]]),
        ("captured variable", [["infer", write("captured.vz", (
            "(declare-agent jack)\n(declare-predicate likes (agent agent))\n"
            "(assert (forall ((y agent)) (likes y ?y)))\n"))]]),
        ("bad trait file", [["act", market, "--traits", bad_trait],
                            ["run", market, "--traits", bad_trait]]),
        ("non-Horn query", [["act", non_horn, "--traits", trait],
                            ["run", non_horn, "--traits", trait]]),
        ("out-of-range override", [["run", market, "--gamma", "0"]]),
    ]


def matrix(root: pathlib.Path, work: pathlib.Path) -> list[tuple]:
    """(label, chain): the runs of a chain go in order, and a trait file one
    of them writes is read by the next."""
    traits = str(work / "traits.vz")
    chains = []
    for path in scenarios(root, work):
        name = path.name if path.is_relative_to(work) else str(path.relative_to(root))
        for variant in VARIANTS:
            for command in COMMANDS:
                chains.append((f"{command} {name} {' '.join(variant)}".rstrip(),
                               [[command, str(path), *variant]]))
            chains.append((f"learn/act/run --traits {name} {' '.join(variant)}".rstrip(),
                           [[command, str(path), *variant, "--traits", traits]
                            for command in ("learn", "act", "run")]))
    return chains + malformed(root, work)


class Tree:
    """One source tree, run under its own hash seed and bytecode cache."""

    def __init__(self, root: pathlib.Path, seed: int, work: pathlib.Path):
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED=str(seed),
                        PYTHONPYCACHEPREFIX=str(work / f"pycache-{seed}"))
        self.work = work
        where = subprocess.run([sys.executable, "-c", "import vz; print(vz.__file__)"],
                               env=self.env, cwd=work, capture_output=True, text=True,
                               check=True).stdout.strip()
        if not pathlib.Path(where).is_relative_to(root / "src"):
            raise SystemExit(f"vz under {root} imports from {where}")

    def chain(self, runs, traits: pathlib.Path) -> list[dict]:
        """Each run's exit code, its stderr, and the digests of its stdout and
        of the trait file after it."""
        traits.unlink(missing_ok=True)
        out, err = self.work / "stdout", self.work / "stderr"
        results = []
        for argv in runs:
            with open(out, "wb") as fo, open(err, "wb") as fe:
                code = subprocess.run([sys.executable, "-m", "vz.cli", *argv], env=self.env,
                                      cwd=self.work, stdout=fo, stderr=fe).returncode
            stdout = hashlib.sha256()
            with open(out, "rb") as fh:  # a report may be tens of MB
                for block in iter(lambda: fh.read(1 << 20), b""):
                    stdout.update(block)
            results.append({"exit code": code, "stdout": stdout.hexdigest(),
                            "stderr": err.read_bytes().decode(errors="replace"),
                            "trait file": hashlib.sha256(traits.read_bytes()).hexdigest()
                            if traits.exists() else ""})
        return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path, nargs="?", default=HERE)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="vz-differential-") as tmp:
        work = pathlib.Path(tmp)
        chains = matrix(args.change.resolve(), work)
        a = Tree(args.parent.resolve(), 1, work)
        b = Tree(args.change.resolve(), 2, work)
        traits = work / "traits.vz"
        runs = differ = 0
        for label, chain in chains:
            for argv, x, y in zip(chain, a.chain(chain, traits), b.chain(chain, traits)):
                runs += 1
                parts = [k for k in x if x[k] != y[k]]
                if not parts:
                    continue
                differ += 1
                print(f"differs: {label}: vz {' '.join(argv)}: {', '.join(parts)}")
                if "stderr" in parts:
                    print(f"  parent stderr: {x['stderr']!r}\n  change stderr: {y['stderr']!r}")
    print(f"{runs} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
