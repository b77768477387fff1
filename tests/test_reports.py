"""Reports: every subcommand's stdout against recorded digests, empty
reports, and a report whose write fails."""
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from vz.cli import Report, main

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
import run as perfbench  # noqa: E402  (the benchmark's workload generators)

# "<input> <command>[ --json]" -> exit code and sha256 of stdout, recorded
# before reports were rendered from one record per line. The inputs are
# the corpus files and the seed-0 input of each benchmark workload; `act`
# reads the trait file that `learn` (text) wrote from the same input.
# emotions, learn, act and run on project-long are left out: its emotion
# sweep takes minutes.
with open(os.path.join(HERE, "data", "report_goldens.json"), encoding="utf-8") as fh:
    GOLDENS = json.load(fh)
COMMANDS = ("check", "project", "utility", "emotions", "infer", "generalize", "learn", "act", "run")
ONE_AGENT = "(declare-agent a)\n(declare-fluent p ())\n(initially (p))\n(horizon 2)\n"


def _input(name, tmp_path):
    if os.path.exists(os.path.join(CORPUS, name)):
        return os.path.join(CORPUS, name)
    path = tmp_path / name
    path.write_text(perfbench.generate(name[:-len(".vz")], 0)[0], encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted({key.split()[0] for key in GOLDENS}))
def test_reports_match_recorded_digests(capsys, tmp_path, name):
    path, traits = _input(name, tmp_path), str(tmp_path / "traits.vz")
    runs = 0
    for command in COMMANDS:
        for flags in ([], ["--json"]):
            key = " ".join([name, command] + flags)
            if key not in GOLDENS:
                continue
            if command == "act" or (command == "learn" and not flags):
                flags = flags + ["--traits", traits]
            code = main([command, path] + flags)
            out = capsys.readouterr().out.encode("utf-8")
            assert (code, hashlib.sha256(out).hexdigest()) == \
                (GOLDENS[key]["exit"], GOLDENS[key]["stdout_sha256"]), key
            runs += 1
    assert runs == (10 if name == "project-long.vz" else 18)


@pytest.mark.parametrize("command", ["utility", "emotions", "infer", "learn"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_empty_report_writes_nothing(capsys, tmp_path, command, flags):
    p = tmp_path / "one-agent.vz"
    p.write_text(ONE_AGENT)
    assert main([command, str(p)] + flags) == 0
    assert capsys.readouterr() == ("", "")


class _Trickle(io.RawIOBase):
    """A raw stream that takes at most 7 bytes a write, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:7])
        return min(len(b), 7)


def test_flush_writes_every_part_to_a_raw_stream():
    raw = _Trickle()
    with io.TextIOWrapper(raw, encoding="utf-8", write_through=True) as out:  # as python -u
        rep = Report(as_json=False)
        rep.emit("horizon", horizon=3)
        rep.emit("holds", fluent="(p)", time=2)
        rep.flush(out)
        assert raw.data == b"(horizon 3)\n(holds (p) 2)\n"


def _vz(*argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "vz.cli", *argv], stderr=subprocess.PIPE,
                            text=True, **kwargs)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_pipe_is_an_error_line(tmp_path, unbuffered):
    # the report (236 kB) is larger than a pipe holds, so the reader's
    # close comes while vz is writing
    path = _input("project-long.vz", tmp_path)
    proc = _vz("project", path, "--json", stdout=subprocess.PIPE,
               env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
    assert proc.stdout.readline().startswith('{"horizon": 180')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, code, err", [
    pytest.param("project", 1, "error: [Errno 28] No space left on device\n", id="project"),
    pytest.param("check", 1, "error: [Errno 28] No space left on device\n", id="check"),
    # an empty report writes nothing, so nothing fails
    pytest.param("utility", 0, "", id="utility-empty"),
])
def test_full_device_is_an_error_line(tmp_path, unbuffered, command, code, err):
    p = tmp_path / "one-agent.vz"
    p.write_text(ONE_AGENT)
    path = _input("project-long.vz", tmp_path) if command == "project" else str(p)
    with open("/dev/full", "w") as full:
        proc = _vz(command, path, "--json", stdout=full,
                   env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
        _, got = proc.communicate()
    assert (proc.returncode, got) == (code, err)
