"""Reports: every subcommand's stdout against recorded digests, JSON
lines against the standard encoder, empty reports, and a report whose
write fails."""
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vz.cli import _TEXT, Report, main

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")
DATA = os.path.join(HERE, "data")
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
import run as perfbench  # noqa: E402  (the benchmark's workload generators)

# "<input> <command>[ --json]" -> exit code and sha256 of stdout, recorded
# from earlier code: before reports were rendered from one record per
# line, and for tests/data before one JSON encoder served a report. The
# inputs are the corpus files, the scenarios in tests/data
# (declared-out-of-order.vz declares its agents out of name order, so a
# report that lists them in declaration order fails; emotions-crowded.vz
# is perfbench/gen.py's sweep_family(0, agents=3, events=45, horizon=22,
# fluents=40), whose digests were recorded before the sweep appraised
# each occurrence once) and the seed-0 input of each benchmark workload;
# `act` reads the trait file that `learn` (text) wrote from the same
# input. emotions, learn, act and run on project-long are left out for
# their size: its `emotions --json` report alone is 85 MB. The crowded
# world runs only the commands that report its sweep and utilities.
with open(os.path.join(DATA, "report_goldens.json"), encoding="utf-8") as fh:
    GOLDENS = json.load(fh)
COMMANDS = ("check", "project", "utility", "emotions", "infer", "generalize", "learn", "act", "run")
ONE_AGENT = "(declare-agent a)\n(declare-fluent p ())\n(initially (p))\n(horizon 2)\n"


def _input(name, tmp_path):
    for folder in (CORPUS, DATA):
        if os.path.exists(os.path.join(folder, name)):
            return os.path.join(folder, name)
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
    assert runs == {"project-long.vz": 10, "emotions-crowded.vz": 5}.get(name, 18)


# strings with quotes, backslashes, control characters and non-ASCII text
_STRINGS = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t/\u00e9\u2028\U0001f600') | st.characters())
_VALUES = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
           | st.integers(max_value=-2**64) | st.floats(allow_nan=False, allow_infinity=False)
           | _STRINGS | st.lists(_STRINGS))
# (record type, fields) over every record type, each field any value a record may hold
_RECORDS = st.sampled_from(sorted(_TEXT)).flatmap(lambda rtype: st.tuples(
    st.just(rtype), st.fixed_dictionaries(
        {name: _VALUES for name in inspect.signature(_TEXT[rtype]).parameters})))


@settings(max_examples=200, deadline=None)
@given(st.lists(_RECORDS, max_size=4))
def test_json_lines_are_the_standard_encoding(records):
    """Each --json line is what json.JSONEncoder(sort_keys=True) makes of
    the record, also when one report encodes several."""
    rep = Report(as_json=True)
    for rtype, fields in records:
        rep.emit(rtype, **fields)
    assert rep.lines == [json.JSONEncoder(sort_keys=True).encode({"type": rtype, **fields})
                         for rtype, fields in records]


def test_json_real_is_null_for_nan_and_infinities():
    rep = Report(as_json=True)
    assert [rep.real(x) for x in (math.nan, math.inf, -math.inf, 2.5, -0.0)] == \
        [None, None, None, 2.5, -0.0]
    rep.emit("mu-bar", event="e", time=1, value=rep.real(math.nan))
    assert rep.lines == ['{"event": "e", "time": 1, "type": "mu-bar", "value": null}']


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


# Terms and formulas hash by identity, so a set of them iterates in the
# order of their addresses, which no report may show. Each interpreter
# first keeps a different number of objects of every small size, which
# moves the address of each object vz makes after it.
PADDED_VZ = ("import sys\n"
             "pad = [bytes(i % 512) for i in range(int(sys.argv[1]))]\n"
             "from vz.cli import main\n"
             "sys.exit(main(sys.argv[2:]))\n")
# the commands each input runs: on the corpus all of them, on the seed-0
# benchmark inputs those that do each one's work
ADDRESS_COMMANDS = ("run", "emotions", "infer", "project", "learn", "act")
ADDRESS_INPUTS = {**{name: ADDRESS_COMMANDS for name in sorted(os.listdir(CORPUS))},
                  "run-sweep.vz": ("run", "emotions"), "infer-saturate.vz": ("infer",),
                  "learn-traits.vz": ("run", "learn", "act")}


@pytest.mark.parametrize("name", sorted(ADDRESS_INPUTS))
def test_reports_do_not_depend_on_object_addresses(tmp_path, name):
    path, runs = _input(name, tmp_path), []
    for pad in (0, 3001):
        out, traits = [], tmp_path / f"traits.{pad}"
        for command in ADDRESS_INPUTS[name]:
            flags = ["--traits", str(traits)] if command in ("learn", "act") else []
            proc = subprocess.run([sys.executable, "-c", PADDED_VZ, str(pad), command, path,
                                   "--json", *flags], capture_output=True)
            assert proc.returncode == 0, (command, proc.stderr)
            out.append((command, proc.stdout, proc.stderr))
        if traits.exists():
            out.append(("traits", traits.read_bytes()))
        runs.append(out)
    assert runs[0] == runs[1]
