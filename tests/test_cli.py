import contextlib
import copy
import gc
import glob
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vz.cli import _COMMANDS, Report, main
from vz.errors import VzError
from vz.scenario import parse_scenario
from vz.sexpr import MAX_NESTING, SList, read_all
from vz.terms import TERMS, Application, Atom, Modal, Ought, Sort, children, fits

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
MARKETPLACE = os.path.join(CORPUS, "marketplace.vz")
LIKES = os.path.join(CORPUS, "likes.vz")
HONESTY = os.path.join(CORPUS, "honesty.vz")
OBLIGATION = os.path.join(CORPUS, "obligation.vz")
DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import run as perfbench  # noqa: E402  (the benchmark's workload generators)


# act requires --traits; in the loops over every subcommand a scenario
# fault stops it before it reads this file, which need not exist
UNREAD_TRAITS = {"act": ["--traits", "unread-traits.vz"]}


def non_horn_marketplace(tmp_path, formula):
    """The marketplace scenario whose query also holds ``formula``."""
    with open(MARKETPLACE) as fh:
        text = fh.read()
    query = "(query fresh (time 5) (formulas (holds (broken) 5)))"
    assert query in text
    path = tmp_path / "non-horn.vz"
    path.write_text(text.replace(query, query[:-2] + f" {formula}))"))
    return path


# each setting flag with a value out of its range, a usage error
OUT_OF_RANGE = [("--n", "0"), ("--m", "0"), ("--gamma", "0"), ("--gamma", "nan"),
                ("--horizon", "-1"), ("--mode", "xx"), ("--horizon", "10001")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_check_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.vz"
        p.write_text("")
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == 0
        assert out == "ok: 0 facts\n"

    def test_scenario_error_has_location(self, capsys, tmp_path):
        p = tmp_path / "bad.vz"
        p.write_text("(initially (mystery))\n")
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == 1
        assert f"{p}:1:" in err

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "check", "no-such-file.vz")
        assert code == 1 and "error:" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.vz"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("data, where", [
        (b"(declare-agent a\xff)\n", "1:17: not UTF-8: byte 0xff (invalid start byte)"),
        # columns count characters, and a line ends at \n, \r\n or \r, as in a scenario read
        (b"; caf\xc3\xa9\r\n(declare-agent \xe9t)\n",
         "2:16: not UTF-8: byte 0xe9 (invalid continuation byte)"),
        (b"(declare-agent a)\r(x \xc3", "2:4: not UTF-8: byte 0xc3 (unexpected end of data)"),
    ], ids=["start", "continuation", "end"])
    def test_file_not_utf8(self, capsys, tmp_path, data, where):
        # the scenario, or the trait file that act and run read
        bad = tmp_path / "bad.vz"
        bad.write_bytes(data)
        assert run_cli(capsys, "check", str(bad)) == (1, "", f"{bad}:{where}\n")
        for command in ("act", "run"):
            assert run_cli(capsys, command, MARKETPLACE, "--traits", str(bad)) == (
                1, "", f"{bad}:{where}\n")

    @pytest.mark.parametrize("last, want", [
        # a cross-event conflict at 1 comes before a self-conflicting flip at 2
        pytest.param("(happens flip 2)",
                     "{p}:13:15: fluent (p) both initiated and terminated at 1 (event down)",
                     id="(happens flip 2)"),
        # an occurrence past the horizon is refused where it stands, when
        # the scenario is read and before any projection
        pytest.param("(happens up 9)", "{p}:14:13: happens(up, 9) is past horizon 3",
                     id="(happens up 9)"),
    ])
    def test_first_fault_in_happens_order_is_named(self, capsys, tmp_path, last, want):
        p = tmp_path / "faults.vz"
        p.write_text("(declare-agent a)\n(declare-fluent p ())\n(declare-fluent q ())\n"
                     "(declare-constant up event)\n(declare-constant down event)\n"
                     "(declare-constant flip event)\n(horizon 3)\n"
                     "(initiates up (p) t)\n(terminates down (p) t)\n"
                     "(initiates flip (q) t)\n(terminates flip (q) t)\n"
                     f"(happens up 1)\n(happens down 1)\n{last}\n")
        code, out, err = run_cli(capsys, "project", str(p))
        assert code == 1 and out == ""
        assert err == want.format(p=p) + "\n"

    @pytest.mark.parametrize("horizon, flags, where", [
        ("(horizon 2)", [], "4:28: happens((action jack (a)), 3) is past horizon 2"),
        ("(horizon 5)", ["--horizon", "1"],
         "4:28: happens((action jack (a)), 3) is past horizon 1"),
        ("", ["--horizon", "1"], "4:28: happens((action jack (a)), 3) is past horizon 1"),
    ])
    def test_happens_past_the_horizon(self, capsys, tmp_path, horizon, flags, where):
        # declared or set by --horizon, the horizon bounds every occurrence,
        # checked when the scenario is read, so by every subcommand
        p = tmp_path / "late.vz"
        p.write_text(f"(declare-agent jack)\n(declare-action-type a ())\n{horizon}\n"
                     "(happens (action jack (a)) 3)\n")
        for command in _COMMANDS:
            code, out, err = run_cli(capsys, command, str(p), *UNREAD_TRAITS.get(command, []),
                                     *flags)
            assert code == 1 and out == ""
            assert err == f"{p}:{where}\n"
        assert run_cli(capsys, "check", str(p), "--horizon", "3") == (0, "ok: 1 facts\n", "")


class TestCommandLine:
    """vz COMMAND FILE, with options: what is a usage error, --help, and
    the spellings of one option."""

    @pytest.mark.parametrize("argv", [
        [], ["run"], ["frobnicate", MARKETPLACE], ["run", MARKETPLACE, "--frob"],
        ["run", MARKETPLACE, "--n"], ["run", MARKETPLACE, "--n", "x"],
        ["run", MARKETPLACE, "--gamma", "x"], ["run", MARKETPLACE, "extra"],
        ["run", MARKETPLACE, "--h", "5"], ["act", MARKETPLACE],
        *(["run", MARKETPLACE, *flag] for flag in OUT_OF_RANGE),
    ], ids=["none", "no-file", "unknown-command", "unknown-option", "no-value", "not-int",
            "not-float", "extra-positional", "ambiguous-prefix", "act-no-traits",
            *(f"{flag}={value}" for flag, value in OUT_OF_RANGE)])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: vz")
        assert "error: " in err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [["--help"], ["run", MARKETPLACE, "-h"]])
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith("usage: vz")

    @pytest.mark.parametrize("spelling", [["--hor", "4"], ["--horizon=4"], ["--hor=4"]])
    def test_option_spellings(self, capsys, spelling):
        # a unique prefix of a long option names it, and --key=value is --key value;
        # options and -- may stand among the positionals
        want = run_cli(capsys, "project", MARKETPLACE, "--horizon", "4")
        assert want[0] == 0 and want[1].startswith("(horizon 4)\n")
        assert run_cli(capsys, "project", MARKETPLACE, *spelling) == want
        assert run_cli(capsys, "project", *spelling, "--", MARKETPLACE) == want


class TestMalformedInput:
    @pytest.mark.parametrize("text, where", [
        ("(query q (time))\n", "1:10: (time ...) takes one moment"),
        ("(observe s (agent))\n", "1:12: (agent ...) takes one agent"),
        ("(observe s (time))\n", "1:12: (time ...) takes one moment"),
    ])
    def test_empty_section(self, capsys, tmp_path, text, where):
        p = tmp_path / "bad.vz"
        p.write_text(text)
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == 1 and out == ""
        assert err == f"{p}:{where}\n"

    @pytest.mark.parametrize("connective, where", [
        ("(not)", "2:9: (not ...) expects 1 parts"),
        ("(not (p) (p))", "2:9: (not ...) expects 1 parts"),
        ("(and)", "2:9: (and) needs at least one part"),
        ("(or)", "2:9: (or) needs at least one part"),
        ("(implies (p))", "2:9: (implies ...) expects 2 parts"),
        ("(iff (p) (p) (p))", "2:9: (iff ...) expects 2 parts"),
    ])
    def test_connective_with_wrong_parts(self, capsys, tmp_path, connective, where):
        p = tmp_path / "bad.vz"
        p.write_text(f"(declare-predicate p ())\n(assert {connective})\n")
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == 1 and out == ""
        assert err == f"{p}:{where}\n"

    @pytest.mark.parametrize("text, where", [
        ("(trait foo)\n", "1:8: expected a (section ...) entry"),
        ("trait\n", "1:1: trait file entries must be (trait ...) records"),
        ("(trait (pattern (holds ?x ?t)))\n",
         "1:1: trait record lacks an (action ...) section"),
        ("(trait (action))\n", "1:8: (action ...) takes one action type"),
        ("(trait (action (utter (broken))) (exemplar (seller)))\n",
         "1:44: expected agent name"),
        ("(trait (action (utter (broken))) (sources (s1)))\n",
         "1:43: expected situation id"),
        ("(trait (action (utter (broken))) (origin seller))\n",
         "1:34: unknown section 'origin'"),
        ("(trait (action (utter (broken))) (action (utter (unbroken))))\n",
         "1:34: duplicate section 'action'"),
        ("(trait (action (utter (broken))) (exemplar nobody))\n",
         "1:44: undeclared agent 'nobody'"),
        # a symbol variable needs a signature; a signature needs its shape
        ("(trait (pattern (holds (?P0) ?t)) (action (utter (?P0))))\n",
         "1:24: symbol variables are not part of the input grammar"),
        ("(trait (signatures (P0 fluent fluent)) (action (utter (broken))))\n",
         "1:24: expected argument sort list"),
        ("(trait (signatures P0) (action (utter (broken))))\n",
         "1:20: a signature is (name sort) or (name (sorts) sort)"),
        ("(trait (signatures (X0 action) (X0 event)) (action (utter (broken))))\n",
         "1:32: duplicate signature 'X0'"),
        ("(trait (signatures (P0 () fluent)) (pattern (holds (?P0 seller) ?t))"
         " (action (utter (?P0))))\n", "1:52: ?P0 expects 0 arguments, got 1"),
        # an action variable no pattern binds, at the (action ...) section
        ("(trait (pattern (holds ?X0 ?t)) (action (utter ?X9)))\n",
         "1:33: action variables without a situation anchor: ['X9']"),
        # a free variable that a binder of its name and sort would capture
        ("(trait (pattern (forall ((t moment)) (holds ?X0 ?t))) (action (utter ?X0)))\n",
         "1:49: the binder t captures the free variable ?t"),
    ])
    def test_malformed_trait_file(self, capsys, tmp_path, text, where):
        traits = tmp_path / "traits.vz"
        traits.write_text(text)
        code, out, err = run_cli(capsys, "act", MARKETPLACE, "--traits", str(traits))
        assert code == 1 and out == ""
        # the location is in the trait file, not in the scenario
        assert err == f"{traits}:{where}\n"

    @pytest.mark.parametrize("formula, where", [
        ("(forall ((y agent)) (likes y ?y))", "3:38"),
        # a shadowed binder still binds the ?y of its sort
        ("(forall ((y agent)) (exists ((y moment)) (likes jack ?y)))", "3:62"),
    ])
    def test_free_variable_a_binder_would_capture(self, capsys, tmp_path, formula, where):
        # a bound y and a free ?y of one sort are one variable, so the
        # formula would read as if ?y were bound
        p = tmp_path / "capture.vz"
        p.write_text(f"(declare-agent jack)\n(declare-predicate likes (agent agent))\n"
                     f"(assert {formula})\n")
        assert run_cli(capsys, "infer", str(p)) == \
            (1, "", f"{p}:{where}: the binder y captures the free variable ?y\n")

    @pytest.mark.parametrize("formula", [
        "(forall ((y moment)) (likes jack ?y))",  # ?y of another sort
        "(and (likes ?y jack) (forall ((y agent)) (likes y jack)))",  # ?y outside the binder
    ])
    def test_free_variable_no_binder_captures(self, capsys, tmp_path, formula):
        p = tmp_path / "free.vz"
        p.write_text(f"(declare-agent jack)\n(declare-predicate likes (agent agent))\n"
                     f"(assert {formula})\n")
        assert run_cli(capsys, "infer", str(p)) == (0, f"{formula}\n", "")

    @pytest.mark.parametrize("command", ["run", "act"])
    @pytest.mark.parametrize("formula, message", [
        ("(or (holds (unbroken) 5) (holds (trusted) 5))", "outside the Horn fragment"),
        ("(implies (or (holds (unbroken) 5) (holds (broken) 5)) (holds (trusted) 5))",
         "non-Horn implication")])
    def test_query_outside_the_horn_fragment(self, capsys, tmp_path, command, formula, message):
        # the learnt trait matches the query, whose consistency check then
        # meets a formula the Horn closure cannot read: named as printed
        traits = tmp_path / "traits.vz"
        traits.write_text("(trait (pattern (holds ?X0 ?t)) (action (utter ?X0)))\n")
        code, out, err = run_cli(capsys, command, str(non_horn_marketplace(tmp_path, formula)),
                                 "--traits", str(traits))
        assert (code, out, err) == (1, "", f"error: {message}: {formula}\n")

    @pytest.mark.parametrize("command", ["learn", "run"])
    def test_situation_outside_the_horn_fragment_is_ineligible(self, capsys, tmp_path,
                                                               command):
        # unlike a query (above), an observed situation whose formulas the
        # Horn closure cannot read is not an error: it is eligible for no
        # root. Both of seller's situations hold an or, so utter is detected
        # in none, and no trait is learnt.
        with open(MARKETPLACE) as fh:
            text = fh.read()
        for fluent in ("broken", "unbroken"):
            formulas = f"(formulas (holds ({fluent}) ?t))"
            assert text.count(formulas) == 1
            text = text.replace(formulas, formulas[:-1]
                                + " (or (holds (trusted) 1) (holds (broken) 1)))")
        p = tmp_path / "non-horn.vz"
        p.write_text(text)
        code, out, err = run_cli(capsys, command, str(p))
        assert code == 0 and err == ""
        assert "(exemplar observer seller 14 0)" in out.splitlines()
        assert "(trait" not in out

    @pytest.mark.parametrize("fault", ["traits", "query"])
    def test_late_failure_of_a_large_report_writes_nothing(self, capsys, tmp_path, fault):
        # at horizon 3000 vz run has emitted more than Report._CHUNK lines
        # when it reads a malformed trait file, or checks a non-Horn query
        code, out, _ = run_cli(capsys, "run", MARKETPLACE, "--horizon", "3000")
        assert code == 0 and out.count("\n") > Report._CHUNK
        if fault == "traits":
            traits = tmp_path / "traits.vz"
            traits.write_text("(trait foo)\n")
            argv, want = [MARKETPLACE, "--traits", str(traits)], \
                f"{traits}:1:8: expected a (section ...) entry\n"
        else:
            formula = "(or (holds (unbroken) 5) (holds (trusted) 5))"
            argv = [str(non_horn_marketplace(tmp_path, formula))]
            want = f"error: outside the Horn fragment: {formula}\n"
        assert run_cli(capsys, "run", *argv, "--horizon", "3000") == (1, "", want)


    @pytest.mark.parametrize("text, where", [
        ("(declare-agent jack)\n(nu jack $)\n", "2:10: unexpected character '$'"),
        ("(horizon 1.2.3)\n", "1:10: bad number '1.2.3'"),
        ("(declare-agent jack)\n(declare-fluent f (agent)\n", "2:1: unclosed parenthesis"),
        ("(declare-agent jack))\n", "1:21: unmatched ')'"),
        # numbers are ASCII: other digits are no token
        ("(horizon \u00b2)\n", "1:10: unexpected character '\u00b2'"),
        ("(horizon \u0663)\n", "1:10: unexpected character '\u0663'"),
    ])
    def test_reader_diagnostic(self, capsys, tmp_path, text, where):
        p = tmp_path / "unreadable.vz"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == 1 and out == ""
        assert err == f"{p}:{where}\n"

    @pytest.mark.parametrize("items, where", [
        # well-formed items that do not generalize: named at the first
        # (assert ...) item, or the first (group ...) item when there is one
        ("(assert (knows jack 1 (p)))\n(assert (believes jack 1 (p)))\n",
         "3:1: modal operators disagree"),
        ("(assert (p))\n(group (p))\n(group (not (p)))\n",
         "4:1: input sets share no alignable formula"),
    ])
    def test_generalize_failure_is_located(self, capsys, tmp_path, items, where):
        p = tmp_path / "apart.vz"
        p.write_text(f"(declare-agent jack)\n(declare-predicate p ())\n{items}")
        for extra in ([], ["--json"]):
            assert run_cli(capsys, "generalize", str(p), *extra) == (1, "", f"{p}:{where}\n")

    @pytest.mark.parametrize("mode", ["fo", "ho"])
    def test_nesting_at_the_bound(self, tmp_path, mode):
        # every recursive pass after the reader handles the deepest input
        # it accepts: each command ends in exit 0 or names another fault
        traits = tmp_path / "traits.vz"
        for i, text in enumerate(_at_nesting_bound()):
            assert max(itertools.accumulate({"(": 1, ")": -1}.get(c, 0) for c in text)) \
                == MAX_NESTING
            p = tmp_path / f"deep{i}.vz"
            p.write_text(text)
            for command in ["learn"] + sorted(set(_COMMANDS) - {"learn"}):
                argv = [command, str(p), "--mode", mode]
                if command in ("learn", "act", "run"):
                    argv += ["--traits", str(traits)]  # learn writes it, act and run read it
                for as_json in ([], ["--json"]):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv + as_json)
                    # the message, not the file name (this test's name has "nest")
                    message = err.getvalue().replace(str(tmp_path), "")
                    assert (code, err.getvalue()) == (0, "") or \
                        (code == 1 and "nest" not in message), (command, i)

    def test_nesting_past_the_bound(self, capsys, tmp_path):
        # the reader names the paren that opens the list one too deep
        line = "(assert " + "(not " * MAX_NESTING + "(p)" + ")" * (MAX_NESTING + 1)
        p = tmp_path / "deep.vz"
        p.write_text(f"(declare-agent jack)\n(declare-predicate p ())\n{line}\n")
        col = 9 + 5 * (MAX_NESTING - 1)
        for command in _COMMANDS:
            code, out, err = run_cli(capsys, command, str(p), *UNREAD_TRAITS.get(command, []))
            assert code == 1 and out == ""
            assert err == f"{p}:3:{col}: lists nest more than {MAX_NESTING} deep\n"
        # and in a trait file, which the same reader reads
        traits = tmp_path / "traits.vz"
        traits.write_text("; too deep\n(trait (pattern " + "(not " * (MAX_NESTING - 1)
                          + "(holds ?X0 ?t)" + ")" * (MAX_NESTING - 1)
                          + ") (action (utter ?X0)))\n")
        col = 17 + 5 * (MAX_NESTING - 2)
        code, out, err = run_cli(capsys, "act", MARKETPLACE, "--traits", str(traits))
        assert code == 1 and out == ""
        assert err == f"{traits}:2:{col}: lists nest more than {MAX_NESTING} deep\n"

    def test_moment_constant_rejected(self, capsys, tmp_path):
        # moments are numerals; a named one used to crash `vz infer`
        p = tmp_path / "noon.vz"
        p.write_text("(declare-agent a)\n(declare-predicate p ())\n"
                     "(declare-constant noon moment)\n(assert (believes a noon (p)))\n")
        for command in ("check", "infer"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 1 and out == ""
            assert err == f"{p}:3:24: moment constant 'noon': moments are written as numerals\n"

    @pytest.mark.parametrize("item, where", [
        ("(rule ((p)) (p))", "3:1: unknown item 'rule'"),
        # a bare name is a moment variable only in initiates/terminates
        ("(assert (believes jack one (p)))", "3:24: undeclared symbol 'one'"),
        ("(assert (ought jack now (p) (happens (action jack (pay)) 2)))",
         "3:21: undeclared symbol 'now'"),
        ("(set n 0)", "3:8: n must be at least 1"),
        ("(set m 0)", "3:8: m must be at least 1"),
        ("(set gamma 0)", "3:12: gamma must lie in (0, 1]"),
        ("(set gamma 1.5)", "3:12: gamma must lie in (0, 1]"),
        # an integer too large for a float reads as inf
        ("(set gamma 1" + "0" * 400 + ")", "3:12: gamma must lie in (0, 1]"),
        ("(set mode xx)", "3:11: mode must be fo or ho"),
        ("(set learner nobody)", "3:14: undeclared agent 'nobody'"),
        ("(set learner p)", "3:14: undeclared agent 'p'"),
        # a malformed section is reported where it stands
        ("(observe s (time 1) foo)", "3:21: expected a (section ...) entry"),
        # symbol variables occur in trait files only
        ("(assert (?P jack))", "3:9: symbol variables are not part of the input grammar"),
        # every moment is at most MAX_MOMENT
        ("(horizon 100000000000)", "3:10: moments are at most 10000, got 100000000000"),
        ("(declare-constant e event) (happens e 10001)", "3:39: moments are at most 10000, got 10001"),
        ("(declare-fluent f ()) (nu jack (f) 10001 1.0)", "3:36: moments are at most 10000, got 10001"),
        ("(theta jack at 10001)", "3:16: moments are at most 10000, got 10001"),
        ("(observe s (time 10001))", "3:18: moments are at most 10000, got 10001"),
        ("(query q (time 10001))", "3:16: moments are at most 10000, got 10001"),
        ("(assert (believes jack 10001 (p)))", "3:24: moments are at most 10000, got 10001"),
        # observe and query items share one namespace of ids
        ("(observe s (time 1)) (observe s (time 2))", "3:31: duplicate situation id 's'"),
        ("(observe s (time 1)) (query s (time 2))", "3:29: duplicate situation id 's'"),
        ("(query s (time 1)) (observe s (time 2))", "3:29: duplicate situation id 's'"),
    ])
    def test_rejected_item(self, capsys, tmp_path, item, where):
        p = tmp_path / "bad.vz"
        p.write_text(f"(declare-agent jack)\n(declare-predicate p ())\n{item}\n"
                     "(declare-action-type pay ())\n")
        for command in ("check", "infer"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 1 and out == ""
            assert err == f"{p}:{where}\n"

    @pytest.mark.parametrize("item", [
        "(observe s (agent ?a))",
        "(observe s (agent a) (alternatives (utter (f b)) (utter (f ?y))))",
        "(observe s (agent a) (formulas (holds (f ?y) ?t)) (performed (utter (f ?y))))",
        "(observe s (agent a) (performed ?x))",
        "(happens (action ?a (utter (f b))) 1)",
        "(initially (f ?x))",
        "(nu ?q (f b) 2 1.0)",
        "(nu a (f ?q) 2 1.0)",
        "(theta ?a always)",
        "(theta ?a at 1)",
    ])
    def test_variable_in_ground_position(self, capsys, tmp_path, item):
        # a fact, and an observation's agent and action types, name things:
        # the first ?variable there is rejected where it stands (a variable
        # in the situation's formulas, before it, is legal)
        p = tmp_path / "open.vz"
        p.write_text("(declare-agent a)\n(declare-agent b)\n(declare-fluent f (agent))\n"
                     f"(declare-action-type utter (fluent))\n{item}\n")
        col = item.rindex("?") + 1
        var = item[col - 1:].split(")")[0].split()[0]
        want = f"{p}:5:{col}: variable {var} where a ground term is expected\n"
        for command in ("check", "run", "infer"):
            for as_json in ([], ["--json"]):
                assert run_cli(capsys, command, str(p), *as_json) == (1, "", want)

    @pytest.mark.parametrize("setting, where", [
        # max-depth may follow the asserts it bounds
        ("(set max-depth 0)", "4:1: modal depth 1 exceeds max-depth 0: (knows jack 1 (p))"),
        ("(set max-depth 1)",
         "5:1: modal depth 2 exceeds max-depth 1: (knows jack 1 (believes jack 2 (p)))"),
        ("", "6:1: modal depth 4 exceeds max-depth 3: "
             "(believes jack 1 (knows jack 1 (knows jack 1 (knows jack 1 (p)))))"),
    ])
    def test_assert_deeper_than_max_depth(self, capsys, tmp_path, setting, where):
        p = tmp_path / "deep.vz"
        p.write_text("(declare-agent jack)\n(declare-predicate p ())\n(assert (p))\n"
                     "(assert (knows jack 1 (p)))\n"
                     "(assert (knows jack 1 (believes jack 2 (p))))\n"
                     "(assert (believes jack 1 (knows jack 1 (knows jack 1 (knows jack 1 (p))))))\n"
                     f"{setting}\n")
        for command in ("check", "infer"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 1 and out == ""
            assert err == f"{p}:{where}\n"

    @pytest.mark.parametrize("value, read", [("1" + "0" * 400 + ".0", "inf"),
                                             ("-1" + "0" * 400, "-inf")])
    def test_nu_value_not_finite(self, capsys, tmp_path, value, read):
        # a literal too large for a float reads as an infinity
        p = tmp_path / "huge.vz"
        p.write_text(f"(declare-agent jack)\n(declare-fluent f ())\n(nu jack (f) 2 {value})\n")
        for command in ("check", "utility"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 1 and out == ""
            assert err == f"{p}:3:16: nu value must be finite, got {read}\n"
        # two finite facts for one (agent, fluent, moment) add up past the
        # float range: the second is at fault
        half = value.replace("0" * 400, "0" * 308)
        p.write_text(f"(declare-agent jack)\n(declare-fluent f ())\n"
                     f"(nu jack (f) 2 {half})\n(nu jack (f) 2 {half})\n")
        for command in ("check", "utility"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 1 and out == ""
            assert err == f"{p}:4:16: nu value must be finite, got {read}\n"

    @pytest.mark.parametrize("command, item, where", [
        ("check", "(happens (action jack (pay)) {})", "4:30"),
        ("infer", "(assert (believes jack {} (p)))", "4:24"),
    ])
    def test_integer_literal_too_long(self, capsys, tmp_path, command, item, where):
        # more digits than Python's int() converts
        p = tmp_path / "long.vz"
        p.write_text("(declare-agent jack)\n(declare-predicate p ())\n"
                     f"(declare-action-type pay ())\n{item.format('9' * 5001)}\n")
        code, out, err = run_cli(capsys, command, str(p))
        assert code == 1 and out == ""
        assert err == f"{p}:{where}: integer literal too long: 5001 digits\n"

    def test_modal_moment_variables_parse(self, capsys, tmp_path):
        p = tmp_path / "moments.vz"
        p.write_text("(declare-agent jack)\n(declare-predicate p ())\n"
                     "(assert (believes jack ?t (p)))\n"
                     "(assert (forall ((t moment)) (knows jack t (p))))\n")
        code, out, _ = run_cli(capsys, "infer", str(p))
        assert code == 0
        assert out.splitlines() == ["(believes jack ?t (p))",
                                    "(forall ((t moment)) (knows jack t (p)))"]

    def test_horizon_past_the_largest_moment(self, capsys, tmp_path):
        # refused before any pass over the moments, by every subcommand
        p = tmp_path / "huge.vz"
        text = "(declare-agent a)\n(declare-fluent f ())\n(initially (f))\n(horizon {})\n"
        p.write_text(text.format(10 ** 11))
        for command in _COMMANDS:
            code, out, err = run_cli(capsys, command, str(p), *UNREAD_TRAITS.get(command, []))
            assert code == 1 and out == ""
            assert err == f"{p}:4:10: moments are at most 10000, got 100000000000\n"
        p.write_text(text.format(10000))
        assert run_cli(capsys, "check", str(p)) == (0, "ok: 1 facts\n", "")

    @pytest.mark.parametrize("flag", OUT_OF_RANGE)
    def test_setting_flag_out_of_range(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", MARKETPLACE, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag[0]}: " in captured.err


class TestSubcommands:
    def test_check_counts_facts(self, capsys):
        # one per fact item; declarations, (horizon h) and (set ...) are not facts
        for path, count in ((HONESTY, 2), (LIKES, 2), (MARKETPLACE, 13), (OBLIGATION, 3)):
            assert run_cli(capsys, "check", path) == (0, f"ok: {count} facts\n", "")

    def test_check_counts_each_repeated_fact(self, capsys, tmp_path):
        # a repeated happens and two nu facts on one key each count as a
        # fact, though projection sees one occurrence and ν one sum
        p = tmp_path / "repeated.vz"
        p.write_text("(declare-agent a)\n(declare-fluent p ())\n(declare-action-type up ())\n"
                     "(initiates (action ?x (up)) (p) t)\n(happens (action a (up)) 1)\n"
                     "(happens (action a (up)) 1)\n(nu a (p) 2 1.5)\n(nu a (p) 2 1.5)\n")
        assert run_cli(capsys, "check", str(p)) == (0, "ok: 5 facts\n", "")
        assert run_cli(capsys, "utility", str(p)) == (
            0, "(mu-bar (action a (up)) 1 3.0)\n(nu-bar a (action a (up)) 1 3.0)\n", "")

    def test_project(self, capsys):
        code, out, _ = run_cli(capsys, "project", MARKETPLACE)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(horizon 6)"
        assert "(holds (trusted) 2)" in lines
        assert "(holds (trusted) 1)" not in lines

    def test_utility(self, capsys):
        code, out, _ = run_cli(capsys, "utility", MARKETPLACE)
        assert code == 0
        lines = out.splitlines()
        assert "(mu-bar (action seller (utter (broken))) 1 5.0)" in lines
        assert "(nu-bar buyer (action seller (utter (broken))) 1 5.0)" in lines
        assert "(nu-bar seller (action seller (utter (broken))) 1 0.0)" in lines

    def test_utility_totals_do_not_depend_on_hash_seed(self, tmp_path):
        # ν̄ and μ̄ add the effects in printed order: 0.1 + 0.2 + 0.3
        p = tmp_path / "three.vz"
        p.write_text("(declare-agent a)\n(declare-constant go event)\n(horizon 1)\n"
                     "(happens go 0)\n"
                     + "".join(f"(declare-fluent f{k} ())\n(initiates go (f{k}) t)\n"
                               f"(nu a (f{k}) 1 0.{k})\n" for k in (1, 2, 3)))
        for seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-m", "vz.cli", "utility", str(p)],
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == 0
            assert proc.stdout == ("(mu-bar go 0 0.6000000000000001)\n"
                                   "(nu-bar a go 0 0.6000000000000001)\n")

    def test_utility_totals_add_per_moment(self, capsys, tmp_path):
        # ν̄ adds each moment's sum over the fluents (in printed order) to
        # the total; μ̄ does the same with each fluent's sum over the agents.
        # Jack's ν̄ added per fluent would read 1.8, and μ̄ as the sum of
        # the agents' ν̄ would read 6.3999999999999995.
        p = tmp_path / "grouping.vz"
        p.write_text("(declare-agent jack)\n(declare-agent jill)\n(declare-constant go event)\n"
                     "(declare-fluent a ())\n(declare-fluent b ())\n(horizon 3)\n"
                     "(initiates go (a) t)\n(initiates go (b) t)\n(happens go 1)\n"
                     "(nu jack (a) 2 0.7)\n(nu jack (b) 2 0.1)\n"
                     "(nu jack (a) 3 0.7)\n(nu jack (b) 3 0.3)\n"
                     "(nu jill (a) 2 2.0)\n(nu jill (b) 2 0.3)\n"
                     "(nu jill (a) 3 0.3)\n(nu jill (b) 3 2.0)\n")
        assert run_cli(capsys, "utility", str(p)) == (
            0, "(mu-bar go 1 6.4)\n(nu-bar jack go 1 1.7999999999999998)\n"
               "(nu-bar jill go 1 4.6)\n", "")

    @staticmethod
    def _overflow(tmp_path, losses=True):
        """Finite ν whose sums overflow: the seller's gains at 2 add to
        inf, and with the losses at 3, to inf - inf = nan."""
        big = "1" + "0" * 308
        p = tmp_path / "nan.vz"
        p.write_text("(declare-agent seller)\n(declare-agent observer)\n"
                     "(declare-action-type act ())\n(horizon 4)\n(theta observer always)\n"
                     + "".join(f"(declare-fluent {f} ())\n" for f in ("f1", "f2", "g1", "g2"))
                     + "(initially (g1))\n(initially (g2))\n"
                     "(initiates (action ?a (act)) (f1) t)\n(initiates (action ?a (act)) (f2) t)\n"
                     "(terminates (action ?a (act)) (g1) t)\n"
                     "(terminates (action ?a (act)) (g2) t)\n(happens (action seller (act)) 1)\n"
                     f"(nu seller (f1) 2 {big})\n(nu seller (f2) 2 {big})\n"
                     + (f"(nu seller (g1) 3 {big})\n(nu seller (g2) 3 {big})\n" if losses else ""))
        return p

    def test_nan_total_is_not_positive(self, capsys, tmp_path):
        # finite ν whose sums overflow: μ̄ and the seller's ν̄ are
        # inf - inf = nan, which no emotion reads as positive, admiration
        # included, though no initiated fluent has a negative μ
        p = self._overflow(tmp_path)
        assert run_cli(capsys, "utility", str(p)) == (
            0, "(mu-bar (action seller (act)) 1 nan)\n"
               "(nu-bar seller (action seller (act)) 1 nan)\n"
               "(nu-bar observer (action seller (act)) 1 0.0)\n", "")
        assert run_cli(capsys, "emotions", str(p)) == (0, "", "")

    @pytest.mark.parametrize("losses, text", [(True, "nan"), (False, "inf")])
    def test_total_not_finite_is_json_null(self, capsys, tmp_path, losses, text):
        # JSON has no NaN or Infinity (RFC 8259); the text report keeps them
        def reject(name):
            raise ValueError(f"not JSON: {name}")
        p = self._overflow(tmp_path, losses)
        code, out, err = run_cli(capsys, "utility", str(p), "--json")
        assert (code, err) == (0, "")
        values = [json.loads(line, parse_constant=reject)["value"] for line in out.splitlines()]
        assert values == [None, None, 0.0]
        assert run_cli(capsys, "utility", str(p))[1].splitlines()[0] == \
            f"(mu-bar (action seller (act)) 1 {text})"

    def test_emotions(self, capsys):
        code, out, _ = run_cli(capsys, "emotions", MARKETPLACE)
        assert code == 0
        assert "(admiration-for observer seller (action seller (utter (broken))) 1 0)" \
            in out.splitlines()

    def test_infer(self, capsys):
        code, out, _ = run_cli(capsys, "infer", OBLIGATION)
        assert code == 0
        assert "(knows jack 1 (intends jack 1 (happens (action jack (pay)) 2)))" \
            in out.splitlines()

    def test_generalize_asserts(self, capsys):
        code, out, _ = run_cli(capsys, "generalize", LIKES)
        assert code == 0
        assert out.splitlines() == ["(likes jill ?X0)",
                                    "(subst ?X0 jack)",
                                    "(subst ?X0 jim)"]

    def test_generalize_asserts_higher_order(self, capsys, tmp_path):
        # symbol bindings print after the variable bindings, each by name
        p = tmp_path / "loves.vz"
        p.write_text("(declare-agent jill)\n(declare-agent jack)\n(declare-agent jim)\n"
                     "(declare-predicate likes (agent agent))\n"
                     "(declare-predicate loves (agent agent))\n"
                     "(assert (likes jill jack))\n(assert (loves jill jim))\n")
        code, out, _ = run_cli(capsys, "generalize", str(p), "--mode", "ho")
        assert code == 0
        assert out.splitlines() == ["(?P0 jill ?X0)",
                                    "(subst ?X0 jack ?P0 likes)",
                                    "(subst ?X0 jim ?P0 loves)"]
        code, out, _ = run_cli(capsys, "generalize", str(p), "--mode", "ho", "--json")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"type": "pattern", "formula": "(?P0 jill ?X0)"},
            {"type": "subst", "subst": "(subst ?X0 jack ?P0 likes)"},
            {"type": "subst", "subst": "(subst ?X0 jim ?P0 loves)"}]

    def test_generalize_groups(self, capsys):
        code, out, _ = run_cli(capsys, "generalize", HONESTY)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(forall ((X0 agent)) (implies (talkingWith X0) (Honesty)))"
        assert lines[-1] == "(total true)"

    def test_generalize_nothing_to_do(self, capsys, tmp_path):
        p = tmp_path / "none.vz"
        p.write_text("(declare-agent jack)\n")
        code, _, err = run_cli(capsys, "generalize", str(p))
        assert code == 1 and "nothing to generalize" in err

    def test_learn(self, capsys):
        code, out, _ = run_cli(capsys, "learn", MARKETPLACE)
        assert code == 0
        lines = out.splitlines()
        assert "(exemplar observer seller 14 0)" in lines
        assert ("(trait (pattern (holds ?X0 ?t)) (action (utter ?X0)) "
                "(exemplar seller) (sources sigma1 sigma2))") in lines

    def test_run_golden_tail(self, capsys):
        code, out, _ = run_cli(capsys, "run", MARKETPLACE)
        assert code == 0
        assert out.splitlines()[-1] == \
            "(proposal fresh (happens (action observer (utter (broken))) 5))"

    def test_duplicate_happens_collapses(self, capsys, tmp_path):
        # happens is a predicate: stating an occurrence twice changes nothing
        with open(MARKETPLACE) as fh:
            text = fh.read()
        line = "(happens (action seller (utter (broken))) 1)\n"
        assert text.count(line) == 1
        p = tmp_path / "twice.vz"
        p.write_text(text.replace(line, line * 2))
        for extra in ([], ["--json"]):
            _, want, _ = run_cli(capsys, "run", MARKETPLACE, *extra)
            code, got, _ = run_cli(capsys, "run", str(p), *extra)
            assert code == 0 and got == want

    def test_too_few_performing_situations_learn_no_trait(self, capsys, tmp_path):
        # with gamma 0.5, seller performing utter in one of two eligible
        # situations makes it a trait, but m = 2 performing situations are
        # needed to learn one
        with open(MARKETPLACE) as fh:
            text = fh.read()
        performed = "\n  (performed (utter (unbroken))))"
        assert text.count(performed) == 1 and text.count("(set gamma 0.9)") == 1
        p = tmp_path / "half.vz"
        p.write_text(text.replace(performed, ")").replace("(set gamma 0.9)", "(set gamma 0.5)"))
        for command in ("run", "learn"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 0 and err == ""
            assert "(exemplar observer seller 14 0)" in out.splitlines()
            assert "(trait" not in out

    @pytest.mark.parametrize("kinds, learnt", [
        (("initiates", "terminates"), False), (("initiates",), True), (("terminates",), True)])
    def test_effect_conflict_makes_an_alternative_inconsistent(self, capsys, tmp_path,
                                                               kinds, learnt):
        # in sigma2 each alternative would both initiate and terminate
        # (trusted) at 3, so sigma2 is not eligible and one eligible
        # situation is fewer than m = 2; either effect alone is consistent
        with open(MARKETPLACE) as fh:
            text = fh.read()
        formula = "(formulas (holds (unbroken) ?t))"
        assert text.count(formula) == 1
        effects = [f"(implies (happens {ev} 3) ({kind} {ev} (trusted) 3))"
                   for ev in ("(action seller (utter (broken)))",
                              "(action seller (utter (unbroken)))") for kind in kinds]
        p = tmp_path / "conflict.vz"
        p.write_text(text.replace(formula, f"(formulas (holds (unbroken) ?t) {' '.join(effects)})"))
        trait = ('{"trait": "(trait (pattern (holds ?X0 ?t)) (action (utter ?X0)) '
                 '(exemplar seller) (sources sigma1 sigma2))", "type": "trait"}')
        for command in ("learn", "run"):
            code, out, err = run_cli(capsys, command, str(p), "--json")
            lines = out.splitlines()
            assert code == 0 and err == ""
            assert any('"type": "exemplar"' in line for line in lines)
            assert (trait in lines) is learnt
            if command == "run":
                assert any('"type": "proposal"' in line for line in lines) is learnt

    WINDOW = ("(declare-agent a) (declare-agent b) (declare-fluent f ()) "
              "(declare-action-type go ()) (horizon 2) (theta a always) (theta b always) "
              "(initiates (action b (go)) (f) t) (happens (action b (go)) 0)\n")

    def test_event_totals_sum_up_to_the_horizon(self, capsys, tmp_path):
        # ν̄ and μ̄ of an occurrence at t sum over (t, H]: a ν at H + 1 adds nothing
        p = tmp_path / "window.vz"
        p.write_text(self.WINDOW + "(nu a (f) 3 5.0)\n")
        code, out, err = run_cli(capsys, "utility", str(p))
        assert code == 0 and err == ""
        assert out.splitlines() == ["(mu-bar (action b (go)) 0 0.0)",
                                    "(nu-bar a (action b (go)) 0 0.0)",
                                    "(nu-bar b (action b (go)) 0 0.0)"]
        assert run_cli(capsys, "emotions", str(p)) == (0, "", "")

    def test_appraisal_scans_opposite_utilities_over_the_horizon(self, capsys, tmp_path):
        # an opposite-signed ν (and so μ) blocks the appraisal at any moment
        # of [0, H], even at or before the occurrence, and not at H + 1
        p = tmp_path / "window.vz"
        p.write_text(self.WINDOW + "(nu a (f) 1 2.0)\n")
        code, clean, err = run_cli(capsys, "emotions", str(p))
        assert code == 0 and err == ""
        for kind in ("admiration-for a b", "happy-for b a", "joy a"):
            assert f"({kind} (action b (go)) 0 2)" in clean.splitlines()
        p.write_text(self.WINDOW + "(nu a (f) 1 2.0) (nu a (f) 3 -5.0)\n")
        assert run_cli(capsys, "emotions", str(p)) == (0, clean, "")
        p.write_text(self.WINDOW + "(nu a (f) 1 2.0) (nu a (f) 0 -1.0)\n")
        assert run_cli(capsys, "emotions", str(p)) == (0, "", "")
        code, out, _ = run_cli(capsys, "utility", str(p))
        assert code == 0 and "(nu-bar a (action b (go)) 0 2.0)" in out.splitlines()

    @pytest.mark.parametrize("horizon, flags", [("(horizon 2)", []), ("", ["--horizon", "2"])],
                             ids=["declared", "flag"])
    def test_theta_past_the_horizon_opens_nothing(self, capsys, tmp_path, horizon, flags):
        # hold times range over [0, H]: a Θ moment past the horizon is read,
        # and b, open only there, holds no emotion while a still does
        p = tmp_path / "window.vz"
        always = self.WINDOW.replace("(horizon 2)", horizon) + "(nu a (f) 2 1.0) (nu b (f) 2 1.0)\n"
        p.write_text(always)
        code, out, err = run_cli(capsys, "emotions", str(p), *flags)
        assert code == 0 and err == ""
        assert "(joy b (action b (go)) 0 2)" in out.splitlines()
        p.write_text(always.replace("(theta b always)", "(theta b at 5)"))
        code, out, err = run_cli(capsys, "emotions", str(p), *flags)
        assert code == 0 and err == "" and "(joy a (action b (go)) 0 2)" in out.splitlines()
        assert not [line for line in out.splitlines() if line.split()[1] == "b"]

    def test_unanchored_action_type_learns_no_trait(self, capsys, tmp_path):
        # both situations hold (broken), so the situations do not say which
        # fluent seller utters: the action variable has no anchor and the
        # action type gives no trait
        with open(MARKETPLACE) as fh:
            text = fh.read()
        formula = "(formulas (holds (unbroken) ?t))"
        assert text.count(formula) == 1
        p = tmp_path / "unanchored.vz"
        p.write_text(text.replace(formula, "(formulas (holds (broken) ?t))"))
        for command in ("run", "learn"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 0 and err == ""
            assert "(exemplar observer seller 14 0)" in out.splitlines()
            assert "(trait" not in out and "(proposal" not in out

    @pytest.mark.parametrize("sigma1, sigma2", [
        # no formula of sigma2 aligns with one of sigma1 (NoAlignment)
        ("(holds (broken) ?t)", "(not (holds (unbroken) ?t))"),
        # the modal rows align, but their binders' sorts differ (Incompatible)
        ("(holds (broken) ?t) (knows seller 1 (exists ((x agent)) (holds (broken) 1)))",
         "(holds (unbroken) ?t) (knows seller 3 (exists ((x fluent)) (holds (unbroken) 3)))"),
    ], ids=["no-alignment", "incompatible"])
    def test_unalignable_action_type_learns_no_trait(self, capsys, tmp_path, sigma1, sigma2):
        # seller's utterances are detected as a trait, but the situations
        # do not generalize: utter gives no trait and the run goes on
        with open(MARKETPLACE) as fh:
            text = fh.read()
        for old, new in (("(broken) ?t))", sigma1), ("(unbroken) ?t))", sigma2)):
            old = f"(formulas (holds {old}"
            assert text.count(old) == 1
            text = text.replace(old, f"(formulas {new})")
        p = tmp_path / "unalignable.vz"
        p.write_text(text)
        for command in ("run", "learn"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 0 and err == ""
            assert "(exemplar observer seller 14 0)" in out.splitlines()
            assert "(trait" not in out and "(proposal" not in out

    @pytest.mark.parametrize("sigma1, trait", [
        # sigma1 performs utter, sigma2 shrug: neither root is a trait
        ("(performed (utter (broken)))", None),
        # both perform shrug: a constant action type is its own root
        ("(performed shrug)", "(trait (pattern (holds ?X0 ?t)) (action shrug) "
                              "(exemplar seller) (sources sigma1 sigma2))"),
    ], ids=["mixed", "constant-trait"])
    def test_constant_action_type(self, capsys, tmp_path, sigma1, trait):
        with open(MARKETPLACE) as fh:
            text = fh.read()
        # both situations offer utter and shrug; sigma2 performs shrug
        for old, new, count in [
                ("(declare-action-type utter (fluent))\n",
                 "(declare-action-type utter (fluent))\n(declare-constant shrug action-type)\n", 1),
                ("(alternatives (utter (broken)) (utter (unbroken)))",
                 "(alternatives (utter (broken)) shrug)", 2),
                ("(performed (utter (broken)))", sigma1, 1),
                ("(performed (utter (unbroken)))", "(performed shrug)", 1)]:
            assert text.count(old) == count
            text = text.replace(old, new)
        p, traits = tmp_path / "shrug.vz", tmp_path / "traits.vz"
        p.write_text(text)
        proposal = "(proposal fresh (happens (action observer shrug) 5))"
        for command in ("learn", "run"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 0 and err == ""
            assert "(exemplar observer seller 14 0)" in out.splitlines()
            assert (trait in out.splitlines()) if trait else "(trait" not in out
            assert (proposal in out) == (command == "run" and trait is not None)
        assert run_cli(capsys, "learn", str(p), "--traits", str(traits))[0] == 0
        code, out, err = run_cli(capsys, "act", str(p), "--traits", str(traits))
        assert (code, out, err) == (0, f"{proposal}\n" if trait else "", "")

    def test_run_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "run", MARKETPLACE)
        _, second, _ = run_cli(capsys, "run", MARKETPLACE)
        assert first == second

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "emotions", MARKETPLACE, "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["type"] == "emotion" for r in records)
        assert any(r["kind"] == "admiration-for" for r in records)


class TestTraitFiles:
    def test_learn_act_round_trip(self, capsys, tmp_path):
        # the proposals of `run` are those of `learn --traits F` followed
        # by `act --traits F`: the trait file keeps all they depend on
        cases = [(MARKETPLACE, 1)]
        for seed in range(3):
            text, model = perfbench.generate("learn-traits", seed)
            path = tmp_path / f"learn-traits-{seed}.vz"
            path.write_text(text)
            # one proposal per query that carries the planted trait's anchor
            cases.append((path, sum(ok is not None for _, _, ok in model["queries"])))
        # an action-sorted variable in an event position: the trait matches
        # the query's (happens shout 4) but not its (happens storm 4)
        with open(MARKETPLACE) as fh:
            text = fh.read()
        for old, new in [("(declare-agent observer)",
                          "(declare-agent observer)\n(declare-constant shout action)\n"
                          "(declare-constant storm event)"),
                         ("(formulas (holds (broken) ?t))",
                          "(formulas (holds (broken) ?t) (happens shout 1))"),
                         ("(formulas (holds (unbroken) ?t))",
                          "(formulas (holds (unbroken) ?t) "
                          "(happens (action buyer (utter (trusted))) 2))"),
                         ("(query fresh (time 5) (formulas (holds (broken) 5)))",
                          "(query fresh (time 5) (formulas (holds (broken) 5) (happens storm 4)))"
                          "\n(query later (time 5) (formulas (holds (broken) 5) (happens shout 4)))")]:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "action-variable.vz"
        path.write_text(text)
        cases.append((path, 1))
        # situation variables named as the learner names the variables it
        # introduces: the trait names its own around them
        renamed = []
        for name in ("X0", "P0"):
            renamed.append(tmp_path / f"marketplace-{name}.vz")
            with open(MARKETPLACE) as fh:
                renamed[-1].write_text(fh.read().replace("?t", f"?{name}"))
            cases.append((renamed[-1], 1))
        traits = tmp_path / "traits.vz"
        for (scenario, count), mode in itertools.product(cases, ["fo", "ho"]):
            code, run_out, _ = run_cli(capsys, "run", str(scenario), "--mode", mode)
            assert code == 0
            code, _, _ = run_cli(capsys, "learn", str(scenario), "--mode", mode,
                                 "--traits", str(traits))
            assert code == 0
            code, act_out, err = run_cli(capsys, "act", str(scenario), "--mode", mode,
                                         "--traits", str(traits))
            assert code == 0, err
            proposals = [l for l in run_out.splitlines() if l.startswith("(proposal")]
            assert len(proposals) == count and act_out.splitlines() == proposals
            if scenario == MARKETPLACE or scenario in renamed:
                assert proposals == [
                    "(proposal fresh (happens (action observer (utter (broken))) 5))"]
            if scenario == path:
                assert proposals == [
                    "(proposal later (happens (action observer (utter (broken))) 5))"]

    def test_event_proposed_by_two_traits_is_one_proposal(self, capsys, tmp_path):
        # both traits propose (utter (broken)) on the query fresh
        traits = tmp_path / "traits.vz"
        traits.write_text("(trait (pattern (holds ?X0 ?t)) (action (utter ?X0)))\n"
                          "(trait (pattern (holds (broken) ?t)) (action (utter (broken))))\n")
        proposal = "(proposal fresh (happens (action observer (utter (broken))) 5))\n"
        assert run_cli(capsys, "act", MARKETPLACE, "--traits", str(traits)) == (0, proposal, "")
        code, out, err = run_cli(capsys, "run", MARKETPLACE, "--traits", str(traits))
        assert (code, err) == (0, "") and out.count("(proposal") == 1 and out.endswith(proposal)
        code, out, _ = run_cli(capsys, "act", MARKETPLACE, "--traits", str(traits), "--json")
        assert code == 0 and [json.loads(line)["event"] for line in out.splitlines()] == [
            "(action observer (utter (broken)))"]

    @pytest.mark.parametrize("mode", ["fo", "ho"])
    def test_trait_file_is_the_trait_lines(self, capsys, tmp_path, mode):
        # learn --traits writes the trait lines it reports, and nothing else
        text, _ = perfbench.generate("learn-traits", 0)
        generated = tmp_path / "learn-traits-0.vz"
        generated.write_text(text)
        traits = tmp_path / "traits.vz"
        learnt = 0
        for scenario in sorted(glob.glob(os.path.join(CORPUS, "*.vz"))) + [str(generated)]:
            code, out, _ = run_cli(capsys, "learn", scenario, "--mode", mode,
                                   "--traits", str(traits))
            assert code == 0
            lines = [l for l in out.splitlines() if l.startswith("(trait")]
            assert traits.read_text().splitlines() == lines
            learnt += len(lines)
        assert learnt >= 2

    def test_act_requires_traits(self, capsys):
        # a usage error, refused before any file is read: the scenario need not exist
        with pytest.raises(SystemExit) as exc:
            main(["act", "no-such-file.vz"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("vz: error: act requires --traits PATH\n")


class TestOverrides:
    def test_n_override_blocks_admission(self, capsys):
        # with n=20 the seller is never admitted, so no trait is learnt
        code, out, _ = run_cli(capsys, "learn", MARKETPLACE, "--n", "20")
        assert code == 0
        lines = out.splitlines()
        assert "(exemplar observer seller 14 never)" in lines
        assert not any(l.startswith("(trait") for l in lines)

    def test_gamma_override(self, capsys):
        code, out, _ = run_cli(capsys, "learn", MARKETPLACE, "--gamma", "1.0")
        assert code == 0
        assert any(l.startswith("(trait") for l in out.splitlines())

    def test_horizon_override(self, capsys):
        code, out, _ = run_cli(capsys, "project", MARKETPLACE, "--horizon", "4")
        assert code == 0
        assert out.splitlines()[0] == "(horizon 4)"

    def test_infer_reads_the_undeclared_horizon(self, capsys, tmp_path):
        # without (horizon ...), infer persists to the largest moment read,
        # as project does, and as --horizon of that moment does
        p = tmp_path / "persist.vz"
        p.write_text("(declare-agent a)\n(declare-predicate p ())\n(declare-action-type go ())\n"
                     "(happens (action a (go)) 3)\n(assert (knows a 1 (p)))\n")
        assert run_cli(capsys, "project", str(p))[1].splitlines()[0] == "(horizon 3)"
        want = "".join(f"(knows a {t} (p))\n" for t in (1, 2, 3)) + "(p)\n"
        assert run_cli(capsys, "infer", str(p)) == (0, want, "")
        assert run_cli(capsys, "infer", str(p), "--horizon", "3") == (0, want, "")

    @pytest.mark.parametrize("item", [
        "(theta a at 9) (theta a always)", "(nu a (p) 9 1.0)", "(happens (action a (up)) 9)",
        "(observe s (agent a) (time 9))", "(query q (time 9))"])
    def test_undeclared_horizon_is_the_largest_moment_read(self, capsys, tmp_path, item):
        # a theta moment counts even when a later always fact replaces it;
        # a rule's time and the moments in formulas do not count
        p = tmp_path / "moments.vz"
        p.write_text("(declare-agent a)\n(declare-fluent p ())\n(declare-action-type up ())\n"
                     "(initiates (action ?x (up)) (p) 12)\n(assert (knows a 15 (holds (p) 15)))\n"
                     "(theta a at 3)\n" + item + "\n")
        code, out, _ = run_cli(capsys, "project", str(p))
        assert code == 0 and out.splitlines()[0] == "(horizon 9)"


# Mutation test: corpus s-expressions with items dropped, duplicated,
# swapped or replaced by another atom of the same file must end in exit 0
# or exit 1 with a diagnostic, never in an exception.


def _fresh(argv, **kwargs):
    """A fresh interpreter on this checkout's src/, as each `vz` call starts one."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), **kwargs)


class TestProgram:
    """vz.cli.program, the `vz` process: main with the cyclic collector off,
    and what is left frozen before exit."""

    def test_no_run_leaves_a_reference_cycle(self, tmp_path):
        # with the collector off, building the argument parser leaves
        # nothing to collect, and neither does any run; a closure that calls
        # itself, say, would leave a cycle on each call, as the deliberate
        # cycle here does, which the collector must count
        traits = str(tmp_path / "traits.vz")
        argvs = [[command, path, *flags] + (["--traits", traits] if command in ("learn", "act")
                                            else [])
                 for path in sorted(glob.glob(os.path.join(CORPUS, "*.vz"))
                                    + glob.glob(os.path.join(DATA, "*.vz")))
                 for command in _COMMANDS for flags in ([], ["--json"])]
        for workload, (args, *_) in perfbench.WORKLOADS.items():
            path = tmp_path / f"{workload}.vz"
            path.write_text(perfbench.generate(workload, 0)[0], encoding="utf-8")
            argvs.append(args + [str(path)])
        code = ("import contextlib, gc, io, json, vz.cli\n"
                "gc.collect()\n"
                "gc.disable()\n"
                "vz.cli.build_parser()\n"
                "found = [gc.collect()]\n"
                "cycle = []\n"
                "cycle.append(cycle)\n"
                "del cycle\n"
                "found.append(gc.collect())\n"
                f"for argv in {argvs!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
                "            contextlib.redirect_stderr(io.StringIO()):\n"
                "        status = vz.cli.main(argv)\n"
                "    found.append((argv, status, gc.collect()))\n"
                "print(json.dumps(found))")
        parser, control, *runs = json.loads(_fresh(["-c", code], check=True).stdout)
        assert (parser, control) == (0, 1)
        assert [(argv, n) for argv, _, n in runs if n != 0] == []
        # every run completes but generalize on the inputs that have nothing to generalize
        assert {argv[0] for argv, status, _ in runs if status != 0} == {"generalize"}

    def test_main_leaves_the_collector_as_it_finds_it(self, capsys):
        before = (gc.isenabled(), gc.get_freeze_count())
        try:
            assert run_cli(capsys, "run", MARKETPLACE)[0] == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before
        finally:
            if before[0]:
                gc.enable()

    def test_program_runs_main_with_the_collector_off_and_frozen(self):
        # what the collector looks like as the interpreter exits
        code = ("import atexit, gc, sys, vz.cli\n"
                "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0,\n"
                "                              file=sys.stderr))\n"
                f"sys.argv = ['vz', 'check', {MARKETPLACE!r}]\n"
                "vz.cli.program()")
        proc = _fresh(["-c", code])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok: 13 facts\n",
                                                               "False True\n")

    @pytest.mark.parametrize("argv, status", [
        (["run", MARKETPLACE], 0), (["project", "--json", MARKETPLACE], 0),
        (["learn", MARKETPLACE, "--traits", "{traits}"], 0), (["check", "no-such-file.vz"], 1),
        (["frobnicate", "x.vz"], 2)], ids=["run", "project-json", "learn-traits", "missing",
                                           "usage"])
    def test_program_reports_as_main_does(self, capsys, tmp_path, argv, status):
        # exit code, stdout, stderr and the trait file learn writes, if any
        results = []
        for name in ("program", "main"):
            traits = tmp_path / f"{name}.vz"
            args = [a.format(traits=traits) for a in argv]
            if name == "program":
                proc = _fresh(["-m", "vz.cli", *args])
                result = (proc.returncode, proc.stdout, proc.stderr)
            else:
                try:
                    result = run_cli(capsys, *args)
                except SystemExit as exc:  # a usage error
                    result = (exc.code, *capsys.readouterr())
            results.append((*result, traits.read_text() if traits.exists() else None))
        assert results[0] == results[1]
        assert results[0][0] == status
        assert ("--traits" in argv) == bool(results[0][3])


def _nest(k, head, inner):
    return f"({head} " * k + inner + ")" * k


def _at_nesting_bound():
    """Scenarios whose lists nest exactly MAX_NESTING deep: marketplace.vz
    with its fluents wrapped in terms that deep, reaching the projection,
    the sweep, the learner and the trait matcher; deep modal, deontic,
    boolean and quantified asserts for saturation; and deep groups for
    set generalization."""
    n = MAX_NESTING
    market = pathlib.Path(MARKETPLACE).read_text().replace(
        "(declare-action-type", "(declare-fluent wrap (fluent))\n(declare-action-type")
    for fluent in ("(broken)", "(unbroken)"):
        market = market.replace(fluent, _nest(n - 4, "wrap", fluent))
    header = ("(declare-agent jack)\n(declare-agent jill)\n(declare-predicate p (agent))\n"
              "(declare-predicate payday ())\n(declare-action-type pay ())\n(horizon 2)\n"
              f"(set max-depth {n})\n")
    asserts = [_nest(n - 2, "believes jack 1", "(payday)"),
               _nest(n - 2, "knows jack 2", "(payday)"),
               _nest(n - 2, "not", "(p jill)"),
               _nest(n - 2, "and (payday)", "(payday)"),
               _nest(n - 5, "intends jack 1",
                     "(ought jack 1 (payday) (happens (action jack (pay)) 2))"),
               _nest(n - 3, "forall ((x agent))", "(p x)")]
    groups = [(_nest(n - 2, f"implies (p {a})", "(payday)"), _nest(n - 2, "not", f"(p {a})"))
              for a in ("jack", "jill")]
    return [market,
            header + "".join(f"(assert {f})\n" for f in asserts),
            header + "".join(f"(group {f} {g})\n" for f, g in groups)]


def _tree(sx):
    return [_tree(i) for i in sx.items] if isinstance(sx, SList) else sx.text


def _text(node):
    return f"({' '.join(_text(i) for i in node)})" if isinstance(node, list) else node


def _lists(node):
    yield node
    for item in node:
        if isinstance(item, list):
            yield from _lists(item)


CORPUS_TEXTS = [pathlib.Path(path).read_text()
                for path in sorted(glob.glob(os.path.join(CORPUS, "*.vz")))]
CORPUS_TREES = [[_tree(sx) for sx in read_all(text)] for text in CORPUS_TEXTS]
TRAIT = "(trait (pattern (holds ?X0 ?t)) (action (utter ?X0)))\n"


@st.composite
def mutated_scenarios(draw):
    forms = copy.deepcopy(draw(st.sampled_from(CORPUS_TREES)))
    atoms = sorted({a for l in _lists(forms) for a in l if not isinstance(a, list)})
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
        slots = [(l, i) for l in _lists(forms) for i in range(len(l))
                 if op != "replace" or not isinstance(l[i], list)]
        if not slots:
            continue
        target, i = draw(st.sampled_from(slots))
        if op == "drop":
            del target[i]
        elif op == "duplicate":
            target.insert(i, copy.deepcopy(target[i]))
        elif op == "swap":
            j = draw(st.integers(0, len(target) - 1))
            target[i], target[j] = target[j], target[i]
        else:
            target[i] = draw(st.sampled_from(atoms))
    return "\n".join(_text(f) for f in forms) + "\n"


@settings(max_examples=100, deadline=None)
@given(mutated_scenarios(), st.sampled_from(sorted(_COMMANDS)),
       st.sampled_from(["fo", "ho"]), st.booleans())
def test_mutated_corpus_never_raises(tmp_path_factory, text, command, mode, as_json):
    work = tmp_path_factory.mktemp("mutant")
    scenario, traits = work / "s.vz", work / "traits.vz"
    scenario.write_text(text)
    traits.write_text(TRAIT)
    argv = [command, str(scenario), "--mode", mode] + (["--json"] if as_json else [])
    if command in ("learn", "act"):
        argv += ["--traits", str(traits)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert (code == 1) == bool(err.getvalue())


def _sort(term):
    """The sort of a term, checked all the way down: each application has
    its symbol's arity, and each argument fits its symbol's argument sort."""
    if not isinstance(term, Application):
        return term.sort
    sym = term.symbol
    assert len(term.args) == len(sym.arg_sorts)
    assert all(fits(_sort(a), want) for a, want in zip(term.args, sym.arg_sorts))
    return sym.result_sort


def _check_sorts(node):
    if isinstance(node, Atom):
        assert _sort(node.pred) is Sort.BOOLEAN
    elif isinstance(node, Modal):
        assert all(_sort(a) is Sort.AGENT for a in node.agents)
        assert _sort(node.time) is Sort.MOMENT
    elif isinstance(node, Ought):
        assert _sort(node.agent) is Sort.AGENT and _sort(node.time) is Sort.MOMENT
    for sub in children(node):
        if not isinstance(sub, TERMS):
            _check_sorts(sub)


@settings(max_examples=200, deadline=None)
@given(mutated_scenarios())
def test_parsed_formulas_are_well_sorted(text):
    """The sort-directed reader is the only sort check: every formula it
    accepts has well-sorted terms, boolean atoms, agents as modal and
    deontic agents and moments as their times."""
    try:
        doc = parse_scenario(text)
    except VzError:
        return
    situations = doc.observations + doc.queries
    for f in doc.asserts + [f for g in doc.groups for f in g] + \
            [f for s in situations for f in s.formulas]:
        _check_sorts(f)


# The unmutated corpus files are examples too, and so are ill-sorted
# variants of obligation.vz, which the reader must reject: an action type
# as an atom, as a modal or deontic agent, and as a modal time; an agent
# constant as an event argument; one ?variable at two sorts; and an
# application short of an argument.
_BELIEF = "(believes jack 1 (payday))"
_ILL_SORTED = [pathlib.Path(OBLIGATION).read_text().replace(_BELIEF, bad)
               for bad in ("(believes jack 1 (pay))", "(believes (pay) 1 (payday))",
                           "(believes jack (pay) (payday))",
                           "(ought (pay) 1 (payday) (happens (action jack (pay)) 2))",
                           "(believes jack 1 (happens jack 2))",
                           "(believes jack 1 (happens (action ?x (pay)) ?x))",
                           "(believes jack 1 (happens (action jack (pay))))")]
for _text_example in CORPUS_TEXTS + _ILL_SORTED:
    test_parsed_formulas_are_well_sorted = example(_text_example)(
        test_parsed_formulas_are_well_sorted)
