import contextlib
import copy
import glob
import io
import json
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vz.cli import _COMMANDS, main
from vz.sexpr import SList, read_all

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
MARKETPLACE = os.path.join(CORPUS, "marketplace.vz")
LIKES = os.path.join(CORPUS, "likes.vz")
HONESTY = os.path.join(CORPUS, "honesty.vz")
OBLIGATION = os.path.join(CORPUS, "obligation.vz")


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
    ])
    def test_malformed_trait_file(self, capsys, tmp_path, text, where):
        traits = tmp_path / "traits.vz"
        traits.write_text(text)
        code, out, err = run_cli(capsys, "act", MARKETPLACE, "--traits", str(traits))
        assert code == 1 and out == ""
        # the location is in the trait file, not in the scenario
        assert err == f"{traits}:{where}\n"


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
        ("(set mode xx)", "3:11: mode must be fo or ho"),
        ("(set learner nobody)", "3:14: undeclared agent 'nobody'"),
        ("(set learner p)", "3:14: undeclared agent 'p'"),
        # a malformed section is reported where it stands
        ("(observe s (time 1) foo)", "3:21: expected a (section ...) entry"),
    ])
    def test_rejected_item(self, capsys, tmp_path, item, where):
        p = tmp_path / "bad.vz"
        p.write_text(f"(declare-agent jack)\n(declare-predicate p ())\n{item}\n"
                     "(declare-action-type pay ())\n")
        for command in ("check", "infer"):
            code, out, err = run_cli(capsys, command, str(p))
            assert code == 1 and out == ""
            assert err == f"{p}:{where}\n"

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

    def test_modal_moment_variables_parse(self, capsys, tmp_path):
        p = tmp_path / "moments.vz"
        p.write_text("(declare-agent jack)\n(declare-predicate p ())\n"
                     "(assert (believes jack ?t (p)))\n"
                     "(assert (forall ((t moment)) (knows jack t (p))))\n")
        code, out, _ = run_cli(capsys, "infer", str(p))
        assert code == 0
        assert out.splitlines() == ["(believes jack ?t (p))",
                                    "(forall ((t moment)) (knows jack t (p)))"]

    @pytest.mark.parametrize("flag", [("--n", "0"), ("--m", "0"), ("--gamma", "0"),
                                      ("--gamma", "nan"), ("--horizon", "-1"),
                                      ("--mode", "xx")])
    def test_setting_flag_out_of_range(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", MARKETPLACE, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag[0]}: " in captured.err


class TestSubcommands:
    def test_check_counts_facts(self, capsys):
        code, out, _ = run_cli(capsys, "check", MARKETPLACE)
        assert code == 0 and out.startswith("ok: ")

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
        traits = tmp_path / "traits.vz"
        code, learn_out, _ = run_cli(capsys, "learn", MARKETPLACE,
                                     "--traits", str(traits))
        assert code == 0
        code, act_out, _ = run_cli(capsys, "act", MARKETPLACE,
                                   "--traits", str(traits))
        assert code == 0
        assert act_out.splitlines() == [
            "(proposal fresh (happens (action observer (utter (broken))) 5))"]

    def test_act_requires_traits(self, capsys):
        code, _, err = run_cli(capsys, "act", MARKETPLACE)
        assert code == 1 and "--traits" in err


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


# Mutation test: corpus s-expressions with items dropped, duplicated,
# swapped or replaced by another atom of the same file must end in exit 0
# or exit 1 with a diagnostic, never in an exception.


def _tree(sx):
    return [_tree(i) for i in sx.items] if isinstance(sx, SList) else sx.text


def _text(node):
    return f"({' '.join(_text(i) for i in node)})" if isinstance(node, list) else node


def _lists(node):
    yield node
    for item in node:
        if isinstance(item, list):
            yield from _lists(item)


CORPUS_TREES = [[_tree(sx) for sx in read_all(pathlib.Path(path).read_text())]
                for path in sorted(glob.glob(os.path.join(CORPUS, "*.vz")))]
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
