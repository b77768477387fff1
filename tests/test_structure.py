"""Import discipline of the vz package, read from its source with ``ast``:
modules share only public names, and every imported name is used; what
starting the command line, and running a subcommand, imports (no
typing, either); how often defining the record classes compiles
source; and how many modules and lines of vz each command loads."""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "vz"
sys.path.insert(0, str(PACKAGE.parent.parent / "perfbench"))
import run as perfbench  # noqa: E402  (the benchmark's workload generators)

CORPUS = PACKAGE.parent.parent / "corpus"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _vz_imports(tree):
    """(imported name, line) for each `from .x import name` or
    `from vz.x import name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "vz"):
            for alias in node.names:
                yield alias.name, node.lineno


def _bound_names(tree):
    """(name bound by an import, line), __future__ imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    private = [f"{path.name}:{line}: {name}"
               for name, line in _vz_imports(_tree(path)) if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    # annotations are parsed as expressions, so a name used only in one counts
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _bound_names(tree) if name not in used]
    assert unused == []


def test_start_up_imports_no_heavy_module():
    # a fresh interpreter, as each `vz` call starts one, reading a command
    # line; a --json report imports no json package either (tests/test_reports.py)
    code = ("import sys, vz.cli; "
            "vz.cli.build_parser().parse_args(['run', 'x.vz', '--hor', '5', '--json']); "
            "print(sorted({'argparse', 'dataclasses', 'inspect', 'json', 'locale'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_a_run_imports_no_typing():
    # under -S, without the site hooks, which may import typing themselves;
    # vz writes its unions with |, which needs no typing at run time
    code = ("import contextlib, io, sys, vz.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = vz.cli.main(['run', {str(CORPUS / 'marketplace.vz')!r}])\n"
            "print(status, 'typing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0 False\n"


def test_record_methods_compile_once_per_shape():
    # a fresh interpreter: the record classes of every module are defined,
    # and the compiles of generated source (filename <string>) and the
    # methods they define are counted; a shape is the field count, whether
    # there is a __post_init__, and whether the class is interned; each
    # compile defines one method, the shape's __new__ or __init__
    code = ("import sys\n"
            "compiles = methods = 0\n"
            "def count(event, args):\n"
            "    global compiles, methods\n"
            "    if event == 'compile' and args[1] == '<string>':\n"
            "        compiles += 1\n"
            "        methods += args[0].count(b'def __')\n"
            "sys.addaudithook(count)\n"
            "import vz.cli, vz.learner, vz.inference, vz.ec\n"
            "from vz.terms import Record\n"
            "def subclasses(cls):\n"
            "    for sub in cls.__subclasses__():\n"
            "        yield sub\n"
            "        yield from subclasses(sub)\n"
            "classes = list(subclasses(Record))\n"
            "shapes = {(len(c._fields), hasattr(c, '__post_init__'), c.__new__ is not object.__new__)\n"
            "          for c in classes}\n"
            "print(compiles, len(shapes), len(classes), methods)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    compiles, shapes, classes, methods = map(int, out.split())
    assert compiles <= shapes < classes and methods == compiles


# The modules that only some subcommands run.
ON_DEMAND = {"vz.ec", "vz.emotions", "vz.generalize", "vz.inference", "vz.learner",
             "vz.subst", "vz.traits", "vz.utility"}


LEARNER = {"vz.ec", "vz.emotions", "vz.learner", "vz.subst", "vz.utility"}


@pytest.mark.parametrize("command, scenario, extra, loads", [
    ("check", "marketplace.vz", (), set()),
    ("project", "marketplace.vz", (), {"vz.ec", "vz.subst"}),
    ("infer", "obligation.vz", (), {"vz.inference"}),
    ("utility", "marketplace.vz", (), {"vz.ec", "vz.subst", "vz.utility"}),
    ("emotions", "marketplace.vz", (), {"vz.ec", "vz.emotions", "vz.subst", "vz.utility"}),
    ("generalize", "likes.vz", (), {"vz.generalize", "vz.subst"}),
    # likes.vz observes and queries nothing: no trait is learnt, no
    # consistency checked
    ("run", "likes.vz", (), LEARNER),
    # run on the marketplace prints the trait it learns, act reads --traits
    ("run", "marketplace.vz", (), LEARNER | {"vz.generalize", "vz.inference", "vz.traits"}),
    ("act", "marketplace.vz", ("--traits", os.devnull), LEARNER | {"vz.traits"}),
], ids=["check", "project", "infer", "utility", "emotions", "generalize", "run-likes",
        "run-marketplace", "act-no-traits"])
def test_subcommand_loads_only_the_modules_it_runs(command, scenario, extra, loads):
    argv = [command, str(CORPUS / scenario), *extra]
    code = ("import contextlib, io, sys, vz.cli\n"
            "vz.cli.build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = vz.cli.main({argv!r})\n"
            "print(status, sorted(m for m in sys.modules if m.startswith('vz.')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split(" ", 1)
    assert out[0] == "0"
    assert ON_DEMAND & set(ast.literal_eval(out[1])) == loads


# The loading table: what one command loads of vz (the package and its
# modules) on the seed-0 input of a benchmark workload, and the source
# lines those modules hold. Each figure is an upper bound; a change that
# raises one says why in CHANGES.md.
@pytest.mark.parametrize("command, workload, flags, modules, lines", [
    ("check", "run-sweep", (), 7, 1605),
    ("infer", "infer-saturate", (), 8, 1777),
    ("project", "project-long", ("--json",), 9, 1782),
    ("run", "run-sweep", (), 12, 2181),
    ("run", "learn-traits", (), 15, 2809),
], ids=["check", "infer", "project-json", "run-sweep", "run-learn-traits"])
def test_loading_table(tmp_path, command, workload, flags, modules, lines):
    path = tmp_path / f"{workload}.vz"
    path.write_text(perfbench.generate(workload, 0)[0], encoding="utf-8")
    argv = [command, str(path), *flags]
    code = ("import contextlib, os, sys, vz.cli\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            f"    status = vz.cli.main({argv!r})\n"
            "print(status, *(m.__file__ for n, m in sys.modules.items()\n"
            "                if n == 'vz' or n.startswith('vz.')), sep='\\n')")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    status, *files = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                    text=True, check=True).stdout.splitlines()
    assert status == "0"
    loaded = sum(pathlib.Path(f).read_bytes().count(b"\n") for f in files)
    assert len(files) <= modules and loaded <= lines, (len(files), loaded)
