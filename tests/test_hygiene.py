"""Source hygiene of the package: every imported name is used, every
module-level definition and class member is reached, and every CLI flag is
read by the subcommand that accepts it."""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import pytest

from vclab import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vclab"
MODULES = sorted(PACKAGE.glob("*.py"))
# the test modules, the audit kernel among them
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module.

    A name counts as read when it occurs as a name expression (attribute
    roots included), inside a string annotation, or in ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    holders = []  # annotations and the __all__ value, which may name imports in strings
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            holders.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            holders.append(node.returns)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            holders.append(node.value)
    for holder in filter(None, holders):
        for node in ast.walk(holder):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Iterable, Optional\n\ndef f(x: 'Optional[int]'):\n    return sys.argv, 'os'\n"
    assert unused_imports(source) == ["Iterable (line 3)", "os (line 1)"]


def test_scan_counts_all_and_attribute_roots():
    source = "from . import a, b\nfrom .c import d\n__all__ = ['d']\n\ndef f():\n    return a.x(b)\n"
    assert unused_imports(source) == []


def test_package_modules_found():
    assert len(MODULES) >= 9
    assert {"audit.py", "test_hygiene.py", "test_words.py"} <= {p.name for p in TEST_MODULES}


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def assert_statements(source: str) -> list[int]:
    """Lines of the ``assert`` statements in a module: ``python -O`` strips
    them, so a check the program relies on must raise explicitly."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_assert_scan_finds_nested_asserts():
    source = "def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n\nassert f(1)\nmessage = 'assert x'\n"
    assert assert_statements(source) == [3, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def imports_of(source: str, package: str) -> list[int]:
    """Lines that import ``package`` or one of its modules, in any form."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == package for name in names):
            lines.append(node.lineno)
    return lines


def test_dataclasses_scan_finds_every_import_form():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass, field\nimport os, dataclasses as dc\n"
        "from .dataclasses import x\nimport os.path\ntext = 'import dataclasses'\n"
        "def f():\n    from dataclasses import replace\n"
    )
    assert imports_of(source, "dataclasses") == [1, 2, 3, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # a record is a NamedTuple, or a plain class whose __init__ checks its
    # fields: dataclasses would bring inspect into every start-up
    assert imports_of(path.read_text(), "dataclasses") == []


def test_import_scan_finds_the_package_and_its_modules():
    source = "from vclab import words\nimport vclab.cli as cli\nimport vclabx\nfrom vclab.words import Word\n"
    assert imports_of(source, "vclab") == [1, 2, 4]


def test_the_audit_kernel_imports_nothing_from_the_package():
    # the tests' reference stays independent of the code it checks
    audit = Path(__file__).resolve().parent / "audit.py"
    assert imports_of(audit.read_text(), "vclab") == []


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter: the test session has imported both already
    code = "import sys, vclab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def loaded_names(nodes: Iterable[ast.AST]) -> set[str]:
    """Names read as a name expression or as an attribute."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread_definitions(sources: dict[str, str], readers: Sequence[str] = ()) -> list[str]:
    """Module-level functions and classes that no code reads.

    A definition counts as read when its name is read in another module,
    in one of the ``readers``, or in its own module outside its own
    definition.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {module: loaded_names(ast.walk(tree)) for module, tree in trees.items()}
    outside = set().union(*(loaded_names(ast.walk(ast.parse(source))) for source in readers))
    unread = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(names for other, names in reads.items() if other != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in elsewhere:
                inside = set(map(id, ast.walk(node)))
                if node.name not in loaded_names(n for n in ast.walk(tree) if id(n) not in inside):
                    unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_definition_scan_ignores_reads_inside_the_definition():
    sources = {
        "m": "def used():\n    return 1\n\ndef loop(n):\n    return loop(n - 1) + used()\n\nclass Box:\n    pass\n",
        "n": "def caller(x):\n    return x.Box\n",
    }
    assert unread_definitions(sources, ["caller(1)"]) == ["m.loop"]


def test_every_definition_is_read_outside_itself():
    sources = {path.stem: path.read_text() for path in MODULES}
    acceptance = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
    assert unread_definitions(sources, [acceptance]) == []


def attribute_reads(nodes: Iterable[ast.AST]) -> Counter:
    """How often each name is read as an attribute."""
    return Counter(node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def class_members(cls: ast.ClassDef) -> Iterable[tuple[str, ast.AST]]:
    """The methods, properties and class-level fields of a class, dunder
    names aside: the interpreter reads those."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            names = []
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def unread_members(sources: dict[str, str], readers: Sequence[str] = ()) -> list[str]:
    """Class members whose name no code reads as an attribute.

    A member counts as read when its name is read as an attribute in any
    of the sources or ``readers``, outside the member's own definition.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = attribute_reads(node for tree in [*trees.values(), *map(ast.parse, readers)] for node in ast.walk(tree))
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for name, node in class_members(cls):
                if reads[name] <= attribute_reads(ast.walk(node))[name]:
                    unread.append(f"{module}.{cls.name}.{name}")
    return sorted(unread)


# members no code reads, each kept on purpose
UNREAD_MEMBERS = {
    # the witness contract: a solvable word equation carries the assignment
    # that solves it, and the tests re-evaluate it against the right-hand side
    "finitegroups.WordEquationReport.rhs",
    "finitegroups.WordEquationReport.group_witness",
    "finitegroups.WordEquationReport.subgroup_witness",
    # the tests check the amalgamation through it
    "finitegroups.CentralProduct.embed_right",
    # one word at one assignment: the oracle of the tests for the block
    # evaluation of the verbal-closedness search, and a layer perfbench traces
    "finitegroups.FiniteGroup.evaluate_word",
}


def test_member_scan_ignores_reads_inside_the_member():
    sources = {
        "m": "class Box:\n    size: int\n    spare = 0\n\n    def __len__(self):\n        return self.size\n\n"
             "    def loop(self, n):\n        return self.loop(n - 1)\n\n    def used(self):\n        return 1\n",
        "n": "def caller(box):\n    return box.used()\n",
    }
    assert unread_members(sources) == ["m.Box.loop", "m.Box.spare"]
    assert unread_members(sources, ["Box().spare"]) == ["m.Box.loop"]


def test_every_class_member_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    acceptance = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
    # equality also catches an allowlist entry that code has come to read
    assert set(unread_members(sources, [acceptance])) == UNREAD_MEMBERS


def report_layouts(sources: dict[str, str]) -> list[str]:
    """Functions and methods outside ``cli`` that lay out a report: a
    ``csv_chunks`` or a name ending in ``_json_dict``, ``to_json_dict``
    among them.  Subsystems return records, and ``cli`` writes them."""

    def defs(body: list[ast.stmt], prefix: str) -> Iterable[str]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(node, ast.ClassDef) and (
                    node.name == "csv_chunks" or node.name.endswith("_json_dict")
                ):
                    yield prefix + node.name
                yield from defs(node.body, f"{prefix}{node.name}.")

    return sorted(
        name for module, source in sources.items() if module != "cli" for name in defs(ast.parse(source).body, f"{module}.")
    )


# report layouts outside cli, each kept on purpose
REPORT_LAYOUTS = {
    # the benchmark's own test builds the snf report from it
    # (perfbench/test_perfbench.py), and the benchmark's files stay as they are
    "presentations.SNFResult.to_json_dict",
}


def test_layout_scan_finds_functions_and_methods_at_any_depth():
    sources = {
        "m": "def solutions_json_dict():\n    pass\n\nclass R:\n    def to_json_dict(self):\n        pass\n\n"
             "    class Inner:\n        def csv_chunks(self):\n            pass\n\n"
             "def rows():\n    def json_dict():\n        pass\n\nclass to_json_dict:\n    pass\n",
        "cli": "def to_json_dict():\n    pass\n",
    }
    assert report_layouts(sources) == ["m.R.Inner.csv_chunks", "m.R.to_json_dict", "m.solutions_json_dict"]


def test_only_cli_lays_out_reports():
    sources = {path.stem: path.read_text() for path in MODULES}
    # equality also catches an allowlist entry whose method is gone
    assert set(report_layouts(sources)) == REPORT_LAYOUTS


def args_reads(source: str) -> dict[str, set[str]]:
    """For each top-level function, the ``args.<name>`` attributes it reads,
    itself or through module functions it passes ``args`` to."""
    tree = ast.parse(source)
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    direct, callees = {}, {}
    for name, fn in funcs.items():
        nodes = list(ast.walk(fn))
        direct[name] = {
            n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
        }
        callees[name] = {
            n.func.id for n in nodes
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in funcs
            and any(isinstance(a, ast.Name) and a.id == "args" for a in n.args)
        }
    reads = {}
    for name in funcs:
        seen, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current not in seen:
                seen.add(current)
                todo.extend(callees[current])
        reads[name] = set().union(*(direct[f] for f in seen))
    return reads


def test_args_scan_follows_helpers():
    source = "def _h(args):\n    return args.x\n\ndef _cmd(args):\n    return _h(args) + args.y\n"
    assert args_reads(source) == {"_h": {"x"}, "_cmd": {"x", "y"}}


def test_every_cli_flag_is_read_by_its_handler():
    reads = args_reads((PACKAGE / "cli.py").read_text())
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    unread = [
        f"{command} {action.option_strings[0]}"
        for command, sub in commands.items()
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "out")
        and action.dest not in reads[sub.get_default("func").__name__]
    ]
    assert unread == []
