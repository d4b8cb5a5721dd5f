"""Every public name is read by the package or by the acceptance criteria.

A module's ``__all__`` is its list of public names.  A name that only tests
read is surface the paper's pipelines do not need: a test that wants a
kernel calls the private kernel, and an oracle belongs in ``helpers``.  A
name counts as read when some module of the package, or
``tests/test_acceptance.py``, loads it as a name, imports it, or uses it as
an attribute.  The README's library quick start, which imports public names
from their modules, and its CLI block run as written.
"""

import ast
import re
import shlex
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

import hetnet_maxmin
from hetnet_maxmin.cli import main as cli_main

from helpers import DATA, fresh_python

PACKAGE = Path(hetnet_maxmin.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
README = Path(__file__).parents[1] / "README.md"
MODULES = sorted(PACKAGE.glob("*.py"))


def public_names(tree: ast.Module) -> list[str]:
    """The strings of a module-level ``__all__ = [...]``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def read_names(tree: ast.Module) -> set[str]:
    """Names the code loads, imports or reads as attributes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


READ = set().union(*(read_names(parse(path)) for path in [*MODULES, ACCEPTANCE]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_is_read_outside_the_tests(path):
    unread = [name for name in public_names(parse(path)) if name not in READ]
    assert unread == [], f"{path.stem}.__all__ names read only by tests: {unread}"


def test_the_scan_sees_every_public_module():
    # a rename of the package directory or of __all__ must not leave the
    # check above with nothing to check
    assert sum(bool(public_names(parse(path))) for path in MODULES) >= 8


def test_readme_quick_start_runs_as_written():
    # the README's python blocks, in order, in a fresh interpreter where a
    # numeric RuntimeWarning is an error
    code = "".join(re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S))
    assert code.strip()
    proc = fresh_python("-W", "error::RuntimeWarning", "-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch):
    # each hetnet-maxmin line of the README's sh blocks, in order, on copies
    # of committed inputs under the file names that the README uses
    for name, source in [
        ("scenario.json", "scenario_9x1_k18_15db.json"),
        ("experiment.json", "sweep_3x0_k3_all_algorithms.json"),
        ("formula.cnf", "unsat_1var.cnf"),
    ]:
        shutil.copyfile(DATA / source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    blocks = "".join(re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S))
    lines = [shlex.split(line) for line in blocks.splitlines() if line.startswith("hetnet-maxmin ")]
    assert lines
    for line in lines:
        res = CliRunner().invoke(cli_main, line[1:])
        assert res.exit_code == 0, (line, res.output)
