"""README's Quickstart and Library use blocks run as written, and the
code and tests it names exist, so the documentation keeps up with the code."""

import ast
import importlib
import re
import shlex
import shutil
from pathlib import Path

from zids import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(small_experiment, tmp_path, monkeypatch, capsys):
    shutil.copy(small_experiment.corpus, tmp_path / "demo.kdd")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme"})
    assert (tmp_path / "prepared" / "test.zids").is_file()
    assert (tmp_path / "truncated.zmlp").is_file()
    out = capsys.readouterr().out
    assert "Weighted average" in out  # the rendered report
    assert out.rstrip().splitlines()[-1].count(",") == 3  # a top5.csv row


def test_quickstart_runs(small_experiment, tmp_path, monkeypatch, capsys):
    """Each zids line of the Quickstart exits 0, in order, on a corpus
    named demo.kdd, and report prints the rendered report."""
    section = README.read_text(encoding="utf-8").split("\n## Quickstart\n", 1)[1]
    lines = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
    assert len(lines) == 6
    shutil.copy(small_experiment.corpus, tmp_path / "demo.kdd")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, *argv = shlex.split(line)
        assert command == "zids"
        capsys.readouterr()
        assert cli.main(argv) == 0, line
    assert "Weighted average" in capsys.readouterr().out


def test_named_code_exists():
    """Every backticked `module.name` of the package's modules resolves."""
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"`((?:dataset|preprocess|mlp|shap|metrics|cli)(?:\.\w+)+)", text)
    assert names
    for name in names:
        module, *attributes = name.split(".")
        found = importlib.import_module(f"zids.{module}")
        for attribute in attributes:
            assert hasattr(found, attribute), f"README names {name}, which is gone"
            found = getattr(found, attribute)


def test_named_tests_exist():
    """Every tests/...::... node id names a test function or method."""
    text = README.read_text(encoding="utf-8")
    node_ids = re.findall(r"(tests/\w+\.py(?:::\w+)+)", text)
    assert node_ids
    for node_id in node_ids:
        path, *names = node_id.split("::")
        assert (ROOT / path).is_file(), f"README names {node_id}, which is gone"
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for name in names:
            defs = {node.name: node for node in scope.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            assert name in defs, f"README names {node_id}, which is gone"
            scope = defs[name]
