"""README's Library use block runs as written, so the documented API keeps
up with the code."""

import re
import shutil
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
