"""The example scripts under scripts/ run end to end on a tiny corpus."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("run_matthew_demo.py", ["--n", "20", "--t", "2", "--output-dir", "demo"],
         " strategy | final head final tail  gap slope train size mean len"),
        ("sweep_sampling_number.py", ["--n", "20", "--t", "2", "--k-values", "2,4", "--seeds", "0"],
         "   K | mean sampled pass@1 by iteration (seeds [0])"),
    ],
)
def test_script_prints_its_table(script, args, header, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == header
    assert lines[1].startswith("---")
    assert len(lines) > 2
