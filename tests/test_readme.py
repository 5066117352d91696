"""The README's command-line examples, run through ``cli.main``.

A change to the CLI's output or to the README that lets the two drift
apart fails here.
"""

import json
import re
from pathlib import Path

from uniformizer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(command: str, filename: str) -> tuple[str, str]:
    """(request, printed output) of the README block that runs one command on one file."""
    pattern = rf"\$ cat {filename}\n(.*?)\$ uniformizer {command} --input {filename}\n(.*?)```"
    match = re.search(pattern, README.read_text(encoding="utf-8"), re.DOTALL)
    assert match, f"README has no example of {command} on {filename}"
    return match.group(1), match.group(2)


def _run(tmp_path, capsys, command, request_text):
    path = tmp_path / "request.json"
    path.write_text(request_text, encoding="utf-8")
    code = main([command, "--input", str(path)])
    return code, capsys.readouterr()


def test_readme_value_example_prints_its_block(tmp_path, capsys):
    request, printed = _example("value", "val.json")
    code, out = _run(tmp_path, capsys, "value", request)
    assert code == 0, out.err
    assert out.out == printed


def test_readme_discrete_uniformize_example_reverifies(tmp_path, capsys):
    request, _ = _example("discrete-uniformize", "job.json")
    code, out = _run(tmp_path, capsys, "discrete-uniformize", request)
    assert code == 0, out.err
    result = json.loads(out.out)["result"]
    assert result["report"]["passed"] is True
    code, out = _run(tmp_path, capsys, "verify", json.dumps({"system": result["system"]}))
    assert code == 0, out.err
    assert json.loads(out.out)["result"]["report"]["passed"] is True
