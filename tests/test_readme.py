"""The README's CLI examples, run through cli.main.

Every `intersective ...` line of the shell block in the CLI section must
exit 0 and print one JSON document. A `# -> {...}` comment under a line
shows some fields of its output; each field shown must match, where a
value ending in `...` is a prefix of the printed value.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from intersective.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[tuple[str, dict[str, str]]]:
    """(command line, {field: shown value}) for each example of the block."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.splitlines():
        if line.startswith("intersective "):
            out.append((line, {}))
        elif line.startswith("# -> "):
            out[-1][1].update(re.findall(r'"(\w+)": ([^,}]+)', line))
    return out


EXAMPLES = cli_examples()


def test_block_found():
    assert len(EXAMPLES) >= 16
    shown = {k for _, fields in EXAMPLES for k in fields}
    assert {"delta", "r_d", "p"} <= shown


@pytest.mark.parametrize("line,fields", EXAMPLES,
                         ids=[line.split()[1] + str(i)
                              for i, (line, _) in enumerate(EXAMPLES)])
def test_example_runs(line, fields, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INTERSECTIVE_CACHE", str(tmp_path / "roots.txt"))
    code = main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    for key, shown in fields.items():
        if shown.endswith("..."):
            assert json.dumps(doc[key]).startswith(shown[:-3]), key
        else:
            assert doc[key] == json.loads(shown), key
