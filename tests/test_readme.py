"""The README's examples, run as written.

Every fenced block that starts with ``$ ktfloor`` runs through ``main``; the
lines it shows must be what the command prints, in order, with ``...``
standing for any run of elided lines.  The library quick start runs too, and
each expression's ``# value`` comment is checked at the precision shown.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from ktfloor.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
NUMBER = r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?"


def commands(body):
    """(argv, shown lines) for each ``$ `` command, ``\\`` lines joined."""
    found, joining = [], False
    for line in body.splitlines():
        if line.startswith("$ ") or joining:
            text = line[2:] if line.startswith("$ ") else " " + line.strip()
            if not joining:
                found.append(["", []])
            found[-1][0] += text.rstrip("\\")
            joining = line.endswith("\\")
        elif line:
            found[-1][1].append(line.rstrip())
    return [(shlex.split(text), shown) for text, shown in found]


EXAMPLES = [
    example
    for lang, body in BLOCKS
    if not lang and body.startswith("$ ktfloor")
    for example in commands(body)
]


def test_readme_has_its_examples():
    assert [argv[1] for argv, _ in EXAMPLES] == [
        "floor", "floor", "cycle", "mc", "tank", "sweep",
    ]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(argv[1:3]) for argv, _ in EXAMPLES]
)
def test_command_example_prints_what_it_shows(argv, shown, capsys, tmp_path, monkeypatch):
    assert argv[0] == "ktfloor"
    monkeypatch.chdir(tmp_path)
    (config,) = [body for lang, body in BLOCKS if lang == "json"]
    (tmp_path / "config.json").write_text(config)
    assert main(argv[1:]) == 0
    printed = "".join(line.rstrip() + "\n" for line in capsys.readouterr().out.splitlines())
    pattern = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in shown
    )
    assert re.fullmatch(pattern, printed), printed


def rounds_to(value, shown):
    """Whether ``value`` printed at ``shown``'s digits reads as ``shown``."""
    mantissa, _, exponent = shown.partition("e")
    digits = len(mantissa.partition(".")[2])
    return float(f"{value:.{digits}{'e' if exponent else 'f'}}") == float(shown)


def check(value, comment, previous, kt):
    """Assert that ``value`` is what the quick start's ``# comment`` shows."""
    if comment[0] in "'\"":
        assert value == ast.literal_eval(comment)
    elif match := re.fullmatch(rf"({NUMBER}) \+- ({NUMBER})", comment):
        assert abs(value - float(match[1])) <= float(match[2])
    elif match := re.match(rf"same to ~({NUMBER})", comment):
        assert abs(value - previous) <= float(match[1])
    else:
        values = value if isinstance(value, tuple) else (value,)
        for value, part in zip(values, comment.split(","), strict=True):
            # "12.2 mV" shows volts in millivolts; a kT figure after a joule
            # figure shows the same energy in kT.
            (first, unit), *rest = re.findall(rf"({NUMBER})(?: (mV|kT|J)\b)?", part)
            assert rounds_to(value * (1e3 if unit == "mV" else 1.0), first)
            for shown, unit in rest:
                assert unit == "kT" and rounds_to(value / kt, shown)


def test_library_quick_start_values():
    (source,) = [body for lang, body in BLOCKS if lang == "python"]
    lines = source.splitlines()
    namespace, previous, checked = {}, None, 0
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        check(value, comment, previous, namespace["env"].thermal_energy())
        previous, checked = value, checked + 1
    assert checked == 10
