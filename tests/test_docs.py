import argparse
import contextlib
import io
import pathlib
import re

from ipl.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_readme_library_example():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    wanted = [line.split("# ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert wanted == ["[0. 3. 3.]", "0.5"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == wanted


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def accepted_flags(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


def test_readme_cli_synopsis_flags_exist():
    lines = [line for line in README.splitlines() if re.match(r"(\$ )?ipl [a-z]", line)]
    assert len(lines) >= 11
    for line in lines:
        words = line.removeprefix("$ ").split()
        parser = subcommands(build_parser())[words[1]]
        if words[1] == "verify":
            parser = subcommands(parser)[words[2]]
        unknown = set(re.findall(r"--[a-z][a-z-]*", line)) - accepted_flags(parser)
        assert not unknown, (line, unknown)


def test_readme_examples_parse():
    # Every concrete "$ ipl ..." example is a command line the parser
    # accepts, values included, not only flag names that exist.
    examples = [line.removeprefix("$ ipl ") for line in README.splitlines() if line.startswith("$ ipl ")]
    assert len(examples) >= 2
    for line in examples:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                build_parser().parse_args(line.split())
        except SystemExit:
            raise AssertionError((line, err.getvalue())) from None


def test_workflow_holds_no_inline_ipl_checks():
    # Checks of ipl live in tests/, where the tier-1 suite runs them too.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    inline = [line for line in workflow.splitlines() if re.search(r"-m ipl|import ipl|from ipl", line)]
    assert not inline, inline
