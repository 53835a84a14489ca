"""Exit codes and stderr of the CLI on deep, oversized and malformed input, in fresh processes."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "cantorthompson.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("word,leaves", [("f0^1200", 1202), ("f0^-3000", 3002)])
def test_deep_words_print_their_pair(word, leaves):
    code, out, err = cli(["word", word])
    assert code == 0 and err == ""
    assert out.startswith("element: domain=c")
    assert out.count("\npiece: ") == leaves


@pytest.mark.parametrize(
    "argv",
    [
        ["word", "f0^99999999999"],
        ["eval", "f0", "1/0"],
        ["eval", "f0", "1/-4"],
        ["cantor", "--omega", "explicit:1/0"],
        ["cantor", "--omega", "geometric:1,x"],
        ["nk-count", "--omega", "geometric:1/8,1/8", "--K", "nan"],
        ["nk-count", "--omega", "geometric:1/8,1/8", "--K", "inf"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_exits_1_with_one_line(argv):
    code, out, err = cli(argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
