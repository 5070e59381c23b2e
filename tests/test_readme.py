"""README.md's examples run as written: each ```python block in a fresh
interpreter, and each ```json block through ``parse_config``."""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fastlight
from fastlight import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)


PYTHON_BLOCKS = _blocks("python")
JSON_BLOCKS = _blocks("json")


@functools.cache
def _run(code):
    """``python -c code`` in a fresh interpreter that imports this fastlight."""
    src = str(Path(fastlight.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_has_its_examples():
    assert len(PYTHON_BLOCKS) >= 1 and len(JSON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_example_runs_in_a_fresh_interpreter(index):
    child = _run(PYTHON_BLOCKS[index])
    assert child.returncode == 0, child.stderr


def test_round_trip_prints_the_advance_it_promises():
    # the comment promises ~4.2e-06 s; the fit gives 4.19945e-06 s
    (round_trip,) = [code for code in PYTHON_BLOCKS if "~4.2e-06 s advance" in code]
    child = _run(round_trip)
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) == pytest.approx(4.2e-06, rel=0.02)


@pytest.mark.parametrize("index", range(len(JSON_BLOCKS)))
def test_json_example_is_a_valid_config(index):
    parse_config(json.loads(JSON_BLOCKS[index]))
