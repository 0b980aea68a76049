"""The unreached-line gate's marker reader and fault rules, on small packages written for each test."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("unreached", Path(__file__).parents[1] / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)

# the marker on line 3 excuses the two-line raise on lines 4-5; a call with a value >= 0 runs lines 1, 2 and 6
SOURCE = '''\
def check(value):
    if value < 0:
        # unreached: callers pass no negative value
        raise ValueError(
            "negative value")
    return value
'''


def audit(tmp_path, source, reached):
    (tmp_path / "mod.py").write_text(source)
    return unreached.audit(tmp_path, {("mod.py", line) for line in reached})


def test_a_marker_covers_every_line_of_the_statement_below_it():
    markers = unreached.read_markers(SOURCE)
    assert markers == {3: ("callers pass no negative value", range(4, 6))}


def test_a_marked_two_line_raise_excuses_both_of_its_lines(tmp_path):
    summary, faults = audit(tmp_path, SOURCE, reached={1, 2, 6})
    assert unreached.executable_lines(SOURCE, "mod.py") == {1, 2, 4, 5, 6}
    assert faults == []
    assert summary == "unreached: 2 of 5 executable lines, excused by 1 markers"


def test_an_unmarked_unreached_line_is_a_fault(tmp_path):
    source = SOURCE.replace("        # unreached: callers pass no negative value\n", "")
    _, faults = audit(tmp_path, source, reached={1, 2, 5})
    assert faults == ["mod.py:3 is reached by no test and has no marker",
                      "mod.py:4 is reached by no test and has no marker"]


def test_a_marker_on_a_reached_statement_is_a_fault(tmp_path):
    _, faults = audit(tmp_path, SOURCE, reached={1, 2, 4, 5, 6})
    assert faults == ["mod.py:3 is a marker, but a test reaches line 4"]


@pytest.mark.parametrize("between", ["\n", "        # why the value cannot be negative\n"], ids=["blank", "comment"])
def test_a_marker_above_no_statement_is_a_fault(tmp_path, between):
    source = SOURCE.replace("no negative value\n", "no negative value\n" + between)
    _, faults = audit(tmp_path, source, reached={1, 2, 7})
    assert faults == ["mod.py:3 is a marker, but line 4 starts no statement with an executable line",
                      "mod.py:5 is reached by no test and has no marker",
                      "mod.py:6 is reached by no test and has no marker"]


def test_a_marker_needs_a_reason_and_a_line_of_its_own(tmp_path):
    source = SOURCE.replace("callers pass no negative value", "")
    source = source.replace("return value", "return value  # unreached: a comment after code")
    _, faults = audit(tmp_path, source, reached={1, 2})
    assert faults == ["mod.py:3 is a marker without a reason",
                      "mod.py:6 is reached by no test and has no marker"]
