"""The CLI on arbitrary and near-miss input files and numeric flags.

Arbitrary JSON values, and small mutations of the bundled hom and shift and
of a corpus group, are each written as a group, hom and shift file and read by the
commands that load each.  Numeric flags get finite, negative, huge, infinite
and not-a-number values.  Whatever the input, a command ends in exit 0, 1 or
2, with at most one line on stderr and no traceback.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from importlib.resources import files
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblink import group_file_data
from cheblink.cli import main

from corpus import corpus

DATA = files("cheblink") / "data"
A5_HOM = str(DATA / "a5_hom.json")
A5_SHIFT = str(DATA / "a5_full_shift.json")
GROUPS = corpus()
BASES = [json.loads((DATA / "a5_hom.json").read_text()),
         json.loads((DATA / "a5_full_shift.json").read_text()),
         group_file_data(GROUPS["s4"])]
KEYS = ["degree", "generators", "images", "states", "edges", "from", "to", "label"]

# integers are small or refused outright: a degree a little under the
# image-slot cap is valid input, but closing a group on it takes seconds
scalars = (st.none() | st.booleans() | st.integers(-2, 12)
           | st.sampled_from([2 ** 22 + 1, 200000000, 10 ** 30])
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(["()", "(1 2)", "(1 2 3)", "(1 2)(2 3)", "(0 1)", "(1 99)",
                              "x1", "x2^-1 x1", "x3", "x1 x1^-1", ""])
           | st.text(alphabet="()x123 ^-,", max_size=10))
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=12)


def containers(doc):
    if isinstance(doc, dict):
        return [doc] + [c for v in doc.values() for c in containers(v)]
    if isinstance(doc, list):
        return [doc] + [c for v in doc for c in containers(v)]
    return []


@st.composite
def near_misses(draw):
    """A bundled or corpus file with one to three entries replaced,
    deleted or added."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(containers(doc)))
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node) + KEYS))
            present = key in node
        else:
            key = draw(st.integers(0, len(node)))
            present = key < len(node)
        if present and draw(st.booleans()):
            del node[key]
        elif present or isinstance(node, dict):
            node[key] = draw(values)
        else:
            node.append(draw(values))
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusing a flag's value
            code = e.code
    return code, err.getvalue()


@settings(max_examples=100)
@given(st.one_of(values, near_misses()).map(json.dumps))
@example('{"degree": 200000000, "generators": [], "images": []}')
@example('{"degree": 65536, "generators": ["(1 2 3 4 5 6 7)", "(1 2)"]}')
@example('{"states": 200000000, "edges": [{"from": 0, "to": 0, "label": "x1"}]}')
@example("[" * 100000 + "]" * 100000)
@example('{"degree": 3, "generators": [[1, 2, 3]], "images": [123]}')
@example('[{"degree": 3, "generators": ["(1 2 3)"]}]')
@example('{"degree": "3", "images": ["(1 2 3)"]}')
@example('{"states": 2, "edges": [[0, 1]]}')
@example('{"states": 2, "edges": [{"from": 0, "to": 1, "label": 1}]}')
@example("{not json")
def test_cli_ends_cleanly_on_any_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "input.json")
        Path(path).write_text(text)
        for argv in (["group", "classes", path],
                     ["cover", "decompose", "--hom", path, "--subgroup", "whole",
                      "--word", "x1"],
                     ["sft", "orbits", "--sft", path, "--hom", A5_HOM, "--max-len", "2"],
                     ["sft", "orbits", "--sft", A5_SHIFT, "--hom", path, "--max-len", "2"]):
            code, err = run(argv)
            assert code in (0, 1, 2), (argv, code)
            assert err.count("\n") <= 1, (argv, err)
            assert "Traceback" not in err, (argv, err)


def numbers(top):
    """Flag values: finite up to ``top``, negative, huge, infinite or nan."""
    return st.one_of(st.integers(0, top), st.floats(0, top),
                     st.integers(-10 ** 6, -1), st.floats(-1e6, -1e-9),
                     st.sampled_from([10 ** 30, 2 ** 64, 1e300]),
                     st.sampled_from([math.inf, -math.inf, math.nan])).map(str)


# the flag, the largest finite value drawn, and the command it goes to;
# a5 runs on orbits up to length 6 (196 of them) unless --max-len says more
NUMERIC_FLAGS = [("--tolerance", 1, ["a5", "--max-len", "6"]),
                 ("--max-len", 8, ["a5"]),
                 ("--bound", 8, ["a5", "--max-len", "6"]),
                 ("--skip", 300, ["a5", "--max-len", "6"]),
                 ("--budget", 100, ["quotient", "search", "--braid", "2:s1 s1 s1",
                                    "--surjective-only", "--target"])]


@st.composite
def numeric_flags(draw):
    flag, top, command = draw(st.sampled_from(NUMERIC_FLAGS))
    return flag, draw(numbers(top)), command


@settings(max_examples=60)
@given(numeric_flags())
@example(("--tolerance", "inf", ["a5", "--max-len", "6"]))
@example(("--tolerance", "nan", ["a5", "--max-len", "6"]))
@example(("--tolerance", "-0.5", ["a5", "--max-len", "6"]))
@example(("--max-len", "inf", ["a5"]))
@example(("--budget", "-1", NUMERIC_FLAGS[-1][2]))
def test_cli_ends_cleanly_on_any_number(case):
    flag, value, command = case
    with tempfile.TemporaryDirectory() as tmp:
        # the target of quotient search: the symmetric group on 3 points
        target = Path(tmp) / "s3.json"
        target.write_text(json.dumps(group_file_data(GROUPS["s3"])))
        argv = command + ([str(target)] if command[0] == "quotient" else [])
        code, err = run(argv + [f"{flag}={value}"])
    assert code in (0, 1, 2), (flag, value, code)
    assert err.count("\n") == (code != 0), (flag, value, err)
    assert "Traceback" not in err, (flag, value, err)
