"""Hypothesis fuzz of ``main(argv)`` on mutated copies of ``problems/*.json``.

Each case mutates a shipped problem file a few times (a dropped key, a
value of the wrong type, a non-finite string, a ragged matrix, a huge or
non-positive ``n``), then runs one subcommand on it, with and without
``--json``.  Whatever the file holds, ``main`` returns 0, 1, 2 or 3; a
failure prints nothing on stdout and exactly one stderr line with one of
the three prefixes; a success prints nothing on stderr.  An exception
escaping ``main`` fails the test.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzylad.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
BASES = [json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))]

SIGMA = "0.8,0.9,1.1,1.2"
COMMANDS = [
    ["validate"],
    ["consistency"],
    ["utility"],
    ["utility", "--model", "p0"],
    ["utility", "--model", "psigma", "--sigma", SIGMA],
    ["weights"],
    ["ahp", "--compare"],
    ["convert", "--to", "multiplicative"],
    ["convert", "--to", "additive"],
]

WRONG_TYPES = [None, True, "x", 3, 2.5, [], {}, [[1, 2, 3, 4]]]
NON_FINITE = ["nan", "9^1000", "-8^0.5", "inf", "-inf", "1/0"]
DECLARED_N = [10**6, 10**18, 0, -3]
PREFIXES = ("error:", "invalid:", "infeasible:")


def _paths(node, path=()):
    """Every path into a JSON document, ``()`` for the document itself."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _mutate(doc, op: str, where: int, choice: int):
    """Apply one mutation; ``where`` and ``choice`` pick its place and value."""
    paths = list(_paths(doc))
    if op == "drop" and isinstance(doc, dict) and doc:
        del doc[sorted(doc)[where % len(doc)]]
    elif op == "retype":
        value = copy.deepcopy(WRONG_TYPES[choice % len(WRONG_TYPES)])
        doc = _replace(doc, paths[where % len(paths)], value)
    elif op == "non-finite":
        leaves = [p for p in paths if p and not isinstance(_get(doc, p), (dict, list))]
        if leaves:
            doc = _replace(doc, leaves[where % len(leaves)], NON_FINITE[choice % len(NON_FINITE)])
    elif op == "ragged":
        lists = [node for node in (_get(doc, p) for p in paths) if isinstance(node, list) and node]
        if lists:
            target = lists[where % len(lists)]
            del target[choice % len(target)]
    elif op == "declare-n" and isinstance(doc, dict):
        doc["n"] = DECLARED_N[choice % len(DECLARED_N)]
    return doc


mutations = st.lists(
    st.tuples(
        st.sampled_from(["drop", "retype", "non-finite", "ragged", "declare-n"]),
        st.integers(0, 10**4),
        st.integers(0, 100),
    ),
    max_size=3,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    base=st.sampled_from(range(len(BASES))),
    edits=mutations,
    command=st.sampled_from(COMMANDS),
    as_json=st.booleans(),
)
def test_main_exits_with_a_known_code_and_one_located_line(
    workdir, capsys, base, edits, command, as_json
):
    doc = copy.deepcopy(BASES[base])
    for op, where, choice in edits:
        doc = _mutate(doc, op, where, choice)
    path = workdir / "mutated.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], str(path), *command[1:]]
    if command[0] == "convert":
        argv += ["--out", str(workdir / "converted.json")]
    if as_json:
        argv.append("--json")

    code = main(argv)
    out, err = capsys.readouterr()

    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
        if as_json:
            json.loads(out)
        else:
            assert out.endswith("\n")
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith(PREFIXES), err
