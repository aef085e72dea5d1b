"""Hypothesis fuzz of ``main(argv)`` on mutated copies of ``problems/*.json``.

Each case mutates a shipped problem file a few times (a dropped key, a
value of the wrong type, a non-finite string, a ragged matrix, a huge or
non-positive ``n`` or ``scale``), then runs one subcommand on it, with and
without ``--json``, giving some of the flags that subcommand reads a fuzzed
value: non-finite text, a wrong count, zero, a negative or a 400-digit
number.  Whatever the file and flags hold, ``main`` returns 0, 1 or 2, or
argparse exits 2 on a usage error that names the flag.  A failure prints
nothing on stdout and exactly one stderr line, prefixed ``error:`` or
``invalid:``, that says where the fault is: it names the file's path or a
flag, or it is a refusal ``cli_golden.json`` pins.
A success prints nothing on stderr.  Any other exception escaping ``main``
fails the test.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzylad.cli import main

TESTS = Path(__file__).resolve().parent
PROBLEMS = TESTS.parent / "problems"
NAMES = sorted(path.name for path in PROBLEMS.glob("*.json"))
BASES = [json.loads((PROBLEMS / name).read_text()) for name in NAMES]

# Every refusal the CLI goldens pin.  Those that name neither the file nor a
# flag refuse a file of the wrong kind, or a conversion to the file's own kind.
GOLDEN = json.loads((TESTS / "cli_golden.json").read_text())
PINNED = {case["stderr"] for case in GOLDEN if case["code"]}

HUGE = 10**400
SIGMA = "0.8,0.9,1.1,1.2"
FLAG_VALUES = {
    "--tol": ["1e-9", "0", "0.5", "-1", "nan", "inf", "x", str(HUGE)],
    "--sigma": [
        SIGMA, "0.8,0.9,1.1", "0.8,0.9,1.1,1.2,1.3", "nan,0.9,1.1,1.2", "0,0,0,0",
        "-1.2,-1.1,-0.9,-0.8", "1.2,1.1,0.9,0.8", ",".join([str(HUGE)] * 4), "",
    ],
    "--mag-weights": [
        "0.25,0.25", "0.5", "0.1,0.2,0.2", "nan,0.5", "0,0", "-0.25,0.75", f"{HUGE},1",
    ],
    "--scale": ["9", "2", "1", "0", "-9", "2.5", "nan", str(HUGE), str(10**308)],
    "--model": ["p", "punit", "p0", "psigma", "qsigma", ""],
    "--to": ["additive", "multiplicative", "ahp", ""],
}
FLAGS = {
    "validate": (),
    "consistency": ("--tol",),
    "utility": ("--mag-weights", "--model", "--sigma"),
    "weights": ("--mag-weights", "--sigma"),
    "ahp": ("--mag-weights", "--sigma"),
    "convert": ("--to", "--scale"),
}
ALL_FLAGS = (*FLAG_VALUES, "--out", "--compare", "--json")

WRONG_TYPES = [None, True, "x", 3, 2.5, [], {}, [[1, 2, 3, 4]], HUGE]
NON_FINITE = ["nan", "9^1000", "-8^0.5", "inf", "-inf", "1/0"]
DECLARED = [10**6, 10**18, HUGE, 0, -3, 1]
PREFIXES = ("error:", "invalid:")


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
    elif op == "declare" and isinstance(doc, dict):
        doc[("n", "scale")[where % 2]] = DECLARED[choice % len(DECLARED)]
    return doc


mutations = st.lists(
    st.tuples(
        st.sampled_from(["drop", "retype", "non-finite", "ragged", "declare"]),
        st.integers(0, 10**4),
        st.integers(0, 100),
    ),
    max_size=3,
)


@st.composite
def invocations(draw):
    """A subcommand and some of its flags as ``--flag=value``; ``convert`` always gets ``--to``."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    args = [command]
    for flag in FLAGS[command]:
        values = st.sampled_from(FLAG_VALUES[flag])
        value = draw(values if flag == "--to" else st.none() | values)
        if value is not None:
            args.append(f"{flag}={value}")
    if command == "ahp" and draw(st.booleans()):
        args.append("--compare")
    return args


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    base=st.sampled_from(range(len(BASES))),
    edits=mutations,
    invocation=invocations(),
    as_json=st.booleans(),
)
@example(
    base=NAMES.index("example-additive.json"),
    edits=[],
    invocation=["convert", "--to=multiplicative", f"--scale={HUGE}"],
    as_json=False,
)
@example(
    base=NAMES.index("example-ratio.json"),
    edits=[("declare", 1, DECLARED.index(HUGE))],
    invocation=["validate"],
    as_json=False,
)
def test_main_exits_with_a_known_code_and_one_located_line(
    workdir, capsys, base, edits, invocation, as_json
):
    doc = copy.deepcopy(BASES[base])
    for op, where, choice in edits:
        doc = _mutate(doc, op, where, choice)
    path = workdir / "mutated.json"
    path.write_text(json.dumps(doc))
    argv = [invocation[0], str(path), *invocation[1:]]
    if invocation[0] == "convert":
        argv += ["--out", str(workdir / "converted.json")]
    if as_json:
        argv.append("--json")

    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse refused a flag's value after printing its usage.
        out, err = capsys.readouterr()
        assert exc.code == 2 and out == ""
        last = err.splitlines()[-1]
        assert "error: " in last and any(flag in last for flag in ALL_FLAGS), err
        return
    out, err = capsys.readouterr()

    assert code in (0, 1, 2)
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
        assert str(path) in err or any(flag in err for flag in ALL_FLAGS) or err in PINNED, err
