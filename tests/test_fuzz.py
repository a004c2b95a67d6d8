"""Input-boundary fuzzing: generated files and argument vectors through
cli.main, in process.

Each run must end in one of the CLI's exit codes (0, 1, 2 or 3), or in
argparse's usage error (SystemExit with code 2), never in another exception,
and within a per-example bound on CPU time; an input error is one `error:`
line. The inputs are valid files mutated at one field, JSON lines of any
shape, raw bytes, and strings near the input budgets: the power budget
POWER_BIT_BUDGET, the interpreter's 4,300-digit limit on int parsing and the
nesting depth of a coefficient expression. The seed and the example count
are fixed, so every run draws the same examples. Each failure found here is
kept as a named case in test_cli.py, or below while it is open.

One class of input is known to break the time bound, and is set aside by the
fuzzer: a file that parses to a curve with a coefficient of more than
KNOWN_SLOW_BITS bits. Nothing bounds the coefficient size yet. `writhe` at
one center analyses such a curve in bounded time, which
test_huge_coefficient_is_analysed_in_bounded_time pins, but `verify` of the
same curve still runs for minutes.
"""

import contextlib
import io
import json
import signal

from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from encwrithe.cli import main
from encwrithe.curves import Link
from encwrithe.data import LINKED_CIRCLES_PATH, MODEL_CROSSING_PATH, MODEL_FAMILY_PATH
from encwrithe.errors import EncwritheError
from encwrithe.fileio import parse_curve_file
from encwrithe.rationals import POWER_BIT_BUDGET

# CPU seconds one example may take; the slowest run drawn here takes well
# under one
EXAMPLE_SECONDS = 3.0
# past this coefficient size the analysis is known to outlast the bound
KNOWN_SLOW_BITS = 1024


class Overrun(Exception):
    """A run went past its bound on CPU time."""


@contextlib.contextmanager
def cpu_bound(seconds: float):
    """Raise Overrun in the body once the process has used `seconds` more
    CPU time."""

    def stop(signum, frame):
        raise Overrun(f"past {seconds} s of CPU time")

    previous = signal.signal(signal.SIGPROF, stop)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def coefficient_bits(path) -> int:
    """Bits of the largest numerator or denominator of a coefficient of the
    curves the file parses to (each member of a family); 0 for none."""
    try:
        parsed = parse_curve_file(path)
    except EncwritheError:
        return 0
    links = [parsed] if isinstance(parsed, Link) else []
    if not links:
        for tau in parsed.grid:
            with contextlib.suppress(EncwritheError):
                links.append(parsed.instantiate(tau))
    return max(
        (
            max(abs(v) for v in (*p.ints, p.den)).bit_length()
            for link in links
            for curve in link.components
            for p in curve.coords
        ),
        default=0,
    )


BASES = [
    [json.loads(line) for line in path.read_text().splitlines()]
    for path in (MODEL_CROSSING_PATH, LINKED_CIRCLES_PATH, MODEL_FAMILY_PATH)
]


def _weighted(*choices):
    """One of the strategies, each drawn with its weight: (weight, strategy)."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(lambda s: s)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
near_budget = st.integers(-4, 4).map(lambda d: POWER_BIT_BUDGET + d)
# around the parser's 200 nested parentheses and the interpreter's recursion
# limit of 1000 frames
nesting = st.sampled_from([199, 200, 201, 990, 1000, 3000])
budget_strings = st.one_of(
    near_budget.map(lambda n: f"2**{n}"),
    near_budget.map(lambda n: f"3**{n // 2}"),
    near_budget.map(lambda n: f"tau**{n}"),
    near_budget.map(lambda n: f"1e{n // 3}"),
    st.integers(4290, 4310).map(lambda n: "7" * n),
    nesting.map(lambda n: "-" * n + "tau"),
    nesting.map(lambda n: "(" * n + "tau" + ")" * n),
    nesting.map(lambda n: "1" + "+tau" * n),
)
rationals = st.fractions(max_denominator=50).map(str)
expressions = st.text(alphabet="tau0123456789+-*/() .eE", max_size=12)
values = _weighted(
    (2, json_values),
    (3, budget_strings),
    (2, rationals),
    (2, expressions),
    (1, st.integers(-(2**64), 2**64)),
)


def _fields(lines: list, coefficients_only: bool) -> list[tuple]:
    """The paths a mutation may take: (line,), (line, key) and
    (line, key, index), with the keys a header may add; only the
    (line, key, index) of the coordinate entries if coefficients_only."""
    paths = []
    for i, record in enumerate(lines):
        added = ["center", "orientations", "extra"] if i == 0 else ["extra"]
        if not coefficients_only:
            paths += [(i,)] + [(i, key) for key in sorted(record) + added]
        paths += [
            (i, key, k)
            for key, value in sorted(record.items())
            if isinstance(value, list) and (i > 0 or not coefficients_only)
            for k in range(len(value))
        ]
    return paths


@st.composite
def mutated_files(draw, values, coefficients_only: bool = False) -> bytes:
    """A bundled valid file with one line replaced, one field replaced, deleted
    or added, or one list entry replaced."""
    lines = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    path = draw(st.sampled_from(_fields(lines, coefficients_only)))
    value = draw(values)
    if len(path) == 1:
        lines[path[0]] = value
    elif len(path) == 3:
        lines[path[0]][path[1]][path[2]] = value
    elif draw(st.booleans()):
        lines[path[0]].pop(path[1], None)
    else:
        lines[path[0]][path[1]] = value
    return "".join(json.dumps(line) + "\n" for line in lines).encode()


files = _weighted(
    (4, mutated_files(values)),
    (3, mutated_files(budget_strings, coefficients_only=True)),
    (1, st.lists(json_values, max_size=4).map(lambda ls: "".join(json.dumps(v) + "\n" for v in ls).encode())),
    (1, st.binary(max_size=40)),
)
centers = _weighted(
    (3, st.lists(rationals, min_size=4, max_size=4).map(",".join)),
    (1, st.lists(st.sampled_from(["0", "1", "-1", "1/0", "2e3", "x"]), max_size=5).map(",".join)),
    (1, near_budget.map(lambda n: f"0,0,1e{n // 3},0")),
    (1, st.text(max_size=12)),
)
counts = _weighted((5, st.integers(0, 2).map(str)), (1, st.sampled_from(["-1", "x", ""])))
seeds = _weighted((5, st.integers(-3, 10**6).map(str)), (1, st.text(max_size=3)))


def _optional(flag: str, strategy):
    return st.one_of(st.just([]), strategy.map(lambda v: [flag, v]))


@st.composite
def argument_vectors(draw, path: str, out: str) -> list[str]:
    command = draw(st.sampled_from(["writhe", "writhe", "verify", "verify", "diagram", "sample"]))
    if command == "sample":
        argv = ["sample", "--degree", draw(_weighted((5, st.integers(-1, 4).map(str)), (1, st.text(max_size=3))))]
        argv += draw(_optional("--count", counts)) + ["--out", out]
    elif command == "verify":
        # the counts are always given: the default of 20 centers and 20
        # isotopies times 2 is a long run for a valid link, not an input case
        argv = ["verify", path, "--centers", draw(counts), "--isotopies", draw(counts)]
        argv += draw(_optional("--json", st.just(out + ".json")))
    elif command == "diagram":
        argv = ["diagram", path, "--out", out + ".svg"] + draw(_optional("--center", centers))
    else:
        argv = ["writhe", path] + draw(_optional("--center", centers))
        argv += draw(_optional("--json", st.just(out + ".json")))
    return argv + draw(_optional("--seed", seeds))


def run(argv: list[str], seconds: float) -> tuple[int | None, str]:
    """(exit code, stderr) of main(argv) within the CPU bound; the code is
    None for argparse's usage error."""
    out, err = io.StringIO(), io.StringIO()
    with cpu_bound(seconds), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except SystemExit as exc:
            # argparse's usage error, the only exit that is not a return
            assert exc.code == 2, (argv, err.getvalue())
            return None, err.getvalue()


@seed(20261020)
@settings(
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(content=files, data=st.data())
def test_cli_input_boundary(tmp_path, content, data):
    path = tmp_path / "input.jsonl"
    path.write_bytes(content)
    with cpu_bound(EXAMPLE_SECONDS):
        assume(coefficient_bits(path) <= KNOWN_SLOW_BITS)
    argv = data.draw(argument_vectors(str(path), str(tmp_path / "out")))
    code, err = run(argv, EXAMPLE_SECONDS)
    if code is not None:
        assert code in (0, 1, 2, 3), argv
        if code in (2, 3):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_huge_coefficient_is_analysed_in_bounded_time(tmp_path):
    # found by test_cli_input_boundary: the linked circles with the second
    # circle's y = 7...7 (4,299 digits, about 14,000 bits) ran for minutes
    # while refinement bisected its (0, 2^n) intervals one bit at a time;
    # upoly.split_point halves the exponent of such an interval instead
    header, first, second = LINKED_CIRCLES_PATH.read_text().splitlines()
    record = json.loads(second)
    record["y"] = ["7" * 4299]
    path = tmp_path / "huge.jsonl"
    path.write_text("\n".join([header, first, json.dumps(record)]) + "\n")
    assert run(["writhe", str(path), "--center", "1,2,3,5"], 2.0)[0] in (0, 2)
