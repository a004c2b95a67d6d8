"""The encwrithe benchmark: one closed-loop client, in process, one thread.

    python3 perfbench/run.py --workload knots --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
An operation is one call of `encwrithe.cli.main` on one corpus file with
`--json` to a scratch path, exactly as a user runs the command line. A run
makes whole passes over its workload's corpus until `--seconds` have gone by
(at least one pass) and checks every answer (checks.py). The program `--seed`
of an operation is its index in the corpus, so the program still samples a
center on `knots` and `links`, but the work does not depend on the run's
`--seed`: today's program fails on a few (input, center) pairs, and such a
failure must not come and go with the run's seed.

The last line of standard output is one JSON object: operations attempted
and failed, whether every answer was correct, and the end-to-end metrics
(`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = HERE / "corpus"
OUT = HERE / "out"

WORKLOADS = ("knots", "links", "scans")
SETUP_REPEATS = 9


class Operation:
    """One corpus entry and the command line that runs it."""

    def __init__(self, workload: str, entry: dict):
        self.workload = workload
        self.entry = entry
        self.path = str(CORPUS / entry["file"])

    def argv(self, program_seed: int, out_path: str) -> list[str]:
        command = "verify" if self.workload == "scans" else "writhe"
        return [command, self.path, "--seed", str(program_seed), "--json", out_path]


def load_corpus(workload: str) -> tuple[list[Operation], dict]:
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    oracle = json.loads((HERE / "oracle.json").read_text())
    ops = [Operation(workload, entry) for entry in manifest[workload]]
    for op in ops:
        Path(op.path).read_bytes()  # every input is present and readable
    return ops, oracle


def import_program():
    """A fresh import of the command line module and everything below it."""
    for name in [n for n in sys.modules if n == "encwrithe" or n.startswith("encwrithe.")]:
        del sys.modules[name]
    return importlib.import_module("encwrithe.cli")


def call(cli, argv: list[str]) -> tuple[int | None, str]:
    """(exit code, captured output); exit code None when the call raised."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            return None, traceback.format_exc()
    return code, sink.getvalue()


def setup(workload: str, out_path: str):
    """Import, corpus loading and one warm-up call, timed SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_program()
        ops, oracle = load_corpus(workload)
        code, output = call(cli, ops[0].argv(0, out_path))
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up call failed ({code}): {output}")
    return statistics.median(times), cli, ops, oracle


def check(op: Operation, payload: dict, oracle: dict, bases: dict) -> list[str]:
    entry = op.entry
    expected = oracle.get(entry["group"])
    if op.workload == "scans":
        return checks.check_scan(entry, payload, expected)
    base = None if entry["role"] == "base" else bases.get(entry["group"])
    return checks.check_writhe(entry, payload, expected, base)


def drive(cli, ops, oracle, seconds: float, out_path: str, tracer=None) -> dict:
    # The program seed of an operation is its index, whatever the run's seed:
    # today's program exits 2 on a few (input, center) pairs, and a failure
    # that came and went with the run's seed would make runs incomparable.
    # Every run therefore repeats the same operations.
    program_seeds = range(len(ops))
    out = Path(out_path)
    latencies: list[float] = []
    pass_times: list[float] = []
    by_group: dict[str, list[float]] = {}
    attempted = failed = 0
    wrong: list[str] = []
    start = perf_counter()
    while not pass_times or perf_counter() - start < seconds:
        bases: dict[str, dict] = {}
        elapsed = []
        for op, program_seed in zip(ops, program_seeds):
            argv = op.argv(program_seed, out_path)
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op_id = attempted
            t0 = perf_counter()
            code, output = call(cli, argv)
            elapsed.append(perf_counter() - t0)
            by_group.setdefault(op.entry["group"], []).append(elapsed[-1])
            attempted += 1
            if code != 0 or not out.exists():
                failed += 1
                print(f"FAILED {' '.join(argv)}: exit {code}, json written: {out.exists()}\n{output}", file=sys.stderr)
                continue
            try:
                payload = json.loads(out.read_text())
                problems = check(op, payload, oracle, bases)
            except (ValueError, LookupError, TypeError) as exc:
                problems = [f"unreadable answer: {exc!r}"]
            if problems:
                failed += 1
                wrong.append(f"{' '.join(argv)}: {'; '.join(problems)}")
                print(f"WRONG {wrong[-1]}", file=sys.stderr)
            elif op.entry.get("role") == "base":
                bases[op.entry["group"]] = payload
        latencies += elapsed
        pass_times.append(sum(elapsed))
    out.unlink(missing_ok=True)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "passes": len(pass_times),
        "run_s": statistics.median(pass_times),
        "op_p50_s": statistics.median(latencies),
        "op_max_s": max(statistics.median(times) for times in by_group.values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "encwrithe" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'encwrithe'}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    out_path = str(OUT / f"answer-{os.getpid()}.json")

    setup_s, cli, ops, oracle = setup(args.workload, out_path)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = drive(cli, ops, oracle, args.seconds, out_path, tracer)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run["run_s"], "s"),
            "op_p50_s": (run["op_p50_s"], "s"),
            "op_max_s": (run["op_max_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        metrics = tracer.metrics(run["passes"])
        print(f"spans: {spans_path}; passes: {run['passes']}; missing targets: {tracer.missing}", file=sys.stderr)
    print(f"passes: {run['passes']}, operations: {run['attempted']}, pass time: {run['run_s']:.3f} s", file=sys.stderr)
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
