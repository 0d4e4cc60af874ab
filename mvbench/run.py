#!/usr/bin/env python3
"""mvaudit benchmark: cold-CLI latency, throughput and tail accuracy.

Run from the repository root:

    python3 mvbench/run.py --workload austria-cli --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: one cold ``mvaudit`` process
(``python -m mvaudit.cli`` with ``src`` on the path) at a time, the next
starting when the previous one exits.  The program sees only the generated
CSV files and its command-line arguments.

  austria-cli     the bundled 117-district fixture; analyze, analyze with the
                  dubious districts and a 0.99 interval, validate, scenario
                  and plot in turn.  Interpreter start-up and imports dominate.
  precinct-scale  a seeded synthetic file of 100,000 districts (nu ~ 1e5);
                  the analyze, validate and scenario commands in turn.  CSV
                  parsing and validation dominate; montecarlo is never reached.
  calibrate       the fixture with ``calibrate --reps 2000``, the command seed
                  derived from the workload seed, alternating the default and
                  the --include-dubious variants.  Replication dominates.

With ``--trace 0`` the loop runs for ``--seconds`` and the end-to-end metrics
are reported.  With ``--trace 1`` each command of the mix runs cold once per
cycle and is then replayed by replay.py in fresh processes with spans on and
off, which gives the per-layer metrics (a layer the mix never reaches reads
0) and the tracing overhead.  Every command's output is checked (see
checks.py); a command that exits non-zero or fails its check counts as
failed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--districts`` and ``--reps``
shrink the inputs for the smoke test (test_smoke.py).

End-to-end metrics, reported on every workload:

  setup_s          median of three set-ups: generate the input, derive the
                   expected values, run one warm-up command
  wall_p50_ms      median spawn-to-exit time of one command
  wall_p90_ms      its 90th percentile; only austria-cli has ~10 samples
                   beyond it in a run, the others about one
  commands_per_s   commands / their summed wall time (one client)
  districts_per_s  input districts x commands / summed wall time
  peak_rss_mb      largest resident set of any child process
  p_digits         min over the run of -log10 of the relative error against
                   mpmath, capped at 15: of p_reversal (analyze, evaluated at
                   the command's own t_stat and dof) and of the t quantiles
                   behind calibrate's quantile_errors

The error rate (failed / attempted) is printed and carried by the JSON keys,
and calibrate also prints reps_per_s (= 2000 x commands_per_s).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import precincts
import replay

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = SRC / "mvaudit" / "fixtures" / "austria2016.csv"
WORK = HERE / ".work"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units

SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150
REPLAY_BUDGET_S = 2.0  # per command and traced cycle, for repeated on/off replay pairs
REPLAY_MAX_PAIRS = 5

# name: (precinct districts to generate, or None for the bundled fixture; command mix)
WORKLOADS = {
    "austria-cli": (None, ("analyze", "analyze-dubious-level", "validate", "scenario", "plot")),
    "precinct-scale": (100_000, ("analyze", "analyze-dubious-level", "validate", "scenario")),
    "calibrate": (None, ("calibrate", "calibrate-dubious")),
}


class Bench:
    """One workload's inputs, references, commands and tallies."""

    def __init__(self, workload: str, seed: int, districts: int | None, reps: int, work: Path):
        size, self.mix = WORKLOADS[workload]
        self.seed = seed
        self.size = districts if size is not None and districts else size
        self.reps = reps
        self.work = work
        self.input = FIXTURE if self.size is None else work / "input.csv"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.facts = None
        self.text = None
        self.exact: dict = {}  # mpmath reference values, by argument
        self.digits: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._calibrate_state = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate inputs, derive expected values, run one warm-up command; seconds."""
        start = time.perf_counter()
        if self.size is None:
            text = FIXTURE.read_text(encoding="utf-8")
        else:
            text = precincts.generate(self.seed, self.size)
            self.input.write_text(text, encoding="utf-8", newline="")
        if self.text is not None and text != self.text:
            raise RuntimeError("the same seed generated different inputs")
        self.text = text
        self.exact = {}
        self.facts = checks.Facts(text)
        checks.check_inputs(self.facts, fixture=self.size is None)
        argv = self.command(0)
        result = self.run_cli(argv)
        seconds = time.perf_counter() - start
        error = self.check(argv, result)
        if error:
            self.record(argv, f"warm-up: {error}")
        return seconds

    # -- commands -----------------------------------------------------------

    def command(self, index: int) -> list[str]:
        kind = self.mix[index % len(self.mix)]
        inp = str(self.input)
        if kind == "analyze":
            return ["analyze", inp, "--json"]
        if kind == "analyze-dubious-level":
            return ["analyze", inp, "--include-dubious", "--level", "0.99", "--json"]
        if kind == "validate":
            return ["validate", inp, "--json"]
        if kind == "scenario":
            return ["scenario", inp, "--out", str(self.work / f"scenario-{index}.csv"), "--json"]
        if kind == "plot":
            return ["plot", inp, "--out", str(self.work / f"plot-{index}.svg"), "--json"]
        argv = ["calibrate", inp, "--reps", str(self.reps), "--seed", str(self.command_seed(index))]
        return argv + (["--include-dubious"] if kind == "calibrate-dubious" else []) + ["--json"]

    def command_seed(self, index: int) -> int:
        return (self.seed % 2**32) * 1_000_003 + index

    def replay(self, argv: list[str], traced: bool, label: str):
        """Replay one command with replay.py; (wall seconds, exit code, stdout, record)."""
        path = self.work / "replay.json"
        path.unlink(missing_ok=True)
        options = ["--record", str(path)] + (["--trace"] if traced else [])
        spawned = time.perf_counter_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "replay.py"), *options, "--", *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return (time.perf_counter_ns() - spawned) / 1e9, None, "", None
        wall = (time.perf_counter_ns() - spawned) / 1e9
        try:
            record = replay.load_record(path, label)
        except (OSError, ValueError):
            return wall, proc.returncode, proc.stdout, None
        record.spawned_ns = spawned
        return wall, proc.returncode, proc.stdout, record

    def run_cli(self, argv: list[str]):
        """Run one cold CLI process; (wall seconds, exit code, stdout, stderr)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mvaudit.cli", *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=COMMAND_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            return time.perf_counter() - start, None, exc.stdout or "", "timeout"
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    # -- checks -------------------------------------------------------------

    def check(self, argv: list[str], result) -> str | None:
        """Check one command's result; the error message, or None when correct."""
        _, code, stdout, stderr = result
        try:
            checks.expect(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
            out = checks.parse_payload(stdout)
            checks.expect(out.get("command") == argv[0], "command echo")
            fixture = self.size is None
            if argv[0] == "analyze":
                self.digits.append(checks.check_analyze(out, self.facts, argv, fixture, self.exact))
            elif argv[0] == "validate":
                checks.check_validate(out, self.facts)
            elif argv[0] == "scenario":
                checks.check_scenario(out, self.facts, argv[argv.index("--out") + 1])
            elif argv[0] == "plot":
                checks.check_plot(out, self.facts, argv[argv.index("--out") + 1])
            else:
                self.digits.append(self.check_calibrate(out, argv))
        except (checks.CheckError, KeyError, TypeError, ValueError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def check_calibrate(self, out: dict, argv: list[str]) -> float:
        if self._calibrate_state is None:
            from mvaudit.data import load_dataset
            from mvaudit.montecarlo import ModelParameters, replicate_once
            from mvaudit.special import student_t_cdf

            ds = load_dataset(self.input)

            def replay(seed, r, include_dubious, k, sigma):
                params = ModelParameters(k=k, sigma=sigma)
                return replicate_once(ds, params, seed, r, include_dubious=include_dubious)

            self._calibrate_state = (replay, student_t_cdf, set())
        replay, cdf, fully_checked = self._calibrate_state
        variant = "--include-dubious" in argv
        full = variant not in fully_checked
        fully_checked.add(variant)
        result, ordered = checks.check_calibrate(
            out, self.facts, argv, replay, full, self.exact
        )
        checks.check_ks(out, ordered, cdf)
        return result

    def record(self, argv: list[str], error: str | None) -> None:
        """Count one measured command and delete the files it wrote."""
        self.attempted += 1
        if error:
            self.failures.append(f"{' '.join(argv[:1] + argv[2:])}: {error}")
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).unlink(missing_ok=True)


# -- end-to-end run -----------------------------------------------------------


def measure(bench: Bench, seconds: float) -> dict:
    """Closed loop for ``seconds``; outputs are kept and checked afterwards."""
    results = []
    deadline = time.perf_counter() + seconds
    index = 0
    while not results or time.perf_counter() < deadline:
        argv = bench.command(index)
        results.append((argv, bench.run_cli(argv)))
        index += 1
    walls = [r[0] for _, r in results]
    for argv, result in results:
        bench.record(argv, bench.check(argv, result))
    total = sum(walls)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    beyond_p90 = len(walls) - math.ceil(0.9 * len(walls))
    print(f"commands: {len(walls)} (p90 has {beyond_p90} samples beyond it), "
          f"wall total {total:.3f} s")
    if bench.mix[0] == "calibrate":
        print(f"reps_per_s: {bench.reps * len(walls) / total:.6g} 1/s")
    return {
        "wall_p50_ms": statistics.median(walls) * 1e3,
        "wall_p90_ms": p90 * 1e3,
        "commands_per_s": len(walls) / total,
        "districts_per_s": bench.facts.n * len(walls) / total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "p_digits": min(bench.digits, default=0.0),
    }


# -- traced run -----------------------------------------------------------------


def trace(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Cold commands plus traced replays, in whole cycles of the mix.

    Each command of the mix runs cold once per cycle and is checked.  It is
    then replayed by replay.py in pairs of fresh processes, one with spans off
    and one with spans on (alternating which goes first), for REPLAY_BUDGET_S.
    Every replay must print what the cold command printed.  The first traced
    replay of each command splits its wall time into interpreter start-up,
    CLI import, layer spans, the rest of the CLI and process exit.
    """
    spans, records, walls, overhead, breakdown = [], [], [], [], []
    cycle_commands = set()
    start = time.perf_counter()
    index = cycle = 0
    last_cycle = 0.0
    while cycle == 0 or time.perf_counter() - start + last_cycle <= seconds:
        cycle_start = time.perf_counter()
        for _ in bench.mix:
            argv = bench.command(index)
            result = bench.run_cli(argv)
            cold_files = read_outputs(argv)
            error = bench.check(argv, result)
            label = f"{cycle}:{index}:{argv[0]}"
            if cycle == 0:
                cycle_commands.add(label)
            diffs = []  # CLI time with spans on minus off, per pair
            pair_start = time.perf_counter()
            while not diffs or (len(diffs) < REPLAY_MAX_PAIRS
                                and time.perf_counter() - pair_start < REPLAY_BUDGET_S):
                inside = {}  # traced: seconds from CLI imported to CLI returned
                for traced in (False, True) if len(diffs) % 2 == 0 else (True, False):
                    wall, code, stdout, record = bench.replay(
                        argv, traced, f"{label}:{len(diffs)}" if diffs else label)
                    if (record is None or (code, stdout) != (0, result[2])
                            or read_outputs(argv) != cold_files):
                        error = error or "replay output differs from the CLI output"
                        break
                    records.append(record)
                    inside[traced] = (record.returned_ns - record.imported_ns) / 1e9
                    if traced:
                        spans += record.spans
                        if not diffs:
                            breakdown.append((argv[0], wall, record))
                if len(inside) < 2:
                    break
                diffs.append(inside[True] - inside[False])
            walls.append(result[0])
            if diffs:
                overhead.append(statistics.median(diffs))
            bench.record(argv, error)
            index += 1
        cycle += 1
        last_cycle = time.perf_counter() - cycle_start
    replay.write_spans(spans, spans_path)

    print(f"spans written to {spans_path.relative_to(ROOT)}; self time by layer:")
    print("\n".join(replay.self_time_table(spans)))
    print("traced replays, wall = start-up + import + layer spans + rest of CLI + exit (ms):")
    cli_overhead = []
    for name, wall, r in breakdown:
        layers = sum(s.ns for s in r.spans if s.parent is None)
        parts = (r.started_ns - r.spawned_ns, r.imported_ns - r.started_ns, layers,
                 r.returned_ns - r.imported_ns - layers, r.spawned_ns + wall * 1e9 - r.returned_ns)
        print(f"  {name:<10} {wall * 1e3:9.2f} = " + " + ".join(f"{p / 1e6:.2f}" for p in parts))
        cli_overhead.append(wall - layers / 1e9)
    metrics = {
        "python.startup_ms": median_or_zero(r.started_ns - r.spawned_ns for r in records) / 1e6,
        "cli.import_ms": median_or_zero(r.imported_ns - r.started_ns for r in records) / 1e6,
        "cli.wall_ms": statistics.mean(walls) * 1e3,
        "cli.overhead_ms": median_or_zero(cli_overhead) * 1e3,
        "trace.overhead_ms": median_or_zero(overhead) * 1e3,
    }
    metrics.update(replay.layer_metrics(spans, cycle_commands))
    return metrics


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def read_outputs(argv: list[str]) -> bytes | None:
    if "--out" not in argv:
        return None
    return Path(argv[argv.index("--out") + 1]).read_bytes()


# -- provenance -----------------------------------------------------------------


def provenance() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT / ".git"),
        "src_mvaudit_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "mvaudit").rglob("*.py"))
        ),
    }


def git_commit(git_dir: Path) -> str | None:
    """HEAD's commit read from the .git directory, or None outside a checkout."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git_dir / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- main -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--districts", type=int, help="precinct-scale size (default 100000)")
    parser.add_argument("--reps", type=int, default=2000, help="calibrate replications")
    args = parser.parse_args(argv)

    if not (SRC / "mvaudit" / "cli.py").is_file():
        print(f"error: {SRC / 'mvaudit'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, args.districts, args.reps, work)
        setups = [bench.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        print("provenance:", json.dumps(provenance(), sort_keys=True))
        print(f"workload {args.workload}: {bench.facts.n} districts, seed {args.seed}, "
              f"setup {', '.join(f'{s:.3f}' for s in setups)} s")
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = trace(bench, args.seconds, spans_path)
        else:
            metrics = {"setup_s": statistics.median(setups), **measure(bench, args.seconds)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failures)
    for line in bench.failures:
        print("FAILED", line)
    print(f"error_rate: {failed / bench.attempted:.6g} ({failed} of {bench.attempted} commands)")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
