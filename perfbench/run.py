"""symlpp benchmark: one workload, whole rounds of operations, checked outputs.

    python3 perfbench/run.py --workload {groups,schur,sampling} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; symlpp is imported from `src/`.  The
run repeats whole rounds of the workload's operations until S seconds have
passed, timing set-up in fresh interpreters between rounds, then checks every
output of the operations that did not fail against `oracles`.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
Outputs, and with `--trace 1` the span file, go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import oracles as orc
from workloads import AS_LIMIT_MIB, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9

RATE_UNITS = {
    "verify_bounds_per_s": "bounds/s",
    "exact_bounds_per_s": "bounds/s",
    "mc_n4_samples_per_s": "samples/s",
    "mc_n16_samples_per_s": "samples/s",
    "mc_n64_samples_per_s": "samples/s",
    "hammersley_lam4_samples_per_s": "samples/s",
    "hammersley_lam100_samples_per_s": "samples/s",
    "tableaux_per_s": "matrices/s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SetupProbe:
    """Wall time of a fresh interpreter importing symlpp.cli and parsing the models."""

    def __init__(self, model_paths: list[str]):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), *model_paths]
        self.times: list[float] = []
        subprocess.run(self.cmd, check=True)      # warms the file cache; not timed

    def measure(self):
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True)
        self.times.append(time.perf_counter() - start)

    def best(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.measure()
        return min(self.times)


class Runner:
    """Runs the workload's operations and keeps what the checks need."""

    def __init__(self, ops, workdir: Path, tracer=None):
        # the package re-exports the function rsk under the submodule's name
        self.cli, self.core, self.rsk = (importlib.import_module(f"symlpp.{m}")
                                         for m in ("cli", "core", "rsk"))
        self.ops = ops
        self.workdir = workdir
        self.tracer = tracer
        self.times: list[list[float]] = []      # [round][op]
        self.round_wall: list[float] = []
        self.codes: list[list[object]] = []     # exit code, or the exception text
        self.tableaux: list[list[tuple]] = []   # per round: (shape, P == Q) per matrix

    def out_path(self, op, rnd: int) -> Path:
        return self.workdir / f"{op.name}.r{rnd}.json"

    def run_round(self):
        rnd = len(self.round_wall)
        times, codes = [], []
        start = time.perf_counter()
        for idx, op in enumerate(self.ops):
            t0 = time.perf_counter()
            if self.tracer is not None:
                with self.tracer.span(f"op.{op.kind}", rnd * len(self.ops) + idx):
                    code = self._run_op(op, rnd)
            else:
                code = self._run_op(op, rnd)
            times.append(time.perf_counter() - t0)
            codes.append(code)
        self.round_wall.append(time.perf_counter() - start)
        self.times.append(times)
        self.codes.append(codes)

    def _run_op(self, op, rnd: int):
        try:
            if op.kind == "tableaux":
                return self._tableaux(rnd)
            argv = op.argv + ["--out", str(self.out_path(op, rnd))]
            if op.kind == "rmt":
                proc = subprocess.run([sys.executable, str(HERE / "limited.py"),
                                       str(AS_LIMIT_MIB), *argv], capture_output=True)
                return proc.returncode
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)
        except Exception:                  # an op that raises counts as failed
            return traceback.format_exc(limit=3)

    def _tableaux(self, rnd: int) -> int:
        sample_op = next(o for o in self.ops if o.kind == "sample")
        with open(self.out_path(sample_op, rnd), encoding="utf-8") as fh:
            payload = json.load(fh)
        results = []
        for m in payload["matrices"]:
            matrix = self.core.matrix_from_rows_top_to_bottom(m["rows_top_to_bottom"])
            pair = self.rsk.rsk(matrix)
            results.append((pair.p.shape.parts, pair.p.rows == pair.q.rows))
        self.tableaux.append(results)
        return 0

    def failed(self, rnd: int, idx: int) -> bool:
        return self.codes[rnd][idx] != 0


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_outputs(runner: Runner) -> list[str]:
    problems: list[str] = []
    for idx, op in enumerate(runner.ops):
        if runner.failed(0, idx):
            continue
        if op.kind == "tableaux":
            if any(r != runner.tableaux[0] for r in runner.tableaux[1:]):
                problems.append(f"{op.name}: rounds disagree")
            problems += check_tableaux(runner, op)
            continue
        first = runner.out_path(op, 0).read_bytes()
        for rnd in range(1, len(runner.round_wall)):
            if not runner.failed(rnd, idx) and runner.out_path(op, rnd).read_bytes() != first:
                problems.append(f"{op.name}: round {rnd} output differs from round 0")
        payload = json.loads(first)
        check = CHECKS[op.kind]
        problems += [f"{op.name}: {p}" for p in check(runner, op, payload)]
    return problems


# Largest l the brute force reaches in well under a second, by variant and n.
BRUTE_REACH = {
    3: {"diagonal": 7, "antidiagonal": 7, "doublysymmetric": 4, "pointreflection": 2},
    4: {"bernoulli": 1},
    5: {"diagonal": 3, "antidiagonal": 3, "johansson": 1},
}


def _reference_laws(op, l_max: int) -> list[tuple[str, dict]]:
    """Exact laws computed apart from symlpp: brute force at small l for every
    variant, and Gessel's identity at every l for the square lattice."""
    model = op.model
    n = len(model.get("q", model.get("a", ())))
    reach = min(l_max, BRUTE_REACH[n][model["variant"]])
    laws = [("brute force", {l: orc.brute_force_law(model, l) for l in range(reach + 1)})]
    if model["variant"] in ("johansson", "bernoulli"):
        laws.append(("toeplitz", orc.square_lattice_law(model, l_max)))
    return laws


def _check_verify(runner, op, payload):
    rows = {r["l"]: r for r in payload["rows"]}
    exact = {l: Fraction(r["exact_value"]) for l, r in rows.items()}
    problems = orc.check_cdf(exact, "exact column")
    for l, r in rows.items():
        second = r.get("second_value")
        if isinstance(second, str) and Fraction(second) != exact[l]:
            problems.append(f"l={l}: exact {exact[l]} != second column {second}")   # (b)
    law = dict(exact)
    for label, reference in _reference_laws(op, max(rows)):                     # (a)
        problems += orc.check_exact_equal(exact, reference, f"exact column vs {label}")
        law.update(reference)
    estimates = {l: r["mc_estimate"] for l, r in rows.items()}
    problems += orc.check_mc_rows(estimates, law, int(op.argv[op.argv.index("--samples") + 1]),
                                  "mc column")                                         # (d)
    return problems


def _check_exact(runner, op, payload):
    table = {r["l"]: r for r in payload["distribution"]}
    if any(r["approx"] for r in table.values()):
        return ["exact table holds approximate entries"]
    values = {l: Fraction(r["p"]) for l, r in table.items()}
    problems = orc.check_cdf(values, "exact table")                                    # (c)
    for label, reference in _reference_laws(op, max(values)):                   # (a)
        problems += orc.check_exact_equal(values, reference, f"exact table vs {label}")
    return problems


def _check_mc(runner, op, payload):
    table = {r["l"]: r["p"] for r in payload["distribution"]}
    problems = orc.check_cdf(table, "mc table")
    samples = int(op.argv[op.argv.index("--samples") + 1])
    if op.extra.get("threads_check"):
        # no affordable exact law: the result must not depend on the worker count
        path = runner.workdir / f"{op.name}.threads2.json"
        argv = list(op.argv)
        argv[argv.index("--threads") + 1] = "2"
        with contextlib.redirect_stdout(io.StringIO()):
            runner.cli.main(argv + ["--out", str(path)])
        if path.read_bytes() != runner.out_path(op, 0).read_bytes():
            problems.append("output at --threads 2 differs from --threads 1")
        return problems
    inside = [l for l, p in table.items() if 0 < p < 1]
    lo, hi = max(min(inside) - 1, 0), min(max(inside) + 1, max(table))
    law = orc.square_lattice_law(op.model, hi, exact=False)
    law = {l: p for l, p in law.items() if l >= lo}
    return problems + orc.check_mc_rows(table, law, samples, "mc table")              # (d)


def _check_hammersley(runner, op, payload):
    rows = {r["l"]: r for r in payload["rows"]}
    law = orc.poisson_chain_law(op.extra["lam"], max(rows))
    problems = []
    for l, p in law.items():
        if abs(rows[l]["exact_value"] - p) > 1e-9:
            problems.append(f"l={l}: formula {rows[l]['exact_value']} vs mpmath {p}")    # (f)
    estimates = {l: r["mc_estimate"] for l, r in rows.items()}
    samples = int(op.argv[op.argv.index("--samples") + 1])
    return problems + orc.check_mc_rows(estimates, law, samples, "poisson mc")


def _check_sample(runner, op, payload):
    problems = []
    if len(payload["matrices"]) != op.work:
        problems.append(f"{len(payload['matrices'])} matrices, expected {op.work}")
    for k, m in enumerate(payload["matrices"]):
        rows = m["rows_top_to_bottom"]
        if any(rows[i][j] != rows[len(rows) - 1 - j][len(rows) - 1 - i]
               for i in range(len(rows)) for j in range(len(rows))):
            problems.append(f"matrix {k} is not symmetric")
            break
    return problems


def _check_rmt(runner, op, payload):
    want = orc.brute_force_law(op.model, payload["l"])
    value = payload["value"]
    got = Fraction(value) if isinstance(value, str) else value
    return [] if abs(float(got) - float(want)) <= 1e-9 else [f"value {got} != {float(want)}"]


def check_tableaux(runner, op) -> list[str]:
    """(e) first row of the RSK shape = last passage; shape weight = total; P = Q."""
    sample_op = next(o for o in runner.ops if o.kind == "sample")
    payload = json.loads(runner.out_path(sample_op, 0).read_bytes())
    problems = []
    for k, (m, (shape, symmetric_pair)) in enumerate(zip(payload["matrices"],
                                                          runner.tableaux[0])):
        rows = m["rows_top_to_bottom"][::-1]
        if (shape[0] if shape else 0) != orc.last_passage(rows):
            problems.append(f"{op.name}: matrix {k}: shape {shape} vs last passage")
        if sum(shape) != sum(map(sum, rows)):
            problems.append(f"{op.name}: matrix {k}: shape weight != matrix total")
        if not symmetric_pair:
            problems.append(f"{op.name}: matrix {k}: P != Q for a symmetric matrix")
    if len(runner.tableaux[0]) != op.work:
        problems.append(f"{op.name}: {len(runner.tableaux[0])} tableaux, expected {op.work}")
    return problems


CHECKS = {"verify": _check_verify, "exact": _check_exact, "mc": _check_mc,
          "hammersley": _check_hammersley, "sample": _check_sample, "rmt": _check_rmt}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rates(ops, seconds: dict[str, float]) -> dict[str, float]:
    """Per-command throughput from each operation's mean time; 0 where idle."""
    work: dict[str, float] = {}
    spent: dict[str, float] = {}
    for op in ops:
        if op.rate:
            work[op.rate] = work.get(op.rate, 0) + op.work
            spent[op.rate] = spent.get(op.rate, 0.0) + seconds[op.name]
    return {name: work[name] / spent[name] if name in work else 0.0 for name in RATE_UNITS}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "symlpp" / "cli.py").is_file():
        print(f"no symlpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "models").mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.seed, workdir / "models")
    model_paths = sorted(str(p) for p in (workdir / "models").glob("*.json"))

    tracer = probe = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = SetupProbe(model_paths)
    runner = Runner(ops, workdir, tracer)
    start = time.perf_counter()
    while True:
        runner.run_round()
        if time.perf_counter() - start >= args.seconds:
            break
        if probe is not None:
            probe.measure()      # between rounds, so set-up is sampled across the run
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl")
    else:
        setup_s = probe.best()

    rounds = len(runner.round_wall)
    attempted = rounds * len(ops)
    failed = sum(runner.failed(r, i) for r in range(rounds) for i in range(len(ops)))
    for i, op in enumerate(ops):
        for r in range(rounds):
            code = runner.codes[r][i]
            if code != 0 and not op.fault:
                print(f"unexpected failure of {op.name} in round {r}: {code}", file=sys.stderr)
    problems = check_outputs(runner)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    op_mean = {op.name: statistics.fmean(t[i] for t in runner.times) for i, op in enumerate(ops)}
    wall_s = statistics.fmean(runner.round_wall)
    op_rates = rates(ops, op_mean)
    print(json.dumps({"rounds": rounds, "round_wall_s": runner.round_wall, "ops": op_mean,
                      "op_times": runner.times,
                      "rates": {name: metric(value, RATE_UNITS[name])
                                for name, value in op_rates.items() if value}}))
    if tracer is not None:
        metrics = {name: metric(value, "s" if name.endswith("_s") else
                                ("ratio" if name.endswith(("_yield", "_per_bound")) else "count"))
                   for name, value in tracer.layer_metrics(ops, rounds).items()}
        metrics.update((name, metric(value, RATE_UNITS[name])) for name, value in op_rates.items())
        print(json.dumps({"traced_wall_s": wall_s}))
    else:
        metrics = {"setup_s": metric(setup_s, "s"), "wall_s": metric(wall_s, "s"),
                   "peak_rss_mib": metric(peak_rss_mib, "MiB")}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
