#!/usr/bin/env python3
"""Benchmark for fuzzyosf: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  A run builds its inputs
from ``--seed``, sets the program up several times, then runs passes over a
fixed list of ops until ``--seconds`` have passed (by default ``run_seconds``
of ``BENCHMARK.json``), checks every output, and prints each metric by name
with its unit.  The last line of standard output is one JSON object with the
metrics that ``BENCHMARK.json`` names: the end-to-end ones when
``--trace 0``, the per-layer ones when ``--trace 1``.
The full report goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``
and, for a traced run, the spans to ``...spans.jsonl.gz`` beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("query_mix", "wide_ontology", "deep_terms")
ROUNDS = 8
CLI_TIMEOUT_S = 120
COLD_STARTS = 5

# Every metric the benchmark can print: unit and which direction is better.
METRICS = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "cold_ops_per_s": ("ops/s", "higher"),
    "op_p50_us": ("us", "lower"),
    "op_p90_us": ("us", "lower"),
    "op_p99_us": ("us", "lower"),
    "unify_per_s": ("ops/s", "higher"),
    "subsume_per_s": ("ops/s", "higher"),
    "normalize_per_s": ("ops/s", "higher"),
    "eval_per_s": ("ops/s", "higher"),
    "degree_per_s": ("queries/s", "higher"),
    "cli_batch_pairs_per_s": ("pairs/s", "higher"),
    "failed_share": ("ratio", "lower"),
    "lattice.load_ontology_s": ("s", "lower"),
    "lattice.validate_s": ("s", "lower"),
    "lattice.glb_calls": ("count", "lower"),
    "lattice.glb_us": ("us", "lower"),
    "lattice.degree_calls": ("count", "lower"),
    "lattice.degree_first_touch_us": ("us", "lower"),
    "lattice.degree_repeat_us": ("us", "lower"),
    "lattice.rows_touched": ("count", "lower"),
    "terms.parse_term_us": ("us", "lower"),
    "terms.parse_clause_us": ("us", "lower"),
    "terms.format_term_us": ("us", "lower"),
    "terms.check_normal_us": ("us", "lower"),
    "terms.term_to_clause_us": ("us", "lower"),
    "terms.clause_to_term_us": ("us", "lower"),
    "normalize.normalize_us": ("us", "lower"),
    "normalize.merges_per_op": ("count", "lower"),
    "normalize.inconsistent_share": ("ratio", "lower"),
    "graphs.term_to_graph_us": ("us", "lower"),
    "subsumption.witness_us": ("us", "lower"),
    "subsumption.found_share": ("ratio", "higher"),
    "unify.unify_us": ("us", "lower"),
    "unify.self_us": ("us", "lower"),
    "unify.bottom_share": ("ratio", "lower"),
    "unify.classes_per_op": ("count", "lower"),
    "semantics.load_interpretation_s": ("s", "lower"),
    "semantics.validate_interpretation_s": ("s", "lower"),
    "semantics.best_denotation_us": ("us", "lower"),
    "cli.batch_s": ("s", "lower"),
    "cli.cold_start_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

# Throughput of one op kind; a degree op counts each of its queries.
KIND_RATES = {
    "unify_per_s": "unify",
    "subsume_per_s": "subsume",
    "normalize_per_s": "normalize",
    "eval_per_s": "eval",
    "degree_per_s": "degree",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))
    return ordered[int(k)]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


class Run:
    """One benchmark run of one workload: rounds of set-up, then timed passes.

    The first pass of a round runs on a fresh lattice, so it pays the
    first-touch costs, such as building closure rows; it is the round's cold
    pass.  The passes after it show the steady state.
    """

    def __init__(self, wl, traced: bool, seconds: float, workdir: Path):
        import tracing
        import workloads

        self.wl = wl
        self.workloads = workloads
        self.tracing = tracing
        self.traced = traced
        self.seconds = seconds
        self.workdir = workdir
        self.setups: list[dict[str, float]] = []  # per sample: each timing's mean
        self.plain_lat: list[list[float]] = [[] for _ in wl.ops]
        self.cold_lat: list[list[float]] = []  # per round: each op's time in the cold pass
        self.traced_lat: list[list[float]] = [[] for _ in wl.ops]
        self.first: list[str] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0
        self.traced_passes = 0
        self.cli_time: float | None = None
        self.cli_output: list[str] = []  # the batch's output digest, once run
        self.cold_starts: list[float] = []
        self.rec = tracing.Recorder() if traced else None

    # -- phases ----------------------------------------------------------------

    def execute(self) -> None:
        slot = self.seconds / ROUNDS
        for r in range(ROUNDS):
            sess = None  # free the last round's lattice first: one lives at a time
            sess = self.setup_sample()
            if self.wl.cli_pairs and r == 0:
                self.cli_batch()
                if self.traced:
                    self.cli_cold_starts()
            gc.collect()
            if self.traced:
                lattice = self.tracing.TracedLattice.adopt(sess.lattice, self.rec)
                self.passes_for(sess, lattice, slot / 2, self.rec, min_passes=2, cold=True)
                self.passes_for(sess, sess.lattice, slot / 2, None, min_passes=1, cold=False)
            else:
                self.passes_for(sess, sess.lattice, slot, None, min_passes=1, cold=True)

    def setup_sample(self):
        """Set up ``setup_reps`` times back to back, after clearing the last
        round's garbage; the sample holds the mean of each timing.  Returns
        the last session."""
        gc.collect()
        total: dict[str, float] = {}
        for _ in range(self.wl.setup_reps):
            sess = None
            sess = self.workloads.setup(self.wl)
            for key, value in sess.timings.items():
                total[key] = total.get(key, 0.0) + value
        self.setups.append({key: value / self.wl.setup_reps for key, value in total.items()})
        return sess

    def passes_for(self, sess, lattice, seconds: float, rec, min_passes: int, cold: bool) -> None:
        deadline = perf_counter() + seconds
        done = 0
        while done < min_passes or perf_counter() < deadline:
            self.timed_pass(sess, lattice, rec, cold and done == 0)
            done += 1
        if rec is None:
            self.passes += done
        else:
            self.traced_passes += done

    def timed_pass(self, sess, lattice, rec, cold: bool) -> None:
        """Run every op once.  Each result is checked and dropped right after
        its op, so results do not pile up for the garbage collector.  A cold
        pass is checked after its last op instead, so that the checks build
        no closure row that a later op of the pass would have to build."""
        run_op = self.workloads.run_op
        lat = self.plain_lat if rec is None else self.traced_lat
        digests = []
        held = []
        for i, op in enumerate(self.wl.ops):
            if rec is None:
                t0 = perf_counter()
                try:
                    res = run_op(op, sess, lattice)
                except Exception as err:  # a failed op is counted, not fatal
                    res = err
                lat[i].append(perf_counter() - t0)
            else:
                rec.op = i
                span = len(rec.spans)
                try:
                    res = rec.call("op." + op.kind, run_op, op, sess, lattice, rec.call)
                except Exception as err:
                    res = err
                s = rec.spans[span]
                lat[i].append(s[2] - s[1])
                if not isinstance(res, Exception):
                    self.tracing.replay(rec, span, op.kind, res, lattice)
            if cold:
                held.append(res)
            else:
                digests.append(self.settle(i, op, res, sess, rec))
        if cold:
            if rec is None:
                self.cold_lat.append([times[-1] for times in lat])
            for i, (op, res) in enumerate(zip(self.wl.ops, held)):
                digests.append(self.settle(i, op, res, sess, rec))
        self.attempted += len(digests)
        if self.first is None:
            self.first = digests

    def settle(self, i: int, op, res, sess, rec) -> str:
        """Check one result outside the timed region and return its output digest:
        the first pass against the generator, later passes against the first."""
        call = self.workloads.plain_call
        if rec is not None:
            rec.op = -1
            call = rec.call
        canon = digest(self.workloads.canonical(op, res, call))
        if self.first is None:
            problem = self.workloads.check(op, res, sess.lattice)
        elif isinstance(res, Exception):
            problem = f"raised {res!r}"
        elif canon != self.first[i]:
            problem = "output differs from the first pass"
        else:
            problem = None
        if problem:
            self.failures.append(f"op {i} ({op.kind}): {problem}")
        return canon

    # -- the command-line tool -------------------------------------------------------

    def cli(self, *argv: str) -> tuple[float, subprocess.CompletedProcess]:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        onto = self.workdir / "ontology.txt"
        if not onto.exists():
            onto.write_text(self.wl.ontology, encoding="utf-8")
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzyosf.cli", "--ontology", str(onto), *argv],
            capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
        )
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"fuzzyosf cli exited {proc.returncode}: {proc.stderr.strip()}")
        return elapsed, proc

    def cli_batch(self) -> None:
        batch = self.workdir / "pairs.tsv"
        if not batch.exists():
            batch.write_text("".join(f"{c.left}\t{c.right}\n" for c in self.wl.cli_pairs), encoding="utf-8")
        elapsed, proc = self.cli("unify", "--batch", str(batch))
        self.cli_time = elapsed
        lines = proc.stdout.splitlines()
        self.cli_output = [digest(proc.stdout)]
        self.attempted += len(self.wl.cli_pairs)
        if len(lines) != len(self.wl.cli_pairs):
            self.failures.append(f"cli batch printed {len(lines)} lines for {len(self.wl.cli_pairs)} pairs")
            return
        for k, (line, case) in enumerate(zip(lines, self.wl.cli_pairs)):
            problem = cli_line_problem(line, case)
            if problem:
                self.failures.append(f"cli pair {k}: {problem}")

    def cli_cold_starts(self) -> None:
        sub, sup, want = self.wl.degree_query
        for _ in range(COLD_STARTS):
            elapsed, proc = self.cli("degree", sub, sup)
            self.cold_starts.append(elapsed)
            self.attempted += 1
            if float(proc.stdout) != want:
                self.failures.append(f"cli degree {sub} {sup} printed {proc.stdout.strip()!r}, expected {want:g}")

    # -- metrics -------------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        ops = self.wl.ops
        best = [min(lat) for lat in self.plain_lat]
        out = {
            "setup_s": statistics.median(s["setup_s"] for s in self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_per_s": len(ops) / sum(best),
            "op_p50_us": percentile(best, 50) * 1e6,
            "op_p90_us": percentile(best, 90) * 1e6,
        }
        if self.cold_lat:
            cold = [min(times) for times in zip(*self.cold_lat)]
            out["cold_ops_per_s"] = len(ops) / sum(cold)
        if len(ops) >= 1000:
            out["op_p99_us"] = percentile(best, 99) * 1e6
        for name, kind in KIND_RATES.items():
            mine = [(op, b) for op, b in zip(ops, best) if op.kind == kind]
            if mine:
                done = sum(len(op.payload) if kind == "degree" else 1 for op, _ in mine)
                out[name] = done / sum(b for _, b in mine)
        if self.cli_time is not None:
            out["cli_batch_pairs_per_s"] = len(self.wl.cli_pairs) / self.cli_time
        out["failed_share"] = len(self.failures) / self.attempted
        return out

    def per_layer(self, untraced_ops_per_s: float) -> dict[str, float]:
        out = self.tracing.layer_metrics(self.rec.spans, self.traced_passes, ROUNDS)
        for key in self.setups[0]:
            if key != "setup_s":
                out[key] = statistics.median(s[key] for s in self.setups)
        if self.cli_time is not None:
            out["cli.batch_s"] = self.cli_time
        if self.cold_starts:
            out["cli.cold_start_s"] = statistics.median(self.cold_starts)
        traced = len(self.wl.ops) / sum(min(lat) for lat in self.traced_lat)
        out["trace.overhead_share"] = 1 - traced / untraced_ops_per_s
        return out

    def run_digest(self) -> str:
        return digest("\n".join((self.first or []) + self.cli_output))


def cli_line_problem(line: str, case) -> str | None:
    """Check one line of ``unify --batch`` output against the generator."""
    if case.bottom:
        return None if line == "BOTTOM beta=1" else f"expected BOTTOM, got {line[:60]!r}"
    head, _, term = line.partition("\t")
    if not head.startswith("beta=") or float(head[5:]) != min(case.beta1, case.beta2):
        return f"expected beta={min(case.beta1, case.beta2):g}, got {head!r}"
    classes = len(set(re.findall(r"_Z\d+", term)))
    return None if classes == case.classes else f"{classes} classes, expected {case.classes}"


def metadata(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "traced": bool(args.trace),
        "workload": args.workload,
        "seconds": args.seconds,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark_names(key: str) -> list[str]:
    return [m["name"] for m in benchmark_spec()[key]]


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "fuzzyosf" / "__init__.py").is_file():
        print(f"error: no fuzzyosf sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    wl = workloads.BUILDERS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = Run(wl, bool(args.trace), args.seconds, Path(tmp))
        run.execute()
    metrics = run.end_to_end()
    if args.trace:
        metrics = run.per_layer(metrics["ops_per_s"]) | {"failed_share": metrics["failed_share"]}
    wanted = benchmark_names("per_layer" if args.trace else "end_to_end")
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 3

    report = {
        "metadata": metadata(args),
        "passes": run.traced_passes if args.trace else run.passes,
        "ops_per_pass": len(wl.ops),
        "digest": run.run_digest(),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": {k: {"value": v, "unit": METRICS[k][0]} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if run.rec is not None:
        run.rec.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['passes']} passes of {len(wl.ops)} ops")
    print("metadata " + json.dumps(report["metadata"]))
    print(f"digest {report['digest']}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {METRICS[name][0]}")
    final = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": METRICS[name][0]} for name in wanted},
    }
    print(json.dumps(final))
    return 0


def compare(old_path: str, new_path: str) -> int:
    """Print each metric of two report files: both values and new / old."""
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))["metrics"]
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))["metrics"]
    print(f"{'metric':36} {'unit':>9} {'old':>12} {'new':>12} {'new/old':>8}")
    for name in [n for n in METRICS if n in old or n in new]:
        a = old.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        ratio = f"{b / a:8.3f}" if a and b is not None else f"{'-':>8}"
        note = ""
        if a and b is not None and a != b:
            better = (b < a) == (METRICS[name][1] == "lower")
            note = " better" if better else " worse"
        fmt = lambda v: f"{v:12.6g}" if v is not None else f"{'-':>12}"
        print(f"{name:36} {METRICS[name][0]:>9} {fmt(a)} {fmt(b)} {ratio}{note}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two report files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
