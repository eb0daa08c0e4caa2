"""Tests of the benchmark's generators and of its output contract.

    python -m pytest perfbench

The last tests run the benchmark itself for one second per workload, so this
file takes about seven minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fuzzyosf import SortLattice, load_interpretation, load_ontology, parse_term, unify, validate_interpretation  # noqa: E402

NAMES = list(workloads.BUILDERS)

# The end-to-end metrics each workload prints, beyond those BENCHMARK.json names.
WORKLOAD_METRICS = {
    "query_mix": {"op_p99_us", "subsume_per_s", "normalize_per_s", "eval_per_s", "cli_batch_pairs_per_s"},
    "wide_ontology": {"op_p99_us", "degree_per_s"},
    "deep_terms": {"subsume_per_s", "normalize_per_s"},
}


def bench(key: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]


def texts(wl: workloads.Workload) -> list[str]:
    """Every input text of a workload, in a fixed order."""
    out = [wl.ontology, wl.interpretation or ""]
    out.extend(repr(op.payload) for op in wl.ops)
    out.extend(f"{c.left}\t{c.right}" for c in wl.cli_pairs)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_texts(name):
    first = texts(workloads.BUILDERS[name](7))
    assert first == texts(workloads.BUILDERS[name](7))
    assert first != texts(workloads.BUILDERS[name](8))


@pytest.mark.parametrize("name", NAMES)
def test_workload_ontology_and_interpretation_validate(name):
    wl = workloads.BUILDERS[name](3)
    graph, _ = load_ontology(wl.ontology)
    lattice = SortLattice(graph).validate()
    if wl.interpretation is not None:
        assert validate_interpretation(load_interpretation(wl.interpretation, graph), lattice) == []


def test_random_hierarchies_validate():
    for seed in range(150):
        rng = random.Random(seed)
        h = gen.make_hierarchy(rng, rng.randint(10, 150), 3, roots=rng.randint(1, 4), second_share=0.4)
        graph, _ = load_ontology(h.text())
        lattice = SortLattice(graph).validate()
        for _ in range(30):
            i, j = rng.randrange(len(h.names)), rng.randrange(len(h.names))
            want = h.glb(i, j)
            assert lattice.glb(h.names[i], h.names[j]) == ("bot" if want is None else h.names[want])
            assert lattice.degree(h.names[i], h.names[j]) == h.degree(h.names[i], h.names[j])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_query_mix_clash_share_is_in_band(seed):
    wl = workloads.build_query_mix(seed)
    share = sum(c.bottom for c in wl.cli_pairs) / len(wl.cli_pairs)
    assert 0.10 <= share <= 0.20
    graph, _ = load_ontology(wl.ontology)
    lattice = SortLattice(graph).validate()
    for case in wl.cli_pairs[:200]:
        result = unify(parse_term(case.left, graph), parse_term(case.right, graph), lattice)
        assert result.is_bottom == case.bottom


def test_traced_degree_is_first_only_when_it_builds_a_row():
    h = gen.make_hierarchy(random.Random(4), 40, 2)
    graph, _ = load_ontology(h.text())
    plain = SortLattice(graph).validate()
    rec = tracing.Recorder()
    traced = tracing.TracedLattice.adopt(plain, rec)
    leaf, other = h.names[-1], h.names[-2]
    plain.degree(leaf, h.names[0])  # builds the leaf's row outside the trace
    traced.degree(leaf, h.names[1])
    traced.degree(other, h.names[0])
    traced.degree(other, h.names[1])
    traced.degree(other, other)
    assert [s[tracing.INFO] for s in rec.spans] == ["repeat", "first", "repeat", None]


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_metric_is_printed(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    spec = bench("per_layer" if trace == "1" else "end_to_end")
    assert list(final["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split(" = ")[0] for line in lines if " = " in line}
    extra = {"trace.overhead_share"} if trace == "1" else WORKLOAD_METRICS[name] | {"failed_share"}
    assert extra <= printed
    assert f"digest " in proc.stdout and '"git_sha"' in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "deep_terms", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_prints_ratios(tmp_path):
    old = {"metrics": {"ops_per_s": {"value": 100.0, "unit": "ops/s"}, "setup_s": {"value": 2.0, "unit": "s"}}}
    new = {"metrics": {"ops_per_s": {"value": 150.0, "unit": "ops/s"}, "setup_s": {"value": 3.0, "unit": "s"}}}
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    proc = _run("--compare", str(tmp_path / "old.json"), str(tmp_path / "new.json"))
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:]}
    assert rows["ops_per_s"][2:] == ["100", "150", "1.500", "better"]
    assert rows["setup_s"][2:] == ["2", "3", "1.500", "worse"]
