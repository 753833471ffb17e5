"""Tests of the benchmark's own arithmetic, tracing and determinism.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from array import array

import pytest

from conftest import BENCH
from run import Rep, derive_layers, report_fields
from stats import median, percentile
from tracer import charged_times, self_times, span_tree

WORKER = BENCH / "worker.py"


def worker(spec: dict, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("TAUT_REGISTRY_DIR", None)
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


# -- order statistics ----------------------------------------------------------


def test_median_and_percentile():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert median(xs) == 3.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 95) == pytest.approx(4.8)
    assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
    assert percentile([7.0], 95) == 7.0


# -- spans -----------------------------------------------------------------------


def spans():
    # root [0,10] > a [1,4] > a [2,3] (recursion); root > b [5,9] > c [6,7]
    names = ["root", "a", "a", "b", "c"]
    parent = array("l", [-1, 0, 1, 0, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 7.0])
    return names, parent, start, end


def test_self_time_is_span_minus_children():
    _, parent, start, end = spans()
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_utility_time_is_charged_to_the_caller():
    # relations [0,10] > graphs [1,4] > sums [2,3]; relations > operators [5,9] > graphs [6,7];
    # a top-level graphs span [11,12] keeps its own layer
    layers = ["relations", "graphs", "sums", "operators", "graphs", "graphs"]
    parent = array("l", [-1, 0, 1, 0, 3, -1])
    start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0, 11.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0, 7.0, 12.0])
    selfs = self_times(parent, start, end)
    assert charged_times(layers, parent, selfs) == {"relations": 6.0, "operators": 4.0, "graphs": 1.0}


def test_span_tree_folds_recursion_and_sums():
    tree = span_tree(*spans())
    (root,) = tree["children"]
    assert root["name"] == "root" and root["total_s"] == 10.0
    a, b = sorted(root["children"], key=lambda n: n["name"])
    assert (a["calls"], a["self_s"], a["total_s"]) == (2, 3.0, 3.0)
    assert (b["calls"], b["self_s"], b["total_s"]) == (1, 3.0, 4.0)
    assert b["children"][0]["name"] == "c"


def test_derived_ratios_and_layer_sums():
    rep = Rep(True, deadline=0.0)
    rep.layers = {
        "graphs.canonicalize.hits": 30, "graphs.canonicalize.misses": 10,
        "strata.enumerate_classes.classes_out": 8, "strata.canonicalize_calls": 80,
        "operators.apply_r.terms_out": 5, "operators.candidates": 20,
        "graphs.canonicalize.self_s": 1.5, "graphs.is_valid.self_s": 0.5,
        "strata.table_enumerate.self_s": 0.25,
    }
    rep.fields = {"rank": 7, "new": 1}
    m = derive_layers(rep)
    assert m["graphs.canonicalize.calls"] == 40
    assert m["graphs.canonicalize.hit_ratio"] == 0.75
    assert m["strata.orbit_yield"] == 0.1
    assert m["operators.yield"] == 0.25
    assert m["layer.graphs.self_s"] == 2.0
    assert m["layer.strata.self_s"] == 0.25
    assert m["solver.rank"] == 7 and m["solver.new"] == 1


def test_report_fields():
    text = "AMBIENT (1,4,2)\nCLASSES 9\nSYSTEM rows=24 rank=7\nROW l=1 x\n" \
           "NULLSPACE dim=2\nTRIVIAL dim=1\nNEW 1\n"
    assert report_fields(text) == {
        "classes": 9, "rows": 24, "rank": 7, "nullspace_dim": 2, "trivial_dim": 1, "new": 1,
    }


# -- worker processes ------------------------------------------------------------


CORPUS_SPEC = {"step": "corpus", "seed": 3, "size": 6, "anchor_seed": 0, "anchor_size": 4}
FIND_SPEC = {"step": "find", "g": 0, "n": 5, "k": 1, "symmetrized": False, "decorations": "psi"}


def test_digests_do_not_depend_on_hash_seed():
    a, b = worker(CORPUS_SPEC, 1), worker(CORPUS_SPEC, 4242)
    assert a["problems"] == b["problems"] == [[]] * (2 * CORPUS_SPEC["size"])
    assert a["digest"] == b["digest"]
    assert a["anchor_digest"] == b["anchor_digest"]
    fa, fb = worker(FIND_SPEC, 1), worker(FIND_SPEC, 4242)
    assert fa["text"] == fb["text"] and "NEW" in fa["text"]


def test_traced_run_gives_same_outputs_and_counts():
    plain = worker(CORPUS_SPEC, 7)
    traced = worker(dict(CORPUS_SPEC, trace=True), 7)
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert layers["operators.apply_r.calls"] == 2 * CORPUS_SPEC["size"]
    assert layers["operators.candidates"] > 0
    assert layers["graphs.canonicalize.misses"] > 0
    (root,) = traced["tree"]["children"]
    assert root["name"] == "bench.workload"
    assert root["children"][0]["name"] == "operators.apply_r"


def test_refuses_without_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "tmp", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "operator-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
