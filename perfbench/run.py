"""The tautrel benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout.  Each repetition of a workload runs
in fresh single-threaded processes (perfbench/worker.py), one at a
time, and its outputs pass a correctness gate.  Repetitions continue
while one more would end no later than half a repetition past
--seconds (at least MIN_REPS of them).  With
--trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 untraced and traced repetitions
alternate and the JSON holds the per-layer metrics of the traced
ones.  A result file with the samples, the run context and (traced)
the span trees is written to perfbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

from stats import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = SRC / "tautrel" / "data" / "getzler_g1n4k2.gwi"
RESULTS = HERE / "results"
TMP_DIR = HERE / "tmp"

MIN_REPS = 2
PROBES_PER_REP = 3  # set-up-only processes spawned before each repetition
RUN_BUDGET_S = 120  # no repetition starts after this
DEADLINE_S = 170  # a worker still running then is killed

CORPUS = {"size": 100, "anchor_seed": 0, "anchor_size": 20}

# report fields (classes, rank, nullspace_dim, trivial_dim, new) and
# output digests recorded at the commit that introduced the benchmark
DISCOVER_STEP1 = (9, 7, 2, 1, 1)
DISCOVER_STEP2 = (22, 7, 15, 14, 1)
EXPECTED = {
    "discover-g1n4k2": {
        "digest": "d45c471f77ccde4445fa36cedd5983136a8308c50564b31d35199f804334089a",
    },
    "orbits-g0n6-psi": {
        "fields": (8, 2, 6, 6, 0),
        "digest": "809904338d891f70e142f07260e32a62248c011c908e3b502698bedf9a054617",
    },
    "full-g0n6-psi": {
        "fields": (281, 16, 265, 265, 0),
        "digest": "85f5c3c9f0d2c43adc31ae9c527c01bc00afd73d87593c59efd5cd01aed06e7e",
    },
    "operator-corpus": {
        "anchor_digest": "406406bed848a155ab6e6f5b2ad6c5df176cd551ee23e3bd9d0f34909490ff8a",
    },
}
FIELDS = ("classes", "rank", "nullspace_dim", "trivial_dim", "new")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYERS = ("graphs", "sums", "gwi", "operators", "strata", "relations", "solver", "cli")


class Rep:
    """Measurements and gate verdicts of one repetition."""

    def __init__(self, traced: bool, deadline: float):
        self.traced = traced
        self.deadline = deadline  # monotonic time by which workers must end
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_kb = 0
        self.setup_s: list[float] = []
        self.calls_s: list[float] = []  # per-call latencies, if finer than the rep
        self.ops: list[list[str]] = []  # problems per operation
        self.layers: dict[str, float] = {}
        self.trees: list[dict] = []
        self.fields: dict[str, int] = {}
        self.digests: dict[str, str] = {}

    def spawn(self, spec: dict, env: dict, ops: int = 1) -> dict | None:
        """Run one worker process; fold its timings in.  Returns its
        output, or None after recording ``ops`` failed operations."""
        spec = dict(spec, trace=self.traced)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            self.ops += [["timed out"]] * ops
            return None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            why = "worker exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
            self.ops += [[why]] * ops
            return None
        out = json.loads(lines[-1])
        self.setup_s.append(out["stamp"] - t0)
        if "error" in out:
            self.ops += [[out["error"]]] * ops
            return None
        if "wall_s" in out:
            self.wall_s += out["wall_s"]
            self.cpu_s += out["cpu_s"]
            self.rss_kb = max(self.rss_kb, out["maxrss_kb"])
        for key, value in out.get("layers", {}).items():
            self.layers[key] = self.layers.get(key, 0) + value
        if "tree" in out:
            self.trees.append(out["tree"])
        return out

    def check_digest(self, name: str, key: str, value: str) -> list[str]:
        """Record an output digest and compare it with the recorded one."""
        self.digests[key] = value
        want = EXPECTED[name][key]
        return [] if value == want else ["%s %s, want %s" % (key, value, want)]

    def add_fields(self, fields: dict):
        for key, value in fields.items():
            self.fields[key] = self.fields.get(key, 0) + value


def report_fields(text: str) -> dict:
    """The counts of a find report: classes, rows, rank, nullspace,
    trivial and new dimensions."""
    pats = {
        "classes": r"^CLASSES (\d+)$",
        "rows": r"^SYSTEM rows=(\d+) ",
        "rank": r"^SYSTEM .*rank=(\d+)$",
        "nullspace_dim": r"^NULLSPACE dim=(\d+)$",
        "trivial_dim": r"^TRIVIAL dim=(\d+)$",
        "new": r"^NEW (\d+)$",
    }
    out = {}
    for key, pat in pats.items():
        m = re.search(pat, text, re.M)
        out[key] = int(m.group(1)) if m else -1
    return out


def gate_fields(fields: dict, want) -> list[str]:
    got = tuple(fields[k] for k in FIELDS)
    return [] if got == tuple(want) else ["report %s, want %s" % (got, tuple(want))]


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode())
        h.update(b"\0")
    return h.hexdigest()


# -- workloads ---------------------------------------------------------------


def rep_discover(rep: Rep, env: dict, seed: int):
    """taut find --boundary-only, taut find (psi) and taut check on
    (1,4,2), three processes sharing one fresh registry directory."""
    name = "discover-g1n4k2"
    tmp = Path(tempfile.mkdtemp(dir=TMP_DIR))
    try:
        reg, out1, out2 = tmp / "registry", tmp / "out1", tmp / "out2"
        reg.mkdir()
        amb = ["-g", "1", "-n", "4", "-k", "2"]
        cand1 = out1 / "candidate_g1n4k2_1.gwi"
        cand2 = out2 / "candidate_g1n4k2_1.gwi"
        steps = [
            ["find", *amb, "--boundary-only", "--out", str(out1)],
            ["find", *amb, "--out", str(out2)],
            ["check", str(cand1)],
        ]
        texts = []
        for i, argv in enumerate(steps):
            out = rep.spawn({"step": "cli", "argv": ["--registry", str(reg), *argv]}, env)
            if out is None:
                rep.ops += [["skipped after a failed step"]] * (len(steps) - i - 1)
                return
            text = out["text"].replace(str(tmp), "$TMP")
            texts.append(text)
            problems = [] if out["code"] == 0 else ["exit code %d" % out["code"]]
            if argv[0] == "find":
                fields = report_fields(text)
                rep.add_fields(fields)
                problems += gate_fields(fields, DISCOVER_STEP1 if i == 0 else DISCOVER_STEP2)
            if i == 0 and (not cand1.is_file() or cand1.read_bytes() != GOLDEN.read_bytes()):
                problems.append("candidate differs from %s" % GOLDEN.name)
            if i == 2:
                for l in (1, 2):
                    if "l=%d ZERO" % l not in text.splitlines():
                        problems.append("check did not print l=%d ZERO" % l)
                candidates = [c.read_bytes() for c in (cand1, cand2) if c.is_file()]
                problems += rep.check_digest(name, "digest", sha(*texts, *candidates))
            rep.ops.append(problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def rep_find(name: str, symmetrized: bool, rep: Rep, env: dict, seed: int):
    """find_equations(0, 6, 2, decorations='psi') in one process."""
    spec = {
        "step": "find", "g": 0, "n": 6, "k": 2,
        "symmetrized": symmetrized, "decorations": "psi",
    }
    out = rep.spawn(spec, env)
    if out is None:
        return
    fields = report_fields(out["text"])
    rep.add_fields(fields)
    problems = gate_fields(fields, EXPECTED[name]["fields"])
    problems += rep.check_digest(name, "digest", sha(out["text"]))
    rep.ops.append(problems)


def rep_corpus(rep: Rep, env: dict, seed: int):
    """apply_r(FormalSum.single(g), l), l in (1, 2), on seeded graphs."""
    n_calls = CORPUS["size"] * 2
    out = rep.spawn({"step": "corpus", "seed": seed, **CORPUS}, env, ops=n_calls + 1)
    if out is None:
        return
    rep.calls_s = out["calls_s"]
    rep.ops += out["problems"]
    rep.ops.append(rep.check_digest("operator-corpus", "anchor_digest", out["anchor_digest"]))


WORKLOADS = {
    "discover-g1n4k2": rep_discover,
    "orbits-g0n6-psi": partial(rep_find, "orbits-g0n6-psi", True),
    "full-g0n6-psi": partial(rep_find, "full-g0n6-psi", False),
    "operator-corpus": rep_corpus,
}


# -- running -----------------------------------------------------------------


def worker_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TAUT_REGISTRY_DIR", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    return env


def hash_seed(seed: int) -> int:
    return 1 + seed % 4294967295


def context(seed: int) -> dict:
    """Machine and run description stored with every result."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "tautrel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "pythonhashseed": hash_seed(seed),
        "corpus": dict(CORPUS),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = worker_env(seed)
    fn = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + DEADLINE_S
    probes = Rep(False, deadline)
    reps: list[Rep] = []
    while True:
        round_t0 = time.monotonic()
        # set-up probes are spread over the run, so that their median
        # samples the same stretch of time as the repetitions
        for _ in range(0 if trace else PROBES_PER_REP):
            if probes.spawn({"step": "setup"}, env) is not None:
                probes.ops.append([])
        for traced in ((False, True) if trace else (False,)):
            rep = Rep(traced, deadline)
            fn(rep, env, seed)
            reps.append(rep)
        now = time.monotonic()
        # stop when one more round of the same length would end past
        # --seconds by more than half of it
        left = started + seconds - now
        enough = len(reps) >= MIN_REPS and left < 0.5 * (now - round_t0)
        if enough or now - started >= RUN_BUDGET_S:
            break
    ops = probes.ops + [op for r in reps for op in r.ops]
    attempted = len(ops)
    failed = sum(1 for op in ops if op)
    problems = [p for op in ops for p in op]
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    result = {
        "workload": name,
        "context": context(seed),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems[:50],
        "reps": [
            {"traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "peak_rss_mb": r.rss_kb / 1024, "fields": r.fields, "digests": r.digests,
             "ops": len(r.ops)}
            for r in reps
        ],
        "measure_s": time.monotonic() - started,
    }
    if trace:
        result["metrics"] = layer_metrics(plain, traced)
        result["span_trees"] = [r.trees for r in traced]
    else:
        setup = probes.setup_s + [s for r in plain for s in r.setup_s]
        calls = [r.calls_s or [r.wall_s] for r in plain]
        result["samples"] = {"setup_s": setup, "call_s": calls}
        result["metrics"] = {
            "wall_s": median(r.wall_s for r in plain),
            "setup_s": median(setup),
            "cpu_s": median(r.cpu_s for r in plain),
            "peak_rss_mb": median(r.rss_kb / 1024 for r in plain),
            "call_p50_ms": 1e3 * median(percentile(c, 50) for c in calls),
            "call_p95_ms": 1e3 * median(percentile(c, 95) for c in calls),
        }
    return result


def layer_metrics(plain: list[Rep], traced: list[Rep]) -> dict:
    """Per-layer metrics: medians over the traced repetitions of each
    repetition's sums, with ratios formed per repetition."""
    per_rep = [derive_layers(r) for r in traced]
    out = {name: median(m.get(name, 0.0) for m in per_rep) for name in PER_LAYER}
    out["trace.overhead_s"] = median(r.wall_s for r in traced) - median(r.wall_s for r in plain)
    return out


def derive_layers(rep: Rep) -> dict:
    raw = dict(rep.layers)
    m = {k: raw.get(k, 0) for k in PER_LAYER}
    canon = raw.get("graphs.canonicalize.hits", 0) + raw.get("graphs.canonicalize.misses", 0)
    m["graphs.canonicalize.calls"] = canon
    m["graphs.canonicalize.hit_ratio"] = ratio(raw.get("graphs.canonicalize.hits", 0), canon)
    m["strata.orbit_yield"] = ratio(
        raw.get("strata.enumerate_classes.classes_out", 0), raw.get("strata.canonicalize_calls", 0)
    )
    m["operators.yield"] = ratio(
        raw.get("operators.apply_r.terms_out", 0), raw.get("operators.candidates", 0)
    )
    for key in ("rows", "rank", "nullspace_dim", "trivial_dim", "new"):
        m["solver." + key] = rep.fields.get(key, 0)
    for layer in LAYERS:
        m["layer.%s.self_s" % layer] = sum(
            v for k, v in raw.items() if k.startswith(layer + ".") and k.endswith(".self_s")
        )
    return m


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def emit(result: dict, units: dict):
    for key, value in result["metrics"].items():
        print("METRIC %-40s %14.6f %s" % (key, value, units[key]))
    print("FAIL_FRAC %g (%d of %d)" % (result["fail_frac"], result["failed"], result["attempted"]))
    for p in result["problems"][:10]:
        print("PROBLEM %s" % p)


def print_table(results: list[dict], units: dict):
    names = list(results[0]["metrics"])
    print("%-36s" % "metric" + "".join("%18s" % r["workload"] for r in results))
    for key in names:
        row = "".join("%18.6g" % r["metrics"][key] for r in results)
        print("%-36s%s" % ("%s [%s]" % (key, units[key]), row))
    print("%-36s" % "fail_frac" + "".join("%18.6g" % r["fail_frac"] for r in results))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tautrel" / "__init__.py").is_file():
        print("error: no tautrel sources at %s" % SRC, file=sys.stderr)
        return 2
    # Set-up is timed with the package's bytecode written, as for an
    # installed package, whether or not the environment lets Python
    # write it (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(str(SRC / "tautrel"), quiet=1)
    trace = bool(args.trace)
    units = PER_LAYER if trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace)
        path = RESULTS / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(result, indent=1) + "\n")
        print("WORKLOAD %s -> %s" % (name, path.relative_to(ROOT)))
        emit(result, units)
        results.append(result)
    if len(results) > 1:
        print_table(results, units)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            ("%s/%s" % (r["workload"], k) if prefix else k): {"value": v, "unit": units[k]}
            for r in results
            for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
