"""One step of a benchmark workload, run in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the step ("setup", "find", "cli" or "corpus") and its
parameters.  The process imports tautrel from the checkout's src/,
constructs a RelationRegistry and stamps the monotonic clock; the
parent subtracts its spawn time from that stamp to get the set-up
time.  The step's work is then timed, with spans recorded when the
spec asks for a trace, and one JSON object is printed on stdout.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

spec = json.loads(sys.argv[1])
sys.path.insert(0, SRC)
import tautrel  # noqa: E402
import tautrel.cli  # noqa: E402

registry = tautrel.RelationRegistry()
STAMP = time.monotonic()

import io  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from functools import partial  # noqa: E402
from time import perf_counter  # noqa: E402


def measure(out: dict, work):
    """Run ``work()`` as the timed part of the step and return its
    result.  With a trace requested the tracer is installed first, so
    that input preparation stays out of the trace; wall time, CPU,
    peak memory and the trace are recorded as soon as the work ends,
    before any output check."""
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        work = partial(tracer.root, work)
    t0 = perf_counter()
    result = work()
    out["wall_s"] = perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = ru.ru_utime + ru.ru_stime
    out["maxrss_kb"] = ru.ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.snapshot()
        out["tree"] = tracer.tree()
    return result


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def step_find(out):
    report = measure(out, lambda: tautrel.find_equations(
        spec["g"], spec["n"], spec["k"], registry,
        symmetrized=spec["symmetrized"], decorations=spec["decorations"],
    ))
    new = [c for c in report.candidates if not c.trivial]
    lines = report.lines()
    lines += ["CANDIDATE %s" % tautrel.format_sum(c.formal_sum) for c in new]
    lines.append("NEW %d" % len(new))
    out["text"] = "\n".join(lines) + "\n"


def step_cli(out):
    buf = io.StringIO()
    with redirect_stdout(buf):
        out["code"] = measure(out, lambda: tautrel.cli.main(spec["argv"]))
    out["text"] = buf.getvalue()


def step_corpus(out):
    import corpus

    graphs = corpus.make_corpus(spec["seed"], spec["size"])
    inputs = [tautrel.FormalSum.single(g) for g in graphs]
    latencies, images, problems = [], [], []

    def work():
        apply_r = tautrel.apply_r
        for x in inputs:
            for l in corpus.L_VALUES:
                t = perf_counter()
                try:
                    image, found = apply_r(x, l), []
                except Exception as exc:  # one failed call, keep measuring
                    image, found = None, [_failure(exc)]
                latencies.append(perf_counter() - t)
                images.append(image)
                problems.append(found)

    measure(out, work)
    out["calls_s"] = latencies
    calls = [(g, l) for g in graphs for l in corpus.L_VALUES]
    for (g, l), image, found in zip(calls, images, problems):
        if image is not None:
            found.extend(corpus.check_image(g, l, image))
    anchor = corpus.make_corpus(spec["anchor_seed"], spec["anchor_size"])
    out["anchor_digest"] = corpus.images_digest(
        [tautrel.apply_r(tautrel.FormalSum.single(g), l) for g in anchor for l in corpus.L_VALUES]
    )
    out["digest"] = corpus.images_digest(i for i in images if i is not None)
    out["problems"] = problems  # one list per call, empty when it passed


STEPS = {"find": step_find, "cli": step_cli, "corpus": step_corpus}


def main() -> int:
    out = {"stamp": STAMP}
    if not os.path.abspath(tautrel.__file__).startswith(SRC + os.sep):
        print("tautrel imported from %s, not %s" % (tautrel.__file__, SRC), file=sys.stderr)
        return 2
    if spec["step"] != "setup":
        try:
            STEPS[spec["step"]](out)
        except (Exception, SystemExit) as exc:
            out["error"] = _failure(exc)
            traceback.print_exc()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
