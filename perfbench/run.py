"""condshap benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload explain-m10 --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (``setup_s``,
``explanations_per_s``, ``peak_rss_mb``), the times scaled to the reference
host speed that ``probe.py`` defines; with ``--trace 1`` it holds the
per-layer metrics of ``tracing.LAYERS`` from traced rounds, and the line
before it states the tracing overhead against untraced rounds of the same
inputs.  Each run also writes a record to ``perfbench/out/``.  See README.md.
"""

import os
import sys

# One BLAS thread, and no explainer thread pool, in this process and its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONDSHAP_WORKERS", None)

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set-ups and a warm-up, then whole rounds until ``seconds`` pass.

    ``workload.setup_reps`` set-ups precede the warm-up and every round, so
    that set-up times are sampled across the whole run, not in one burst.
    A host-speed probe (``probe.slowdown`` of ``workload.probe_parts``) runs
    before and after every batch of set-ups, between the operations of a
    round and after it.  Each set-up and round time is divided by the mean
    slowdown around and within it.
    """
    from probe import slowdown
    from tracing import LAYERS, Tracer, layer_metrics, missing_spans, zero_layers

    def probe():
        return slowdown(workload.probe_parts)

    setup_times, scaled_setups, probes = [], [], [probe()]

    def set_up():
        times = []
        for _ in range(workload.setup_reps):
            begin = time.perf_counter()
            state = workload.setup()
            times.append(time.perf_counter() - begin)
        probes.append(probe())
        setup_times.extend(times)
        scaled_setups.extend(t / statistics.mean(probes[-2:]) for t in times)
        return state

    warm = workload.warmup(set_up())
    outputs, plain_times, scaled_rounds, traced_times, layers, problems = [], [], [], [], [], []
    start = time.perf_counter()
    while not outputs or time.perf_counter() - start < seconds:
        probes.append(probe())
        state = set_up()
        first = len(probes) - 1
        output, secs, _ = workload.round(state, None, lambda: probes.append(probe()))
        probes.append(probe())
        outputs.append(output)
        plain_times.append(secs)
        scaled_rounds.append(secs / statistics.mean(probes[first:]))
        if trace:
            tracer = Tracer()
            output, secs, spans = workload.round(state, tracer)
            outputs.append(output)
            traced_times.append(secs)
            problems += [f"span {name} never fired" for name in missing_spans(spans, workload.name)]
            external = workload.external_layers() if hasattr(workload, "external_layers") else {}
            layers.append(layer_metrics(spans, external))
    child = getattr(workload, "peak_rss_mb", None)
    rss = child() if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += workload.check(warm, outputs)
    per_round = workload.explanations_per_round
    result = {"rounds": len(outputs), "setup_times": setup_times, "round_times": plain_times,
              "probe_slowdowns": probes, "scaled_setup_times": scaled_setups,
              "scaled_round_times": scaled_rounds, "problems": problems,
              "unscaled": {"setup_s": statistics.median(setup_times),
                           "explanations_per_s": statistics.median(per_round / t
                                                                   for t in plain_times)}}
    if trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in LAYERS}
        problems += [f"layer {name} is zero" for name in zero_layers(metrics, workload.name)]
        result["layers"] = {name: {"value": metrics[name], "unit": LAYERS[name][0]}
                            for name in LAYERS}
        result["traced_round_times"] = traced_times
        result["tracing_overhead"] = (statistics.median(traced_times)
                                      / statistics.median(plain_times) - 1)
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "explanations_per_s": {"value": statistics.median(per_round / t
                                                              for t in scaled_rounds),
                                   "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return result


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("# environment: " + json.dumps(env), flush=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    per_round = workload.explanations_per_round
    try:
        result = measure(workload, args.seconds, bool(args.trace))
        failed = 0
    except Exception as exc:  # a program fault: report it, count the round as failed
        result = {"rounds": 1, "problems": [f"{type(exc).__name__}: {exc}"]}
        failed = per_round
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"# check failed: {problem}", flush=True)
    if args.trace and "tracing_overhead" in result:
        print(f"# tracing overhead: {result['tracing_overhead']:+.2%} of the untraced round time",
              flush=True)
    line = {
        "correct": not result["problems"],
        "attempted": per_round * (result["rounds"] if not failed else 1),
        "failed": failed,
        "metrics": result.get("layers" if args.trace else "metrics", {}),
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": line, "detail": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "condshap" / "__init__.py").is_file():
        print(f"error: no condshap sources at {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
