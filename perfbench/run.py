"""Layered benchmark of pathlyap: certified joint-spectral-radius bounds and
the combinatorial layer, timed from outside through the public functions.

Run from the repository root:

    python3 perfbench/run.py --workload demo-ladder --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): demo-ladder, wide-3x3, covering.  One run sets
the workload up several times (fresh import of pathlyap, fixtures, seeded
inputs, one untimed warm-up call) and reports the median set-up time, then
runs passes over the workload's operations, one operation at a time, as
long as the next pass should end within --seconds (at least one pass).
The CLI calls are spread through each pass.
Every operation's output goes through the correctness gate; after the first
pass the gate is shown corrupted outputs, each of which it must count as a
failure.

With --trace 0 the last line holds the end-to-end metrics: medians over
the set-ups (setup_s), the passes (wall_s, cpu_s) and the CLI calls (cli_s)
of times scaled to a fixed reference speed by the probes of hostspeed.py;
the raw medians are printed beside them.  With --trace 1 one untraced pass
is followed by traced passes; the last line holds the per-layer metrics
(medians over the traced passes, unscaled), the spans are written to
.perfbench-out/ and the tracing overhead (scaled) is reported.
Every other line of stdout is a human-readable report.

BLAS and OpenMP threads are pinned to 1 before numpy loads; the CLI child
process inherits the setting.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# numpy reads these when it loads, which is only after this point
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "blas_threads": int(BLAS_THREADS),
    }


def set_up(name, seed, tmp, speed):
    """Fresh import of pathlyap, seeded inputs and one warm-up call.

    Returns (seconds taken, raw and scaled by `speed`, and the workload).
    """
    for module in [m for m in sys.modules
                   if m == "pathlyap" or m.startswith("pathlyap.")]:
        del sys.modules[module]
    segment = speed.open_segment()
    start = time.perf_counter()
    importlib.import_module("pathlyap")
    workload = workloads.WORKLOADS[name](seed, ROOT, tmp)
    workload.warm_up()
    seconds = time.perf_counter() - start
    speed.close_segment(segment)
    return seconds, speed.scaled(segment, seconds), workload


class Tally:
    """Counts operations attempted and failed; `echo` prints each failure."""

    def __init__(self, echo=True):
        self.echo = echo
        self.attempted = 0
        self.failed = 0

    def run(self, label, op):
        self.attempted += 1
        try:
            problems = op()
        except Exception as exc:  # an operation that raises is a failure
            if self.echo:
                traceback.print_exc(file=sys.stderr)
            problems = [f"{label}: raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if self.echo:
                for problem in problems:
                    print(f"gate failure: {problem}", file=sys.stderr)
        return not problems


def cpu_seconds():
    """CPU time of this process and of its waited-for children (the CLI)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(workload, tally, speed, tracer=None):
    """One pass; each CLI call gets a probed segment of its own."""
    durations = {}
    segments = []
    workload.cli_seconds = []
    start = time.perf_counter()
    segment = speed.open_segment()
    for label, op in workload.operations():
        cli = label.startswith("cli#")
        if cli and segment["wall"]:
            segments.append(segment)
            segment = speed.close_segment(segment)
        if tracer is not None:
            tracer.begin_op()
        calls = len(workload.cli_seconds)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        tally.run(label, op)
        durations[label] = time.perf_counter() - t0
        segment["cpu"] += cpu_seconds() - c0
        segment["wall"] += durations[label]
        segment["cli"] += workload.cli_seconds[calls:]
        if cli or segment["wall"] >= hostspeed.PROBE_EVERY_S:
            segments.append(segment)
            segment = speed.close_segment(segment)
    if segment["wall"]:
        segments.append(segment)
        speed.close_segment(segment)
    return {"wall": time.perf_counter() - start, "ops": durations,
            "segments": segments, "rel_gap": workload.rel_gap()}


def raw(p, key):
    """Pass `p`'s measured "wall" or "cpu" seconds."""
    return sum(segment[key] for segment in p["segments"])


def scaled(speed, p, key):
    """Pass `p`'s "wall" or "cpu" seconds at the reference speed."""
    return sum(speed.scaled(segment, segment[key])
               for segment in p["segments"])


def gate_self_test(workload):
    """Run the corrupted outputs through the gate; names of those it missed."""
    probe = Tally(echo=False)
    missed = [label for label, op in workload.self_test()
              if probe.run(label, op)]
    return probe.attempted, missed


def op_lines(passes):
    groups = {}
    for p in passes:
        sums = {}
        for label, seconds in p["ops"].items():
            key = label.split("#")[0]
            sums[key] = sums.get(key, 0.0) + seconds
        for key, seconds in sums.items():
            groups.setdefault(key, []).append(seconds)
    return [f"op {key}: median {statistics.median(v):.4f} s per pass"
            for key, v in groups.items()]


def metric_line(name, value, unit, note=""):
    return f"metric {name} = {value!r} {unit}{note}"


def end_to_end(passes, setups, tally, speed):
    """End-to-end metrics; prints every one, with the raw medians.

    `setups` holds (raw, scaled) seconds of each set-up.
    """
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "wall_s": (statistics.median(scaled(speed, p, "wall")
                                     for p in passes), "s"),
        "cpu_s": (statistics.median(scaled(speed, p, "cpu")
                                    for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    cli = [(speed.scaled(segment, seconds), seconds)
           for p in passes for segment in p["segments"]
           for seconds in segment["cli"]]
    if cli:  # a CLI call that did not run is already counted by the gate
        metrics["cli_s"] = (statistics.median(c for c, _ in cli), "s")
    for name, (value, unit) in metrics.items():
        print(metric_line(name, value, unit))
    raw_wall = statistics.median(raw(p, "wall") for p in passes)
    raw_cpu = statistics.median(raw(p, "cpu") for p in passes)
    raw_cli = statistics.median(r for _, r in cli) if cli else float("nan")
    raw_setup = statistics.median(r for r, _ in setups)
    print(f"raw medians: wall {raw_wall:.4f} s, cpu {raw_cpu:.4f} s over "
          f"{len(passes)} passes; cli {raw_cli:.4f} s over {len(cli)} calls; "
          f"set-up {raw_setup:.4f} s over {len(setups)}")
    probes = speed.probes
    print(f"host speed probe: {len(probes)} probes, fastest "
          f"{min(probes) * 1e3:.3f} ms, median "
          f"{statistics.median(probes) * 1e3:.3f} ms, reference "
          f"{hostspeed.REFERENCE_PROBE_S * 1e3:.3f} ms")
    gaps = [p["rel_gap"] for p in passes]
    if None in gaps:
        print("metric rel_gap: not applicable (no bounds computed)")
    else:
        print(metric_line("rel_gap", statistics.median(gaps), "share"))
    print(metric_line("fail_share", tally.failed / tally.attempted, "share",
                      f" ({tally.failed} of {tally.attempted})"))
    return metrics


def source_digest():
    """Hash of the library and benchmark sources, naming the code measured."""
    digest = hashlib.sha256()
    files = sorted((SRC / "pathlyap").rglob("*.py"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(counts, workload, seed):
    """Exact counts must match every earlier traced run of the same code
    and seed in this checkout; the first such run records them."""
    path = OUT_DIR / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        changed = sorted(k for k in counts if earlier.get(k) != counts[k])
        if changed:
            print("error: counts differ from an earlier run with the same "
                  f"code and seed: {', '.join(changed)}", file=sys.stderr)
            return False
        print(f"exact counts match the earlier run recorded in "
              f"{path.relative_to(ROOT)}")
        return True
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    print(f"exact counts recorded in {path.relative_to(ROOT)}")
    return True


def per_layer(tracer, untraced, traced, args, info, speed):
    """Per-layer metrics, medians over the traced passes; prints every one.

    Returns the metrics and whether every exact count repeated, both
    between the traced passes and against earlier runs of the same seed.
    """
    values = tracer.layer_values()
    metrics = {}
    counts = {}
    ok = True
    for name, unit, _, _, _, exact in tracing.LAYER_METRICS:
        if name not in values:
            print(f"metric {name}: absent")
            continue
        series = values[name]
        if exact:
            counts[name] = series[0]
            if len(set(series)) > 1:
                ok = False
                print(f"error: {name} differs between passes: {series}",
                      file=sys.stderr)
        # an exact count is the same in every pass; a median of two would
        # turn it into a float
        value = series[0] if exact else statistics.median(series)
        metrics[name] = (value, unit)
    # at the reference speed, as wall_s is; raw, the host's speed swings
    # outweigh the overhead
    overhead = (statistics.median(scaled(speed, p, "wall") for p in traced)
                - scaled(speed, untraced, "wall"))
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, (value, unit) in metrics.items():
        print(metric_line(name, value, unit))
    if tracer.absent:
        print("absent lookup sites: " + ", ".join(sorted(tracer.absent)))
    ok = check_repeat(counts, args.workload, args.seed) and ok
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "machine": info})
    print(f"spans: {len(tracer.spans)} written to "
          f"{spans_path.relative_to(ROOT)}")
    return metrics, ok


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pathlyap" / "__init__.py").is_file():
        print(f"error: no pathlyap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info = machine()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    correct = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        speed = hostspeed.HostSpeed()
        setups = []
        for _ in range(SETUP_REPEATS):
            raw_s, scaled_s, workload = set_up(args.workload, args.seed,
                                               Path(tmp), speed)
            setups.append((raw_s, scaled_s))
        loaded = Path(sys.modules["pathlyap"].__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            print(f"error: pathlyap loaded from {loaded}, not {SRC}",
                  file=sys.stderr)
            return 2

        tally = Tally()
        start = time.perf_counter()
        passes = [run_pass(workload, tally, speed)]
        checked, missed = gate_self_test(workload)
        print(f"gate self-test: {checked - len(missed)} of {checked} "
              "corrupted outputs counted as failures")
        if missed:
            correct = False
            print("gate self-test missed: " + "; ".join(missed),
                  file=sys.stderr)

        def room(done):
            """Whether a pass as long as the longest in `done` still ends
            within --seconds."""
            longest = max(p["wall"] for p in done)
            return time.perf_counter() - start + longest <= args.seconds

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install({m: sys.modules[m] for m in sys.modules
                            if m.startswith("pathlyap.")})
            traced = []
            while not traced or room(traced):
                tracer.begin_pass()
                traced.append(run_pass(workload, tally, speed, tracer))
        else:
            while room(passes):
                passes.append(run_pass(workload, tally, speed))

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(passes) + (len(traced) if tracer else 0)} passes, "
          f"{tally.attempted} operations, {tally.failed} failed")
    print("pass wall s: " + ", ".join(f"{p['wall']:.3f}" for p in passes))
    for line in workload.describe() + op_lines(passes):
        print(line)
    correct = correct and tally.failed == 0

    if tracer is None:
        metrics = end_to_end(passes, setups, tally, speed)
    else:
        metrics, repeat_ok = per_layer(tracer, passes[0], traced, args, info,
                                       speed)
        correct = correct and repeat_ok

    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
