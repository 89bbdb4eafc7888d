"""sddkit benchmark: four CLI workloads, end-to-end metrics and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload det-large --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One process per run.  It imports ``sddkit`` from ``src/``, writes the
workload's inputs from ``--seed`` (``workloads.py``), then repeats the
workload's fixed list of ``sddkit.cli.main`` calls (a pass) in a closed loop
with one client for ``--seconds``, at least three times.  BLAS is pinned to
one thread.  Every distinct stdout is judged by ``checker.py``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      seconds per pass, measured after import: the sum over
                  the pass's calls of each call's median time;
* ``setup_s``     median, over separate process starts, of the time from
                  process start until ``sddkit`` is imported and the inputs
                  are written;
* ``peak_rss_mb`` peak resident set of this process;
* ``ok_frac``     operations judged ok / operations attempted, that is
                  1 - fail_frac (``failed`` / ``attempted`` carry the counts).

Both times are in reference seconds (``reference.py``): each measured time
is scaled by the time of a fixed kernel run next to it (for set-up, the
start of a bare interpreter importing numpy and scipy), which cancels most
of the shared host's drift.  The raw times and the kernel's times are in the
record line.

``--trace 1`` runs untraced passes for half the time, then installs the
tracer (``tracer.py``) and reports the per-layer metrics of traced passes,
in plain seconds, with ``trace.overhead_frac`` from reference times.  Work
counters must repeat exactly between traced passes, or the run fails.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the machine and the sha256 of each call's stdout.  The record and the
spans are also written under ``perfbench/out/``.  Exit code 2 means the
program's source is missing or the arguments are wrong, 1 that the benchmark
itself failed; neither prints a result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import checker
import tracer as tr
import workloads
from reference import Reference, scale

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
SETUP_STARTS = 5
# Set-up is timed against a fresh interpreter that only imports what sddkit
# builds on; it took BARE_IMPORT_S seconds on the host the benchmark was
# tuned on.  Work the program adds to its own import or input reading still
# shows; the host's drift, which moves both, mostly cancels.
BARE_IMPORT = "import numpy, scipy.linalg; print('ready', flush=True)"
BARE_IMPORT_S = 0.45


def load_program():
    """Import ``sddkit`` from this checkout's ``src``, nowhere else."""
    init = SRC / "sddkit" / "__init__.py"
    if not init.is_file():
        print(f"error: program source not found: {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sddkit
    import sddkit.cli
    if Path(sddkit.__file__).resolve() != init.resolve():
        print(f"error: imported sddkit from {sddkit.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    return sddkit


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and ".so" in line})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def machine_record(loadavg) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": blas_threads(),
            "loadavg_start": list(loadavg)}


def run_call(cli, argv) -> tuple:
    """One CLI call with stdout captured; returns (stdout, exit code)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            rc = -1
    return buf.getvalue(), rc


class Passes:
    """Repeats the workload's calls and remembers each distinct stdout."""

    def __init__(self, cli, calls, name, reference):
        self.cli, self.calls, self.name = cli, calls, name
        self.reference = reference
        self.times = []          # per pass: measured seconds of each call
        self.refs = []           # per pass: kernel seconds around the calls
        self.scaled = []         # per pass: each call in reference seconds
        self.count = Counter()   # stdout signature of a pass -> passes
        self.first = {}          # stdout signature -> that pass's results

    def one(self, tracer=None) -> list:
        results, times, refs = [], [], [self.reference.time()]
        for k, call in enumerate(self.calls):
            if tracer is not None:
                tracer.workload = f"{self.name}/{len(self.times)}/{k}"
            t0 = perf_counter()
            results.append(run_call(self.cli, call.argv))
            times.append(perf_counter() - t0)
            refs.append(self.reference.time())
        self.times.append(times)
        self.refs.append(refs)
        ref = self.reference
        self.scaled.append(scale(times, refs, ref.nominal_s, ref.elasticity))
        sig = tuple(hashlib.sha256(out.encode()).hexdigest() for out, _ in results)
        self.count[sig] += 1
        self.first.setdefault(sig, results)
        return results

    def until(self, seconds: float, at_least: int) -> list:
        """Run passes for ``seconds`` and at least ``at_least`` times;
        return the scaled per-call times of the passes run."""
        before = len(self.times)
        end = perf_counter() + seconds
        while len(self.times) - before < at_least or perf_counter() < end:
            self.one()
        return self.scaled[before:]


def wall_estimate(times) -> float:
    """Seconds for one pass: the sum over calls of each call's median time.

    A per-call median ignores a stall that hits one call in a minority of
    passes, where the median of whole-pass sums of three passes would not.
    """
    return sum(statistics.median(column) for column in zip(*times))


def time_start(argv) -> float:
    """Seconds from starting ``argv`` until it prints its ``ready`` line."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up process {argv[1:]} failed (exit {rc})")
    return t1 - t0


def measure_setup(workload: str, seed: int) -> tuple:
    """Start-up seconds of ``SETUP_STARTS`` fresh set-up processes, and of
    the bare-import process started before, between and after them;
    returns (raw, refs)."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"]
    bare = [sys.executable, "-c", BARE_IMPORT]
    raw, refs = [], [time_start(bare)]
    for _ in range(SETUP_STARTS):
        raw.append(time_start(probe))
        refs.append(time_start(bare))
    return raw, refs


def judge(calls, passes: Passes) -> tuple:
    """(attempted, failed, wrong) over every pass run, from distinct stdouts."""
    attempted = failed = 0
    wrong = len(passes.first) > 1   # stdout must not change between passes
    for sig, results in passes.first.items():
        verdicts = [v for vs in checker.check_pass(calls, results) for v in vs]
        attempted += len(verdicts) * passes.count[sig]
        failed += sum(v != checker.OK for v in verdicts) * passes.count[sig]
        wrong = wrong or checker.WRONG in verdicts
    return attempted, failed, wrong


def traced_metrics(pkg, passes: Passes, seconds: float, out_base: Path) -> dict:
    """Untraced passes for half the time, then traced ones; per-layer metrics."""
    untraced = passes.until(seconds / 2, 2)
    tracer = tr.Tracer(pkg)
    tracer.install()
    per_pass, traced = [], []
    try:
        end = perf_counter() + seconds / 2
        while len(per_pass) < 2 or perf_counter() < end:
            start = len(tracer.spans)
            tracer.counters.clear()
            results = passes.one(tracer)
            traced.append(passes.scaled[-1])
            nbytes = sum(len(out.encode()) for out, _ in results)
            per_pass.append(tr.pass_metrics(tracer.spans[start:], tracer.counters,
                                            nbytes, offset=start))
    finally:
        tracer.uninstall()
    solve_ms = [1e3 * (t1 - t0) for name, t0, t1, *_ in tracer.spans
                if name == "retina.solve_retina"]
    overhead = wall_estimate(traced) / wall_estimate(untraced) - 1.0
    metrics = tr.summarize(per_pass, solve_ms, overhead)
    tracer.write(str(out_base) + ".spans.jsonl")
    return {m: {"value": v, "unit": tr.unit(m)} for m, v in metrics.items()}


def setup_probe(args) -> int:
    """The measured set-up of one fresh process: import, then write inputs."""
    load_program()
    workdir = HERE / "_work" / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.build(args.workload, args.seed, str(workdir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args) -> int:
    loadavg = os.getloadavg()
    pkg = load_program()
    from sddkit import cli

    machine = machine_record(loadavg)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_base = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    setup_raw = setup_refs = None
    try:
        calls = workloads.build(args.workload, args.seed, str(workdir))
        reference = Reference(*workloads.REFERENCE[args.workload])
        passes = Passes(cli, calls, f"{args.workload}:{args.seed}", reference)
        if args.trace:
            metrics = traced_metrics(pkg, passes, args.seconds, out_base)
        else:
            setup_raw, setup_refs = measure_setup(args.workload, args.seed)
            passes.until(args.seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, wrong = judge(calls, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        setup = scale(setup_raw, setup_refs, BARE_IMPORT_S)
        metrics = {
            "wall_s": {"value": wall_estimate(passes.scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes.times)} operations/pass={attempted // len(passes.times)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "call_times_s": passes.times,
        "call_times_ref_s": passes.scaled, "reference_s": passes.refs,
        "setup_times_s": setup_raw, "setup_reference_s": setup_refs,
        "stdout_sha256": [
            {"call": " ".join(Path(a).name for a in c.argv),
             "sha256": sorted({sig[k] for sig in passes.first})}
            for k, c in enumerate(calls)],
        "stdout_stable": len(passes.first) == 1,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / (out_base.name + ".json")).write_text(
        json.dumps(dict(record, result=result), indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one JSON line of all results."""
    table = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(table), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
