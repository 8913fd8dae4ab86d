"""subsel benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload {select,sweep,al} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Set-up generates the workload's DATASETS input datasets, each from
its own sub-seed of ``--seed``, with ``subsel gen-synth`` in a fresh
interpreter process, timed from process start to exit. Then one process runs
a closed loop of jobs, each a list of CLI calls through
``subsel.cli.main(argv)`` on one dataset, taking the datasets in turn, for
``--seconds`` seconds after one untimed warm-up job. Every output is checked,
and every repeat job on a dataset must write the same bytes as the first.
Set-up is timed again between jobs, at even intervals over the loop, and
``setup_s`` is the median of all set-ups: the host's speed drifts over tens
of seconds, and set-ups taken back to back would all land in one stretch of
it.

A fixed reference workload that does not touch subsel is timed after every
job, and the end-to-end times are scaled to the host's nominal speed by it
(see reference.py); the measured times stay in the record.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
dataset's jobs in pairs, one untraced and one traced, and reports the
per-layer metrics of the traced ones (per dataset the median over its jobs,
then the mean over datasets) plus ``trace_overhead``, the ratio of the
traced to the untraced job time. The last line of standard output is one
JSON object; the full record (environment, output digests, samples,
failures) and, for traced runs, the spans go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
from reference import NOMINAL_S, Reference  # noqa: E402
from tracing import PER_LAYER, Tracer, per_layer  # noqa: E402
from workloads import DATASETS, WORKLOADS, Inputs, OutputError, gen_argv  # noqa: E402

SETUP_REPEATS = 15
TAIL_BEYOND = 10

# Runs in a fresh interpreter: import subsel from src, then gen-synth once per
# argument list of the JSON list in argv[2].
_SETUP_SNIPPET = ("import json, sys; sys.path.insert(0, sys.argv[1]); import subsel.cli; "
                  "raise SystemExit(max([subsel.cli.main(a) for a in json.loads(sys.argv[2])]))")


class SetupError(Exception):
    """The program cannot be imported or its inputs cannot be generated."""


def import_subsel():
    """Import subsel from this checkout's src/, refusing any other copy."""
    package = SRC / "subsel"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no subsel package at {package}")
    sys.path.insert(0, str(SRC))
    import subsel.cli

    if Path(subsel.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported subsel from {subsel.__file__}, not {package}")
    return subsel.cli


def timed_setup(gens: list[list[str]]) -> float:
    """Wall time of one fresh process that imports subsel and writes the inputs."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, str(SRC), json.dumps(gens)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=30, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(f"gen-synth exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return elapsed


class Runner:
    """Runs jobs of one workload and keeps the failure tally."""

    def __init__(self, cli_main, commands):
        self.cli_main = cli_main
        self.commands = commands
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, tracer: Tracer | None = None) -> float:
        """Run every command once; return the wall time of the calls alone."""
        for cmd in self.commands:  # a command that writes nothing must not pass
            cmd.out.unlink(missing_ok=True)
        codes = []
        start = time.perf_counter()
        for cmd in self.commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    if tracer is None:
                        code = self.cli_main(list(cmd.argv))
                    else:
                        code = tracer.call("cli", self.cli_main, list(cmd.argv))
                except Exception as exc:  # a crash is a failed operation, not a stop
                    code = f"{type(exc).__name__}: {exc}"
            codes.append((code, err.getvalue().strip()))
        elapsed = time.perf_counter() - start
        self._check(codes)
        return elapsed

    def _check(self, codes) -> None:
        first = self.reference is None
        if first:
            self.reference = {}
        for cmd, (code, err) in zip(self.commands, codes):
            self.attempted += 1
            if code != 0:
                self.failures.append(f"{cmd.name}: exit {code} {err}")
                continue
            try:
                data = cmd.out.read_bytes()
                if first:
                    cmd.check(cmd.out)
                    self.reference[cmd.name] = data
                elif data != self.reference.get(cmd.name):
                    raise OutputError(f"{cmd.out.name}: bytes differ from the first job")
            except (OSError, OutputError) as exc:
                self.failures.append(f"{cmd.name}: {exc}")

    def digests(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in (self.reference or {}).items()}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, beyond).

    With TAIL_BEYOND samples or fewer this is the maximum, with none beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based rank of the value
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numba_importable() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "subsel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed: int, data_seeds: list[int]) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "numba_importable": numba_importable(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload.name,
        "seed": seed,
        "data_seeds": data_seeds,
        "sizes": workload.params(),
    }


def measure(runners: list[Runner], seconds: float, traced: bool, tracer: Tracer,
            gens: list[list[str]], setup: list[float], ref_work: Reference):
    """Closed loop for `seconds`, taking the datasets in turn.

    Untraced, each job moves on to the next dataset. Traced, each dataset
    gets two jobs in a row, the second one traced, so both kinds cover the
    same datasets. The loop ends at the deadline once every dataset has had
    each kind of job. The reference work is timed after every job. Between
    jobs, set-up is timed again until `setup` holds SETUP_REPEATS samples,
    spread evenly over the loop.

    Returns the untraced and traced job times per dataset, the reference
    times, and the dataset of each traced job number.
    """
    plain = [[] for _ in runners]
    with_trace = [[] for _ in runners]
    traced_dataset = {}
    ref = []
    start = time.perf_counter()
    deadline = start + seconds
    job = 0
    while True:
        job += 1
        k = ((job - 1) // 2 if traced else job - 1) % len(runners)
        if traced and job % 2 == 0:
            tracer.job = job
            traced_dataset[job] = k
            tracer.install()
            try:
                with_trace[k].append(runners[k].job(tracer))
            finally:
                tracer.uninstall()
        else:
            plain[k].append(runners[k].job())
        ref.append(ref_work.time())
        now = time.perf_counter()
        if len(setup) < SETUP_REPEATS and now >= start + seconds * len(setup) / SETUP_REPEATS:
            setup.append(timed_setup(gens))
        if now >= deadline and all(plain) and (not traced or all(with_trace)):
            while len(setup) < SETUP_REPEATS:
                setup.append(timed_setup(gens))
            return plain, with_trace, ref, traced_dataset


def balanced_mean(groups: list[list[float]]) -> float:
    """Mean of the per-dataset means, so that each dataset weighs the same."""
    return statistics.fmean(statistics.fmean(group) for group in groups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    data_seeds = [args.seed * DATASETS + k for k in range(DATASETS)]
    inputs = [Inputs(features=WORK / f"{workload.name}-data{s}" / "features.bin",
                     labels=WORK / f"{workload.name}-data{s}" / "labels.txt",
                     outdir=WORK / tag / f"data{s}") for s in data_seeds]
    try:
        cli = import_subsel()
        for inp in inputs:
            inp.outdir.mkdir(parents=True, exist_ok=True)
            inp.features.parent.mkdir(parents=True, exist_ok=True)
        gens = [gen_argv(workload.data, inp, s) for inp, s in zip(inputs, data_seeds)]
        setup = [timed_setup(gens)]
    except (SetupError, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    runners = [Runner(cli.main, workload.commands(inp)) for inp in inputs]
    tracer = Tracer()
    ref_work = Reference()
    runners[0].job()  # warm-up: fills caches and records the first dataset's outputs
    ref_work.time()  # warm-up of the reference work too
    origin = time.perf_counter()
    try:
        plain, with_trace, ref, traced_dataset = measure(
            runners, args.seconds, bool(args.trace), tracer, gens, setup, ref_work)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(r.attempted for r in runners)
    failures = [f"data{s} {f}" for s, r in zip(data_seeds, runners) for f in r.failures]
    # scored from the last job's files, which match the checked first bytes
    quality = 0.0 if failures else statistics.fmean(
        workload.quality(inp, r.commands) for inp, r in zip(inputs, runners))
    digests = {f"data{s}/{name}": digest for s, r in zip(data_seeds, runners)
               for name, digest in r.digests().items()}
    outputs_digest = hashlib.sha256("".join(digests.values()).encode()).hexdigest()

    # Seconds per job is a mean, the reciprocal of the loop's throughput, with
    # each dataset weighing the same. The host alternates between speed phases
    # up to 1.5x apart and tens of seconds long; a median of one run flips
    # between the two speeds, a mean moves only in proportion to the time spent
    # in each. Times are quoted at the host's nominal speed: see reference.py.
    speed = NOMINAL_S / statistics.fmean(ref)
    raw_job_s = balanced_mean(plain)
    samples = [t for group in plain for t in group]
    raw_tail_s, tail_pct, tail_beyond = tail(samples)
    job_s, tail_s = raw_job_s * speed, raw_tail_s * speed
    raw_setup_s = statistics.median(setup)
    record = {
        "environment": environment(workload, args.seed, data_seeds),
        "host_speed": speed,
        "reference_s_samples": ref,
        "setup_s_samples": setup,
        "raw_setup_s": raw_setup_s,
        "job_s_samples": plain,
        "raw_job_s": raw_job_s,
        "job_s_median": statistics.median(samples) * speed,
        "job_s_tail": {"value": tail_s, "raw": raw_tail_s, "percentile": tail_pct,
                       "beyond": tail_beyond},
        "attempted": attempted,
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "outputs_sha256": outputs_digest,
        "digests": digests,
    }
    if args.trace:
        sums = tracer.job_sums()
        layers = [[per_layer(sums[job]) for job in sorted(sums) if traced_dataset[job] == k]
                  for k in range(DATASETS)]
        metrics = {name: statistics.fmean(statistics.median(job[name] for job in jobs)
                                          for jobs in layers)
                   for name, _, _ in PER_LAYER if name != "trace_overhead"}
        metrics["trace_overhead"] = balanced_mean(with_trace) / raw_job_s
        units = {name: unit for name, unit, _ in PER_LAYER}
        record["traced_job_s_samples"] = with_trace
        record["untraced_targets"] = tracer.missing
        record["per_layer_jobs"] = layers
        spans_path = WORK / f"{tag}.spans.jsonl"
        tracer.write(spans_path, origin)
        record["spans"] = str(spans_path.relative_to(ROOT))
        lines = [f"{name:38s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    else:
        metrics = {"setup_s": raw_setup_s * speed, "job_s": job_s, "job_s_tail": tail_s,
                   "peak_rss_mb": peak_rss_mb, "quality": quality}
        units = {"setup_s": "s", "job_s": "s", "job_s_tail": "s", "peak_rss_mb": "MB",
                 "quality": "score"}
        notes = {"setup_s": f"median of {len(setup)} set-ups, measured {raw_setup_s:.6g} s",
                 "job_s": f"mean of {len(samples)} jobs on {DATASETS} datasets, "
                          f"median {record['job_s_median']:.6g} s, measured {raw_job_s:.6g} s",
                 "job_s_tail": f"p{tail_pct:.1f}, {tail_beyond} jobs beyond, "
                               f"measured {raw_tail_s:.6g} s",
                 "peak_rss_mb": "ru_maxrss", "quality": "higher is better"}
        lines = [f"{name:12s} {value:.6g} {units[name]}  ({notes[name]})"
                 for name, value in metrics.items()]
        lines.append(f"{'error_rate':12s} {record['error_rate']:.6g} ratio"
                     f"  ({len(failures)} of {attempted} commands)")
        lines.append(f"times at nominal host speed; this run's host ran at {speed:.4g} of it "
                     f"(reference work {statistics.fmean(ref):.4g} s, nominal {NOMINAL_S} s)")
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    record_path = WORK / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    timed = len(samples) + sum(map(len, with_trace))
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{timed} timed jobs after 1 warm-up")
    for line in lines:
        print(line)
    print(f"sha256 of all outputs: {outputs_digest} (per file in the record)")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
