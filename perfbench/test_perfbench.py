"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import pytest

import run
from tracing import PER_LAYER, Tracer, per_layer
from workloads import (
    ActiveLearning,
    Command,
    Data,
    Inputs,
    OutputError,
    Select,
    Sweep,
    check_curve,
    check_indices,
    gen_argv,
)

cli = run.import_subsel()

SMALL = (
    Select(Data(n=120, d=8, classes=3, sep=1.0), budget=12, kappa=5),
    Sweep(Data(n=90, d=8, classes=3, sep=1.0), step=25, seeds=(1, 2)),
    ActiveLearning(Data(n=90, d=8, classes=3, sep=1.0), rounds=2),
)


def make_runner(workload, tmp_path, seed=3):
    inputs = Inputs(tmp_path / "features.bin", tmp_path / "labels.txt", tmp_path)
    assert cli.main(gen_argv(workload.data, inputs, seed)) == 0
    return inputs, run.Runner(cli.main, workload.commands(inputs))


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_outputs_and_counts_match_untraced(workload, tmp_path):
    inputs, runner = make_runner(workload, tmp_path)
    runner.job()
    tracer = Tracer()
    for job in (1, 2):
        tracer.job = job
        tracer.install()
        try:
            runner.job(tracer)
        finally:
            tracer.uninstall()
    runner.job()
    # a traced job whose bytes differ from the untraced warm-up is a failure
    assert runner.failures == []
    assert runner.attempted == 4 * len(runner.commands)
    assert tracer.missing == []
    first, second = (per_layer(sums) for sums in tracer.job_sums().values())
    counts = [name for name, unit, _ in PER_LAYER if unit in ("count", "B", "ratio")
              and name != "trace_overhead"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["cli.self_s"] > 0
    assert workload.quality(inputs, runner.commands) > 0


def test_uninstall_restores_every_patched_name():
    import subsel.active
    import subsel.cli
    import subsel.objectives

    before = (subsel.cli.cosine_similarity, subsel.active.logreg_fit,
              subsel.objectives.FacilityLocation.__dict__["gain"])
    tracer = Tracer()
    tracer.install()
    assert subsel.cli.cosine_similarity is not before[0]
    assert subsel.active.logreg_fit is not before[1]
    tracer.uninstall()
    after = (subsel.cli.cosine_similarity, subsel.active.logreg_fit,
             subsel.objectives.FacilityLocation.__dict__["gain"])
    assert after == before


def test_changed_bytes_and_bad_exit_count_as_failures(tmp_path):
    _, runner = make_runner(SMALL[0], tmp_path)
    runner.job()
    runner.reference["dm"] = b"0\n"
    runner.commands.append(Command(
        "bad", ("select", "--features", str(tmp_path / "missing.bin"), "--objective", "fl",
                "--budget", "1", "--out", str(tmp_path / "bad.txt")),
        tmp_path / "bad.txt", None))
    runner.job()
    assert [f.split(":")[0] for f in runner.failures] == ["dm", "bad"]
    assert runner.attempted == 7


def test_output_checks(tmp_path):
    path = tmp_path / "idx.txt"
    path.write_text("3\n1\n2\n")
    assert check_indices(path, 3, 4) == [3, 1, 2]
    for text, budget, n in (("3\n1\n", 3, 4), ("3\n3\n2\n", 3, 4), ("3\n1\n4\n", 3, 4),
                            ("3\n1\n2", 3, 4), ("a\n", 1, 4)):
        path.write_text(text)
        with pytest.raises(OutputError):
            check_indices(path, budget, n)
    curve = tmp_path / "c.csv"
    curve.write_text("method,seed,x,labeled_count,accuracy\n"
                     "dm,0,50,5,0.500000\nfl,0,50,5,0.600000\n")
    assert len(check_curve(curve, [("dm", 0, 50.0), ("fl", 0, 50.0)])) == 2
    with pytest.raises(OutputError):
        check_curve(curve, [("fl", 0, 50.0), ("dm", 0, 50.0)])


def test_self_time_and_busy_time_from_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 9.0])
    tracer = Tracer(clock=lambda: next(ticks))
    # a [0, 9] holds b [1, 5], which holds a nested a [2, 3]
    tracer.call("a", tracer.call, "b", tracer.call, "a", lambda: None)
    sums = tracer.job_sums()[0]
    assert sums["a.s"] == 9.0 and sums["a.calls"] == 2
    assert sums["a.self_s"] == (9.0 - 4.0) + 1.0
    assert sums["b.s"] == 4.0 and sums["b.self_s"] == 3.0


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0, 10)
    assert run.tail(samples[:10]) == (10.0, 100.0, 0)


def test_measure_gives_every_dataset_both_kinds_of_job(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "timed_setup", lambda gens: 0.0)
    runners = []
    for k in range(3):
        (tmp_path / str(k)).mkdir()
        runners.append(make_runner(SMALL[0], tmp_path / str(k), seed=k)[1])
    plain, traced, ref, traced_dataset = run.measure(runners, 1e-9, True, Tracer(), [], [],
                                                     run.Reference())
    assert all(plain) and all(traced) and len(ref) == 6
    assert traced_dataset == {2: 0, 4: 1, 6: 2}
    assert [r.attempted for r in runners] == [2 * len(r.commands) for r in runners]
    assert all(r.failures == [] for r in runners)
    assert run.balanced_mean([[1.0, 1.0, 1.0], [3.0]]) == 2.0


def test_al_quality_is_not_saturated(tmp_path):
    """A worse fit must be able to lower the full-size al quality."""
    workload = run.WORKLOADS["al"]
    inputs, runner = make_runner(workload, tmp_path, seed=1)
    runner.job()
    assert runner.failures == []
    assert 0.5 < workload.quality(inputs, runner.commands) < 0.99

