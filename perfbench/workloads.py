"""The three benchmark workloads: input sizes, the CLI commands of one job,
the checks on each command's output, and the quality score.

Every workload is a closed loop of jobs. A job is a fixed list of ``subsel``
CLI commands, each run through ``subsel.cli.main(argv)`` on the files of one
of DATASETS datasets that set-up generated with ``gen-synth``; the loop takes
the datasets in turn. The program sees only those files; the seed reaches it
only through them.

Why these workloads (sizes measured on a 2-core Xeon VM, numpy path):

- ``select`` stresses the dense-kernel layers on memory bandwidth: two
  shifted-cosine builds and one euclidean build of n x n float64, the
  per-row ``sparsify_knn`` loop, and a 10%-budget lazy greedy. n is just
  above ``optimize.EXACT_PAIR_THRESHOLD`` (2048), so dm seeds from the
  medoid. ``models`` and ``active`` never run.
- ``sweep`` is dominated by ``models.knn_accuracy``. It runs the
  full-budget (b = n) lazy greedy, with many heap refreshes, and the exact
  max-pair dm seed (n <= 2048): the other side of both choices that
  ``select`` makes.
- ``al`` is dominated by ``models.logreg_fit``: 32 fits of about 340
  gradient iterations each, all of which converge. The data (d=128, 8
  classes, sep 0.45) keeps holdout accuracy near 0.9, so ``quality`` and the
  output digest move when the fit gets worse, and the iteration count per
  job varies only about 8% (IQR) with the data seed. (At the criterion-6 data,
  d=16, 3 classes, sep 2.0, some seeds converge and others hit the
  2,000-iteration cap, which moves the job time twofold from seed to seed;
  at larger sep every fit hits the cap but accuracy is always 1.0.)
  Kernels and greedy run on filtered sets of about 70 rows: the
  overhead-bound side of the layers that ``select`` stresses on bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from statistics import fmean
from typing import Callable

# Datasets per run, dataset k of seed s drawn with gen-synth seed s * DATASETS + k.
# How much work a job does depends on its data: the time of one job varies
# from one dataset to the next by about 13% on al (the gradient iterations of
# its 32 fits), 9% on select and 7% on sweep. A run that averages over 16
# datasets keeps its job time from following the seed; each dataset still
# gets about two jobs in a 40-second run, so repeats are checked.
DATASETS = 16


class OutputError(Exception):
    """A command's output file is missing or malformed."""


@dataclass(frozen=True)
class Data:
    """Synthetic dataset parameters passed to ``subsel gen-synth``."""

    n: int
    d: int
    classes: int
    sep: float


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs and outputs."""

    features: Path
    labels: Path
    outdir: Path


@dataclass(frozen=True)
class Command:
    """One CLI call of a job, the file it writes, and that file's check."""

    name: str
    argv: tuple
    out: Path
    check: Callable[[Path], object]  # raises OutputError


def gen_argv(data: Data, inputs: Inputs, seed: int) -> list[str]:
    return ["gen-synth", "--out", str(inputs.features), "--labels", str(inputs.labels),
            "--n", str(data.n), "--d", str(data.d), "--classes", str(data.classes),
            "--sep", repr(data.sep), "--seed", str(seed)]


def check_indices(path: Path, budget: int, n: int) -> list[int]:
    """An index file holds exactly ``budget`` distinct in-range indices."""
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise OutputError(f"{path.name}: unreadable: {exc}") from exc
    if not text.endswith("\n"):
        raise OutputError(f"{path.name}: missing final newline")
    try:
        indices = [int(line) for line in text.split("\n")[:-1]]
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if len(indices) != budget:
        raise OutputError(f"{path.name}: {len(indices)} lines, expected {budget}")
    if len(set(indices)) != budget:
        raise OutputError(f"{path.name}: repeated indices")
    if min(indices) < 0 or max(indices) >= n:
        raise OutputError(f"{path.name}: index out of range for n={n}")
    return indices


def check_curve(path: Path, expected_keys: list) -> list:
    """A curve CSV parses back and has exactly the expected (method, seed, x) rows."""
    from subsel.errors import SubsetSelectionError
    from subsel.harness import parse_csv

    try:
        records = parse_csv(path)
    except (OSError, ValueError, SubsetSelectionError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    keys = [(r.method, r.seed, r.x) for r in records]
    if keys != expected_keys:
        raise OutputError(f"{path.name}: {len(keys)} rows, expected {len(expected_keys)} "
                          "in (method, seed, x) order")
    return records


class Select:
    """fl dense, fl kappa-sparse and dm selection on one feature file."""

    name = "select"

    def __init__(self, data=Data(n=2100, d=64, classes=10, sep=0.5), budget=210, kappa=25):
        self.data, self.budget, self.kappa = data, budget, kappa

    def params(self) -> dict:
        return {"data": vars(self.data), "budget": self.budget, "kappa": self.kappa}

    def commands(self, inputs: Inputs) -> list[Command]:
        def check(path):
            check_indices(path, self.budget, self.data.n)

        def select(name, *extra):
            out = inputs.outdir / f"{name}.txt"
            argv = ("select", "--features", str(inputs.features), *extra,
                    "--budget", str(self.budget), "--out", str(out))
            return Command(name, argv, out, check)

        return [select("fl", "--objective", "fl"),
                select("fl_sparse", "--objective", "fl", "--knn-sparsify", str(self.kappa)),
                select("dm", "--objective", "dm")]

    def quality(self, inputs: Inputs, commands: list[Command]) -> float:
        """Mean dense-cosine facility-location value / n of the two fl selections."""
        from subsel.dataset import load_features
        from subsel.kernels import cosine_similarity
        from subsel.objectives import facility_location_value

        kernel = cosine_similarity(load_features(inputs.features))
        return fmean(
            facility_location_value(kernel, check_indices(c.out, self.budget, self.data.n))
            / self.data.n
            for c in commands if c.name.startswith("fl"))


class Sweep:
    """kNN accuracy versus subset size for fl, dm and random."""

    name = "sweep"

    def __init__(self, data=Data(n=800, d=32, classes=10, sep=0.5), step=10,
                 seeds=(1, 2, 3), k=5):
        self.data, self.step, self.seeds, self.k = data, step, tuple(seeds), k

    def params(self) -> dict:
        return {"data": vars(self.data), "step": self.step, "seeds": list(self.seeds),
                "k": self.k, "holdout_frac": 0.33}

    def expected_keys(self) -> list:
        xs = [float(x) for x in range(self.step, 101, self.step)]
        keys = [(m, 0, x) for m in ("fl", "dm") for x in xs]
        keys += [("random", s, x) for s, x in product(self.seeds, xs)]
        return sorted(keys)

    def commands(self, inputs: Inputs) -> list[Command]:
        out = inputs.outdir / "sweep.csv"
        argv = ("sweep", "--features", str(inputs.features), "--labels", str(inputs.labels),
                "--holdout-frac", "0.33", "--methods", "fl,dm,random",
                "--step", str(self.step), "--k", str(self.k),
                "--seeds", ",".join(map(str, self.seeds)), "--out", str(out))
        keys = self.expected_keys()
        return [Command("sweep", argv, out, lambda path: check_curve(path, keys))]

    def quality(self, inputs: Inputs, commands: list[Command]) -> float:
        """Mean holdout accuracy over all fl and dm curve points."""
        records = check_curve(commands[0].out, self.expected_keys())
        return fmean(r.accuracy for r in records if r.method in ("fl", "dm"))


class ActiveLearning:
    """Paired filter-then-select active learning with four selectors."""

    name = "al"

    def __init__(self, data=Data(n=600, d=128, classes=8, sep=0.45), rounds=4,
                 selectors=("fl", "dm", "us", "random"), seeds=(1, 2)):
        self.data, self.rounds = data, rounds
        self.selectors, self.seeds = tuple(selectors), tuple(seeds)

    def params(self) -> dict:
        return {"data": vars(self.data), "rounds": self.rounds,
                "selectors": list(self.selectors), "seeds": list(self.seeds),
                "holdout_frac": 0.33, "batch_pct": 5, "beta_pct": 20,
                "uncertainty": "entropy"}

    def expected_keys(self) -> list:
        return sorted((m, s, float(r)) for m, s, r in
                      product(self.selectors, self.seeds, range(1, self.rounds + 1)))

    def commands(self, inputs: Inputs) -> list[Command]:
        out = inputs.outdir / "al.csv"
        argv = ("al", "--features", str(inputs.features), "--labels", str(inputs.labels),
                "--holdout-frac", "0.33", "--selectors", ",".join(self.selectors),
                "--uncertainty", "entropy", "--batch-pct", "5", "--beta-pct", "20",
                "--rounds", str(self.rounds), "--seeds", ",".join(map(str, self.seeds)),
                "--out", str(out))
        keys = self.expected_keys()
        return [Command("al", argv, out, lambda path: check_curve(path, keys))]

    def quality(self, inputs: Inputs, commands: list[Command]) -> float:
        """Mean holdout accuracy over all rounds of the fl and dm arms."""
        records = check_curve(commands[0].out, self.expected_keys())
        return fmean(r.accuracy for r in records if r.method in ("fl", "dm"))


WORKLOADS = {w.name: w for w in (Select(), Sweep(), ActiveLearning())}
