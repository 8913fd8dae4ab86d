"""Experiment harness: subset-size sweeps, paired active-learning runs,
and deterministic CSV output.

Sweep curves for the greedy methods come from a single full-budget run
truncated per fraction, so the per-fraction subsets are nested prefixes.
The random baseline is redrawn independently per (fraction, seed). CSV
rows are sorted by (method, seed, x) and accuracies printed with six
decimals, making emitted files byte-stable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .active import ALConfig, run_al
from .dataset import LabeledDataset, atomic_open, round_half_up
from .errors import ValidationError
from .models import KnnConfig, knn_accuracy
from .optimize import OBJECTIVES, padded_order, select_subset

logger = logging.getLogger(__name__)

SWEEP_METHODS = OBJECTIVES + ("random",)
DETERMINISTIC_SEED = 0  # seed column value for methods that take no seed

CSV_HEADER = "method,seed,x,labeled_count,accuracy"


def _reject_repeats(what: str, items) -> None:
    """Raise a ValidationError naming the first item that occurs twice:
    a repeated arm would write a second copy of its CSV rows."""
    seen = set()
    for item in items:
        if item in seen:
            raise ValidationError(f"{what} {item!r} given more than once")
        seen.add(item)


@dataclass(frozen=True)
class SweepConfig:
    """Subset-size sweep: percentages, methods, random-arm seeds, kNN k."""

    fractions: tuple = tuple(range(5, 101, 5))
    methods: tuple = SWEEP_METHODS
    seeds: tuple = (1, 2, 3, 4, 5)
    k: int = 5

    def __post_init__(self):
        fr = tuple(self.fractions)
        if not fr or any(not (0 < p <= 100) for p in fr):
            raise ValidationError("fractions must lie in (0, 100]")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValidationError("fractions must be strictly increasing")
        unknown = set(self.methods) - set(SWEEP_METHODS)
        if unknown:
            raise ValidationError(f"unknown sweep methods: {sorted(unknown)}")
        object.__setattr__(self, "fractions", fr)
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        _reject_repeats("sweep method", self.methods)
        _reject_repeats("sweep seed", self.seeds)


@dataclass(frozen=True)
class CurveRecord:
    """One point of an accuracy curve (x is a fraction or a round)."""

    method: str
    seed: int
    x: float
    labeled_count: int
    accuracy: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValidationError(f"accuracy out of [0,1]: {self.accuracy}")


def selection_order(train: LabeledDataset, method: str) -> np.ndarray:
    """Full-budget greedy ordering of the training set for fl or dm.

    If the greedy stops early on zero gains, the remaining indices follow
    in ascending order (see padded_order).
    """
    sel = select_subset(train.features, method, train.n)
    return padded_order(sel, train.n, train.n)


def sweep_goal1(train: LabeledDataset, holdout: LabeledDataset,
                cfg: SweepConfig = SweepConfig()) -> list[CurveRecord]:
    """Accuracy of kNN trained on growing subsets of the training pool;
    a fraction whose budget is below k is skipped with a warning."""
    knn_cfg = KnnConfig(cfg.k)
    orders = {m: selection_order(train, m) for m in cfg.methods if m != "random"}
    records: list[CurveRecord] = []
    for p in cfg.fractions:
        budget = round_half_up(p / 100 * train.n)
        if budget < cfg.k:
            logger.warning("fraction %s%% rounds to a budget of %d, below k=%d, "
                           "for n=%d; skipped", p, budget, cfg.k, train.n)
            continue
        for method in cfg.methods:
            if method == "random":
                for seed in cfg.seeds:
                    rng = np.random.default_rng([int(seed), int(p)])
                    subset = np.sort(rng.choice(train.n, size=budget, replace=False))
                    acc = knn_accuracy(train.subset(subset), holdout, knn_cfg)
                    records.append(CurveRecord("random", int(seed), p, budget, acc))
            else:
                subset = orders[method][:budget]
                acc = knn_accuracy(train.subset(subset), holdout, knn_cfg)
                records.append(CurveRecord(method, DETERMINISTIC_SEED, p, budget, acc))
    return records


def summarize_random(records: Iterable[CurveRecord]) -> dict[float, float]:
    """Mean random-arm accuracy per x value (for human-readable summaries)."""
    by_x: dict[float, list[float]] = {}
    for r in records:
        if r.method == "random":
            by_x.setdefault(r.x, []).append(r.accuracy)
    return {x: float(np.mean(v)) for x, v in sorted(by_x.items())}


def run_goal2(train: LabeledDataset, holdout: LabeledDataset,
              cfgs: Sequence[ALConfig]) -> list[CurveRecord]:
    """One active-learning curve per config.

    Configs must agree on the round count and may not repeat a (selector,
    seed) pair; pairing comes from sharing seeds across selectors, which
    pins the initial labeled pool per seed.
    """
    if not cfgs:
        raise ValidationError("at least one active-learning config required")
    if len({c.rounds for c in cfgs}) != 1:
        raise ValidationError("all active-learning configs must share the round count")
    _reject_repeats("active-learning (selector, seed)",
                    [(c.selector, int(c.seed)) for c in cfgs])
    records: list[CurveRecord] = []
    for cfg in cfgs:
        for rec in run_al(train, holdout, cfg):
            records.append(CurveRecord(cfg.selector, int(cfg.seed), rec.round,
                                       rec.labeled_count, rec.accuracy))
    return records


def emit_csv(records: Iterable[CurveRecord], path) -> None:
    """Write records sorted by (method, seed, x); output is byte-stable.

    The file is replaced atomically: if any row fails, path is untouched.
    """
    rows = sorted(records, key=lambda r: (r.method, r.seed, r.x))
    try:
        with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(f"{r.method},{r.seed},{r.x:g},{r.labeled_count},"
                         f"{r.accuracy:.6f}\n")
    except OSError as exc:
        raise OSError(f"cannot write curve file {path}: {exc}") from exc


def parse_csv(path) -> list[CurveRecord]:
    """Read a file written by emit_csv back into records."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"{path}: missing curve header")
    records = []
    for line in lines[1:]:
        method, seed, x, labeled, acc = line.split(",")
        records.append(CurveRecord(method, int(seed), float(x), int(labeled),
                                   float(acc)))
    return records
