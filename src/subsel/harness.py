"""Experiment harness: subset-size sweeps, paired active-learning runs,
and deterministic CSV output.

Sweep curves for the greedy methods come from a single full-budget run
truncated per fraction, so the per-fraction subsets are nested prefixes.
The random baseline is redrawn independently per (fraction, seed). All
subsets of a sweep are scored by one models.knn_subset_accuracies call,
which screens each holdout row's nearest training rows once and holds no
holdout x train array. CSV
rows are sorted by (method, seed, x) and accuracies printed with six
decimals, making emitted files byte-stable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .active import SELECTORS, ALConfig, run_al
from .dataset import (LabeledDataset, _read_text, atomic_open, require_choice, require_int,
                      require_share, round_half_up)
from .errors import ValidationError
from .kernels import cosine_norms
from .models import knn_subset_accuracies
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
                fractions: Iterable[float] = tuple(range(5, 101, 5)),
                methods: Iterable[str] = SWEEP_METHODS,
                seeds: Iterable[int] = (1, 2, 3, 4, 5), k: int = 5) -> list[CurveRecord]:
    """Accuracy of kNN trained on growing subsets of the training pool.

    fractions are strictly increasing percentages in (0, 100], methods
    distinct SWEEP_METHODS and seeds, the random arm's, distinct integers
    in [0, 2**32 - 1], all checked before any greedy order is built.
    A fraction p's budget is the exact share p/100 * n, as ceil_pct takes
    it, rounded half up. A fraction whose budget is below k is skipped
    with a warning; a sweep that would skip every fraction is an error.
    All subsets are scored by one knn_subset_accuracies call, which shares
    one screen of each holdout row's nearest training rows among them.
    """
    fractions, methods, seeds = tuple(fractions), tuple(methods), tuple(seeds)
    shares = [require_share(p, "sweep fraction") for p in fractions]
    if not shares or any(b <= a for a, b in zip(shares, shares[1:])):
        raise ValidationError("sweep fractions must be non-empty and strictly increasing")
    for method in methods:
        require_choice(method, SWEEP_METHODS, "sweep method")
    _reject_repeats("sweep method", methods)
    # one 32-bit word: a larger seed would spill into the stream's next word
    seeds = tuple(require_int(s, "sweep seed", 0, 2 ** 32 - 1) for s in seeds)
    _reject_repeats("sweep seed", seeds)
    if "random" in methods and not seeds:
        raise ValidationError("the random sweep method needs at least one seed")
    k = require_int(k, "k", 1)
    budgets = [round_half_up(q * train.n / 100) for q in shares]
    if budgets[-1] < k:
        raise ValidationError(f"every fraction's budget is below k={k} "
                              f"for training size {train.n}")
    orders = {m: selection_order(train, m) for m in methods if m != "random"}
    arms = []  # (method, seed, fraction, budget, subset), in record order
    for p, q, budget in zip(fractions, shares, budgets):
        if budget < k:
            logger.warning("fraction %s%% rounds to a budget of %d, below k=%d, "
                           "for n=%d; skipped", p, budget, k, train.n)
            continue
        # random stream [seed, p] if p is integral (any CLI step), else [seed, num, den]
        stream = [q.numerator] if q.denominator == 1 else [q.numerator, q.denominator]
        for method in methods:
            if method == "random":
                for seed in seeds:
                    rng = np.random.default_rng([seed, *stream])
                    subset = np.sort(rng.choice(train.n, size=budget, replace=False))
                    arms.append(("random", seed, p, budget, subset))
            else:
                arms.append((method, DETERMINISTIC_SEED, p, budget,
                             orders[method][:budget]))
    accs = knn_subset_accuracies(train, holdout, [arm[-1] for arm in arms], k)
    return [CurveRecord(method, seed, p, budget, acc)
            for (method, seed, p, budget, _), acc in zip(arms, accs)]


def summarize_random(records: Iterable[CurveRecord]) -> dict[float, float]:
    """Mean random-arm accuracy per x value (for human-readable summaries)."""
    by_x: dict[float, list[float]] = {}
    for r in records:
        if r.method == "random":
            by_x.setdefault(r.x, []).append(r.accuracy)
    return {x: float(np.mean(v)) for x, v in sorted(by_x.items())}


def run_goal2(train: LabeledDataset, holdout: LabeledDataset, cfg: ALConfig,
              selectors: Iterable[str], seeds: Iterable[int]) -> list[CurveRecord]:
    """One active-learning curve per (selector, seed) arm, all under cfg.

    selectors are distinct SELECTORS and seeds distinct integers >= 0, all
    checked before any fit; pairing comes from sharing seeds across
    selectors, which pins the initial labeled pool per seed. The arms share
    one memo (see fass_round) for the length of this call: each distinct
    labeled pool is fit, scored on the holdout and filtered once, so arms
    with a common seed share round 1. The records are those of calling
    run_al once per arm, for sel in selectors for seed in seeds.
    """
    selectors, seeds = tuple(selectors), tuple(require_int(s, "seed", 0) for s in seeds)
    if not selectors or not seeds:
        raise ValidationError("at least one active-learning selector and seed required")
    for sel in selectors:
        require_choice(sel, SELECTORS, "selector")
    _reject_repeats("selector", selectors)
    _reject_repeats("seed", seeds)
    if "fl" in selectors:  # fail on a zero row before any fit
        cosine_norms(train.features.values.astype(np.float64))
    memo: dict = {}
    return [CurveRecord(sel, seed, rec.round, rec.labeled_count, rec.accuracy)
            for sel in selectors for seed in seeds
            for rec in run_al(train, holdout, cfg, sel, seed, _memo=memo)]


def emit_csv(records: Iterable[CurveRecord], path) -> None:
    """Write records sorted by (method, seed, x); output is byte-stable.

    x is written with :g, or as its float's repr where :g would not read
    back as x. The file is replaced atomically: if any row fails, path is untouched.
    """
    rows = sorted(records, key=lambda r: (r.method, r.seed, r.x))
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            x = f"{r.x:g}"
            if float(x) != r.x:
                x = repr(float(r.x))
            fh.write(f"{r.method},{r.seed},{x},{r.labeled_count},{r.accuracy:.6f}\n")


def parse_csv(path) -> list[CurveRecord]:
    """Read a file written by emit_csv back into records."""
    lines = _read_text(Path(path), ValidationError).removesuffix("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValidationError(f"{path}: missing curve header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            method, seed, x, labeled, acc = line.split(",")
            records.append(CurveRecord(method, int(seed), float(x), int(labeled), float(acc)))
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return records
