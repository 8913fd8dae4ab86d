"""Uncertainty scoring, the percentile filter, and the filter-then-select
active-learning loop.

Each round trains a classifier on the labeled pool, keeps the most
uncertain slice of the unlabeled pool as the selection ground set (any
element tied with the slice's last member is pulled in too), picks a
batch from that slice with the run's selector, and moves the batch
into the labeled pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dataset import (FeatureMatrix, LabeledDataset, largest_remainder_quota,
                      require_choice, require_indices, require_int, require_share,
                      stratified_draw)
from .errors import ValidationError
from .models import logreg_fit
from .optimize import OBJECTIVES, padded_order, select_subset

SELECTORS = OBJECTIVES + ("us", "random")
UNCERTAINTY = ("lc", "margin", "entropy")  # least confidence, margin, entropy


def ceil_pct(percent: float, count: int) -> int:
    """ceil(percent/100 * count), exact on the percentage's decimal digits."""
    return math.ceil(require_share(percent, "percent") * count / 100)


def _check_probabilities(p: np.ndarray):
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValidationError("probability vectors need at least two classes")
    if not ((p >= -1e-9) & (p <= 1 + 1e-9)).all():  # NaN fails both
        raise ValidationError("probabilities must lie in [0, 1]")
    if (np.abs(p.sum(axis=1) - 1.0) > 1e-9).any():
        raise ValidationError("probability vectors must sum to 1")


def uncertainty_scores(probs, method: str) -> np.ndarray:
    """Vectorized uncertainty of each row of a probability matrix."""
    p = np.asarray(probs, dtype=np.float64)
    _check_probabilities(p)
    require_choice(method, UNCERTAINTY, "uncertainty method")
    if method == "lc":
        return 1.0 - p.max(axis=1)
    if method == "margin":
        top2 = np.partition(p, p.shape[1] - 2, axis=1)[:, -2:]
        return 1.0 - (top2[:, 1] - top2[:, 0])
    terms = np.zeros_like(p)
    mask = p > 0.0
    terms[mask] = p[mask] * np.log2(p[mask])
    return -terms.sum(axis=1)


@dataclass(frozen=True)
class FilteredSet:
    """Filter output: pool indices in descending-uncertainty order."""

    indices: np.ndarray
    cutoff_value: float
    scores: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


def filter_uncertain(probs, unlabeled, beta_percent: float,
                     method: str) -> FilteredSet:
    """Keep the ceil(beta%) most uncertain elements plus exact-score ties.

    Ordering ties (distinct elements with equal uncertainty) sort by
    ascending pool index; every element whose uncertainty exactly equals
    the last base member's is appended.
    """
    U = np.asarray(unlabeled, dtype=np.int64)
    if U.size == 0:
        raise ValidationError("unlabeled pool is empty")
    require_share(beta_percent, "beta_percent")
    p = np.asarray(probs, dtype=np.float64)
    if p.shape[0] != U.size:
        raise ValidationError("one probability vector per unlabeled element required")
    scores = uncertainty_scores(p, method)
    order = np.lexsort((U, -scores))
    base = ceil_pct(beta_percent, U.size)
    cutoff = float(scores[order[base - 1]])
    keep = order[:base + np.count_nonzero(scores[order[base:]] == cutoff)]
    return FilteredSet(indices=U[keep], cutoff_value=cutoff, scores=scores[keep])


def select_batch(fset: FilteredSet, features: FeatureMatrix, selector: str,
                 batch_size: int, rng: Optional[np.random.Generator] = None) -> list[int]:
    """Choose min(batch_size, |set|) elements of the filtered set.

    fl and dm run select_subset over the set's rows, us takes the head
    of the uncertainty ordering, random draws uniformly without
    replacement from the supplied generator. A greedy that stops early on
    zero gains is padded to the full batch by padded_order.
    """
    batch_size = require_int(batch_size, "batch size", 1)
    require_choice(selector, SELECTORS, "selector")
    F = require_indices(fset.indices, features.n, "filtered-set", "feature-row count")
    if F.size <= batch_size:
        return [int(i) for i in F]
    if selector == "us":
        return [int(i) for i in F[:batch_size]]
    if selector == "random":
        if rng is None:
            raise ValidationError("random selector requires a seeded generator")
        picks = rng.choice(F.size, size=batch_size, replace=False)
        return [int(F[i]) for i in picks]
    sel = select_subset(FeatureMatrix(features.values[F]), selector, batch_size)
    return [int(F[i]) for i in padded_order(sel, F.size, batch_size)]


@dataclass(frozen=True)
class ALConfig:
    """Loop parameters shared by every arm of a run: batch percent of the
    full pool, filter percent of the unlabeled pool, rounds, scoring method."""

    B_percent: float
    beta_percent: float
    rounds: int
    method: str = "entropy"
    initial_seed_size: Optional[int] = None

    def __post_init__(self):
        require_share(self.B_percent, "B_percent")
        require_share(self.beta_percent, "beta_percent")
        require_int(self.rounds, "rounds", 1)
        if self.initial_seed_size is not None:
            require_int(self.initial_seed_size, "initial seed size", 1)
        require_choice(self.method, UNCERTAINTY, "uncertainty method")


class RoundRecord(NamedTuple):
    round: int
    labeled_count: int
    accuracy: float


@dataclass(frozen=True)
class ALState:
    """The labeled pool, ascending int64 indices into the dataset, plus the
    accuracy history; the unlabeled pool is every other index."""

    labeled: np.ndarray
    history: tuple = ()


def initial_state(labels: np.ndarray, seed_size: int,
                  rng: np.random.Generator) -> ALState:
    """Stratified random seed pool of seed_size rows, from the class count to
    the pool size: proportional quotas, at least one per class."""
    n_classes = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=n_classes)
    seed_size = require_int(seed_size, "initial seed size", n_classes, labels.shape[0])
    labeled, _ = stratified_draw(labels, _proportional_quota(counts, seed_size), rng)
    return ALState(labeled=labeled)


def _proportional_quota(counts: np.ndarray, size: int) -> np.ndarray:
    quota = largest_remainder_quota(counts, size)
    # every populated class contributes at least one element
    labels = np.arange(counts.size)
    for c in np.flatnonzero((counts > 0) & (quota == 0)):
        donor = np.lexsort((labels, -np.where(quota > 1, quota, -1)))[0]
        quota[donor] -= 1
        quota[c] += 1
    return quota


def fass_round(state: ALState, ds: LabeledDataset, holdout: LabeledDataset,
               cfg: ALConfig, selector: str, rng: Optional[np.random.Generator] = None, *,
               _memo: Optional[dict] = None) -> ALState:
    """One loop round: fit, record accuracy, filter, select, label.

    The labeled pool must hold distinct indices in [0, ds.n); the round
    number is one more than the history's length. _memo is private to
    run_goal2, which shares one across the arms of one call over one ds,
    holdout and cfg: it maps each distinct labeled pool to its holdout
    accuracy and filtered set, so a pool met again is neither refit nor
    refiltered, and keeps no model. The returned state is the same with or
    without it.
    """
    require_choice(selector, SELECTORS, "selector")
    labeled = np.asarray(state.labeled, dtype=np.int64)
    left = np.ones(ds.n, dtype=bool)
    left[labeled[(labeled >= 0) & (labeled < ds.n)]] = False
    unlabeled = np.flatnonzero(left)
    if unlabeled.size + labeled.size != ds.n:  # an index out of range or repeated
        raise ValidationError(f"labeled pool indices must be distinct and in [0, {ds.n})")
    if unlabeled.size == 0:
        raise ValidationError("unlabeled pool is empty")
    _memo = {} if _memo is None else _memo
    pool = labeled.tobytes()
    if pool not in _memo:
        model = logreg_fit(ds.subset(labeled), n_classes=ds.n_classes)
        probs = model.predict_proba_batch(ds.features.values[unlabeled])
        _memo[pool] = (model.accuracy(holdout),
                       filter_uncertain(probs, unlabeled, cfg.beta_percent, cfg.method))
    accuracy, fset = _memo[pool]
    record = RoundRecord(len(state.history) + 1, int(labeled.size), accuracy)
    batch_size = min(ceil_pct(cfg.B_percent, ds.n), int(unlabeled.size))
    chosen = np.array(select_batch(fset, ds.features, selector, batch_size, rng),
                      dtype=np.int64)
    return ALState(np.sort(np.concatenate((labeled, chosen))), state.history + (record,))


def run_al(ds: LabeledDataset, holdout: LabeledDataset, cfg: ALConfig, selector: str,
           seed: int, *, _memo: Optional[dict] = None) -> list[RoundRecord]:
    """Run the loop for cfg.rounds rounds (fewer if the pool empties).

    The whole run is a pure function of its arguments; the seed, an integer
    >= 0, drives both the initial pool and any random selection draws.
    _memo is run_goal2's, handed to every fass_round.
    """
    rng = np.random.default_rng(require_int(seed, "seed", 0))
    batch_size = ceil_pct(cfg.B_percent, ds.n)
    seed_size = cfg.initial_seed_size
    if seed_size is None:
        seed_size = max(ds.n_classes, batch_size)
    state = initial_state(ds.labels.labels, seed_size, rng)
    for _ in range(cfg.rounds):
        if state.labeled.size == ds.n:
            break
        state = fass_round(state, ds, holdout, cfg, selector, rng, _memo=_memo)
    return list(state.history)
