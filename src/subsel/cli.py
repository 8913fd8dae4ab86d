"""Command-line interface: gen-synth, select, sweep, and al subcommands.

All configuration comes from flags; there are no environment-variable
overrides. Selection indices are written one per line in selection
order; curve files use the harness CSV schema.
"""

from __future__ import annotations

import argparse
import sys

from .active import UNCERTAINTY, ALConfig
from .dataset import (
    atomic_open,
    gen_synthetic,
    load_dataset,
    load_features,
    require_int,
    require_share,
    save_features,
    save_labels,
    split,
)
from .errors import SubsetSelectionError
from .harness import (
    emit_csv,
    run_goal2,
    summarize_random,
    sweep_goal1,
)
# unused here; perfbench's tracer test checks that it restores this name
from .kernels import cosine_similarity  # noqa: F401
from .optimize import OBJECTIVES, select_subset


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsel",
        description="Subset selection and filter-then-select active learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="write a synthetic labeled dataset")
    g.add_argument("--out", required=True, help="feature file to write")
    g.add_argument("--labels", required=True, help="label file to write")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--sep", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)

    s = sub.add_parser("select", help="select a subset of a feature file")
    s.add_argument("--features", required=True)
    s.add_argument("--objective", choices=OBJECTIVES, required=True)
    s.add_argument("--budget", type=int, required=True)
    s.add_argument("--knn-sparsify", type=int, default=None, metavar="KAPPA")
    s.add_argument("--out", required=True)

    w = sub.add_parser("sweep", parents=[_split_parser()],
                       help="kNN accuracy versus subset size")
    w.add_argument("--methods", default="fl,dm,random")
    w.add_argument("--step", type=int, default=5)
    w.add_argument("--k", type=int, default=5)

    a = sub.add_parser("al", parents=[_split_parser()],
                       help="paired active-learning comparison")
    a.add_argument("--selectors", default="fl,dm,us,random")
    a.add_argument("--uncertainty", choices=UNCERTAINTY, default="entropy")
    a.add_argument("--batch-pct", type=float, required=True)
    a.add_argument("--beta-pct", type=float, required=True)
    a.add_argument("--rounds", type=int, required=True)
    a.add_argument("--seed-size", type=int, default=None)
    return parser


def _cmd_gen_synth(args) -> int:
    ds = gen_synthetic(args.n, args.d, args.classes, args.sep, args.seed)
    save_features(ds.features, args.out)
    save_labels(ds.labels, args.labels)
    print(f"wrote {ds.n}x{ds.features.d} features to {args.out}, "
          f"{ds.n_classes}-class labels to {args.labels}")
    return 0


def _cmd_select(args) -> int:
    features = load_features(args.features)
    selection = select_subset(features, args.objective, args.budget,
                              kappa=args.knn_sparsify)
    with atomic_open(args.out, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i}\n" for i in selection.indices))
    print(f"selected {len(selection.indices)} of {features.n} "
          f"(objective value {selection.final_value:g}) -> {args.out}")
    return 0


def _split_parser() -> argparse.ArgumentParser:
    """sweep's and al's shared flags: what _split_from_args reads, --seeds, --out."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--holdout-frac", type=float, required=True)
    p.add_argument("--seeds", type=_int_list, default=[1, 2, 3, 4, 5])
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument("--out", required=True)
    return p


def _split_from_args(args):
    require_share(args.holdout_frac, "--holdout-frac", whole=1)
    ds = load_dataset(args.features, args.labels)
    return split(ds, args.holdout_frac, args.split_seed, stratified=not args.no_stratify)


def _cmd_sweep(args) -> int:
    require_int(args.step, "--step", 1, 100)
    require_int(args.k, "--k", 1)
    train, holdout = _split_from_args(args)
    methods = args.methods.split(",")
    records = sweep_goal1(train, holdout, range(args.step, 101, args.step), methods,
                          args.seeds, args.k)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    if "random" in methods:
        for x, mean in summarize_random(records).items():
            print(f"random mean accuracy at {x:g}%: {mean:.6f}")
    return 0


def _cmd_al(args) -> int:
    require_share(args.batch_pct, "--batch-pct")
    require_share(args.beta_pct, "--beta-pct")
    require_int(args.rounds, "--rounds", 1)
    if args.seed_size is not None:
        require_int(args.seed_size, "--seed-size", 1)
    cfg = ALConfig(B_percent=args.batch_pct, beta_percent=args.beta_pct, rounds=args.rounds,
                   method=args.uncertainty, initial_seed_size=args.seed_size)
    train, holdout = _split_from_args(args)
    selectors = args.selectors.split(",")
    records = run_goal2(train, holdout, cfg, selectors, args.seeds)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} rows ({len(selectors)} selectors x "
          f"{len(args.seeds)} seeds) to {args.out}")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "select": _cmd_select,
    "sweep": _cmd_sweep,
    "al": _cmd_al,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SubsetSelectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
