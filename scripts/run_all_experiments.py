"""Run every paper experiment and score it against the paper's claims.

Every experiment and published value comes from the registry in
``repro.analysis.claims``; for each one this prints the summary lines and
each claim as ours, paper, error and tolerance:

    python scripts/run_all_experiments.py
    python scripts/run_all_experiments.py --section "figure 1"
    python scripts/run_all_experiments.py --list

Each experiment runs independently: one that raises prints its traceback
and the script continues.  The exit code is 1 if any driver failed or any
claim lies outside its tolerance, so CI sees a red run without one broken
driver masking the rest.  ``--section TEXT`` runs only the experiments whose
title contains TEXT (case-insensitive), letting CI run slices instead of
all-or-nothing.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from repro.analysis.claims import EXPERIMENTS, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--section", default=None, metavar="TEXT",
                        help="run only experiments whose title contains TEXT "
                             "(case-insensitive substring)")
    parser.add_argument("--list", action="store_true",
                        help="list experiment titles and exit")
    args = parser.parse_args(argv)

    if args.list:
        for experiment in EXPERIMENTS:
            print(experiment.title)
        return 0

    selected = [
        experiment
        for experiment in EXPERIMENTS
        if args.section is None or args.section.lower() in experiment.title.lower()
    ]
    if not selected:
        print(f"no experiment title contains {args.section!r}", file=sys.stderr)
        return 2

    print("DFX reproduction — experiment report")
    failures = []
    flagged = 0
    for experiment in selected:
        print()
        print(f"### {experiment.title}")
        try:
            flagged += report(experiment, experiment.driver())
        except Exception:
            failures.append(experiment.title)
            traceback.print_exc()
    if failures:
        print()
        print(f"{len(failures)} experiment(s) failed: {failures}", file=sys.stderr)
    if flagged:
        print(f"{flagged} claim(s) outside their tolerance", file=sys.stderr)
    return 1 if failures or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
