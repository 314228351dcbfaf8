"""Rewrite the golden digests in tests/golden/ (ml.json, fleet.json, classifiers.json).

The golden files pin behaviour across commits, so changing them must be
deliberate: this tool refuses to run without a reason, and appends that
reason to CHANGES.md together with the files whose digests moved.  Run
from the repository root:

    python tools/regen_golden.py --reason "why the pins move"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
GOLDEN_DIR = os.path.join(TESTS, "golden")
CHANGES = os.path.join(ROOT, "CHANGES.md")


def ml_golden():
    """The values ``tests/test_golden_ml.py`` pins."""
    from oracles import tree_lines
    from repro.ml import AdaBoostClassifier, RandomForestClassifier
    from repro.sensors import HumannessValidator
    from test_golden_ml import digest, fixed_data

    validator = HumannessValidator(seed=0).fit()
    (human_p, human_r), (non_p, non_r) = validator.evaluate(seed=1)
    X, y = fixed_data()
    forest = RandomForestClassifier(n_estimators=8, max_depth=6, seed=3).fit(X, y)
    boost = AdaBoostClassifier(n_estimators=8, base_max_depth=2, seed=3).fit(X, y)
    boost_lines = [float(w).hex() for w in boost.estimator_weights_]
    boost_lines += [line for tree in boost.estimators_ for line in tree_lines(tree) + ["--"]]
    return {
        "humanness_tree_sha256": digest(tree_lines(validator._tree)),
        "table6_humanness_pr": [human_p, human_r, non_p, non_r],
        "random_forest_sha256": digest(
            [line for tree in forest.estimators_ for line in tree_lines(tree) + ["--"]]
        ),
        "adaboost_sha256": digest(boost_lines),
    }


def fleet_golden():
    """The digests ``tests/test_golden_fleet.py`` pins."""
    from test_golden_fleet import report_digests, run_golden_fleet

    with tempfile.TemporaryDirectory() as state_root:
        _, report, _ = run_golden_fleet(state_root)
    return report_digests(report)


def classifiers_golden():
    """The values ``tests/test_golden_classifiers.py`` pins."""
    from test_golden_classifiers import classifiers_golden as values

    return values()


def write_golden(name, values):
    """Write one golden file; return whether its content changed."""
    path = os.path.join(GOLDEN_DIR, name)
    text = json.dumps(values, indent=2) + "\n"
    try:
        with open(path, encoding="utf-8") as handle:
            unchanged = handle.read() == text
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return not unchanged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reason", required=True, help="why the golden digests are regenerated"
    )
    args = parser.parse_args(argv)
    reason = " ".join(args.reason.split())
    if not reason:
        parser.error("--reason must not be empty")
    sys.path[:0] = [os.path.join(ROOT, "src"), TESTS]

    changed = [
        name
        for name, values in (
            ("ml.json", ml_golden()),
            ("fleet.json", fleet_golden()),
            ("classifiers.json", classifiers_golden()),
        )
        if write_golden(name, values)
    ]
    outcome = f"changed {', '.join(changed)}" if changed else "no digest changed"
    with open(CHANGES, "a", encoding="utf-8") as handle:
        handle.write(f"- Golden regen (`tools/regen_golden.py`, {outcome}): {reason}\n")
    print(f"golden regen: {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
