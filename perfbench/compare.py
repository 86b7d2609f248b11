"""Compare two benchmark results written by ``run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Both files come from ``.perfbench/<workload>-seed<n>-trace<t>.json``.
The comparison is refused (exit 2) unless both results are correct and
were measured on the same workload, trace mode and environment: Python
version and implementation, coverage backend, coverage-map
implementation, numpy version and core count.  The checkout path is
recorded but not compared: paths and crashes do not depend on it (see
``test_perfbench.py``), so a parent and a change may be measured from
different checkouts.  Prints each metric's base and new value and the
change as a share of the base.
"""

from __future__ import annotations

import json
import sys

#: environment keys a comparison may differ in
UNCOMPARED = ("checkout",)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def refusal(base: dict, new: dict):
    """Why *base* and *new* cannot be compared, or None."""
    for label, record in (("base", base), ("new", new)):
        if not record.get("correct"):
            return f"the {label} result failed its output checks"
    for key in ("workload", "trace", "seconds"):
        if base.get(key) != new.get(key):
            return f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}"
    keys = (set(base["environment"]) | set(new["environment"])) \
        - set(UNCOMPARED)
    for key in sorted(keys):
        if base["environment"].get(key) != new["environment"].get(key):
            return (f"environment {key} differs: "
                    f"{base['environment'].get(key)!r} vs "
                    f"{new['environment'].get(key)!r}")
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    reason = refusal(base, new)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    for name, entry in base["metrics"].items():
        old = entry["value"]
        value = new["metrics"].get(name, {}).get("value")
        if value is None:
            print(f"  {name:<40} {old:>14.4f} {'missing':>14}")
            continue
        change = (value - old) / old if old else 0.0
        print(f"  {name:<40} {old:>14.4f} {value:>14.4f} {change:>+8.1%} "
              f"{entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
