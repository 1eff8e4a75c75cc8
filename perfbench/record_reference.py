#!/usr/bin/env python3
"""Record reference.json: digests of every item that has a `ref_key`.

Run from the root of a checkout whose results are trusted:

    python3 perfbench/record_reference.py --seeds 0-31

Seed-independent items (the fixed alphas of warnock_large, farey_sweep's
exact sweep) are recorded once; seeded ones once per seed.  Existing
entries are kept, so the table only grows.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, SRC, _digest

NAMES = ("warnock_large", "farey_sweep", "levy_sample")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-31", help="first-last, inclusive")
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    sys.path.insert(0, str(SRC))
    import workloads

    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in NAMES:
        table = ref.setdefault(name, {})
        for seed in range(first, last + 1):
            for item in workloads.make(name, seed).items():
                if item.ref_key and item.ref_key not in table:
                    table[item.ref_key] = _digest(item.fn()[1])
                    print(name, item.ref_key, table[item.ref_key], flush=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
