#!/usr/bin/env python3
"""Count subgroups of (Z/n)^t and time the enumerator.

Useful when tuning the enumeration budget, which bounds both the
element count n^t and the subgroup count; the subgroup count is what
drives the enumerator's cost.  (The crys1 oracle walks the n^t
elements only and enumerates no subgroups.)  A group whose subgroups
exceed the budget is listed as refused.

    python scripts/subgroup_census.py [--max-elements N]
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crystor.abelian import ENUM_BUDGET_ENV, enumerate_subgroups
from crystor.errors import BudgetExceeded


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-elements", type=int, default=1 << 16,
                    help="skip pairs with n^t beyond this; also the "
                         "enumeration budget")
    args = ap.parse_args()
    # the environment is the budget's only source
    os.environ[ENUM_BUDGET_ENV] = str(args.max_elements)

    pairs = [(n, t)
             for t in (1, 2, 3, 4)
             for n in (2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 64)
             if n ** t <= args.max_elements]
    print(f"{'n':>4} {'t':>2} {'n^t':>8} {'subgroups':>10} {'seconds':>8}")
    for n, t in pairs:
        start = time.perf_counter()
        try:
            count = str(len(enumerate_subgroups(n, t)))
        except BudgetExceeded:
            count = "refused"
        elapsed = time.perf_counter() - start
        print(f"{n:>4} {t:>2} {n ** t:>8} {count:>10} {elapsed:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
