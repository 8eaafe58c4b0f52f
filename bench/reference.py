"""A fixed reference workload, timed next to every pass so that the pass's
time can be divided by it.

    python3 bench/reference.py      # prints the number of permutations built

On a shared VM the speed at which the same code runs drifts by 20-40%
over minutes, because of other tenants.  The runner times this script from
spawn to exit right before and right after each pass, and divides the
pass's wall time by the mean of the two.  The drift then cancels, while a
change to the program still shows in full: the reference lives here, not
in `src/`, and runs in a process of its own, so the program cannot change
it.

It does the kind of work a pass does: a fresh interpreter builds tens of
thousands of permutations of 27 points as tuples, composing and hashing
them as `holomorph` does, and keeps them all (about 30 MB).  It walks the
Cayley graph of S_27 for three generators breadth first and stops after
the first level that brings the total to LIMIT or more.
"""

from __future__ import annotations

import sys

DEGREE = 27
LIMIT = 60000
EXPECTED = 66009          # permutations found by then; fixed by the walk


def build() -> int:
    gens = (tuple(range(1, DEGREE)) + (0,),           # a 27-cycle
            (1, 0) + tuple(range(2, DEGREE)),         # (0 1)
            (0, 2, 1) + tuple(range(3, DEGREE)))      # (1 2)
    seen = {tuple(range(DEGREE))}
    frontier = list(seen)
    while len(seen) < LIMIT:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return len(seen)


if __name__ == "__main__":
    print(build())
    sys.exit(0)
