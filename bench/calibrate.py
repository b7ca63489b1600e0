"""A fixed amount of work that measures how fast the host runs right now.

    python3 calibrate.py

The benchmark runs this in a fresh interpreter before every pass and after
the last one.  It shares no code with qwick and does the kinds of work a
qwick process does: start an interpreter and import numpy, walk the
permutations of 7 slots counting inversions, build many small Kronecker
products, and round-trip a list of floats through JSON.  Its time from spawn
to exit changes only with the host, so passes can be scaled to a reference
host speed (see run.py).
"""

import itertools
import json

import numpy as np


def main() -> None:
    inversions = 0
    for p in itertools.permutations(range(7)):
        inversions += sum(1 for i in range(7) for j in range(i + 1, 7) if p[i] > p[j])
    assert inversions == 52920
    a, b = np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]])
    total = 0.0
    for _ in range(3000):
        total += float(np.kron(np.kron(a, b), a).sum())
    assert total == 18000.0
    values = [float(x) for x in range(60000)]
    assert json.loads(json.dumps(values)) == values


if __name__ == "__main__":
    main()
