"""Golden digests of sampled words, stdlib only.

Each entry is the sha256 of ``repr([w.letters for w in random_words(n,
count, seed)])``.  A seed's t-th word must never change: a faster draw has
to consume the generator exactly as before.  Run as a script, with the
package on the path, it checks every digest without a test runner and
exits nonzero on a mismatch::

    PYTHONPATH=src python tests/golden_words.py
"""

import hashlib
import sys

from lusztig_cones.spanning import random_words

GOLDEN = {
    (7, 150, 918273): "22b9ae3c11c237d35c4b6870543c99d8d1dbc783a7a7d902a513f318906a6e00",
    (12, 100, 918273): "5bd9974857704fe9752c373b5f815afcb70e9a897053915e295ce181c845c1b6",
    (16, 20, 1): "1ba1a67c5c53c7a7be8a1d3cd59b6d281158beb08cdd83ec1f9e065270886802",
}


def digest(n: int, count: int, seed: int) -> str:
    """The sha256 of the letters of ``random_words(n, count, seed)``."""
    letters = [w.letters for w in random_words(n, count, seed)]
    return hashlib.sha256(repr(letters).encode()).hexdigest()


def mismatches() -> list:
    """(n, count, seed, digest) for every entry of ``GOLDEN`` the sampler
    no longer reproduces."""
    return [key + (got,) for key, want in GOLDEN.items() if (got := digest(*key)) != want]


if __name__ == "__main__":
    bad = mismatches()
    for n, count, seed, got in bad:
        print(f"random_words({n}, {count}, {seed}): sha256 {got}, expected {GOLDEN[n, count, seed]}")
    print(f"{sys.version.split()[0]}: {len(GOLDEN) - len(bad)} of {len(GOLDEN)} golden samples match")
    sys.exit(bool(bad))
