"""Write reference_counts.json: exact N(B) for every B in count-1w's band.

    python3 perfbench/reference.py

The band is 100000 <= B <= 101000.  The counts come from one
``counting.counts_upto`` enumeration at the top of the band, the point walk
that the brute oracle checks at small heights, and the file stores N(B0)
and the increments N(B) - N(B - 1).  ``count_torsor_fast`` is run at both
ends of the band as a cross-check before the file is written.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
B0, SPAN = 100_000, 1_000


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from e6cubic import counting

    upto = counting.counts_upto(B0 + SPAN)
    for B in (B0, B0 + SPAN):
        fast = counting.count_torsor_fast(B).count
        if fast != upto[B]:
            raise SystemExit(f"count_torsor_fast({B}) = {fast}, counts_upto gives {upto[B]}")
    doc = {
        "command": "python3 perfbench/reference.py",
        "B0": B0,
        "N0": upto[B0],
        "increments": [upto[B] - upto[B - 1] for B in range(B0 + 1, B0 + SPAN + 1)],
    }
    with open(os.path.join(HERE, "reference_counts.json"), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
