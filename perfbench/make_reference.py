"""Regenerate data/quad_binomial_hits.json, the search oracle.

For each field the file stores the full, unsharded quadratic-binomial sweep:
the candidate count and every hit index.  A shard (k, K) must report exactly
the stored hits congruent to k mod K.  The n = 6 sweep takes about a minute.

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pseudoplanar import GF2n, search_quad_binomials  # noqa: E402

FIELDS = ((4, 0x13), (6, 0x43))


def main() -> None:
    out = {}
    for n, modulus in FIELDS:
        result = search_quad_binomials(GF2n(n, modulus))
        out[f"{n}:{modulus:x}"] = {
            "total": result.space.total,
            "hits": sorted(result.hit_indices),
        }
    path = HERE / "data" / "quad_binomial_hits.json"
    path.write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
