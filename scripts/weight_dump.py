"""Print the weight kernel's answers on the fundamental weights as JSON.

For every kind of the Lie oracle tests (tests/test_lie_oracle.py, KINDS) and
every fundamental weight whose module has Weyl dimension at most 2000, print
the sorted weight system with multiplicities, min_weight_pairing at a fixed
coweight h and the brute-force minimum of mu(h) over the weight system.
Under "positive_roots", print the positive roots of every kind that cartan
accepts (ACCEPTED_KINDS there).  CI pins the output by its sha256.

Run from the repository root: python scripts/weight_dump.py > weights.json
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from orbdim.cartan import kind_name  # noqa: E402
from orbdim.liealg import build_root_system, min_weight_pairing, weight_system, weyl_dimension  # noqa: E402
from test_lie_oracle import ACCEPTED_KINDS, KINDS  # noqa: E402

MAX_DIM = 2000


def dump() -> dict:
    out = {}
    for kind in KINDS:
        rs = build_root_system(kind)
        h = tuple(Fraction((-1) ** j * (j + 1), 3) for j in range(rs.rank))
        entries = []
        for i in range(rs.rank):
            lam = tuple(int(i == j) for j in range(rs.rank))
            dim = weyl_dimension(rs, lam)
            if dim > MAX_DIM:
                continue
            ws = weight_system(rs, lam)
            entries.append({
                "highest": lam,
                "dim": dim,
                "weights": sorted(ws.items()),
                "min_pairing": str(min_weight_pairing(rs, lam, h)),
                "brute_min": str(min(rs.pair_weight_coweight(w, h) for w in ws)),
            })
        out[kind_name(kind)] = {"h": [str(x) for x in h], "modules": entries}
    out["positive_roots"] = {kind_name(kind): build_root_system(kind).positive_roots
                             for kind in ACCEPTED_KINDS}
    return out


if __name__ == "__main__":
    json.dump(dump(), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
