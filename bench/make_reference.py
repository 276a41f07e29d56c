"""Record bench/reference.json from the current library, for seed 0.

    python3 bench/make_reference.py

The matchdist entries are the certified intervals of each pinned pair;
they hold for every ``--seed`` because the seed only applies symmetries
of the distance.  The exact-cellular entry holds the exact per-line
distances and a grid of Hilbert dimensions for the seed-0 complexes.
Re-record only when the benchmark's fixtures change, never to make a
failing check pass.
"""
from __future__ import annotations

import json

from run import HERE, load_library
from workloads import WORKLOADS, hilbert_table

SEED = 0


def main() -> None:
    mods = load_library()
    doc = {}
    for name, workload in WORKLOADS.items():
        fixtures = workload.build(mods, SEED)
        if name == "exact-cellular":
            entries = []
            for fx in fixtures:
                out = workload.op(mods, fx)
                entries.append({"values": {k: str(v) for k, v in out["values"].items()},
                                "hilbert": hilbert_table(mods, out["presentations"])})
            doc[name] = {"seed": SEED, "fixtures": entries}
        else:
            doc[name] = {fx.name: {pk: [float(r["lower"]), float(r["upper"])]
                                   for pk, r in workload.op(mods, fx).items()}
                         for fx in fixtures}
        print(f"{name}: {len(fixtures)} fixtures", flush=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
