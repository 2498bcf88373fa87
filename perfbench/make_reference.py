"""Regenerate ``reference.json``, the large-ensemble means the gates of
``ssa_ring32`` and ``pdmp_gene`` compare against.

    python3 perfbench/make_reference.py --commit <git hash of the library>

The reference seed lies above 2**32, outside the range of the
per-iteration seeds the benchmark derives, so reference and benchmark
streams never coincide. Regenerate only when the model texts, sizes or
grid times in ``workloads.py`` change, and from a commit whose results
are trusted.
"""

from __future__ import annotations

import argparse
import json

import env

env.bootstrap()

import numpy as np  # noqa: E402

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

REFERENCE_SEED = 2 ** 32 + 1
RING_REPLICAS = 200
GENE_REPLICAS = 20000


def _summary(stats, labels):
    out = {"times": [float(t) for t in stats.grid], "replicas": stats.replicas}
    names = list(stats.observables)
    se = stats.standard_error()
    for label in labels:
        o = names.index(label)
        out[label] = {"mean": stats.mean[o].tolist(),
                      "sd": np.sqrt(stats.variance[o]).tolist(),
                      "se": se[o].tolist()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True)
    args = ap.parse_args(argv)

    ring, gene = WORKLOADS["ssa_ring32"], WORKLOADS["pdmp_gene"]
    ctx = ring.setup({"replicas": RING_REPLICAS}, REFERENCE_SEED)
    ring_ref = _summary(ring.run(ctx), ("A", "B"))
    ctx = gene.setup({"replicas": GENE_REPLICAS}, REFERENCE_SEED)
    gene_ref = _summary(gene.run(ctx), ("P",))
    payload = {"commit": args.commit, "seed": REFERENCE_SEED,
               "ssa_ring32": ring_ref, "pdmp_gene": gene_ref}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
