"""Golden JCT fingerprints: the hot path stays bit-identical.

Every optimisation of the hot path (``__slots__`` hot objects, the ECMP
decision cache, the incremental-share water-fill) is required to be
*bit-identical* to the historical implementation — not approximately
equal.  Two pinned scenarios, every scheduler, hashed with the same
blake2b-16 scheme as ``benchmarks/fingerprint_figures.py``: the constants
below were captured on the pre-overhaul tree, and any float divergence
anywhere in the hot path changes them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.common import ScenarioConfig, run_scenario


def fingerprint(payload: object) -> str:
    """Same scheme as benchmarks/fingerprint_figures.py."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()


#: Captured on the pre-overhaul tree (commit cf118a7 lineage); see
#: docs/performance.md for the recapture recipe.
GOLDEN = {
    "q-fbtao": {
        "aalo": "7e4f729a90ddce84f3bc7325ff7f3474",
        "baraat": "57932d1fbe49c570820d5b84e8b0382e",
        "gurita": "611250f574db3fbb606e7f1597447734",
        "pfs": "6c1315fc22e3b9628ec1735c3ea774ca",
        "stream": "0a7b657c14ebc1286945072cad811480",
    },
    "q-tpcds": {
        "aalo": "7244aa75fad3dc7093e392108099ee1c",
        "baraat": "f99c5c15f56d90da723e26a66a4c2510",
        "gurita": "02b394a8ef5244b254da22a855709716",
        "pfs": "3ac755bb7d08d6b0b65a9b92893835b4",
        "stream": "59ef80a0778b6139713f0586cfc01cd7",
    },
}

SCENARIOS = {
    "q-fbtao": ScenarioConfig(
        name="q-fbtao", structure="fb-tao", num_jobs=15, fattree_k=4, seed=7
    ),
    "q-tpcds": ScenarioConfig(
        name="q-tpcds", structure="tpcds", num_jobs=15, fattree_k=4, seed=7,
        arrival_mode="bursty",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_jct_fingerprints(scenario):
    outcome = run_scenario(SCENARIOS[scenario])
    got = {
        name: fingerprint(sorted(result.job_completion_times().items()))
        for name, result in outcome.results.items()
    }
    assert got == GOLDEN[scenario]
