"""Property tests for the engine's unit-identity contract.

A unit's identity and cache key is :meth:`WorkUnit.fingerprint`.  The
parallel engine promises that it is a pure function of the unit —
stable across submission orderings and pool sizes, insensitive to how
the config's fields were supplied, unique across distinct units, and
colliding only for equal configurations.  Hypothesis hunts for
counterexamples.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ScenarioConfig
from repro.experiments.parallel import WorkUnit, canonical_config

#: Field strategies kept small enough to explore combinations densely.
CONFIG_KWARGS = {
    "name": st.sampled_from(["a", "b", "grid"]),
    "structure": st.sampled_from(["fb-tao", "tpcds"]),
    "num_jobs": st.integers(min_value=1, max_value=200),
    "topology": st.sampled_from(["fattree", "bigswitch"]),
    "fattree_k": st.sampled_from([4, 8, 16]),
    "num_hosts": st.sampled_from([0, 8, 16]),
    "arrival_mode": st.sampled_from(["uniform", "bursty"]),
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "offered_load": st.floats(
        min_value=0.1, max_value=5.0, allow_nan=False, allow_infinity=False
    ),
    "burst_size": st.integers(min_value=1, max_value=50),
}

configs = st.fixed_dictionaries(CONFIG_KWARGS).map(
    lambda kwargs: ScenarioConfig(**kwargs)
)
replicate_seeds = st.integers(min_value=0, max_value=2**31 - 1)
scheduler_sets = st.sampled_from(
    [("pfs", "gurita"), ("pfs", "baraat", "gurita"), ("gurita",)]
)


class TestDerivedSeeds:
    """The fingerprint as a function of the replicate seed and config.

    The fingerprint is the one value the engine derives from a unit's
    seed; these are the properties a per-unit derived value must have.
    """

    @given(config=configs, seed=replicate_seeds)
    def test_deterministic_across_calls(self, config, seed):
        unit = WorkUnit(config=config, seed=seed)
        assert unit.fingerprint() == unit.fingerprint()

    @given(
        kwargs=st.fixed_dictionaries(CONFIG_KWARGS),
        seed=replicate_seeds,
        shuffle_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_insensitive_to_config_field_order(
        self, kwargs, seed, shuffle_seed
    ):
        """Supplying the same fields in any dict order gives one key."""
        items = list(kwargs.items())
        random.Random(shuffle_seed).shuffle(items)
        reordered = ScenarioConfig(**dict(items))
        assert WorkUnit(config=reordered, seed=seed).fingerprint() == WorkUnit(
            config=ScenarioConfig(**kwargs), seed=seed
        ).fingerprint()
        assert canonical_config(reordered) == canonical_config(
            ScenarioConfig(**kwargs)
        )

    @given(
        config=configs,
        seeds=st.lists(
            replicate_seeds, min_size=2, max_size=8, unique=True
        ),
    )
    def test_unique_across_replicate_seeds(self, config, seeds):
        keys = [WorkUnit(config=config, seed=seed).fingerprint() for seed in seeds]
        assert len(set(keys)) == len(seeds)

    @given(config=configs, other=configs, seed=replicate_seeds)
    def test_unique_across_distinct_configs(self, config, other, seed):
        same = config.with_overrides(seed=seed) == other.with_overrides(
            seed=seed
        )
        keys_equal = WorkUnit(config=config, seed=seed).fingerprint() == (
            WorkUnit(config=other, seed=seed).fingerprint()
        )
        assert keys_equal == same

    @given(
        config=configs,
        seeds=st.lists(replicate_seeds, min_size=1, max_size=8, unique=True),
        shuffle_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50)
    def test_stable_across_orderings_and_pool_sizes(
        self, config, seeds, shuffle_seed
    ):
        """Position in the grid and worker count never leak into keys."""
        units = [WorkUnit(config=config, seed=seed) for seed in seeds]
        by_seed = {unit.seed: unit.fingerprint() for unit in units}
        shuffled = list(units)
        random.Random(shuffle_seed).shuffle(shuffled)
        for unit in shuffled:  # any iteration order, any "pool size"
            assert unit.fingerprint() == by_seed[unit.seed]

    def test_derivation_algorithm_is_pinned(self):
        """A golden value guards against silent algorithm changes.

        Changing the canonical encoding or hash would silently split the
        result cache and orphan every supervised run's manifest; this pin
        makes that an explicit, reviewed decision.
        """
        unit = WorkUnit(config=ScenarioConfig(), seed=1)
        assert unit.fingerprint("golden") == GOLDEN_DEFAULT_FINGERPRINT


class TestFingerprints:
    @given(config=configs, seed=replicate_seeds, schedulers=scheduler_sets)
    def test_fingerprint_collides_only_for_equal_units(
        self, config, seed, schedulers
    ):
        unit = WorkUnit(config=config, seed=seed, schedulers=schedulers)
        twin = WorkUnit(config=config, seed=seed, schedulers=schedulers)
        assert unit.fingerprint() == twin.fingerprint()

    @given(config=configs, other=configs, seed=replicate_seeds)
    def test_distinct_configs_never_share_a_fingerprint(
        self, config, other, seed
    ):
        unit = WorkUnit(config=config, seed=seed)
        twin = WorkUnit(config=other, seed=seed)
        same = unit.effective_config() == twin.effective_config() and (
            unit.scheduler_names() == twin.scheduler_names()
        )
        assert (unit.fingerprint() == twin.fingerprint()) == same

    @given(config=configs, seed=replicate_seeds)
    def test_salt_changes_fingerprint_but_not_seed(self, config, seed):
        unit = WorkUnit(config=config, seed=seed)
        assert unit.fingerprint("salt-a") != unit.fingerprint("salt-b")
        # The salt namespaces the cache; the workload seed never sees it.
        assert unit.effective_config().seed == seed

    @given(config=configs, seed=replicate_seeds)
    def test_scheduler_set_is_part_of_the_identity(self, config, seed):
        narrow = WorkUnit(config=config, seed=seed, schedulers=("gurita",))
        wide = WorkUnit(
            config=config, seed=seed, schedulers=("pfs", "gurita")
        )
        assert narrow.fingerprint() != wide.fingerprint()


#: The fingerprint of ``WorkUnit(ScenarioConfig(), seed=1)`` under the
#: salt ``"golden"`` — recompute only on a deliberate, documented
#: change to the canonical encoding or hash.
GOLDEN_DEFAULT_FINGERPRINT = "17980944e0eda1922fe932a3419be3c0"
