"""Paths and critical paths through a job's coflow DAG.

The paper (§III.A) defines the JCT of a multi-stage job through the set of
paths from leaf coflows to root coflows: ``T_j = max over paths of T(path)``
where ``T(path)`` sums the per-coflow completion times along the path.  The
*critical path* is the arg-max; increasing the CCT of any coflow on it
increases the JCT.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.floatsum import ordered_sum
from repro.jobs.dag import CoflowDag
from repro.jobs.job import Job


def enumerate_paths(dag: CoflowDag, limit: int = 100_000) -> List[Tuple[int, ...]]:
    """Enumerate all leaf-to-root paths of the DAG.

    Paths are returned as tuples of coflow ids ordered leaf -> root.  The
    number of paths can be exponential in pathological DAGs, so ``limit``
    bounds the enumeration; exceeding it raises ``ValueError``.
    """
    paths: List[Tuple[int, ...]] = []
    root_set = set(dag.roots())

    def extend(prefix: List[int]) -> None:
        last = prefix[-1]
        if last in root_set:
            paths.append(tuple(prefix))
            if len(paths) > limit:
                raise ValueError(f"more than {limit} leaf-to-root paths")
            return
        for dep in sorted(dag.dependents_of(last)):
            extend(prefix + [dep])

    for leaf in dag.leaves():
        extend([leaf])
    return paths


def critical_path(
    dag: CoflowDag,
    cost: Callable[[int], float],
) -> Tuple[Tuple[int, ...], float]:
    """Longest leaf-to-root path under per-coflow ``cost``.

    Runs in linear time via dynamic programming over the topological order
    (equivalent to the breadth-first pass the paper mentions), so it works
    even when explicit path enumeration would blow up.

    Returns ``(path, total_cost)`` with the path ordered leaf -> root.
    """
    best_cost: Dict[int, float] = {}
    best_pred: Dict[int, int] = {}
    for cid in dag.topological_order():
        deps = dag.dependencies_of(cid)
        if deps:
            pred = max(deps, key=lambda d: best_cost[d])
            best_cost[cid] = best_cost[pred] + cost(cid)
            best_pred[cid] = pred
        else:
            best_cost[cid] = cost(cid)
    if not best_cost:
        return (), 0.0
    end = max(dag.roots(), key=lambda r: best_cost[r])
    path: List[int] = [end]
    while path[-1] in best_pred:
        path.append(best_pred[path[-1]])
    path.reverse()
    return tuple(path), best_cost[end]


def critical_path_coflows(
    job: Job,
    processing_rate: float = 1.0,
) -> Tuple[Tuple[int, ...], float]:
    """Clairvoyant critical path of a job.

    Per the paper (§IV.B), each coflow's CCT is approximated as
    ``max flow size / processing rate`` and the critical path is the
    longest-cost leaf-to-root path under that estimate.
    """
    if processing_rate <= 0:
        raise ValueError("processing_rate must be positive")

    def cost(coflow_id: int) -> float:
        return job.coflow(coflow_id).max_flow_bytes / processing_rate

    return critical_path(job.dag, cost)


def path_cost(
    dag: CoflowDag,
    path: Sequence[int],
    cost: Callable[[int], float],
) -> float:
    """Sum of per-coflow costs along a path (must be a valid chain)."""
    for earlier, later in zip(path, path[1:]):
        if earlier not in dag.dependencies_of(later):
            raise ValueError(f"({earlier}, {later}) is not an edge of the DAG")
    return ordered_sum(cost(cid) for cid in path)
