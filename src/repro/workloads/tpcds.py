"""TPC-DS query-42 job structure (the paper's Cloudera benchmark DAG).

TPC-DS query 42 aggregates store sales by category for one month: three
table scans feed two joins, whose output is aggregated and then sorted.
As a multi-stage shuffle DAG (the form the paper uses to stitch trace
coflows into jobs) this is a five-stage, six-coflow tree-ish shape::

    scan(date_dim)  scan(store_sales)   scan(item)
            \\            /                 |
             join_1 ----+                  |
                  \\                       /
                   +------ join_2 -------+
                              |
                           aggregate
                              |
                            sort

Relative shuffle volumes reflect the query's selectivity: the fact-table
scan dominates, each join shrinks its input, and the aggregate/sort
stages move little data.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.floatsum import ordered_sum
from repro.workloads.shapes import DagShape

#: Node indices in the query-42 DAG.
SCAN_DATE_DIM = 0
SCAN_STORE_SALES = 1
SCAN_ITEM = 2
JOIN_DATE_SALES = 3
JOIN_ITEM = 4
AGGREGATE = 5
SORT = 6

#: Relative bytes each node shuffles, normalised to the largest (the
#: store_sales fact scan).  Dimension scans are small; joins shrink data;
#: the final aggregate/sort stages are nearly free.
RELATIVE_VOLUMES: Tuple[float, ...] = (
    0.02,  # scan date_dim (small dimension table)
    1.00,  # scan store_sales (fact table)
    0.05,  # scan item
    0.40,  # join date_dim x store_sales
    0.20,  # join with item
    0.05,  # group-by aggregation
    0.01,  # order-by + limit
)


def query42_shape() -> DagShape:
    """The dependency DAG of TPC-DS query 42 (7 coflows, depth 5)."""
    edges: List[Tuple[int, int]] = [
        (SCAN_DATE_DIM, JOIN_DATE_SALES),
        (SCAN_STORE_SALES, JOIN_DATE_SALES),
        (JOIN_DATE_SALES, JOIN_ITEM),
        (SCAN_ITEM, JOIN_ITEM),
        (JOIN_ITEM, AGGREGATE),
        (AGGREGATE, SORT),
    ]
    return DagShape(name="tpcds-q42", num_nodes=7, edges=tuple(edges))


def query42_volumes(total_bytes: float) -> List[float]:
    """Split a job's total bytes over the 7 nodes per the query's shape."""
    weight_sum = ordered_sum(RELATIVE_VOLUMES)
    return [total_bytes * w / weight_sum for w in RELATIVE_VOLUMES]
