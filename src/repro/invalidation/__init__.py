"""Server-side invalidation fan-out (InvaliDB, reduced).

The paper's real-time change detection matches every database update
against the set of queries whose results are currently cached, then
triggers two actions per affected resource: a CDN purge (so shared
caches refetch) and a Cache Sketch addition (so client caches
revalidate). The matching happens once, at the origin
(:meth:`repro.origin.OriginServer._on_change` through its
:class:`~repro.origin.QueryMatcher`); this package consumes the
resulting affected set with configurable processing latencies on the
simulated clock — those latencies are exactly what experiment E5
measures — and models the matcher's distribution across a query grid
(experiment E14).
"""

from repro.invalidation.partitioned import NodeStats, PartitionedMatcher
from repro.invalidation.pipeline import InvalidationPipeline, VariantIndex

__all__ = [
    "InvalidationPipeline",
    "NodeStats",
    "PartitionedMatcher",
    "VariantIndex",
]
