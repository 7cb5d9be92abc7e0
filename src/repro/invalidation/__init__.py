"""Server-side change detection and invalidation (InvaliDB, reduced).

The paper's real-time change detection matches every database update
against the set of queries whose results are currently cached, then
triggers two actions per affected resource: a CDN purge (so shared
caches refetch) and a Cache Sketch addition (so client caches
revalidate). Both happen with configurable processing latencies on the
simulated clock — those latencies are exactly what experiment E5
measures.
"""

from repro.invalidation.matcher import QueryMatcher, Subscription
from repro.invalidation.partitioned import NodeStats, PartitionedMatcher
from repro.invalidation.pipeline import InvalidationPipeline, VariantIndex

__all__ = [
    "InvalidationPipeline",
    "NodeStats",
    "PartitionedMatcher",
    "QueryMatcher",
    "Subscription",
    "VariantIndex",
]
