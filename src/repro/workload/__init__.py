"""Synthetic e-commerce workload: the paper's field traffic, modeled.

The field experiences in the paper come from production shops; this
package generates the closest synthetic equivalent: a product catalog
with Zipf-distributed popularity, a user population with segments and
connection types, session-based navigation (home → category → product
→ …) with think times, a background write stream (price/stock
updates), and cart writes from the users themselves.

Workloads are materialized as :class:`WorkloadTrace` event lists so the
exact same traffic can be replayed against different configurations —
the basis of every A/B comparison in the benchmarks.
"""

from repro.workload.catalog import Catalog, CatalogConfig, generate_catalog
from repro.workload.users import (
    User,
    UserPopulation,
    UserPopulationConfig,
    generate_users,
)
from repro.workload.pages import PageBuilder
from repro.workload.sitebuilder import build_ecommerce_site
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TraceEvent,
    TxnRead,
    UserEvent,
    WorkloadTrace,
)
from repro.workload.flashsale import FlashSaleConfig, make_flash_sale_trace
from repro.workload.mediasite import MediaPageBuilder, build_media_site
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.serialization import dump_trace, load_trace
from repro.workload.world import WorldSpec
from repro.workload.ingest import (
    amplify_trace,
    import_access_log,
    rescale_trace,
    validate_trace_world,
)

__all__ = [
    "AccessUser",
    "CartAdd",
    "Catalog",
    "CatalogConfig",
    "EraseUser",
    "FlashSaleConfig",
    "MediaPageBuilder",
    "PageBuilder",
    "PageView",
    "ProductUpdate",
    "TraceEvent",
    "TxnRead",
    "User",
    "UserEvent",
    "UserPopulation",
    "UserPopulationConfig",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadTrace",
    "WorldSpec",
    "amplify_trace",
    "build_ecommerce_site",
    "build_media_site",
    "dump_trace",
    "generate_catalog",
    "generate_users",
    "import_access_log",
    "load_trace",
    "make_flash_sale_trace",
    "rescale_trace",
    "validate_trace_world",
]
