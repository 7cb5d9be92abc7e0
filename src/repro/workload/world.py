"""The *world* a trace was recorded against, as a portable artifact.

A trace is only replayable against the exact catalog and user
population it was recorded with: every ``user_id``/``product_id`` in
its events is a reference into that world. :class:`WorldSpec` captures
everything needed to rebuild it deterministically — the generation
configs plus the seeds — so a v2 trace file is self-contained: replay
reconstructs the recorded world instead of trusting whatever
``--seed/--users/--products`` happen to be on the replay command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from repro.workload.catalog import Catalog, CatalogConfig, generate_catalog
from repro.workload.users import (
    UserPopulation,
    UserPopulationConfig,
    generate_users,
)

__all__ = ["WorldSpec"]


def _config_to_dict(config) -> dict:
    """A dataclass config as plain JSON data (tuples become lists)."""

    def plain(value):
        if isinstance(value, tuple):
            return [plain(item) for item in value]
        return value

    return {
        f.name: plain(getattr(config, f.name))
        for f in fields(config)
        if not f.name.startswith("_")
    }


def _config_from_dict(cls, data: dict):
    """The ``cls`` config :func:`_config_to_dict` wrote, checked by its
    knob declarations."""

    def frozen(value):
        if isinstance(value, list):
            return tuple(frozen(item) for item in value)
        return value

    return cls(**{f.name: frozen(data[f.name]) for f in fields(cls)})


@dataclass(frozen=True, eq=False)
class WorldSpec:
    """Deterministic recipe for a trace's catalog and user population.

    ``seed`` is the recording run's root seed: replay restores it so
    seed-keyed machinery outside the world itself (storage-backend
    salts, fault streams) also matches the recording run.
    ``generator`` is provenance — the workload-generation config (or
    importer parameters) that produced the events; it is informational
    and never needed to replay.
    """

    catalog: CatalogConfig
    users: UserPopulationConfig
    seed: int = 0
    catalog_seed: int = 0
    users_seed: int = 1
    source: str = "generated"
    generator: Optional[dict] = field(default=None)

    def build(self) -> Tuple[Catalog, UserPopulation]:
        """Rebuild the exact world the trace was recorded against."""
        return (
            generate_catalog(self.catalog, random.Random(self.catalog_seed)),
            generate_users(self.users, random.Random(self.users_seed)),
        )

    def to_dict(self) -> dict:
        record = {
            "catalog": _config_to_dict(self.catalog),
            "users": _config_to_dict(self.users),
            "seed": self.seed,
            "catalog_seed": self.catalog_seed,
            "users_seed": self.users_seed,
            "source": self.source,
        }
        if self.generator is not None:
            record["generator"] = dict(self.generator)
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "WorldSpec":
        try:
            return cls(
                catalog=_config_from_dict(CatalogConfig, data["catalog"]),
                users=_config_from_dict(UserPopulationConfig, data["users"]),
                seed=int(data.get("seed", 0)),
                catalog_seed=int(data["catalog_seed"]),
                users_seed=int(data["users_seed"]),
                source=str(data.get("source", "generated")),
                generator=data.get("generator"),
            )
        except KeyError as err:
            raise ValueError(
                f"malformed world spec: missing field {err.args[0]!r}"
            ) from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed world spec: {err}") from err

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()
