"""Trace (de)serialization: save a workload, replay it anywhere.

The JSON format is line-oriented (one event per line after a header),
so multi-hour traces stream without loading everything twice. Saving
the trace that produced a result is what makes experiments repeatable
across machines and code versions.

Format v2 makes the file self-contained: the header embeds the
:class:`~repro.workload.world.WorldSpec` (catalog/user-population
configs plus seeds) the trace was recorded against, so replay rebuilds
the exact recorded world instead of trusting replay-time flags. v1
files (no world) still load; the replay path must then validate every
event reference against the world it builds (see
:func:`repro.workload.ingest.validate_trace_world`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from sys import intern
from typing import IO, Optional, Union

from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TraceEvent,
    TxnRead,
    WorkloadTrace,
)
from repro.workload.world import WorldSpec

FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

_KINDS = {
    "page_view": PageView,
    "product_update": ProductUpdate,
    "cart_add": CartAdd,
    "txn_read": TxnRead,
    "erase_user": EraseUser,
    "access_user": AccessUser,
}


def _event_to_record(event: TraceEvent) -> dict:
    if isinstance(event, PageView):
        return {
            "kind": "page_view",
            "at": event.at,
            "user_id": event.user_id,
            "page_kind": event.page_kind,
            "target": event.target,
        }
    if isinstance(event, ProductUpdate):
        return {
            "kind": "product_update",
            "at": event.at,
            "product_id": event.product_id,
            "changes": list(list(pair) for pair in event.changes),
        }
    if isinstance(event, CartAdd):
        return {
            "kind": "cart_add",
            "at": event.at,
            "user_id": event.user_id,
            "product_id": event.product_id,
        }
    if isinstance(event, TxnRead):
        return {
            "kind": "txn_read",
            "at": event.at,
            "user_id": event.user_id,
            "product_ids": list(event.product_ids),
        }
    if isinstance(event, EraseUser):
        return {
            "kind": "erase_user",
            "at": event.at,
            "user_id": event.user_id,
        }
    if isinstance(event, AccessUser):
        return {
            "kind": "access_user",
            "at": event.at,
            "user_id": event.user_id,
        }
    raise TypeError(f"unknown event type {type(event).__name__}")


def _record_to_event(record: dict) -> TraceEvent:
    # A loaded trace repeats a few thousand ids and names across
    # hundreds of thousands of events: each is kept once, interned.
    kind = record.get("kind")
    if kind == "page_view":
        return PageView(
            at=record["at"],
            user_id=intern(record["user_id"]),
            page_kind=intern(record["page_kind"]),
            target=intern(record["target"]),
        )
    if kind == "product_update":
        return ProductUpdate(
            at=record["at"],
            product_id=record["product_id"],
            changes=tuple(
                (field, value) for field, value in record["changes"]
            ),
        )
    if kind == "cart_add":
        return CartAdd(
            at=record["at"],
            user_id=intern(record["user_id"]),
            product_id=record["product_id"],
        )
    if kind == "txn_read":
        return TxnRead(
            at=record["at"],
            user_id=intern(record["user_id"]),
            product_ids=tuple(record["product_ids"]),
        )
    if kind == "erase_user":
        return EraseUser(at=record["at"], user_id=intern(record["user_id"]))
    if kind == "access_user":
        return AccessUser(at=record["at"], user_id=intern(record["user_id"]))
    raise ValueError(f"unknown event kind {kind!r}")


def dump_trace(
    trace: WorkloadTrace,
    destination: Union[str, Path, IO],
    world: Optional[WorldSpec] = None,
) -> None:
    """Write a trace as line-delimited JSON (format v2).

    ``world`` defaults to ``trace.world``; when present it is embedded
    in the header, making the file self-contained. Path destinations
    are written atomically: the bytes go to a temporary file in the
    same directory and :func:`os.replace` moves it into place, so a
    crash mid-dump can never leave a truncated file under the target
    name.
    """
    if world is None:
        world = trace.world

    def write(handle: IO) -> None:
        header = {
            "format": "repro-trace",
            "version": FORMAT_VERSION,
            "duration": trace.duration,
            "events": len(trace),
        }
        if world is not None:
            header["world"] = world.to_dict()
        handle.write(json.dumps(header) + "\n")
        for event in trace.events:
            handle.write(json.dumps(_event_to_record(event)) + "\n")

    if hasattr(destination, "write"):
        write(destination)
        return
    path = Path(destination)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent or ".",
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            write(handle)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def load_trace(source: Union[str, Path, IO]) -> WorkloadTrace:
    """Read a trace written by :func:`dump_trace` (validates it).

    Malformed records fail with the 1-based line number and the event
    kind in the message; a file whose body ends before the header's
    event count names the line where it broke off.
    """

    def read(handle: IO) -> WorkloadTrace:
        header_line = handle.readline()
        if not header_line:
            raise ValueError("empty trace file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"line 1: malformed trace header: {err}"
            ) from err
        if not isinstance(header, dict) or header.get("format") != (
            "repro-trace"
        ):
            raise ValueError(f"not a repro trace: header {header!r}")
        version = header.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported trace version {version!r} "
                f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
            )
        world = None
        if header.get("world") is not None:
            world = WorldSpec.from_dict(header["world"])
        trace = WorkloadTrace(
            duration=float(header["duration"]), world=world
        )
        lineno = 1
        for line in handle:
            lineno += 1
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"line {lineno}: malformed JSON in event record: "
                    f"{err}"
                ) from err
            kind = (
                record.get("kind", "<missing kind>")
                if isinstance(record, dict)
                else "<not an object>"
            )
            try:
                trace.events.append(_record_to_event(record))
            except KeyError as err:
                raise ValueError(
                    f"line {lineno}: {kind} record is missing field "
                    f"{err.args[0]!r}"
                ) from err
            except (TypeError, ValueError) as err:
                raise ValueError(f"line {lineno}: {err}") from err
        expected = header.get("events")
        if expected is not None and expected != len(trace):
            raise ValueError(
                f"truncated trace: header says {expected} events, "
                f"found {len(trace)} (file ends at line {lineno})"
            )
        trace.validate()
        return trace

    if hasattr(source, "readline"):
        return read(source)
    with open(source, "r", encoding="utf-8") as handle:
        return read(handle)
