"""Dynamic blocks: client-side assembly of personalized pages.

The polyglot trick for pages that are *mostly* shared: the cacheable
skeleton (served per segment through the CDN) contains named block
placeholders; the per-user pieces (cart badge, personal greeting,
recently-viewed) are fetched separately over the direct first-party
connection and stitched into the skeleton inside the service worker.
The shared infrastructure never sees the personal pieces.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.http.messages import Response
from repro.http.url import URL


@dataclass(frozen=True)
class BlockSpec:
    """One dynamic block of a page."""

    name: str
    url: URL
    #: Whether the block may render empty when its fetch fails — a
    #: required block failing fails the assembly.
    optional: bool = True


#: Placeholder syntax in skeleton bodies: ``{{block:cart}}``.
_PLACEHOLDER = re.compile(r"\{\{block:([A-Za-z0-9_-]+)\}\}")


class DynamicBlockAssembler:
    """Stitches block responses into a skeleton response."""

    def assemble(
        self,
        skeleton: Response,
        blocks: Dict[str, Optional[Response]],
    ) -> Response:
        """Replace each placeholder with its block's body.

        ``blocks`` maps block name to the fetched response (or ``None``
        for a failed optional block, rendered as an empty string).
        Placeholders with no entry in ``blocks`` are left untouched —
        the caller decided not to personalize them.
        """
        body = skeleton.body if isinstance(skeleton.body, str) else ""

        def replacement(match: "re.Match[str]") -> str:
            name = match.group(1)
            if name not in blocks:
                return match.group(0)
            block = blocks[name]
            if block is None or block.body is None:
                return ""
            if isinstance(block.body, str):
                return block.body
            return json.dumps(block.body, default=str)

        return replace(
            skeleton,
            body=_PLACEHOLDER.sub(replacement, body),
            served_by=f"{skeleton.served_by}+blocks",
        )
