"""XML snippet handling.

Published documents and brokered advertisements are XML snippets
(Sections 2, 4, 6).  We use the standard-library ElementTree for parsing;
per the paper's current behaviour, tags are indexed "simply as normal
terms" — :func:`extract_text` therefore returns element text *and* tag
names, plus attribute values, concatenated in document order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = ["XMLSnippet", "extract_text"]


def extract_text(xml_string: str, include_tags: bool = True) -> str:
    """Flatten an XML string into indexable text.

    Tag names and attribute values are included when ``include_tags`` is
    true (the paper indexes tags as ordinary terms).  Raises
    ``ValueError`` on malformed XML.
    """
    try:
        root = ET.fromstring(xml_string)
    except ET.ParseError as exc:
        raise ValueError(f"malformed XML snippet: {exc}") from exc
    parts: list[str] = []

    def visit(elem: ET.Element) -> None:
        if include_tags:
            parts.append(elem.tag)
            parts.extend(str(v) for v in elem.attrib.values())
        if elem.text and elem.text.strip():
            parts.append(elem.text.strip())
        for child in elem:
            visit(child)
            if child.tail and child.tail.strip():
                parts.append(child.tail.strip())

    visit(root)
    return " ".join(parts)


@dataclass(frozen=True)
class XMLSnippet:
    """A published XML snippet: id, raw XML, and extraction options.

    The snippet is the brokerage's unit of publication (Section 4): it
    carries associated keys and a discard time there; in the data store it
    is the document body.
    """

    snippet_id: str
    xml: str
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.snippet_id:
            raise ValueError("snippet_id must be non-empty")
        # Validate eagerly so malformed snippets fail at publish time.
        extract_text(self.xml)

    def text(self, include_tags: bool = True) -> str:
        """Indexable text of the snippet."""
        return extract_text(self.xml, include_tags=include_tags)

    def to_document(self) -> "Document":
        """View this snippet as an indexable :class:`Document`."""
        from repro.text.document import Document

        return Document(self.snippet_id, self.text(), dict(self.attributes))


from repro.text.document import Document  # noqa: E402  (cycle-free re-export)
