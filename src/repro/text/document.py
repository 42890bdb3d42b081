"""Document model.

PlanetP's unit of storage is an XML document that may link external files
(Section 2).  For the library we model a document as an id, a text body
(already extracted/concatenated from the XML and any indexable linked
files), and optional metadata.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Document"]


@dataclass(frozen=True, slots=True)
class Document:
    """One published document.

    Attributes
    ----------
    doc_id:
        Community-unique identifier (the publisher namespaces it).
    text:
        Indexable text content.
    metadata:
        Free-form attributes (e.g. URL, owner, external links).
    """

    doc_id: str
    text: str
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")

    def __len__(self) -> int:
        return len(self.text)
