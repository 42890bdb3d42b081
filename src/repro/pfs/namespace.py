"""The personal semantic namespace: directories are queries.

"Like the semantic file system, a directory is created in PFS whenever
the user poses a query.  PFS creates links to files that match the query
in the resulting directory ... Building a query-based subdirectory is
equivalent to refining the query of the containing directory."
(Section 6.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QueryDirectory", "SemanticNamespace"]


@dataclass
class QueryDirectory:
    """One query-named directory: its query terms and current links."""

    path: str
    terms: tuple[str, ...]
    #: link name -> URL of the matching file.
    links: dict[str, str] = field(default_factory=dict)
    last_updated: float = 0.0

    def add_link(self, name: str, url: str) -> None:
        """Link a matching file into the directory."""
        self.links[name] = url

    def __len__(self) -> int:
        return len(self.links)


class SemanticNamespace:
    """A user's private tree of query directories.

    Paths are slash-separated query segments: ``/gossip/protocols`` is the
    query "gossip" refined by "protocols" — its effective query is the
    union of all segment terms on the path.
    """

    def __init__(self) -> None:
        self._dirs: dict[str, QueryDirectory] = {}

    @staticmethod
    def _segments(path: str) -> list[str]:
        if not path.startswith("/") or path == "/":
            raise ValueError("directory paths are absolute and non-root")
        segments = [s for s in path.split("/") if s]
        if not segments:
            raise ValueError("empty directory path")
        return segments

    def effective_query(self, path: str) -> str:
        """The full refined query for ``path`` (all segments joined)."""
        return " ".join(self._segments(path))

    def make_directory(self, path: str, terms: tuple[str, ...], now: float) -> QueryDirectory:
        """Create a directory for an (analyzed) query."""
        if path in self._dirs:
            raise FileExistsError(path)
        self._segments(path)  # validates shape
        directory = QueryDirectory(path=path, terms=terms, last_updated=now)
        self._dirs[path] = directory
        return directory

    def remove_directory(self, path: str) -> None:
        """Delete a directory (and forget its links)."""
        try:
            del self._dirs[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def get(self, path: str) -> QueryDirectory:
        """Look up a directory."""
        try:
            return self._dirs[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def directories(self) -> list[str]:
        """All directory paths, sorted."""
        return sorted(self._dirs)

    def __contains__(self, path: str) -> bool:
        return path in self._dirs

    def __len__(self) -> int:
        return len(self._dirs)
