"""PFS: the personal semantic file system built on PlanetP (Section 6).

Files live in each user's local file system (modeled by
:class:`FileServer`); publishing a file hands PlanetP an XML snippet with
the file's URL, which gets indexed and (for the file's most frequent
terms) advertised on the brokerage with a short TTL.  Directories are
queries: opening a directory named by a query populates it with links to
matching files, kept current by persistent-query upcalls and a staleness
refresh.
"""
