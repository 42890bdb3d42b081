"""repro.analytics — the gossip-powered analytics plane.

Three layers, each consuming the one below:

* :mod:`repro.analytics.aggregate` — mergeable per-origin sketches
  (space-saving term summaries + document access counters) spread by
  push-pull exchanges piggybacked on the gossip round, converging every
  node to the same community-wide top-k frequent-term estimate;
* :mod:`repro.analytics.popularity` — per-document and per-term
  popularity scores folded out of the converged sketch;
* :mod:`repro.analytics.browse` — a popularity-ranked browsable global
  namespace over PFS's query-named directories, served through the
  query plane's scheduler and cache.
"""
