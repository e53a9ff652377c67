"""Streaming-TV measurement platform (the Conviva substitute, §3).

Player-side monitoring events, sessionization into per-view records,
a backend with operational rollups, bi-weekly snapshot scheduling,
and the queryable :class:`~repro.telemetry.dataset.Dataset` container
that every analysis consumes.
"""
