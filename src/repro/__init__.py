"""repro: a reproduction of "Understanding Video Management Planes" (IMC 2018).

The package has three layers:

* **Substrates** — ``packaging`` (encode/chunk/DRM/manifests),
  ``delivery`` (origins, edges, multi-CDN, anycast, network paths),
  ``playback`` (ABR + session simulation), ``telemetry`` (the
  Conviva-like measurement platform), ``entities`` and ``stats``.
* **Synthesis** — ``synthesis``: a generative model of the video
  ecosystem calibrated to the paper's reported statistics, replacing
  the proprietary multi-publisher dataset.
* **Core** — ``core``: the paper's analyses; each §4 analysis takes the
  column it groups by (``repro.core.dimensions``), and every table and
  figure has a regenerating function, indexed in ``repro.figures``.

No package re-exports its modules' names: import each name from the
module that defines it, so a command loads only the layers it uses.

Quickstart::

    from repro.core.dimensions import HTTP_PROTOCOL_COLUMN
    from repro.core.prevalence import view_hour_share_series
    from repro.synthesis.generator import generate_default_dataset

    result = generate_default_dataset(snapshot_limit=12)
    shares = view_hour_share_series(result.dataset, HTTP_PROTOCOL_COLUMN)
"""

__version__ = "1.2.0"
