"""repro: a reproduction of "Understanding Video Management Planes" (IMC 2018).

The package has three layers:

* **Substrates** — ``packaging`` (encode/chunk/DRM/manifests),
  ``delivery`` (origins, edges, multi-CDN, anycast, network paths),
  ``playback`` (ABR + session simulation), ``telemetry`` (the
  Conviva-like measurement platform), ``entities`` and ``stats``.
* **Synthesis** — ``synthesis``: a generative model of the video
  ecosystem calibrated to the paper's reported statistics, replacing
  the proprietary multi-publisher dataset.
* **Core** — ``core``: the paper's analyses; every table and figure has
  a regenerating function, indexed in ``repro.figures``.

Quickstart::

    from repro import generate_default_dataset
    from repro.core import prevalence

    result = generate_default_dataset(snapshot_limit=12)
    shares = prevalence.protocol_view_hour_shares(result.dataset)
"""

from repro.constants import (
    ConnectionType,
    ContentType,
    Platform,
    Protocol,
    SyndicationRole,
)
from repro.synthesis import (
    EcosystemConfig,
    EcosystemGenerator,
    EcosystemResult,
    generate_default_dataset,
)
from repro.telemetry import Dataset, ViewRecord

__version__ = "1.1.0"

__all__ = [
    "ConnectionType",
    "ContentType",
    "Platform",
    "Protocol",
    "SyndicationRole",
    "EcosystemConfig",
    "EcosystemGenerator",
    "EcosystemResult",
    "generate_default_dataset",
    "Dataset",
    "ViewRecord",
    "__version__",
]
