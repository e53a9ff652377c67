"""Content distribution substrate: origins, edges, multi-CDN, networks.

§2/§4.3: publishers proactively push packaged content to CDN origin
servers; edges serve users and fetch misses from the origin; publishers
spread traffic across multiple CDNs, sometimes via a broker; one top
CDN uses anycast.  §6's storage-redundancy study runs against the
origin model here.
"""
