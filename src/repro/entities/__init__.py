"""Domain entities of the video delivery ecosystem.

These model the nouns of §2: publishers, videos and catalogues, bitrate
ladders, playback devices and their SDKs, and CDNs.
"""
