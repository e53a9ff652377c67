"""Device playback substrate: ABR algorithms and session simulation.

The control plane adaptively picks a bitrate per chunk (§2); playback
software embeds that logic per device SDK.  The session simulator here
produces the two QoE metrics the paper uses (§6): average bitrate of a
view and rebuffering ratio.
"""

from repro.playback.abr import (
    AbrAlgorithm,
    ThroughputAbr,
    BufferBasedAbr,
)
from repro.playback.session import (
    SessionConfig,
    SessionResult,
    simulate_session,
    simulate_sessions,
)
from repro.playback.useragent import build_user_agent

__all__ = [
    "AbrAlgorithm",
    "ThroughputAbr",
    "BufferBasedAbr",
    "SessionConfig",
    "SessionResult",
    "simulate_session",
    "simulate_sessions",
    "build_user_agent",
]
