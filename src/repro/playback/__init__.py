"""Device playback substrate: ABR algorithms and session simulation.

The control plane adaptively picks a bitrate per chunk (§2); playback
software embeds that logic per device SDK.  The session simulator here
produces the two QoE metrics the paper uses (§6): average bitrate of a
view and rebuffering ratio.
"""
