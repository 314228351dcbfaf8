"""Transport substrate: TCP / QUIC latency models and the auth channel."""

from .channel import AuthChannel, AuthMessage, ChannelReceiver
from .transport import LAN_PATH, MOBILE_PATH, NetworkPath, Transport, connection_latency

__all__ = [
    "Transport",
    "NetworkPath",
    "LAN_PATH",
    "MOBILE_PATH",
    "connection_latency",
    "AuthChannel",
    "AuthMessage",
    "ChannelReceiver",
]
