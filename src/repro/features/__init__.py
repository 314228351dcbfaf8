"""Feature extraction: 66 packet-event features and 48 sensor features."""

from .packet_features import (
    FEATURE_NAMES,
    FIRST_N_PACKETS,
    N_FEATURES,
    event_features,
    event_labels,
    event_sequences,
    events_to_matrix,
)
from .sensor_features import (
    AXIS_STATS,
    N_SENSOR_FEATURES,
    SENSOR_AXES,
    SENSOR_FEATURE_NAMES,
    sensor_features,
    windows_to_matrix,
)

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "FIRST_N_PACKETS",
    "event_features",
    "events_to_matrix",
    "event_sequences",
    "event_labels",
    "SENSOR_AXES",
    "AXIS_STATS",
    "SENSOR_FEATURE_NAMES",
    "N_SENSOR_FEATURES",
    "sensor_features",
    "windows_to_matrix",
]
