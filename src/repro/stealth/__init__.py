"""The leveled adversary engine (ROADMAP item 3).

Wraps the static seed-era :mod:`repro.ghostware` strains with composable
counter-detection behaviors graded ``off → low → medium → high →
maximum``:

* **timestamp/FS cloak** (``low``+) — :mod:`repro.stealth.manager`
* **detection awareness** (``medium``+) — :mod:`repro.stealth.sensor`
* **identity rotation** (``high``+) — per-strain ``rotate_identity``
* **cross-machine coordination** (``maximum``) —
  :mod:`repro.stealth.campaign`

See ``docs/adversary.md`` for the level table and the measured
precision/recall-per-level curve (``tests/test_stealth.py``).
"""

from repro.stealth.levels import (ALL_BEHAVIORS, AWARE, CLOAK, COORDINATE,
                                  LEVELS, LEVEL_BEHAVIORS, ROTATE,
                                  behaviors_for, level_index, parse_level)
from repro.stealth.sensor import (FAMILIES, ScanActivitySensor, SensorConfig,
                                  ensure_scan_sensor_taps)
from repro.stealth.manager import StealthManager, attach_stealth
from repro.stealth.campaign import (STEALTH_ACTIONS, StealthCampaign,
                                    apply_stealth_event, rotation_token)

__all__ = [
    "ALL_BEHAVIORS", "AWARE", "CLOAK", "COORDINATE", "ROTATE",
    "LEVELS", "LEVEL_BEHAVIORS", "behaviors_for", "level_index",
    "parse_level",
    "FAMILIES", "ScanActivitySensor", "SensorConfig",
    "ensure_scan_sensor_taps",
    "StealthManager", "attach_stealth",
    "STEALTH_ACTIONS", "StealthCampaign", "apply_stealth_event",
    "rotation_token",
]
