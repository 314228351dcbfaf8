"""Declarative fleet specifications: many homes, one JSON document.

A :class:`FleetSpec` is to the fleet what a scenario document is to one
deployment (:mod:`repro.scenarios`): plain data that fully determines
the run.  Each :class:`HomeSpec` describes one independent household —
device mix, routine intensity (the §6 workload volumes), attack mix,
optional fault plan — plus the home's seed.

Seeds are *derived*, never chosen: :func:`home_seed` hashes
``(fleet_seed, home_id)`` through :func:`repro.util.spawn_seed`, so two
homes of one fleet (or the same home across serial and process
backends) can never share an RNG stream.  ``seed + i`` offsets are
forbidden here by construction — they collide with the component
streams other subsystems derive from their own roots.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..testbed.devices import TESTBED
from ..util import spawn_seed

__all__ = [
    "HomeSpec",
    "FleetSpec",
    "SpecStream",
    "MemorySpecStream",
    "JsonlSpecStream",
    "home_seed",
    "generate_fleet",
    "iter_generate_fleet",
    "open_spec",
    "write_spec_jsonl",
]

#: Rule devices (no ML training): the cheap default pool for large fleets.
RULE_DEVICES: Tuple[str, ...] = ("SP10", "WP3")


def home_seed(fleet_seed: int, home_id: str) -> int:
    """The derived seed of one home — a stable hash, not an offset."""
    return spawn_seed(fleet_seed, "home", home_id)


@dataclass(frozen=True)
class HomeSpec:
    """One household of a fleet: device mix, workload, attack mix, faults."""

    home_id: str
    devices: Tuple[str, ...]
    #: derived via :func:`home_seed`; carried explicitly so a spec file
    #: is self-contained and a worker needs no access to the fleet root
    seed: int
    #: §6 workload volumes (routine intensity scales these)
    n_manual: int = 6
    n_non_manual: int = 12
    n_attacks: int = 6
    #: fraction of attackers shipping a spyware still-phone proof
    attack_with_proof: float = 0.3
    n_training_events: int = 120
    location: str = "US"
    #: kwargs for :class:`repro.faults.FaultPlan` (``None`` = clean home)
    faults: Optional[Dict[str, object]] = None
    #: journal this home's security state under the fleet state root
    recover: bool = False
    #: testing hook: the worker raises instead of running the home
    #: (``"raise"``), kills its own process (``"exit"``), wedges forever
    #: (``"hang"``), or fails exactly once then succeeds (``"flaky"``)
    poison: str = ""

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError(f"home {self.home_id!r} needs at least one device")
        unknown = [d for d in self.devices if d not in TESTBED]
        if unknown:
            raise ValueError(f"home {self.home_id!r}: unknown devices {unknown}")
        if not isinstance(self.devices, tuple):
            object.__setattr__(self, "devices", tuple(self.devices))
        if self.poison not in ("", "raise", "exit", "hang", "flaky"):
            raise ValueError(
                f"poison must be '', 'raise', 'exit', 'hang' or 'flaky', "
                f"got {self.poison!r}"
            )
        for name in ("n_manual", "n_non_manual", "n_attacks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (devices as a list, defaults included)."""
        data = asdict(self)
        data["devices"] = list(self.devices)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HomeSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        payload = dict(data)
        payload["devices"] = tuple(payload.get("devices", ()))
        if payload.get("faults") is not None:
            payload["faults"] = dict(payload["faults"])
        return cls(**payload)


@dataclass(frozen=True)
class FleetSpec:
    """A population of independent homes plus the fleet-level seed."""

    name: str = "fleet"
    seed: int = 0
    homes: Tuple[HomeSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.homes, tuple):
            object.__setattr__(self, "homes", tuple(self.homes))
        seen: Dict[str, None] = {}
        for home in self.homes:
            if home.home_id in seen:
                raise ValueError(f"duplicate home_id {home.home_id!r}")
            seen[home.home_id] = None

    def __len__(self) -> int:
        return len(self.homes)

    # -- serialisation -----------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON encoding of the whole fleet."""
        return json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "homes": [home.to_dict() for home in self.homes],
            },
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        """Inverse of :meth:`to_json`.

        Homes missing a ``seed`` get the canonical derived one; homes
        carrying a seed keep it verbatim (a spec file is authoritative).
        A document that is not an object with a ``homes`` list of objects
        raises ``ValueError``.
        """
        data = json.loads(text)
        if not isinstance(data, dict) or not isinstance(data.get("homes"), list):
            raise ValueError('a fleet spec is a JSON object with a "homes" list')
        fleet_seed = int(data.get("seed", 0))
        homes = []
        for entry in data["homes"]:
            if not isinstance(entry, dict):
                raise ValueError(f"a fleet spec home is a JSON object, got {entry!r}")
            entry = dict(entry)
            entry.setdefault("seed", home_seed(fleet_seed, str(entry.get("home_id"))))
            homes.append(HomeSpec.from_dict(entry))
        return cls(name=str(data.get("name", "fleet")), seed=fleet_seed, homes=tuple(homes))

    @classmethod
    def load(cls, path: str) -> "FleetSpec":
        """Read a fleet spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path: str) -> None:
        """Write the fleet spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def stream(self) -> "MemorySpecStream":
        """This spec as a :class:`SpecStream` (the runner's input type)."""
        return MemorySpecStream(self)


class SpecStream:
    """Bounded-memory source of one fleet's homes.

    The :class:`~repro.fleet.runner.FleetRunner` consumes specs through
    this interface so a million-home fleet never has to materialise a
    million :class:`HomeSpec`s at once.  A stream carries the fleet
    header (``name``, ``seed``, ``n_homes`` when known) plus a stable
    ``digest`` of the underlying document — the fleet checkpoint layer
    records the digest so a ``--resume`` against a *different* spec is
    rejected instead of silently merging two populations.

    ``iter_homes`` must be re-iterable (each call starts from home 0):
    a resumed run walks the stream again to find the homes it skipped.
    """

    name: str = "fleet"
    seed: int = 0
    #: total homes when the source declares it (``None`` = unknown)
    n_homes: Optional[int] = None
    #: SHA-256 hex digest of the spec document
    digest: str = ""

    def iter_homes(self) -> Iterator[HomeSpec]:
        """Yield every home in spec order, from the top."""
        raise NotImplementedError


class MemorySpecStream(SpecStream):
    """A materialised :class:`FleetSpec` exposed as a stream."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.seed = spec.seed
        self.n_homes = len(spec)
        self.digest = hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()

    def iter_homes(self) -> Iterator[HomeSpec]:
        return iter(self.spec.homes)


class JsonlSpecStream(SpecStream):
    """A fleet spec streamed line-by-line from a JSONL file.

    Format: the first line is the fleet header
    ``{"fleet": {"name": …, "seed": …, "n_homes": …}}``; every further
    line is one :meth:`HomeSpec.to_dict` document.  Homes missing a
    ``seed`` get the canonical derived one (same rule as
    :meth:`FleetSpec.from_json`).  Unlike the in-memory path, the
    streaming reader does *not* enforce fleet-wide ``home_id``
    uniqueness — that check is O(homes) memory, exactly what this
    reader exists to avoid; generators are responsible for unique IDs.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            header_line = handle.readline()
            digest.update(header_line)
            try:
                header = json.loads(header_line.decode("utf-8"))["fleet"]
            except (ValueError, KeyError, UnicodeDecodeError) as error:
                raise ValueError(
                    f"{path}: first line must be a {{\"fleet\": …}} header ({error})"
                ) from error
            self.name = str(header.get("name", "fleet"))
            self.seed = int(header.get("seed", 0))
            n_homes = 0
            # The digest pass also parses every home line, so a bad line
            # fails here with its number, not mid-run, and the count is
            # of homes, not of newlines.
            for number, line in enumerate(handle, start=2):
                digest.update(line)
                try:
                    n_homes += self._parse(line) is not None
                except (TypeError, ValueError) as error:
                    raise ValueError(f"{path}: line {number}: {error}") from None
        declared = header.get("n_homes")
        if declared is not None and int(declared) != n_homes:
            raise ValueError(
                f"{path}: the header declares n_homes={declared} but the spec has "
                f"{n_homes} homes"
            )
        self.n_homes = n_homes
        self.digest = digest.hexdigest()

    def _parse(self, line: "str | bytes") -> Optional[HomeSpec]:
        """One home line as a :class:`HomeSpec`; ``None`` for a blank line."""
        if not line.strip():
            return None
        entry = json.loads(line)
        if not isinstance(entry, dict):
            raise ValueError(f"a fleet spec home is a JSON object, got {entry!r}")
        entry.setdefault("seed", home_seed(self.seed, str(entry.get("home_id"))))
        return HomeSpec.from_dict(entry)

    def iter_homes(self) -> Iterator[HomeSpec]:
        with open(self.path, "r", encoding="utf-8") as handle:
            handle.readline()  # header
            for line in handle:
                home = self._parse(line)
                if home is not None:
                    yield home


def open_spec(path: str) -> SpecStream:
    """Open a spec file as a stream — ``.jsonl`` streamed, else loaded."""
    if path.endswith(".jsonl"):
        return JsonlSpecStream(path)
    return FleetSpec.load(path).stream()


def write_spec_jsonl(
    path: str,
    homes: "Iterator[HomeSpec] | Sequence[HomeSpec]",
    name: str = "fleet",
    seed: int = 0,
    n_homes: Optional[int] = None,
) -> int:
    """Stream a fleet to a JSONL spec file; returns the homes written.

    The header is written first with the declared ``n_homes`` (when
    known up front) so readers learn the fleet size without scanning;
    homes are appended one line at a time — the writer never holds more
    than one :class:`HomeSpec` in memory.
    """
    tmp_path = path + ".tmp"
    written = 0
    with open(tmp_path, "w", encoding="utf-8") as handle:
        header = {"fleet": {"name": name, "seed": seed, "n_homes": n_homes}}
        handle.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for home in homes:
            handle.write(
                json.dumps(home.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            )
            written += 1
    if n_homes is not None and written != n_homes:
        os.unlink(tmp_path)
        raise ValueError(f"declared n_homes={n_homes} but wrote {written} homes")
    os.replace(tmp_path, path)
    return written


def generate_fleet(
    n_homes: int,
    seed: int = 0,
    name: str = "fleet",
    device_pool: Optional[Sequence[str]] = None,
    min_devices: int = 1,
    max_devices: int = 2,
    n_manual: int = 6,
    n_non_manual: int = 12,
    n_attacks: int = 6,
    n_training_events: int = 120,
    fault_fraction: float = 0.0,
) -> FleetSpec:
    """Synthesise a deterministic fleet of ``n_homes`` varied households.

    Per home, an RNG keyed by ``spawn_seed(seed, "gen", home_id)`` draws
    the device mix from ``device_pool`` (default: the cheap rule
    devices, so million-home fleets need no ML training), a routine
    intensity in [0.5, 1.5] scaling the §6 workload volumes, the attack
    mix (spyware-proof fraction), and — for ``fault_fraction`` of homes
    — a lossy-network :class:`~repro.faults.FaultPlan`.  Identical
    arguments reproduce an identical spec, byte for byte.
    """
    return FleetSpec(
        name=name,
        seed=seed,
        homes=tuple(
            iter_generate_fleet(
                n_homes,
                seed=seed,
                device_pool=device_pool,
                min_devices=min_devices,
                max_devices=max_devices,
                n_manual=n_manual,
                n_non_manual=n_non_manual,
                n_attacks=n_attacks,
                n_training_events=n_training_events,
                fault_fraction=fault_fraction,
            )
        ),
    )


def iter_generate_fleet(
    n_homes: int,
    seed: int = 0,
    device_pool: Optional[Sequence[str]] = None,
    min_devices: int = 1,
    max_devices: int = 2,
    n_manual: int = 6,
    n_non_manual: int = 12,
    n_attacks: int = 6,
    n_training_events: int = 120,
    fault_fraction: float = 0.0,
) -> Iterator[HomeSpec]:
    """Yield the homes of :func:`generate_fleet` one at a time.

    The streaming form of the generator: home ``i`` is a pure function
    of ``(seed, i)``, so a million-home population can be written to a
    JSONL spec (:func:`write_spec_jsonl`) without ever materialising
    the fleet — the memory the durable-runs bench holds against.
    """
    if n_homes < 1:
        raise ValueError("n_homes must be >= 1")
    pool = tuple(device_pool if device_pool else RULE_DEVICES)
    max_devices = min(max_devices, len(pool))
    min_devices = min(min_devices, max_devices)
    for i in range(n_homes):
        home_id = f"home-{i:04d}"
        rng = np.random.default_rng(spawn_seed(seed, "gen", home_id))
        k = int(rng.integers(min_devices, max_devices + 1))
        devices = tuple(
            sorted(str(d) for d in rng.choice(pool, size=k, replace=False))
        )
        intensity = 0.5 + float(rng.random())  # routine intensity in [0.5, 1.5)
        attack_with_proof = round(float(rng.uniform(0.0, 0.6)), 3)
        faults: Optional[Dict[str, object]] = None
        if fault_fraction > 0.0 and float(rng.random()) < fault_fraction:
            faults = {
                "seed": int(spawn_seed(seed, "faults", home_id) % (2**31)),
                "loss_rate": round(float(rng.uniform(0.05, 0.25)), 3),
                "duplicate_rate": round(float(rng.uniform(0.0, 0.1)), 3),
            }
        yield HomeSpec(
            home_id=home_id,
            devices=devices,
            seed=home_seed(seed, home_id),
            n_manual=max(1, round(n_manual * intensity)),
            n_non_manual=max(1, round(n_non_manual * intensity)),
            n_attacks=max(1, round(n_attacks * intensity)),
            attack_with_proof=attack_with_proof,
            n_training_events=n_training_events,
            faults=faults,
        )
