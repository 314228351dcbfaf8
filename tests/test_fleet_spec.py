"""Tests for fleet specifications: derivation, validation, round-trips."""

import json

import pytest

from repro.fleet import (
    FleetSpec,
    HomeSpec,
    JsonlSpecStream,
    MemorySpecStream,
    generate_fleet,
    home_seed,
    iter_generate_fleet,
    open_spec,
    write_spec_jsonl,
)
from repro.util import spawn_seed


def _home(home_id="h1", **kwargs):
    kwargs.setdefault("devices", ("SP10",))
    kwargs.setdefault("seed", home_seed(0, home_id))
    return HomeSpec(home_id=home_id, **kwargs)


class TestHomeSpec:
    def test_requires_devices(self):
        with pytest.raises(ValueError, match="at least one device"):
            HomeSpec(home_id="h", devices=(), seed=1)

    def test_rejects_unknown_devices(self):
        with pytest.raises(ValueError, match="unknown devices"):
            HomeSpec(home_id="h", devices=("Toaster9000",), seed=1)

    def test_rejects_bad_poison(self):
        with pytest.raises(ValueError, match="poison"):
            _home(poison="explode")

    def test_rejects_negative_volumes(self):
        with pytest.raises(ValueError, match="non-negative"):
            _home(n_manual=-1)

    def test_dict_round_trip(self):
        home = _home(faults={"seed": 3, "loss_rate": 0.1}, n_manual=9)
        assert HomeSpec.from_dict(home.to_dict()) == home


class TestHomeSeedDerivation:
    def test_hash_derived_not_offsets(self):
        assert home_seed(0, "home-0001") == spawn_seed(0, "home", "home-0001")
        assert home_seed(0, "home-0001") != 1

    def test_adjacent_fleet_seeds_do_not_collide(self):
        seeds = {
            home_seed(fleet_seed, f"home-{i:04d}")
            for fleet_seed in range(5)
            for i in range(50)
        }
        assert len(seeds) == 5 * 50


class TestFleetSpec:
    def test_rejects_duplicate_home_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetSpec(homes=(_home("a"), _home("a")))

    def test_json_round_trip(self):
        spec = generate_fleet(5, seed=9, fault_fraction=0.5)
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = generate_fleet(3, seed=2)
        path = str(tmp_path / "fleet.json")
        spec.dump(path)
        assert FleetSpec.load(path) == spec

    def test_missing_seed_filled_with_derived(self):
        document = {
            "name": "f",
            "seed": 4,
            "homes": [{"home_id": "home-x", "devices": ["SP10"]}],
        }
        spec = FleetSpec.from_json(json.dumps(document))
        assert spec.homes[0].seed == home_seed(4, "home-x")

    @pytest.mark.parametrize(
        "document",
        [
            {"x": 1},
            {"name": "f", "seed": 1},
            {"homes": {"home_id": "home-x", "devices": ["SP10"]}},
            {"homes": ["home-x"]},
            [{"home_id": "home-x", "devices": ["SP10"]}],
        ],
        ids=["no-homes-key", "header-only", "homes-object", "home-not-object", "top-level-list"],
    )
    def test_rejects_documents_that_are_not_fleet_specs(self, document):
        with pytest.raises(ValueError, match="fleet spec"):
            FleetSpec.from_json(json.dumps(document))

    def test_empty_homes_list_is_an_empty_spec(self):
        assert FleetSpec.from_json('{"homes": []}') == FleetSpec()


class TestGenerateFleet:
    def test_deterministic(self):
        assert generate_fleet(6, seed=1).to_json() == generate_fleet(6, seed=1).to_json()

    def test_seed_changes_fleet(self):
        assert generate_fleet(6, seed=1).to_json() != generate_fleet(6, seed=2).to_json()

    def test_homes_are_varied(self):
        spec = generate_fleet(12, seed=0)
        assert len({home.n_manual for home in spec.homes}) > 1
        assert len({home.attack_with_proof for home in spec.homes}) > 1

    def test_fault_fraction(self):
        clean = generate_fleet(10, seed=0)
        faulty = generate_fleet(10, seed=0, fault_fraction=1.0)
        assert all(h.faults is None for h in clean.homes)
        assert all(h.faults is not None for h in faulty.homes)

    def test_home_seeds_unique(self):
        spec = generate_fleet(40, seed=0)
        seeds = [home.seed for home in spec.homes]
        assert len(set(seeds)) == len(seeds)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            generate_fleet(0)


class TestSpecStreams:
    def test_memory_stream_header_and_digest(self):
        spec = generate_fleet(3, seed=2)
        stream = spec.stream()
        assert (stream.name, stream.seed, stream.n_homes) == (spec.name, spec.seed, 3)
        assert stream.digest == spec.stream().digest
        assert stream.digest != generate_fleet(3, seed=3).stream().digest

    def test_memory_stream_is_reiterable(self):
        stream = generate_fleet(3, seed=2).stream()
        first = list(stream.iter_homes())
        second = list(stream.iter_homes())
        assert first == second and len(first) == 3

    def test_jsonl_round_trip(self, tmp_path):
        spec = generate_fleet(5, seed=9, fault_fraction=0.5)
        path = str(tmp_path / "fleet.jsonl")
        written = write_spec_jsonl(
            path, iter(spec.homes), name=spec.name, seed=spec.seed, n_homes=5
        )
        assert written == 5
        stream = JsonlSpecStream(path)
        assert (stream.name, stream.seed, stream.n_homes) == (spec.name, spec.seed, 5)
        assert tuple(stream.iter_homes()) == spec.homes
        # re-iterable: a resumed run walks the stream again from home 0
        assert tuple(stream.iter_homes()) == spec.homes

    def test_jsonl_digest_tracks_content(self, tmp_path):
        spec = generate_fleet(3, seed=1)
        a_path, b_path = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write_spec_jsonl(a_path, iter(spec.homes), seed=1)
        write_spec_jsonl(b_path, iter(spec.homes[:2]), seed=1)
        assert JsonlSpecStream(a_path).digest == JsonlSpecStream(a_path).digest
        assert JsonlSpecStream(a_path).digest != JsonlSpecStream(b_path).digest

    def test_jsonl_missing_seed_filled_with_derived(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fleet": {"name": "f", "seed": 4}}) + "\n")
            handle.write(
                json.dumps({"home_id": "home-x", "devices": ["SP10"]}) + "\n"
            )
        stream = JsonlSpecStream(path)
        (home,) = tuple(stream.iter_homes())
        assert home.seed == home_seed(4, "home-x")
        assert stream.n_homes == 1  # counted, not declared

    def test_jsonl_rejects_missing_header(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"home_id": "h", "devices": ["SP10"]}) + "\n")
        with pytest.raises(ValueError, match="header"):
            JsonlSpecStream(path)

    def test_write_rejects_wrong_declared_count(self, tmp_path):
        spec = generate_fleet(3, seed=1)
        path = str(tmp_path / "fleet.jsonl")
        with pytest.raises(ValueError, match="declared n_homes"):
            write_spec_jsonl(path, iter(spec.homes), n_homes=4)
        assert not any(tmp_path.iterdir())  # no partial file left behind

    def test_open_spec_dispatches_on_extension(self, tmp_path):
        spec = generate_fleet(2, seed=3)
        json_path = str(tmp_path / "fleet.json")
        jsonl_path = str(tmp_path / "fleet.jsonl")
        spec.dump(json_path)
        write_spec_jsonl(
            jsonl_path, iter(spec.homes), name=spec.name, seed=spec.seed
        )
        assert isinstance(open_spec(json_path), MemorySpecStream)
        assert isinstance(open_spec(jsonl_path), JsonlSpecStream)
        assert tuple(open_spec(jsonl_path).iter_homes()) == spec.homes

    def test_iter_generate_matches_materialised(self):
        spec = generate_fleet(6, seed=7, fault_fraction=0.3)
        streamed = tuple(iter_generate_fleet(6, seed=7, fault_fraction=0.3))
        assert streamed == spec.homes
