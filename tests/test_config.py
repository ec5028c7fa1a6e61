"""Genesis parsing: strictness, ranges, round-trips, key provider."""

import json
import random
import re

import pytest

from ledgersim.config import active_keys, emit_genesis, parse_genesis
from ledgersim.consensus import quorum_size
from ledgersim.crypto import KeyPair
from ledgersim.errors import InvalidRange, MalformedConfig, MissingField
from ledgersim.model import hx

from conftest import SEEDS, make_genesis


def paper_faithful_obj():
    return {
        "networkId": 1337,
        "validators": [hx(s) for s in SEEDS[:4]],
        "blockGasLimit": 4_500_000,
        "gasPrice": 0,
        "gst": 100,
        "delta": 5,
        "preGstMaxDelay": 50,
        "preGstLossProb": 0.1,
        "seed": 42,
        "baseRoundTimeout": 30,
        "keyProvider": {
            "privateKeys": [hx(s) for s in SEEDS],
            "rpcUrl": "http://localhost:8545",
            "min": 0,
            "max": len(SEEDS) - 1,
        },
    }


def dumps(obj) -> bytes:
    return json.dumps(obj).encode()


class TestParse:
    def test_paper_faithful_file_parses_with_quorum_3(self):
        cfg = parse_genesis(dumps(paper_faithful_obj()))
        assert cfg.network_id == 1337
        assert cfg.block_gas_limit == 4_500_000
        assert cfg.gas_price == 0
        assert len(cfg.validators) == 4
        assert quorum_size(len(cfg.validators)) == 3

    def test_min_greater_than_max_rejected(self):
        obj = paper_faithful_obj()
        obj["keyProvider"]["min"] = 3
        obj["keyProvider"]["max"] = 1
        with pytest.raises(InvalidRange):
            parse_genesis(dumps(obj))

    def test_missing_field_rejected(self):
        obj = paper_faithful_obj()
        del obj["delta"]
        with pytest.raises(MissingField):
            parse_genesis(dumps(obj))

    def test_unknown_field_rejected(self):
        obj = paper_faithful_obj()
        obj["surprise"] = 1
        with pytest.raises(MalformedConfig):
            parse_genesis(dumps(obj))

    def test_unknown_provider_field_rejected(self):
        obj = paper_faithful_obj()
        obj["keyProvider"]["extra"] = 1
        with pytest.raises(MalformedConfig):
            parse_genesis(dumps(obj))

    def test_syntax_error_rejected(self):
        with pytest.raises(MalformedConfig):
            parse_genesis(b"{not json")

    def test_network_id_zero_rejected(self):
        obj = paper_faithful_obj()
        obj["networkId"] = 0
        with pytest.raises(InvalidRange):
            parse_genesis(dumps(obj))

    def test_validator_by_address_resolves_provider_key(self):
        obj = paper_faithful_obj()
        addr = KeyPair.from_seed(SEEDS[0]).address
        obj["validators"][0] = hx(addr)
        cfg = parse_genesis(dumps(obj))
        assert cfg.validators[0] == SEEDS[0]

    def test_validator_address_without_provider_key_rejected(self):
        obj = paper_faithful_obj()
        stranger = KeyPair.from_seed(b"\xaa" * 32)
        obj["validators"][0] = hx(stranger.address)
        with pytest.raises(MalformedConfig):
            parse_genesis(dumps(obj))

    @pytest.mark.parametrize("field, value, message", [
        ("privateKeys", [], "privateKeys must be a non-empty list"),
        ("privateKeys", ["abcd"], "bad private key 'abcd': expected 0x prefix"),
        ("privateKeys", [None], "bad private key None"),
        ("privateKeys", ["0x1234", "0xzz"], "private keys must be 32 bytes"),
        ("validators", "0x00", "validators must be a non-empty list"),
        ("validators", [5], "bad validator 5"),
        ("validators", ["0x" + "aa" * 20, "0xzz"],
         "validator address 0x" + "aa" * 20 + " has no key"),
    ], ids=["keys_empty", "keys_no_0x", "keys_null", "keys_short_first",
            "validators_string", "validators_int", "validators_stranger_first"])
    def test_hex_list_refusals_name_their_field(self, field, value, message):
        """Each entry is refused in list order, so the first bad entry is the
        one the message names."""
        obj = paper_faithful_obj()
        (obj["keyProvider"] if field == "privateKeys" else obj)[field] = value
        with pytest.raises(MalformedConfig, match=re.escape(message)):
            parse_genesis(dumps(obj))

    def test_loss_probability_out_of_range_rejected(self):
        obj = paper_faithful_obj()
        obj["preGstLossProb"] = -0.5
        with pytest.raises(InvalidRange):
            parse_genesis(dumps(obj))

    @pytest.mark.parametrize("field, value", [("delta", 0), ("preGstLossProb", 1.5)])
    def test_network_field_out_of_range_rejected(self, field, value):
        """The genesis file is the one record of the network's inputs, and
        the parse is where its ranges are checked."""
        obj = paper_faithful_obj()
        obj[field] = value
        with pytest.raises(InvalidRange):
            parse_genesis(dumps(obj))

    def test_loss_probability_one_accepted(self):
        obj = paper_faithful_obj()
        obj["preGstLossProb"] = 1.0
        assert parse_genesis(dumps(obj)).pre_gst_loss_prob == 1.0


class TestRoundTrip:
    def test_emit_parse_identity_on_random_configs(self):
        rng = random.Random(17)
        for _ in range(25):
            n_keys = rng.randrange(1, 8)
            seeds = tuple(rng.randbytes(32) for _ in range(n_keys))
            lo = rng.randrange(n_keys)
            hi = rng.randrange(lo, n_keys)
            cfg = make_genesis(seed=rng.randrange(1 << 32))
            cfg = type(cfg)(
                network_id=rng.randrange(1, 10_000),
                validators=seeds[: rng.randrange(1, n_keys + 1)],
                block_gas_limit=rng.randrange(21_000, 10_000_000),
                gas_price=rng.randrange(0, 3),
                gst=rng.randrange(0, 500),
                delta=rng.randrange(1, 20),
                pre_gst_max_delay=rng.randrange(0, 100),
                pre_gst_loss_prob=round(rng.random(), 6),
                seed=rng.randrange(1 << 64),
                base_round_timeout=rng.randrange(1, 100),
                key_provider=type(cfg.key_provider)(
                    seeds, "http://node", lo, hi),
            )
            assert parse_genesis(emit_genesis(cfg)) == cfg

    def test_paper_file_round_trips(self):
        cfg = parse_genesis(dumps(paper_faithful_obj()))
        assert parse_genesis(emit_genesis(cfg)) == cfg

    def test_mutated_emissions_rejected(self):
        cfg = parse_genesis(dumps(paper_faithful_obj()))
        blob = emit_genesis(cfg)
        obj = json.loads(blob)
        obj["gasLimit"] = obj.pop("blockGasLimit")  # renamed field
        with pytest.raises(MalformedConfig):
            parse_genesis(dumps(obj))

    def test_mutation_fuzz_strictness(self):
        # anything emit_genesis could not have produced must be rejected
        rng = random.Random(41)
        base = json.loads(emit_genesis(parse_genesis(dumps(paper_faithful_obj()))))
        top_keys = [k for k in base if k != "keyProvider"]
        for _ in range(120):
            obj = json.loads(json.dumps(base))
            mutation = rng.randrange(5)
            if mutation == 0:  # drop a field
                obj.pop(rng.choice(top_keys))
            elif mutation == 1:  # add an unknown field
                obj[f"extra{rng.randrange(10)}"] = 1
            elif mutation == 2:  # rename a field
                key = rng.choice(top_keys)
                obj[key + "X"] = obj.pop(key)
            elif mutation == 3:  # type flip on an integer field
                key = rng.choice(["networkId", "blockGasLimit", "delta", "seed"])
                obj[key] = str(obj[key])
            else:  # break the provider
                choice = rng.randrange(3)
                if choice == 0:
                    obj["keyProvider"].pop("rpcUrl")
                elif choice == 1:
                    obj["keyProvider"]["min"] = len(
                        obj["keyProvider"]["privateKeys"])
                else:
                    obj["keyProvider"]["privateKeys"] = ["0x1234"]
            with pytest.raises(MalformedConfig):
                parse_genesis(dumps(obj))


class TestActiveKeys:
    def test_full_range_yields_all_keys(self, genesis_cfg):
        provider = genesis_cfg.key_provider
        keys = active_keys(provider)
        assert len(keys) == len(provider.private_keys)

    def test_singleton_range(self, genesis_cfg):
        provider = type(genesis_cfg.key_provider)(
            genesis_cfg.key_provider.private_keys, "u", 2, 2)
        keys = active_keys(provider)
        assert len(keys) == 1
        assert keys[0] == KeyPair.from_seed(provider.private_keys[2])

    def test_four_validator_configuration(self, genesis_cfg):
        provider = type(genesis_cfg.key_provider)(
            genesis_cfg.key_provider.private_keys[:4], "u", 0, 3)
        assert len(active_keys(provider)) == 4

    def test_derived_addresses_distinct_for_random_seeds(self):
        rng = random.Random(23)
        seeds = [rng.randbytes(32) for _ in range(1000)]
        addresses = {KeyPair.from_seed(s).address for s in seeds}
        assert len(addresses) == len(seeds)
