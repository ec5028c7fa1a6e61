"""Genesis file loading and the private-key provider.

The genesis file is strict JSON with exactly these fields: networkId,
validators, blockGasLimit, gasPrice, gst, delta, preGstMaxDelay,
preGstLossProb, seed, baseRoundTimeout, and keyProvider with
privateKeys, rpcUrl, min, max. Unknown fields are rejected and
parse(emit(config)) round-trips. The config is the one record of a run's
network inputs: `parse_genesis` checks every range, and `Simulation`
checks only the seed it runs, by `check_seed`.

Validator entries are 32-byte key seeds (64 hex chars) or 20-byte
addresses (40 hex chars); an address form must match a key in the
provider, since validators have to sign consensus messages. The
provider's [min, max] range is inclusive on both ends. rpcUrl is kept
as an opaque non-empty label; the simulator has no remote endpoint.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .crypto import KeyPair
from .errors import InvalidRange, MalformedConfig, MissingField
from .model import Address, _json_document, _json_int, _json_object, hx, unhx


@dataclass(frozen=True)
class KeyProvider:
    private_keys: tuple[bytes, ...]
    rpc_url: str
    min_index: int
    max_index: int


@dataclass(frozen=True)
class GenesisConfig:
    network_id: int
    validators: tuple[bytes, ...]  # 32-byte seeds, normalized
    block_gas_limit: int
    gas_price: int
    gst: int
    delta: int
    pre_gst_max_delay: int
    pre_gst_loss_prob: float
    seed: int
    base_round_timeout: int
    key_provider: KeyProvider

    def validator_keys(self) -> list[KeyPair]:
        return [KeyPair.from_seed(seed) for seed in self.validators]


def check_seed(seed: int) -> int:
    """`seed` if it lies in [0, 2**64), the seeds a run's streams take."""
    if not 0 <= seed < 1 << 64:
        raise InvalidRange("seed must fit in 64 bits")
    return seed


def active_keys(provider: KeyProvider) -> list[KeyPair]:
    """Keys at indices [min, max], both inclusive."""
    return [KeyPair.from_seed(provider.private_keys[i])
            for i in range(provider.min_index, provider.max_index + 1)]


_TOP_FIELDS = ("networkId", "validators", "blockGasLimit", "gasPrice", "gst",
               "delta", "preGstMaxDelay", "preGstLossProb", "seed",
               "baseRoundTimeout", "keyProvider")
# each integer field: JSON name, GenesisConfig attribute, least value
INT_FIELDS = (("networkId", "network_id", 1), ("blockGasLimit", "block_gas_limit", 1),
              ("gasPrice", "gas_price", 0), ("gst", "gst", 0), ("delta", "delta", 1),
              ("preGstMaxDelay", "pre_gst_max_delay", 0), ("seed", "seed", 0),
              ("baseRoundTimeout", "base_round_timeout", 1))
_PROVIDER_FIELDS = ("privateKeys", "rpcUrl", "min", "max")


def _uint(obj: dict, name: str, minimum: int = 0) -> int:
    value = _json_int(obj[name], f"field {name!r}", MalformedConfig)
    if value < minimum:
        raise InvalidRange(f"field {name!r} must be >= {minimum}")
    return value


def _hex_list(obj: dict, name: str, what: str) -> Iterator[tuple[str, bytes]]:
    """Each entry of the non-empty list `obj[name]` and its bytes, decoded
    lazily, so the caller's checks on earlier entries come first."""
    entries = obj[name]
    if not isinstance(entries, list) or not entries:
        raise MalformedConfig(f"{name} must be a non-empty list")
    for entry in entries:
        try:
            raw = unhx(entry)
        except (TypeError, ValueError) as exc:
            raise MalformedConfig(f"bad {what} {entry!r}: {exc}") from None
        yield entry, raw


def parse_genesis(data: bytes) -> GenesisConfig:
    obj = _json_object(_json_document(data, "genesis", MalformedConfig), _TOP_FIELDS,
                       (), "genesis", MalformedConfig, MissingField)
    provider_obj = _json_object(obj["keyProvider"], _PROVIDER_FIELDS, (), "keyProvider",
                                MalformedConfig, MissingField)

    private_keys = []
    for _, raw in _hex_list(provider_obj, "privateKeys", "private key"):
        if len(raw) != 32:
            raise MalformedConfig("private keys must be 32 bytes")
        private_keys.append(raw)

    rpc_url = provider_obj["rpcUrl"]
    if not isinstance(rpc_url, str) or not rpc_url:
        raise MalformedConfig("rpcUrl must be a non-empty string")
    min_index = _uint(provider_obj, "min")
    max_index = _uint(provider_obj, "max")
    if not 0 <= min_index <= max_index < len(private_keys):
        raise InvalidRange(
            f"need 0 <= min <= max < {len(private_keys)}, "
            f"got min={min_index} max={max_index}")
    provider = KeyProvider(tuple(private_keys), rpc_url, min_index, max_index)

    ints = {attr: _uint(obj, name, least) for name, attr, least in INT_FIELDS}
    loss = obj["preGstLossProb"]
    if isinstance(loss, bool) or not isinstance(loss, (int, float)):
        raise MalformedConfig("preGstLossProb must be a number")
    if not 0.0 <= float(loss) <= 1.0:
        raise InvalidRange("preGstLossProb must be in [0, 1]")
    check_seed(ints["seed"])

    by_address = {KeyPair.from_seed(k).address: k for k in private_keys}
    seeds = []
    for entry, raw in _hex_list(obj, "validators", "validator"):
        if len(raw) == 32:
            seeds.append(raw)
        elif len(raw) == 20:
            seed_for = by_address.get(Address(raw))
            if seed_for is None:
                raise MalformedConfig(
                    f"validator address {entry} has no key in keyProvider")
            seeds.append(seed_for)
        else:
            raise MalformedConfig("validator entries must be 32-byte seeds "
                                  "or 20-byte addresses")
    addresses = [KeyPair.from_seed(s).address for s in seeds]
    if len(set(addresses)) != len(addresses):
        raise MalformedConfig("validator addresses must be distinct")

    return GenesisConfig(validators=tuple(seeds), pre_gst_loss_prob=float(loss),
                         key_provider=provider, **ints)


def emit_genesis(cfg: GenesisConfig) -> bytes:
    obj = {name: getattr(cfg, attr) for name, attr, _ in INT_FIELDS}
    obj.update(validators=[hx(s) for s in cfg.validators],
               preGstLossProb=cfg.pre_gst_loss_prob, keyProvider={
                   "privateKeys": [hx(k) for k in cfg.key_provider.private_keys],
                   "rpcUrl": cfg.key_provider.rpc_url,
                   "min": cfg.key_provider.min_index,
                   "max": cfg.key_provider.max_index,
               })
    ordered = {name: obj[name] for name in _TOP_FIELDS}
    return (json.dumps(ordered, indent=2) + "\n").encode("utf-8")
