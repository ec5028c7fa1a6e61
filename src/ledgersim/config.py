"""Genesis file loading and the private-key provider.

The genesis file is strict JSON with exactly these fields: networkId,
validators, blockGasLimit, gasPrice, gst, delta, preGstMaxDelay,
preGstLossProb, seed, baseRoundTimeout, and keyProvider with
privateKeys, rpcUrl, min, max. Unknown fields are rejected and
parse(emit(config)) round-trips.

Validator entries are 32-byte key seeds (64 hex chars) or 20-byte
addresses (40 hex chars); an address form must match a key in the
provider, since validators have to sign consensus messages. The
provider's [min, max] range is inclusive on both ends. rpcUrl is kept
as an opaque non-empty label; the simulator has no remote endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .crypto import KeyPair
from .errors import InvalidRange, MalformedConfig, MissingField
from .model import Address, _json_int, hx, unhx
from .netsim import NetworkParams


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

    @property
    def network_params(self) -> NetworkParams:
        return NetworkParams(self.gst, self.delta, self.pre_gst_max_delay,
                             self.pre_gst_loss_prob, self.seed)

    def validator_keys(self) -> list[KeyPair]:
        return [KeyPair.from_seed(seed) for seed in self.validators]


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


def _require(obj: dict, fields: tuple[str, ...], where: str) -> None:
    for name in fields:
        if name not in obj:
            raise MissingField(f"{where}: missing field {name!r}")
    for name in obj:
        if name not in fields:
            raise MalformedConfig(f"{where}: unknown field {name!r}")


def _uint(obj: dict, name: str, minimum: int = 0) -> int:
    value = _json_int(obj[name], f"field {name!r}", MalformedConfig)
    if value < minimum:
        raise InvalidRange(f"field {name!r} must be >= {minimum}")
    return value


def parse_genesis(data: bytes) -> GenesisConfig:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedConfig(f"genesis is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedConfig("genesis must be a JSON object")
    _require(obj, _TOP_FIELDS, "genesis")

    provider_obj = obj["keyProvider"]
    if not isinstance(provider_obj, dict):
        raise MalformedConfig("keyProvider must be an object")
    _require(provider_obj, _PROVIDER_FIELDS, "keyProvider")

    raw_keys = provider_obj["privateKeys"]
    if not isinstance(raw_keys, list) or not raw_keys:
        raise MalformedConfig("privateKeys must be a non-empty list")
    private_keys = []
    for entry in raw_keys:
        try:
            raw = unhx(entry)
        except (TypeError, ValueError) as exc:
            raise MalformedConfig(f"bad private key {entry!r}: {exc}") from None
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
    if ints["seed"] >= 1 << 64:
        raise InvalidRange("seed must fit in 64 bits")

    raw_validators = obj["validators"]
    if not isinstance(raw_validators, list) or not raw_validators:
        raise MalformedConfig("validators must be a non-empty list")
    by_address = {KeyPair.from_seed(k).address: k for k in private_keys}
    seeds = []
    for entry in raw_validators:
        try:
            raw = unhx(entry)
        except (TypeError, ValueError) as exc:
            raise MalformedConfig(f"bad validator {entry!r}: {exc}") from None
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
