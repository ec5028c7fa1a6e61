"""Replay verdicts: the first failing check in chain order names the
height, whatever batching of digests runs ahead of the checks."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from ledgersim import contract, replay
from ledgersim.config import parse_genesis
from ledgersim.consensus import MsgKind, make_message
from ledgersim.errors import CorruptDump
from ledgersim.model import (
    Address, Hash256, Signature, block_from_json, block_hash, block_to_json,
    hx, tx_hash,
)
from ledgersim.replay import receipt_from_dump, replay_chain
from ledgersim.scenario import parse_scenario, run_scenario
from ledgersim.simulation import genesis_setup

ROOT = Path(__file__).resolve().parent.parent
GENESIS = parse_genesis((ROOT / "scenarios" / "genesis_paper.json").read_bytes())
MID = 10  # a middle height of the paper_flow dump


@pytest.fixture(scope="module")
def paper_blocks(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper_flow")
    scenario = parse_scenario((ROOT / "scenarios" / "paper_flow.json").read_bytes())
    code, _ = run_scenario(GENESIS, scenario, out_dir=out)
    assert code == 0
    lines = (out / "chain.jsonl").read_text().splitlines()
    return [block_from_json(json.loads(line)) for line in lines]


def emit(blocks) -> bytes:
    return "".join(json.dumps(block_to_json(b), sort_keys=True) + "\n"
                   for b in blocks).encode()


def reseal(blocks, start):
    """Re-link and re-seal blocks[start:], as validators would have after
    an edit, so only the edit itself can fail a check."""
    keys = GENESIS.validator_keys()[:3]
    out = list(blocks[:start])
    for block in blocks[start:]:
        block = replace(block, parent_hash=block_hash(out[-1]))
        out.append(replace(block, commit_seals=tuple(
            (k.address, make_message(k, MsgKind.COMMIT, block.height, block.round,
                                     block_hash(block)).signature)
            for k in keys)))
    return out


@pytest.fixture(scope="module")
def chain(paper_blocks):
    """The paper_flow chain with a signed transaction replayed in block
    MID: it fails BadNonce, so state roots are unchanged and the chain is
    valid, but block MID now has a transaction to corrupt."""
    assert len(paper_blocks) > MID + 1
    again = paper_blocks[2].txs[3]  # addFunds, nonce long used
    blocks = list(paper_blocks)
    blocks[MID] = replace(blocks[MID], txs=(again,))
    return reseal(blocks, MID)


def edit_tx(chain, height, **fields):
    blocks = list(chain)
    blocks[height] = replace(blocks[height],
                             txs=(replace(blocks[height].txs[0], **fields),))
    return reseal(blocks, height)


def edit_block(chain, height, **fields):
    blocks = list(chain)
    blocks[height] = replace(blocks[height], **fields)
    return reseal(blocks, height)


def declared_hash_changed(chain, height):
    lines = emit(chain).decode().splitlines()
    obj = json.loads(lines[height])
    obj["hash"] = hx(bytes(32))
    lines[height] = json.dumps(obj, sort_keys=True)
    return ("\n".join(lines) + "\n").encode()


def seals_dropped(chain, height):
    blocks = list(chain)
    blocks[height] = replace(blocks[height],
                             commit_seals=blocks[height].commit_seals[:2])
    return emit(blocks)


def gas_over_limit(chain, height):
    return emit(edit_tx(chain, height, gas_limit=GENESIS.block_gas_limit + 1))


def signature_flipped(chain, height):
    sig = chain[height].txs[0].signature
    return emit(edit_tx(chain, height, signature=Signature(bytes([sig[0] ^ 1]) + sig[1:])))


def sender_unknown(chain, height):
    return emit(edit_tx(chain, height, sender=Address(b"\x99" * 20)))


def state_root_changed(chain, height):
    return emit(edit_block(chain, height, state_root=Hash256(b"\x11" * 32)))


CORRUPTIONS = [
    (declared_hash_changed, "declared hash mismatch"),
    (seals_dropped, "seal or linkage check failed"),
    (gas_over_limit, "block gas limit exceeded"),
    (signature_flipped, "bad transaction signature"),
    (sender_unknown, "transaction from unknown sender"),
    (state_root_changed, "state root mismatch"),
]
IDS = [make.__name__ for make, _ in CORRUPTIONS]


def intact(chain, height):
    return emit(chain)


@pytest.mark.parametrize("make,reason", [(intact, None)] + CORRUPTIONS[2:],
                         ids=["intact"] + IDS[2:])
def test_the_content_check_gives_the_replay_reason(chain, make, reason):
    """Validators and replay share `block_content_error`; fed the block
    and the ledger after it, it names what replay names."""
    blocks = [block_from_json(json.loads(line))
              for line in make(chain, MID).decode().splitlines()]
    ledger = contract.genesis_ledger()
    for block in blocks[1:MID + 1]:
        ledger, _ = contract.execute_block_txs(ledger, block.txs)
    _, registry, _ = genesis_setup(GENESIS)
    assert contract.block_content_error(blocks[MID], ledger, registry,
                                        GENESIS.block_gas_limit) == reason


def verdict(dump):
    v = replay_chain(GENESIS, dump)
    return v.ok, v.height, v.reason


def test_the_edited_chain_is_intact(chain):
    assert replay_chain(GENESIS, emit(chain)).ok


@pytest.mark.parametrize("window", [1, 3, 64])
@pytest.mark.parametrize("make,reason", CORRUPTIONS, ids=IDS)
def test_each_corruption_is_named_at_its_height(chain, monkeypatch, window, make, reason):
    monkeypatch.setattr(replay, "_WINDOW", window)
    assert verdict(make(chain, MID)) == (False, MID, reason)


@pytest.mark.parametrize("make,reason", CORRUPTIONS, ids=IDS)
def test_the_lower_height_wins(chain, make, reason):
    """A failure of a check that runs earlier within a block, placed one
    height later, does not hide this one."""
    later = declared_hash_changed(chain, MID + 1).decode().splitlines()
    dump = make(chain, MID).decode().splitlines()
    dump[MID + 1] = later[MID + 1]
    assert verdict(("\n".join(dump) + "\n").encode()) == (False, MID, reason)


def test_receipt_is_found_in_one_verified_pass(chain):
    deploy = chain[2].txs[0]
    receipt = receipt_from_dump(GENESIS, emit(chain), tx_hash(deploy))
    assert receipt["height"] == 2
    assert receipt["status"] == "SUCCESS"
    assert receipt["gasUsed"] == 200_000


def test_receipt_of_a_replayed_transaction_is_its_first(chain):
    again = chain[MID].txs[0]
    receipt = receipt_from_dump(GENESIS, emit(chain), tx_hash(again))
    assert receipt["height"] == 2
    assert receipt["status"] == "SUCCESS"


def test_receipt_needs_the_whole_chain_intact(chain):
    """The wanted transaction is at height 2; a corruption after it still
    refuses the lookup."""
    with pytest.raises(CorruptDump, match=f"height {MID}: state root"):
        receipt_from_dump(GENESIS, state_root_changed(chain, MID),
                          tx_hash(chain[2].txs[0]))


def test_receipt_of_an_absent_transaction_is_none(chain):
    assert receipt_from_dump(GENESIS, emit(chain), bytes(32)) is None


@pytest.mark.parametrize("height,index,edit", [
    (MID, 0, lambda tx: tx.update(nonce=-1)),
    (MID, 0, lambda tx: tx.update(gasLimit=1 << 64)),
    (2, 2, lambda tx: tx["payload"].update(account="\ud800")),  # registerBankAccount
    (2, 2, lambda tx: tx["payload"].update(account=None)),
    (MID, 0, lambda tx: tx.update(sender=int(tx["sender"], 16))),
    (MID, 0, lambda tx: tx.update(payload="addFunds")),
], ids=["negative_nonce", "gas_limit_over_u64", "lone_surrogate_account",
        "null_account", "integer_sender", "string_payload"])
def test_a_field_its_encoding_cannot_hold_is_a_corrupt_dump(chain, height, index, edit):
    lines = emit(chain).decode().splitlines()
    obj = json.loads(lines[height])
    edit(obj["txs"][index])
    lines[height] = json.dumps(obj, sort_keys=True)
    with pytest.raises(CorruptDump, match=f"line {height + 1}"):
        replay_chain(GENESIS, "\n".join(lines).encode())


def tx_hash_rewritten(chain, height):
    """The dump with the first transaction of `height` declaring a wrong
    hash; every field that is hashed or signed is intact."""
    return rewrite_line(emit(chain), height,
                        lambda obj: obj["txs"][0].update(hash="0x" + "ab" * 32))


def rewrite_line(dump, height, edit):
    lines = dump.decode().splitlines()
    obj = json.loads(lines[height])
    edit(obj)
    lines[height] = json.dumps(obj, sort_keys=True)
    return ("\n".join(lines) + "\n").encode()


def test_a_declared_tx_hash_is_checked_on_the_paper_flow_dump(paper_blocks):
    deploy_height = 2
    dump = tx_hash_rewritten(paper_blocks, deploy_height)
    assert verdict(dump) == (False, deploy_height, "declared tx hash mismatch")


@pytest.mark.parametrize("window", [1, 3, 64])
def test_a_declared_tx_hash_is_named_at_its_height(chain, monkeypatch, window):
    monkeypatch.setattr(replay, "_WINDOW", window)
    assert verdict(tx_hash_rewritten(chain, MID)) == (False, MID, "declared tx hash mismatch")


@pytest.mark.parametrize("make,reason", CORRUPTIONS, ids=IDS)
def test_the_declared_tx_hash_is_checked_last(chain, make, reason):
    """At one height, every other corruption still gives its own reason."""
    dump = rewrite_line(make(chain, MID), MID,
                        lambda obj: obj["txs"][0].update(hash="0x" + "ab" * 32))
    assert verdict(dump) == (False, MID, reason)


@pytest.mark.parametrize("edit", [
    lambda obj: obj.update(height=MID + 0.7),
    lambda obj: obj.update(height=float(MID)),
    lambda obj: obj.update(round=str(obj["round"])),
    lambda obj: obj["txs"][0].update(nonce=str(obj["txs"][0]["nonce"])),
    lambda obj: obj["txs"][0].update(gasLimit=float(obj["txs"][0]["gasLimit"])),
    lambda obj: obj["txs"][0].update(gasPrice=True),
    lambda obj: obj["txs"][0]["payload"].update(amt="0" + obj["txs"][0]["payload"]["amt"]),
    lambda obj: obj["txs"][0]["payload"].update(amt=int(obj["txs"][0]["payload"]["amt"])),
], ids=["height_float", "height_integral_float", "round_str", "nonce_str",
        "gas_limit_float", "gas_price_bool", "amount_leading_zero", "amount_int"])
def test_a_number_that_is_not_a_json_integer_is_a_corrupt_dump(chain, edit):
    """Block MID's transaction is an addFunds; at the parent each of these
    was coerced and the dump replayed OK."""
    with pytest.raises(CorruptDump, match=f"line {MID + 1}"):
        replay_chain(GENESIS, rewrite_line(emit(chain), MID, edit))
