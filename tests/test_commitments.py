"""State roots: the two-level Keccak tree over address buckets, its
batched entry point and its slot; and pinned golden values of both
commitments. Block-hash trees are tested in test_model.py."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ledgersim import contract, keccak
from ledgersim.config import parse_genesis
from ledgersim.contract import ContractState, LedgerState, state_root, state_roots
from ledgersim.keccak import keccak256
from ledgersim.model import (
    AMOUNT_MAX, Address, AddFunds, AddRecipient, Amount, Deploy, Hash256,
    RegisterBankAccount, RemoveRecipient, SendAllowance, Signature, Transaction,
    ZERO_HASH, hx,
)
from ledgersim.scenario import parse_scenario, run_scenario

from keccak_reference import keccak256_reference

ROOT = Path(__file__).resolve().parent.parent

# first address bytes 0x00 and 0xff are the edge buckets
first_bytes = st.one_of(st.sampled_from([0x00, 0xFF]), st.integers(0, 255))
addresses = st.builds(lambda first, rest: Address(bytes([first]) + rest),
                      first_bytes, st.binary(min_size=19, max_size=19))
hashes = st.binary(min_size=32, max_size=32).map(Hash256)
amounts = st.integers(min_value=0, max_value=(1 << 128) - 1).map(Amount)


def _states(pool):
    keys = st.sampled_from(pool)
    return st.builds(
        ContractState,
        organization=addresses,
        recipients=st.dictionaries(keys, st.booleans()),
        bank_accounts=st.dictionaries(keys, hashes),
        balances=st.dictionaries(keys, amounts),
        deployed=st.booleans(),
    )


# accounts drawn from a small pool, so they share buckets and dicts
states = st.lists(addresses, min_size=1, max_size=12, unique=True).flatmap(_states)


def _root_oracle(state: ContractState) -> bytes:
    """The state root, computed from the fields alone with scalar Keccak."""
    buckets = [b""] * 256
    accounts = set(state.recipients) | set(state.bank_accounts) | set(state.balances)
    for addr in sorted(accounts):
        flags, values = 0, b""
        if addr in state.recipients:
            flags |= 1 | (2 if state.recipients[addr] else 0)
        if addr in state.bank_accounts:
            flags |= 4
            values += state.bank_accounts[addr]
        if addr in state.balances:
            flags |= 8
            values += int(state.balances[addr]).to_bytes(16, "big")
        buckets[addr[0]] += addr + bytes([flags]) + values
    digests = [keccak256(b) for b in buckets]
    groups = [keccak256(b"".join(digests[i:i + 16])) for i in range(0, 256, 16)]
    return keccak256(state.organization + bytes([state.deployed]) + b"".join(groups))


def _copy(state: ContractState, **changes) -> ContractState:
    """A cold copy, its dicts rebuilt in reverse insertion order."""
    args = {"organization": state.organization, "deployed": state.deployed}
    for name in ("recipients", "bank_accounts", "balances"):
        args[name] = dict(reversed(list(getattr(state, name).items())))
    args.update(changes)
    return ContractState(**args)


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


class TestStateRoot:
    @given(state=states)
    def test_root_matches_the_oracle(self, state):
        assert state_root(state) == _root_oracle(state)

    @given(state=states)
    def test_root_ignores_dict_insertion_order(self, state):
        assert state_root(_copy(state)) == state_root(state)

    @given(state=states, data=st.data())
    def test_any_single_change_alters_the_root(self, state, data):
        present = sorted(set(state.recipients) | set(state.bank_accounts)
                         | set(state.balances))
        kinds = ["organization", "deployed", "added key"]
        if state.recipients:
            kinds.append("recipient flag")
        if state.bank_accounts:
            kinds.append("bank hash")
        if state.balances:
            kinds.append("balance")
        if present:
            kinds.append("removed key")
        kind = data.draw(st.sampled_from(kinds))
        if kind == "organization":
            changed = _copy(state, organization=Address(_flip(state.organization)))
        elif kind == "deployed":
            changed = _copy(state, deployed=not state.deployed)
        elif kind == "recipient flag":
            addr = data.draw(st.sampled_from(sorted(state.recipients)))
            changed = _copy(state, recipients={**state.recipients,
                                               addr: not state.recipients[addr]})
        elif kind == "bank hash":
            addr = data.draw(st.sampled_from(sorted(state.bank_accounts)))
            changed = _copy(state, bank_accounts={
                **state.bank_accounts, addr: Hash256(_flip(state.bank_accounts[addr]))})
        elif kind == "balance":
            addr = data.draw(st.sampled_from(sorted(state.balances)))
            old = int(state.balances[addr])
            changed = _copy(state, balances={
                **state.balances, addr: Amount(old - 1 if old else 1)})
        elif kind == "added key":
            addr = data.draw(addresses.filter(lambda a: a not in present))
            name = data.draw(st.sampled_from(["recipients", "bank_accounts", "balances"]))
            value = {"recipients": False, "bank_accounts": ZERO_HASH,
                     "balances": Amount(0)}[name]
            changed = _copy(state, **{name: {**getattr(state, name), addr: value}})
        else:
            name = data.draw(st.sampled_from(
                [n for n in ("recipients", "bank_accounts", "balances")
                 if getattr(state, n)]))
            addr = data.draw(st.sampled_from(sorted(getattr(state, name))))
            rest = {a: v for a, v in getattr(state, name).items() if a != addr}
            changed = _copy(state, **{name: rest})
        assert state_root(changed) != state_root(state)

    def test_edge_buckets(self):
        low, high = Address(b"\x00" * 20), Address(b"\xff" * 20)
        base = contract.fresh_state()
        at_low = _copy(base, balances={low: Amount(5)})
        at_high = _copy(base, balances={high: Amount(5)})
        both = _copy(base, balances={low: Amount(5), high: Amount(5)})
        roots = {state_root(s) for s in (base, at_low, at_high, both)}
        assert len(roots) == 4
        for s in (at_low, at_high, both):
            assert state_root(_copy(s)) == _root_oracle(s)

    @given(batch=st.lists(states, max_size=20))
    def test_batched_and_singular_agree_on_a_cold_memo(self, batch):
        keccak._memo.clear()
        together = state_roots(batch)
        for state, root in zip(batch, together):
            keccak._memo.clear()
            assert state_root(_copy(state)) == root
            assert state._root == root

    def test_state_keeps_its_root_and_copies_do_not(self):
        state = _copy(contract.fresh_state(), balances={Address(b"\x01" * 20): Amount(1)})
        assert state._root is None
        root = state_root(state)
        assert state._root == root
        changed, _ = contract.add_funds(_copy(state, deployed=True,
                                              organization=Address(b"\x01" * 20)),
                                        Address(b"\x01" * 20), Amount(2))
        assert changed._root is None
        assert state_root(changed) == _root_oracle(changed)


# --- roots of executed blocks ---------------------------------------------

ORG = Address(b"\x01" * 20)
OUTSIDER = Address(b"\xff" * 20)
# recipients in the organization's bucket, in the edge buckets and two to a bucket
POOL = [Address(bytes([first]) + bytes([k]) * 19)
        for k, first in enumerate([0x00, 0x01, 0x01, 0x80, 0x80, 0xFF], start=2)]
pool_addresses = st.sampled_from(POOL)
payloads = st.one_of(
    st.just(Deploy()),
    st.builds(AddRecipient, pool_addresses),
    st.builds(RemoveRecipient, pool_addresses),
    st.builds(RegisterBankAccount, pool_addresses, st.sampled_from(["", "IBAN-1", "IBAN-2"])),
    st.builds(AddFunds, st.sampled_from([0, 5, 1000, AMOUNT_MAX]).map(Amount)),
    st.builds(SendAllowance, pool_addresses, st.sampled_from([1, 300, 5000]).map(Amount)),
)
# (sender, nonce offset, payload); an offset other than 0 is a bad nonce
steps = st.lists(st.tuples(st.sampled_from([ORG] * 5 + [OUTSIDER]),
                           st.sampled_from([0] * 8 + [1, 2]), payloads), max_size=24)
# a deployed state built straight from its tables, so it has no leaves yet
built_parents = st.builds(
    lambda recipients, banks, balances, funds: LedgerState(
        ContractState(ORG, recipients, banks, {**balances, ORG: funds}, True), {}),
    st.dictionaries(pool_addresses, st.booleans(), min_size=3),
    st.dictionaries(pool_addresses, hashes),
    st.dictionaries(pool_addresses, amounts),
    st.integers(0, 10_000).map(Amount))
parents = st.one_of(st.builds(contract.genesis_ledger), built_parents)


def _transactions(start: LedgerState, drawn, deploy_at: int = 0) -> list[Transaction]:
    """The drawn steps as transactions, their nonces counted from `start`.
    On an undeployed start, the organization deploys at step `deploy_at`."""
    if not start.contract.deployed:
        drawn = list(drawn)
        drawn.insert(min(deploy_at, len(drawn)), (ORG, 0, Deploy()))
    nonces = dict(start.nonces)
    txs = []
    for sender, offset, payload in drawn:
        expected = nonces.get(sender, 0)
        if offset == 0:
            nonces[sender] = expected + 1
        txs.append(Transaction(sender, expected + offset, payload,
                               contract.gas_for(payload), 0, Signature(b"")))
    return txs


def _blocks(txs: list, cuts: list[int]) -> list[tuple]:
    bounds = [0, *sorted(c % (len(txs) + 1) for c in cuts), len(txs)]
    return [tuple(txs[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestCommittedRoots:
    """A committed state rebuilds only the buckets its block wrote; its
    root must still be the root of its tables."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(start=parents, drawn=steps, deploy_at=st.integers(0, 4),
           cuts=st.lists(st.integers(0, 24), max_size=6))
    def test_every_committed_root_matches_the_oracle(self, start, drawn, deploy_at, cuts):
        txs = _transactions(start, drawn, deploy_at)
        ledger = start
        for block in _blocks(txs, cuts):
            ledger, _ = contract.execute_block_txs(ledger, block)
            assert state_root(ledger.contract) == _root_oracle(ledger.contract)
        one_by_one = start
        for tx in txs:
            one_by_one, _ = contract.execute_block_txs(one_by_one, (tx,))
        assert one_by_one.contract == ledger.contract
        assert one_by_one.nonces == ledger.nonces

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(start=parents, first=steps, second=steps)
    def test_sibling_blocks_on_one_parent(self, start, first, second):
        parent = start.contract
        tables = (dict(parent.recipients), dict(parent.bank_accounts), dict(parent.balances))
        children = [contract.execute_block_txs(start, tuple(_transactions(start, drawn)))[0]
                    for drawn in (first, second)]
        assert state_roots([c.contract for c in children]) == [
            _root_oracle(c.contract) for c in children]
        assert (parent.recipients, parent.bank_accounts, parent.balances) == tables
        assert state_root(parent) == _root_oracle(parent)


class TestGoldenValues:
    """Pinned commitments; a change here is a deliberate encoding change."""

    def test_fresh_state_root(self):
        assert hx(state_root(contract.fresh_state())) == (
            "0xa5af9989a5493862f7344174b4e4207ec559fac1cbabbcacae70e26269982313")

    def test_paper_flow_head(self, paper_flow_chain):
        head = paper_flow_chain[-1]
        assert head["height"] == 36
        assert head["hash"] == (
            "0xe0c5b3d0040502b54066516f53fed24371a68a1279179e4ec4f9b3849cba56e0")
        assert head["stateRoot"] == (
            "0xaa15e9e1087de94efd22767880cc864f060fc08ddf9eb9091d88f2aed6649d69")

    def test_paper_flow_chain_rederived(self, paper_flow_chain):
        """Every block hash, tx signature and commit seal of the paper_flow
        dump, re-derived from the dump's fields alone: the README's
        block-hash layout over the bit-level reference Keccak, and
        keyed BLAKE2b with the genesis secrets."""
        genesis = json.loads((ROOT / "scenarios" / "genesis_paper.json").read_bytes())
        secrets = [bytes.fromhex(s[2:]) for s in genesis["keyProvider"]["privateKeys"]]
        secret_of = {keccak256_reference(keccak256_reference(s))[-20:]: s for s in secrets}

        def raw(field):
            return bytes.fromhex(field[2:])

        def signed(msg, addr, sig):
            key = secret_of[raw(addr)]
            return raw(sig) == hashlib.blake2b(msg, key=key, digest_size=32).digest()

        parent = bytes(32)
        for block in paper_flow_chain:
            assert raw(block["parentHash"]) == parent
            entries = []
            for tx in block["txs"]:
                assert signed(raw(tx["hash"]), tx["sender"], tx["signature"])
                sig = raw(tx["signature"])
                entries.append(raw(tx["hash"]) + len(sig).to_bytes(4, "big") + sig)
            groups = b"".join(keccak256_reference(b"".join(entries[i:i + 16]))
                              for i in range(0, len(entries), 16))
            parent = keccak256_reference(
                block["height"].to_bytes(8, "big") + raw(block["parentHash"])
                + raw(block["proposer"]) + len(entries).to_bytes(4, "big") + groups
                + raw(block["stateRoot"]))
            assert "0x" + parent.hex() == block["hash"]
            commit = (bytes([2]) + block["height"].to_bytes(8, "big")  # COMMIT's tag
                      + block["round"].to_bytes(8, "big") + parent)
            assert all(signed(commit, addr, seal) for addr, seal in block["commitSeals"])
        assert sum(len(block["txs"]) for block in paper_flow_chain) == 5
        assert "0x" + parent.hex() == paper_flow_chain[-1]["hash"]


@pytest.fixture(scope="module")
def paper_flow_chain(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper_flow")
    genesis = parse_genesis((ROOT / "scenarios" / "genesis_paper.json").read_bytes())
    scenario = parse_scenario((ROOT / "scenarios" / "paper_flow.json").read_bytes())
    code, _ = run_scenario(genesis, scenario, out_dir=out)
    assert code == 0
    return [json.loads(line) for line in (out / "chain.jsonl").read_text().splitlines()]
