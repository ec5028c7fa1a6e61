"""Deterministic simulator of a permissioned BFT ledger running a
financial-distribution contract.

A fixed validator set finalizes blocks through a round-based BFT
protocol over a simulated eventually-synchronous network with
injectable Byzantine faults; the replicated state machine implements
an organization-controlled allowance disbursement contract.
"""

from .config import GenesisConfig, KeyProvider, active_keys, emit_genesis, parse_genesis
from .consensus import (
    ConsensusConfig, ConsensusMessage, Engine, MsgKind, Phase,
    fault_tolerance, proposer_for, quorum_size, validate_finalized_block,
)
from .contract import (
    ContractState, LedgerState, apply_transaction, gas_for, get_balance,
    state_root, state_to_json,
)
from .crypto import KeyPair, Registry, sign
from .deploy import contract_address, migrate_deploy
from .keccak import keccak256
from .model import (
    Address, AddFunds, AddRecipient, AllowanceSent, Amount,
    BankAccountRegistered, Block, Deploy, ErrorCode, Event, FundsAdded,
    Hash256, Receipt, RegisterBankAccount, RemoveRecipient, SendAllowance,
    Signature, Transaction, TxPayload, TxStatus, ZERO_ADDRESS, ZERO_HASH,
    block_hash, tx_hash,
)
from .netsim import Behavior, ByzantineSpec, rng_stream
from .replay import ReplayVerdict, replay_chain
from .scenario import Scenario, parse_scenario, run_scenario
from .simulation import Simulation, make_genesis_block

__version__ = "0.1.0"
