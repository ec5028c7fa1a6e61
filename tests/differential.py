"""Differential-testing harness between the production contract state
machine and the straight-line reference interpreter.

Symbols are (op, sender, args...) tuples over a tiny alphabet: two
senders, two recipients, one account string, fixed amounts. Both
implementations start from a contract freshly deployed by the first
sender. States and results are normalized to plain dicts/tuples before
comparison so neither implementation's types leak into the other.
"""

from ledgersim import contract
from ledgersim.model import Address, Amount

from contract_reference import RefContract

ACCOUNT = "x"
ADD_AMOUNT = 5
SEND_AMOUNT = 3


def alphabet(senders, recipients):
    """All distinct operation symbols; addFunds takes no recipient."""
    symbols = []
    for sender in senders:
        for r in recipients:
            symbols.append(("addRecipient", sender, r))
            symbols.append(("removeRecipient", sender, r))
            symbols.append(("registerBankAccount", sender, r, ACCOUNT))
            symbols.append(("sendAllowance", sender, r, SEND_AMOUNT))
        symbols.append(("addFunds", sender, ADD_AMOUNT))
    return symbols


# --- production side -------------------------------------------------------

def impl_initial(org) -> contract.ContractState:
    state, result = contract.deploy(contract.fresh_state(), Address(org))
    assert result.ok
    return state


def impl_apply(state, sym):
    op = sym[0]
    sender = Address(sym[1])
    if op == "addRecipient":
        new, res = contract.add_recipient(state, sender, Address(sym[2]))
    elif op == "removeRecipient":
        new, res = contract.remove_recipient(state, sender, Address(sym[2]))
    elif op == "registerBankAccount":
        new, res = contract.register_bank_account(state, sender,
                                                  Address(sym[2]), sym[3])
    elif op == "sendAllowance":
        new, res = contract.send_allowance(state, sender, Address(sym[2]),
                                           Amount(sym[3]))
    elif op == "addFunds":
        new, res = contract.add_funds(state, sender, Amount(sym[2]))
    else:
        raise ValueError(op)
    error = None if res.error is None else res.error.value
    return new, (res.ok, error, _normalize_impl_events(res.events))


def _normalize_impl_events(events):
    out = []
    for ev in events:
        name = type(ev).__name__
        if name == "FundsAdded":
            out.append(("FundsAdded", int(ev.value)))
        elif name == "AllowanceSent":
            out.append(("AllowanceSent", bytes(ev.recipient), int(ev.amount)))
        else:
            out.append(("BankAccountRegistered", bytes(ev.recipient),
                        bytes(ev.account_hash)))
    return tuple(out)


def impl_comparable(state):
    return {
        "deployed": state.deployed,
        "organization": bytes(state.organization),
        "recipients": {bytes(k): v for k, v in state.recipients.items()},
        "bank_accounts": {bytes(k): bytes(v) for k, v in state.bank_accounts.items()},
        "balances": {bytes(k): int(v) for k, v in state.balances.items()},
    }


# --- reference side ----------------------------------------------------------

def ref_initial(org) -> dict:
    ref = RefContract()
    ok, _, _ = ref.deploy(org)
    assert ok
    return ref.snapshot()


def _ref_from_snapshot(snapshot) -> RefContract:
    ref = RefContract()
    ref.deployed = snapshot["deployed"]
    ref.organization = snapshot["organization"]
    ref.recipients = dict(snapshot["recipients"])
    ref.bank_accounts = dict(snapshot["bank_accounts"])
    ref.balances = dict(snapshot["balances"])
    return ref


def ref_apply(snapshot, sym):
    ref = _ref_from_snapshot(snapshot)
    op = sym[0]
    if op == "addRecipient":
        ok, err, events = ref.add_recipient(sym[1], sym[2])
    elif op == "removeRecipient":
        ok, err, events = ref.remove_recipient(sym[1], sym[2])
    elif op == "registerBankAccount":
        ok, err, events = ref.register_bank_account(sym[1], sym[2], sym[3])
    elif op == "sendAllowance":
        ok, err, events = ref.send_allowance(sym[1], sym[2], sym[3])
    elif op == "addFunds":
        ok, err, events = ref.add_funds(sym[1], sym[2])
    else:
        raise ValueError(op)
    return ref.snapshot(), (ok, err, tuple(events))


def ref_comparable(snapshot):
    return {
        "deployed": snapshot["deployed"],
        "organization": bytes(snapshot["organization"]),
        "recipients": dict(snapshot["recipients"]),
        "bank_accounts": dict(snapshot["bank_accounts"]),
        "balances": dict(snapshot["balances"]),
    }


# --- pairwise drivers -----------------------------------------------------------

def run_sequence(org, symbols):
    """Apply a symbol sequence to both sides, asserting lockstep equality.

    Returns the pairs of (result, state) observed, for extra assertions.
    """
    impl_state = impl_initial(org)
    ref_state = ref_initial(org)
    observed = []
    for sym in symbols:
        impl_state, impl_result = impl_apply(impl_state, sym)
        ref_state, ref_result = ref_apply(ref_state, sym)
        assert impl_result == ref_result, (sym, impl_result, ref_result)
        assert impl_comparable(impl_state) == ref_comparable(ref_state), sym
        observed.append((impl_result, impl_comparable(impl_state)))
    return observed


def bfs_equivalence(org, symbols, max_depth):
    """Check transition-level agreement over every state reachable within
    max_depth steps; covers every sequence of length <= max_depth + 1.

    Returns (states_checked, transitions_checked).
    """
    start_impl = impl_initial(org)
    start_ref = ref_initial(org)
    start_key = contract.state_root(start_impl)
    frontier = [(start_impl, start_ref)]
    visited = {start_key}
    transitions = 0
    for _ in range(max_depth + 1):
        next_frontier = []
        for impl_state, ref_state in frontier:
            for sym in symbols:
                new_impl, impl_result = impl_apply(impl_state, sym)
                new_ref, ref_result = ref_apply(ref_state, sym)
                assert impl_result == ref_result, (sym, impl_result, ref_result)
                assert impl_comparable(new_impl) == ref_comparable(new_ref), sym
                transitions += 1
                key = contract.state_root(new_impl)
                if key not in visited:
                    visited.add(key)
                    next_frontier.append((new_impl, new_ref))
        frontier = next_frontier
        if not frontier:
            break
    return len(visited), transitions
