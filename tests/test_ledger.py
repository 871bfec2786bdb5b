"""Unit and property tests for the transaction pipeline and chain ledger."""

import copy
import dataclasses
import functools
import gc
import hashlib
import hmac
import json
import pickle
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcchain import ledger, presets
from rcchain.ledger import (
    Block,
    BlockProposal,
    BlockRejected,
    CertificateAuthority,
    ChainLedger,
    EndorsedTransaction,
    EndorsementPolicy,
    Identity,
    IntegrityError,
    OrderingConfig,
    PendingTx,
    ZERO_HASH,
    _frame,
    _frame_result,
    _frame_tail,
    _tx_digest,
    check_policy,
    endorse,
    export_ledger_lines,
    export_world_state,
    order_batch,
    propose,
    sign,
    simulate_execution,
    state_payload,
    sync_peer,
    validate_and_commit,
    verify_chain,
    verify_export_lines,
    verify_sig,
)

ORGS = ("org1", "org2", "org3")


def make_network(orgs=ORGS, endorsers_per_org=2):
    ca = CertificateAuthority()
    peers = []
    for org in orgs:
        for k in range(endorsers_per_org):
            peers.append(ca.register(org, "endorsing_peer", f"{org}/peer{k}"))
    client = ca.register(orgs[0], "client", "client-0")
    policy = EndorsementPolicy(required_orgs=frozenset(orgs), threshold=1)
    return ca, peers, client, policy


def payload(key, value):
    return json.dumps({"state_key": key, "state_value": value}).encode()


def result_hash(key, version, value):
    return hashlib.sha256(_frame_result(key, version, value)).hexdigest()


def tx_result_hash(tx):
    return result_hash(tx.key, tx.version, tx.value)


def endorse_tx(client, peers, ledger, key, value, t=0.0, nonce=0, kind="qa_request"):
    prop = propose(kind, payload(key, value), client, t, nonce)
    return endorse(prop, EndorsementPolicy(frozenset(ORGS)), peers, ledger.world_state)


def commit(ledger, policy, txs):
    return validate_and_commit(ledger.next_proposal(txs), ledger, policy)


def tx_records(ledger):
    """(tx_id, kind, block number, valid, reason) of every transaction on
    the chain, in commit order."""
    records = []
    for blk in ledger.blocks:
        assert len(blk.validity) == len(blk.txs)
        records.extend(
            (tx.tx_id, tx.kind, blk.number, ok, reason)
            for tx, (ok, reason) in zip(blk.txs, blk.validity)
        )
    return records


# ---------------------------------------------------------------------------
# certificate authority
# ---------------------------------------------------------------------------

def test_ca_register_and_reject_duplicate():
    ca = CertificateAuthority()
    ident = ca.register("org1", "client", "A-001")
    assert ident.org == "org1"
    with pytest.raises(ValueError, match="already bound"):
        ca.register("org1", "client", "A-001")


def test_ca_revoked_registration_stays_out():
    ca = CertificateAuthority()
    ca.register("org1", "client", "A-001")
    ca.revoke("A-001")
    with pytest.raises(ValueError, match="revoked"):
        ca.register("org1", "client", "A-001")


def test_ca_rejects_bad_role_and_empty_info():
    ca = CertificateAuthority()
    with pytest.raises(ValueError):
        ca.register("org1", "miner", "x")
    with pytest.raises(ValueError):
        ca.register("org1", "client", "")


# ---------------------------------------------------------------------------
# endorsement
# ---------------------------------------------------------------------------

def test_endorse_signs_threshold_peers_per_org():
    """A threshold-1 policy over three orgs of two peers gets three
    endorsements, one per org, from each org's first peer."""
    _, peers, client, policy = make_network()
    tx = endorse_tx(client, peers, ChainLedger(), "k", "v")
    assert [peer.id for peer in tx.endorsers] == ["org1/peer0", "org2/peer0", "org3/peer0"]
    assert check_policy(tx, policy)


def test_endorse_missing_org_fails_policy():
    _, peers, client, policy = make_network()
    unreachable = frozenset(p.id for p in peers if p.org == "org2")
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    tx = endorse(prop, policy, peers, {}, unreachable=unreachable)
    assert len(tx.endorsers) == len(tx.sigs) == 2  # one each from org1 and org3
    assert not check_policy(tx, policy)  # the engine abandons such a transaction


def test_endorse_deterministic_result_hash():
    _, peers, client, policy = make_network()
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    a = endorse(prop, policy, peers, {})
    b = endorse(prop, policy, peers, {})
    assert a.sigs[0] == b.sigs[0]
    rh = tx_result_hash(a)
    assert rh == tx_result_hash(b)
    assert verify_sig(a.endorsers[0], (prop.tx_id + rh).encode(), a.sigs[0])
    assert (a.key, a.version, a.value) == (b.key, b.version, b.value)


def test_endorsements_moved_to_another_tx_fail_policy():
    """An endorsement signs one transaction's id and result: tx A's
    endorsements on tx B (same write, other nonce) seal B as a policy
    failure, and the chain that records it audits clean."""
    _, peers, client, policy = make_network()
    led = ChainLedger()
    tx_a = endorse_tx(client, peers, led, "k", "v", nonce=1)
    tx_b = endorse_tx(client, peers, led, "k", "v", nonce=2)
    assert (tx_a.key, tx_a.value) == (tx_b.key, tx_b.value) and tx_a.tx_id != tx_b.tx_id
    forged = dataclasses.replace(tx_b, endorsers=tx_a.endorsers, sigs=tx_a.sigs)
    assert not check_policy(forged, policy)
    blk = commit(led, policy, [forged])
    assert blk.validity == ((False, "policy"),)
    assert "k" not in led.world_state
    assert verify_chain(led, policy) is None


@pytest.mark.parametrize("cut", ["endorsers", "sigs"])
def test_unequal_endorser_and_sig_tuples_fail_policy_without_raising(cut):
    """A record whose endorsers and sigs differ in length counts only its
    matched pairs: short of the threshold it seals "policy", and the audit
    of a chain whose committed record was swapped for it flags the block."""
    _, peers, client, policy = make_network()
    tx = endorse_tx(client, peers, ChainLedger(), "k", "v")
    assert len(tx.endorsers) == len(tx.sigs) == 3
    short = dataclasses.replace(tx, **{cut: getattr(tx, cut)[:2]})
    assert not check_policy(short, policy)
    assert commit(ChainLedger(), policy, [short]).validity == ((False, "policy"),)
    longer = dataclasses.replace(tx, **{cut: getattr(tx, cut) + getattr(tx, cut)[:1]})
    assert check_policy(longer, policy)  # the three matched pairs still meet it
    led = ChainLedger()
    commit(led, policy, [tx])
    led.blocks[1] = dataclasses.replace(led.blocks[1], txs=(short,))
    assert verify_chain(led, policy) == 1


def test_endorse_insufficient_peer_set_fails_policy():
    _, peers, client, policy = make_network()
    one_org = [p for p in peers if p.org == "org1"]
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    tx = endorse(prop, policy, one_org, {})
    assert not check_policy(tx, policy)


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

def pend(txs, t0=0.0, dt=0.01):
    return deque(PendingTx(t0 + k * dt, tx) for k, tx in enumerate(txs))


def make_txs(n, start_nonce=0):
    _, peers, client, _ = make_network()
    led = ChainLedger()
    return [
        endorse_tx(client, peers, led, f"k{i}", "v", nonce=start_nonce + i)
        for i in range(n)
    ]


def check_policy_count_all(tx, policy):
    """Reference policy check: count every endorsement with a valid
    signature over the transaction's own id and result, per org, then
    compare."""
    msg = (tx.tx_id + tx_result_hash(tx)).encode()
    counts = Counter()
    for peer, sig in zip(tx.endorsers, tx.sigs):
        if verify_sig(peer, msg, sig):
            counts[peer.org] += 1
    return all(counts[org] >= policy.threshold for org in policy.required_orgs)


POLICY_ORGS = ("org1", "org2", "org3", "org4")  # org4 is never required
FLAWS = ("none", "bad_sig", "wrong_result_hash", "other_tx")


@given(
    required=st.sets(st.sampled_from(POLICY_ORGS[:3]), min_size=1),
    threshold=st.integers(min_value=1, max_value=3),
    picks=st.lists(st.tuples(st.integers(min_value=0, max_value=11), st.sampled_from(FLAWS)),
                   max_size=14),
)
@settings(deadline=None, max_examples=300)
def test_property_check_policy_matches_count_all(required, threshold, picks):
    """The early-stopping policy check gives the count-all answer for any
    mix of good, badly signed, wrong-result, other-transaction,
    non-required and repeated endorsements."""
    _, peers, client, _ = make_network(orgs=POLICY_ORGS, endorsers_per_org=3)
    policy = EndorsementPolicy(frozenset(required), threshold)
    every_org = EndorsementPolicy(frozenset(POLICY_ORGS), threshold=3)  # all 12 peers sign
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    full = endorse(prop, every_org, peers, {})
    msg = (prop.tx_id + tx_result_hash(full)).encode()
    other = endorse(propose("qa_request", payload("k", "v"), client, 0.0, nonce=1),
                    every_org, peers, {})
    endorsers, sigs = [], []
    for idx, flaw in picks:
        peer, sig = full.endorsers[idx], full.sigs[idx]
        if flaw == "bad_sig":  # signed with another peer's key
            sig = sign(peers[(idx + 1) % len(peers)], msg)
        elif flaw == "wrong_result_hash":  # a validly signed different result
            sig = sign(peer, (prop.tx_id + "0" * 64).encode())
        elif flaw == "other_tx":  # a valid signature over another transaction's id
            peer, sig = other.endorsers[idx], other.sigs[idx]
        endorsers.append(peer)
        sigs.append(sig)
    tx = dataclasses.replace(full, endorsers=tuple(endorsers), sigs=tuple(sigs))
    assert check_policy(tx, policy) == check_policy_count_all(tx, policy)


def init_fields(obj):
    """obj's fields as its constructor takes them, in order."""
    return [getattr(obj, f.name) for f in dataclasses.fields(obj) if f.init]


def endorse_collect_all(proposal, policy, peers, world_state, unreachable=frozenset()):
    """Reference endorsement: every reachable endorsing peer of every
    required org signs, however many the policy needs."""
    key, version, value = simulate_execution(proposal.payload, world_state)
    msg = (proposal.tx_id + result_hash(key, version, value)).encode()
    endorsers = tuple(peer for peer in peers
                      if peer.org in policy.required_orgs and peer.id not in unreachable)
    return EndorsedTransaction(*init_fields(proposal), key, version, value, endorsers,
                               tuple(sign(peer, msg) for peer in endorsers))


@given(
    required=st.sets(st.sampled_from(POLICY_ORGS), min_size=1),
    threshold=st.integers(min_value=1, max_value=4),
    order=st.permutations(range(12)),
    down=st.sets(st.integers(min_value=0, max_value=11)),
)
@settings(deadline=None, max_examples=200)
def test_property_threshold_endorse_meets_policy_as_collect_all(required, threshold, order, down):
    """Endorsing with the first threshold reachable peers per org, in
    peers order, meets the policy exactly when collecting every reachable
    peer does, whatever orgs are required and whichever peers are down."""
    _, peers, client, _ = make_network(orgs=POLICY_ORGS, endorsers_per_org=3)
    peers = [peers[k] for k in order]
    unreachable = frozenset(peers[k].id for k in down)
    policy = EndorsementPolicy(frozenset(required), threshold)
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    tx = endorse(prop, policy, peers, {}, unreachable=unreachable)
    reference = endorse_collect_all(prop, policy, peers, {}, unreachable=unreachable)
    assert check_policy(tx, policy) == check_policy(reference, policy)
    taken = Counter()
    expected = []
    for p in peers:
        if p.org in required and p.id not in unreachable and taken[p.org] < threshold:
            taken[p.org] += 1
            expected.append(p.id)
    assert [peer.id for peer in tx.endorsers] == expected


def tx_digest_reference(kind, payload, client_id, created_at, nonce):
    """The streaming form: one update per length prefix and per part."""
    h = hashlib.sha256()
    for part in (kind.encode(), payload, client_id.encode(),
                 repr(float(created_at)).encode(), str(nonce).encode()):
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.hexdigest()


@given(kind=st.text(), body=st.binary(), client_id=st.text(), created_at=st.floats(),
       nonce=st.one_of(st.integers(min_value=-2**70, max_value=2**70),
                       st.just(10**300)))  # a nonce of 301 digits frames past the table
@settings(deadline=None, max_examples=200)
def test_property_tx_digest_matches_streaming_reference(kind, body, client_id, created_at,
                                                        nonce):
    assert (_tx_digest(kind, body, _frame((client_id.encode(),)), _frame_tail(created_at, nonce))
            == tx_digest_reference(kind, body, client_id, created_at, nonce))


def naive_concat(key, version, value):
    return f"{key}{version}" + key + value


@pytest.mark.parametrize("a,b", [
    (("k1", 2, "v"), ("k", 12, "1v")),      # key/version boundary
    (("a", 11, "1x"), ("a1", 1, "x")),      # key/value boundary
], ids=["version", "key-value"])
def test_result_hash_separates_naive_collisions(a, b):
    """A read and a write that concatenate to the same string hash apart:
    every field is length-prefixed."""
    assert naive_concat(*a) == naive_concat(*b)
    assert result_hash(*a) != result_hash(*b)


def unhashed(tx):
    """A copy of tx built from its fields alone: nothing in it was framed
    or hashed."""
    return EndorsedTransaction(*init_fields(tx))


TX_TAMPERS = {
    "payload": lambda tx: dataclasses.replace(tx, payload=payload("k", "w")),
    "nonce": lambda tx: dataclasses.replace(tx, nonce=tx.nonce + 1),
    "value": lambda tx: dataclasses.replace(tx, value="w"),
}


def tamper_outcomes(tx, peers, policy, honest):
    """Where a tampered transaction is caught: endorsing it again,
    the client's policy check, its seal on a fresh chain, and the audit
    of a chain that committed the honest one and had it swapped in."""
    try:
        endorse(tx, policy, peers, {})
        endorsed = "endorsed"
    except ValueError:
        endorsed = "refused"
    led = ChainLedger()
    blk = commit(led, policy, [honest])
    led.blocks[1] = dataclasses.replace(blk, txs=(tx,))
    return (endorsed, check_policy(tx, policy), commit(ChainLedger(), policy, [tx]).validity,
            verify_chain(led, policy))


@pytest.mark.parametrize("tamper,caught", [
    ("payload", ("refused", True, ((False, "structure"),), 1)),
    ("nonce", ("refused", True, ((False, "structure"),), 1)),
    ("value", ("endorsed", False, ((False, "policy"),), 1)),
])
def test_tamper_after_hashing_is_caught_as_before(tamper, caught):
    """A transaction keeps its framed bytes, derived from its own fields:
    replacing the payload, nonce or written value of one whose digests were
    all computed (propose, endorse, the client's check, a commit) is
    caught at endorse, at commit and by verify_chain exactly as on a copy
    that was never hashed."""
    _, peers, client, policy = make_network()
    hashed = endorse_tx(client, peers, ChainLedger(), "k", "v", nonce=1)
    assert check_policy(hashed, policy)
    assert commit(ChainLedger(), policy, [hashed]).validity == ((True, None),)
    fresh = unhashed(hashed)
    assert tamper_outcomes(TX_TAMPERS[tamper](hashed), peers, policy, hashed) == caught
    assert tamper_outcomes(TX_TAMPERS[tamper](fresh), peers, policy, hashed) == caught


def test_propose_and_endorse_records_equal_init_built_ones():
    """propose and endorse write each slot once, without __init__: their
    records equal ones __init__ builds, carry the framings digest_ok and
    signed_message derive, stay frozen, and dataclasses.replace leaves the
    kept bytes unset, to be derived again from the new fields."""
    _, peers, client, policy = make_network()
    prop = propose("qa_request", payload("k", "v"), client, 1.5, 3)
    tx = endorse(prop, policy, peers, {"k": ("u", 4)})
    for rec in (prop, tx):
        built = type(rec)(*init_fields(rec))
        assert rec == built
        assert built._tail is None and built.digest_ok() and built._tail == rec._tail
        for f in dataclasses.fields(rec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, f.name, getattr(rec, f.name))
    built = EndorsedTransaction(*init_fields(tx))
    assert built.signed_message() == tx.signed_message() and built._result == tx._result
    assert tx._result == _frame_result("k", 4, "v")
    for rec in (prop, tx):
        moved = dataclasses.replace(rec, nonce=rec.nonce + 1)
        assert moved._tail is None and not moved.digest_ok()
    moved = dataclasses.replace(tx, nonce=tx.nonce + 1)
    assert moved._result is None
    assert commit(ChainLedger(), policy, [moved]).validity == ((False, "structure"),)


HELD_BYTES_PER_TX = 1249  # tracemalloc: 1,217.8 measured, plus 2.5%


def test_mirrored_transactions_fit_the_heap_budget():
    """ROADMAP item 14: the ptype-field preset's ratings mirrored on chain
    (17,000 transactions) hold no more heap per transaction than the
    budget."""
    events = presets._ptype_events()
    presets._mirror_on_chain(events[:50], 1)  # first-call allocations are not per-tx
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chain = presets._mirror_on_chain(events, 1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_tx = sum(len(blk.txs) for blk in chain.blocks)
    assert n_tx == len(events) == 17_000
    assert held / n_tx <= HELD_BYTES_PER_TX, f"{held / n_tx:.1f} B/tx"


def test_sign_calls_per_transaction(monkeypatch):
    """One transaction in a 3 x 2 network with a threshold-1 policy: the
    client signs once, one peer per org endorses, and the committer
    verifies the client's signature and the three endorsements."""
    _, peers, client, policy = make_network()
    calls = []
    real_sign = ledger.sign
    monkeypatch.setattr(ledger, "sign", lambda ident, msg: calls.append(1) or real_sign(ident, msg))
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    assert len(calls) == 1
    tx = endorse(prop, policy, peers, {})
    assert len(calls) == 1 + 3
    led = ChainLedger()
    blk = commit(led, policy, [tx])
    assert blk.validity == ((True, None),)
    assert len(calls) == 1 + 3 + 4


def test_sign_is_hmac_sha256_hex():
    """RFC 4231 test case 1 pins the tag; CA key tags equal the
    hmac.new(...).hexdigest() path and signatures its raw digest()."""
    rfc = Identity(id="rfc4231", org="org1", role="client", key_tag="0b" * 20)
    assert sign(rfc, b"Hi There") == bytes.fromhex(
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    _, peers, client, _ = make_network()
    for ident in (client, *peers):
        info = f"{ident.org}|{ident.role}|{ident.id}".encode()
        assert ident.key_tag == hmac.new(b"rcchain-ca", info, "sha256").hexdigest()
        msg = f"tx-{ident.id}".encode()
        assert sign(ident, msg) == hmac.new(
            bytes.fromhex(ident.key_tag), msg, "sha256").digest()


# key lengths around SHA-256's 64-byte block: empty, short, one short of,
# at and past the block (a longer key is hashed before padding)
KEY_LENGTHS = (0, 1, 32, 63, 64, 65, 200)


@given(key=st.sampled_from(KEY_LENGTHS).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       message=st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n, max_size=n)))
@settings(deadline=None, max_examples=300)
def test_property_sign_equals_hmac_digest(key, message):
    ident = Identity(id="i", org="org1", role="client", key_tag=key.hex())
    tag = hmac.digest(key, message, "sha256")
    assert sign(ident, message) == tag
    assert sign(ident, message) == tag  # the pad states are copied, never consumed
    assert verify_sig(ident, message, tag)
    assert not verify_sig(ident, message + b"x", tag)


def test_replaced_identity_signs_with_the_new_key():
    _, peers, client, _ = make_network()
    other = peers[0].key_tag
    moved = dataclasses.replace(client, key_tag=other)
    msg = b"tx-id"
    assert sign(moved, msg) == hmac.digest(bytes.fromhex(other), msg, "sha256")
    assert sign(client, msg) == hmac.digest(bytes.fromhex(client.key_tag), msg, "sha256")
    assert sign(moved, msg) != sign(client, msg)


def test_identity_copies_and_pickles_sign_the_same():
    _, _, client, _ = make_network()
    msg = b"tx-id"
    for twin in (copy.copy(client), copy.deepcopy(client),
                 pickle.loads(pickle.dumps(client))):
        assert twin == client and hash(twin) == hash(client)
        assert repr(twin) == repr(client)
        assert sign(twin, msg) == sign(client, msg)
        assert verify_sig(client, msg, sign(twin, msg))


def test_order_batch_cuts_at_batch_size():
    cfg = OrderingConfig(batch_size=10)
    q = pend(make_txs(12))
    cut = order_batch(q, cfg, now=0.2)
    assert len(cut) == 10
    assert len(q) == 2  # remainder stays queued


def test_order_batch_timeout_takes_all_pending():
    cfg = OrderingConfig(batch_size=10, batch_timeout_s=2.0)
    q = pend(make_txs(3))
    assert order_batch(q, cfg, now=1.0) is None
    cut = order_batch(q, cfg, now=2.5)
    assert len(cut) == 3 and not q


# ---------------------------------------------------------------------------
# commitment
# ---------------------------------------------------------------------------

def test_mvcc_double_spend_in_one_block():
    _, peers, client, policy = make_network()
    led = ChainLedger()
    # both read version 0 of the same key
    tx1 = endorse_tx(client, peers, led, "acct", "a", nonce=1)
    tx2 = endorse_tx(client, peers, led, "acct", "b", nonce=2)
    blk = commit(led, policy, [tx1, tx2])
    assert blk.validity[0][0] is True
    assert blk.validity[1] == (False, "mvcc_conflict")
    assert led.world_state["acct"] == ("a", 1)


def test_policy_failure_recorded_but_not_applied():
    _, peers, client, policy = make_network()
    led = ChainLedger()
    org12 = [p for p in peers if p.org != "org3"]
    prop = propose("qa_request", payload("k", "v"), client, 0.0)
    tx = endorse(prop, policy, org12, led.world_state)
    blk = commit(led, policy, [tx])
    assert blk.validity[0] == (False, "policy")
    assert "k" not in led.world_state
    # sealed into the block regardless of legality
    assert tx_records(led)[-1] == (tx.tx_id, tx.kind, 1, False, "policy")


def test_duplicate_in_later_block_rejected():
    _, peers, client, policy = make_network()
    led = ChainLedger()
    tx = endorse_tx(client, peers, led, "k", "v")
    commit(led, policy, [tx])
    blk = commit(led, policy, [tx])
    assert blk.validity[0] == (False, "duplicate")


def test_wrong_number_or_prev_hash_rejected():
    _, peers, client, policy = make_network()
    led = ChainLedger()
    tx = endorse_tx(client, peers, led, "k", "v")
    with pytest.raises(BlockRejected):
        validate_and_commit(BlockProposal(5, led.tip.header(), (tx,)), led, policy)
    with pytest.raises(BlockRejected):
        validate_and_commit(BlockProposal(1, b"x" * 32, (tx,)), led, policy)


def test_versions_increase_without_gaps():
    _, peers, client, policy = make_network()
    led = ChainLedger()
    for n in range(4):
        tx = endorse_tx(client, peers, led, "k", f"v{n}", nonce=n)
        commit(led, policy, [tx])
    assert led.world_state["k"] == ("v3", 4)


# ---------------------------------------------------------------------------
# sync and verification
# ---------------------------------------------------------------------------

def build_chain(n_blocks=9):
    _, peers, client, policy = make_network()
    led = ChainLedger()
    for n in range(n_blocks):
        tx = endorse_tx(client, peers, led, f"k{n % 3}", f"v{n}", nonce=n)
        commit(led, policy, [tx])
    return led, policy


def replay_prefix(source, policy, upto):
    led = ChainLedger()
    for blk in source.blocks[1 : upto + 1]:
        validate_and_commit(BlockProposal(blk.number, blk.prev_hash, blk.txs), led, policy)
    return led


def ledgers_equal(a, b):
    return (
        [blk.header() for blk in a.blocks] == [blk.header() for blk in b.blocks]
        and a.world_state == b.world_state
        and tx_records(a) == tx_records(b)
    )


def test_sync_peer_catches_up_bit_identical():
    source, policy = build_chain(9)
    lagging = replay_prefix(source, policy, 5)
    sync_peer(lagging, source, policy)
    assert ledgers_equal(lagging, source)


def test_sync_peer_equal_tips_noop():
    source, policy = build_chain(4)
    lagging = replay_prefix(source, policy, 4)
    sync_peer(lagging, source, policy)
    assert ledgers_equal(lagging, source)


def with_payload(blk, new_payload=b'{"state_key":"x","state_value":"y"}'):
    tx = blk.txs[0]
    bad_tx = dataclasses.replace(tx, payload=new_payload)
    return dataclasses.replace(blk, txs=(bad_tx,) + blk.txs[1:])


def tamper_payload(ledger, block_number):
    ledger.blocks[block_number] = with_payload(ledger.blocks[block_number])


def test_sync_peer_detects_tampered_source_block():
    source, policy = build_chain(9)
    lagging = replay_prefix(source, policy, 5)
    tamper_payload(source, 7)
    with pytest.raises(IntegrityError):
        sync_peer(lagging, source, policy)


def test_sync_peer_divergent_prefix_is_integrity_error():
    source, policy = build_chain(6)
    _, peers, client, _ = make_network()
    other = ChainLedger()
    for n in range(3):  # different content -> different headers
        tx = endorse_tx(client, peers, other, f"other{n}", "w", nonce=100 + n)
        commit(other, policy, [tx])
    with pytest.raises(IntegrityError, match="divergent prefix"):
        sync_peer(other, source, policy)


def flip_first_flag(blk):
    ok, _ = blk.validity[0]
    flipped = (not ok, None if not ok else "mvcc_conflict")
    return dataclasses.replace(blk, validity=(flipped,) + blk.validity[1:])


TAMPERS = {
    "payload": with_payload,
    "validity": flip_first_flag,
    "prev_hash": lambda blk: dataclasses.replace(blk, prev_hash=bytes(32)),
    "body_hash": lambda blk: dataclasses.replace(blk, body_hash=bytes(32)),
    "number": lambda blk: dataclasses.replace(blk, number=blk.number + 1),
}


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_tampered_block_caught_by_audit_and_sync(tamper):
    """The full audit names the tampered block, and a peer catching up
    from the tampered chain gets an integrity error, whatever field of
    the block was altered."""
    source, policy = build_chain(6)
    source.blocks[3] = TAMPERS[tamper](source.blocks[3])
    assert verify_chain(source, policy) == 3
    lagging = replay_prefix(source, policy, 2)
    with pytest.raises(IntegrityError, match="block 3"):
        sync_peer(lagging, source, policy)


def test_failed_sync_peer_leaves_lagging_ledger_unchanged():
    """A replay that fails at block 7 leaves the peer at block 5: no
    replayed block, world-state write or seen tx id survives the error."""
    source, policy = build_chain(9)
    lagging = replay_prefix(source, policy, 5)
    before = ([b.header() for b in lagging.blocks], dict(lagging.world_state))
    source.blocks[7] = flip_first_flag(source.blocks[7])
    with pytest.raises(IntegrityError, match="block 7"):
        sync_peer(lagging, source, policy)
    assert lagging.tip.number == 5
    assert ([b.header() for b in lagging.blocks], lagging.world_state) == before
    assert verify_chain(lagging, policy) is None
    sync_peer(lagging, replay_prefix(source, policy, 6), policy)  # still catches up
    assert lagging.tip.header() == source.blocks[6].header()


def with_structure_seal(n_blocks=6, at=3):
    """A chain whose block `at` seals one transaction as "structure": its
    nonce was changed after proposing, so its id no longer matches."""
    _, peers, client, policy = make_network()
    led = ChainLedger()
    for n in range(n_blocks):
        txs = [endorse_tx(client, peers, led, f"k{n % 3}", f"v{n}", nonce=n)]
        if n + 1 == at:
            bad = endorse_tx(client, peers, led, "kx", "w", nonce=1000)
            bad = dataclasses.replace(bad, nonce=1001)
            txs.append(bad)
        commit(led, policy, txs)
    assert led.blocks[at].validity == ((True, None), (False, "structure"))
    return led, policy


def test_structure_seal_audits_clean_and_syncs():
    led, policy = with_structure_seal()
    assert verify_chain(led, policy) is None
    lagging = replay_prefix(led, policy, 1)
    sync_peer(lagging, led, policy)
    assert ledgers_equal(lagging, led)


@pytest.mark.parametrize("tamper", [
    lambda blk: dataclasses.replace(blk, validity=blk.validity[:1] + ((False, "policy"),)),
    lambda blk: dataclasses.replace(blk, validity=blk.validity[:1]),
    with_payload,
], ids=["structure-relabelled", "flag-dropped", "payload"])
def test_digest_audit_pins_structure_seals(tamper):
    """The audit flags a structure seal given another reason, a missing
    flag, and a payload changed under a valid seal, at their block."""
    led, policy = with_structure_seal()
    led.blocks[3] = tamper(led.blocks[3])
    assert verify_chain(led, policy) == 3


def test_verify_chain_clean():
    led, policy = build_chain(6)
    assert verify_chain(led, policy) is None


def test_verify_chain_reports_tampered_payload():
    led, policy = build_chain(6)
    tamper_payload(led, 3)
    assert verify_chain(led, policy) == 3


def test_verify_chain_genesis_only_ok():
    _, _, _, policy = make_network()
    assert verify_chain(ChainLedger(), policy) is None


def test_verify_chain_detects_world_state_tamper():
    led, policy = build_chain(4)
    led.world_state["k0"] = ("forged", led.world_state["k0"][1])
    assert verify_chain(led, policy) == led.tip.number


def test_world_state_replay_determinism():
    led, policy = build_chain(8)
    replayed = replay_prefix(led, policy, led.tip.number)
    assert replayed.world_state == led.world_state
    assert [b.header() for b in replayed.blocks] == [b.header() for b in led.blocks]


def test_hash_chain_links():
    led, _ = build_chain(5)
    assert led.blocks[0].prev_hash == ZERO_HASH
    for k in range(1, len(led.blocks)):
        assert led.blocks[k].prev_hash == led.blocks[k - 1].header()


@pytest.mark.parametrize("number", [-1, 2**64])
def test_out_of_range_number_in_the_shared_prefix_is_an_integrity_error(number):
    """A source block the peer already holds, numbered outside 0..2**64-1,
    is a divergent prefix at its position, not an OverflowError from
    hashing its header; the peer stays as it was and the audit names the
    same block."""
    source, policy = build_chain(6)
    lagging = replay_prefix(source, policy, 2)
    before = ([b.header() for b in lagging.blocks], dict(lagging.world_state))
    source.blocks[2] = dataclasses.replace(source.blocks[2], number=number)
    with pytest.raises(IntegrityError, match="block 2"):
        sync_peer(lagging, source, policy)
    assert ([b.header() for b in lagging.blocks], lagging.world_state) == before
    assert verify_chain(source, policy) == 2


def reference_verify_chain(led, policy):
    """The full audit as two passes: a link walk over the chain (numbers,
    prev-hash links, body hashes recomputed from the recorded flags), then
    a replay from genesis onto a fresh ledger; the first bad block of
    either, or the tip when only the world state differs."""
    if not led.blocks:
        raise ValueError("no genesis block")
    bad_link, prev_header = None, ZERO_HASH
    for k, blk in enumerate(led.blocks):
        recomputed = ledger.body_hash((tx.tx_id, tx.kind, ok, reason)
                                      for tx, (ok, reason) in zip(blk.txs, blk.validity))
        if blk.number != k or blk.prev_hash != prev_header or blk.body_hash != recomputed:
            bad_link = k
            break
        prev_header = ledger.header_hash(blk.number, blk.prev_hash, blk.body_hash)
    scratch, bad = ChainLedger(), None
    for blk in led.blocks[1:]:
        k = scratch.tip.number + 1
        try:
            sealed = validate_and_commit(BlockProposal(blk.number, blk.prev_hash, blk.txs),
                                         scratch, policy)
        except BlockRejected:
            bad = k
            break
        if sealed.validity != blk.validity or sealed.header() != blk.header():
            bad = k
            break
    if bad is None and scratch.world_state != led.world_state:
        bad = led.tip.number
    return min((k for k in (bad, bad_link) if k is not None), default=None)


@functools.cache
def audit_chain():
    """Six blocks of four transactions, sealing every outcome a clean
    audit admits: valid writes, an MVCC conflict, a duplicate, a policy,
    a signature and a structure failure. Built once; tampers replace
    blocks and never mutate them."""
    ca, peers, client, policy = make_network()
    forger = ca.register("org2", "client", "forger")
    led, nonce, earlier = ChainLedger(), 0, None
    for n in range(6):
        txs = []
        for i in range(3):
            txs.append(endorse_tx(client, peers, led, f"k{(n + i) % 4}", f"v{nonce}",
                                  nonce=nonce))
            nonce += 1
        extra = endorse_tx(client, peers, led, f"k{n % 4}", f"w{nonce}", nonce=nonce)
        nonce += 1
        extra = [
            extra,  # reads the version the block's first write replaces
            earlier,
            dataclasses.replace(extra, endorsers=extra.endorsers[:1], sigs=extra.sigs[:1]),
            dataclasses.replace(extra, client_sig=sign(forger, extra.tx_id.encode())),
            dataclasses.replace(extra, nonce=extra.nonce + 1000),
            extra,
        ][n]
        commit(led, policy, txs + [extra])
        earlier = txs[1]
    assert {r for blk in led.blocks for _, r in blk.validity} == {
        None, "mvcc_conflict", "duplicate", "policy", "signature", "structure"}
    return led, policy


def _replace_block(led, k, **changes):
    led.blocks[k] = dataclasses.replace(led.blocks[k], **changes)


def _later_block(led, draw):
    return draw(st.integers(min_value=1, max_value=len(led.blocks) - 1))


def _tx_position(led, draw, flagged=False):
    """(block, index) of a transaction past genesis; with flagged, one
    that still has its validity flag."""
    spots = [(k, i) for k, blk in enumerate(led.blocks) if k
             for i in range(len(blk.validity) if flagged else len(blk.txs))]
    return draw(st.sampled_from(spots))


def _tamper_flag(led, draw):  # a flipped flag, a changed reason or a dropped flag
    k, i = _tx_position(led, draw, flagged=True)
    validity = list(led.blocks[k].validity)
    ok, reason = validity[i]
    how = draw(st.sampled_from(["flip", "reason", "drop"]))
    if how == "flip":
        validity[i] = (True, None) if not ok else (False, "mvcc_conflict")
    elif how == "reason":
        validity[i] = (ok, draw(st.sampled_from(
            [r for r in (None, "", "policy", "duplicate") if r != reason])))
    else:
        del validity[i]
    _replace_block(led, k, validity=tuple(validity))


def _tamper_link(led, draw):  # a changed prev_hash or body_hash
    field = draw(st.sampled_from(["prev_hash", "body_hash"]))
    _replace_block(led, _later_block(led, draw),
                   **{field: draw(st.binary(min_size=32, max_size=32))})


def _tamper_number(led, draw):  # genesis included
    k = draw(st.integers(min_value=0, max_value=len(led.blocks) - 1))
    number = led.blocks[k].number
    _replace_block(led, k, number=draw(st.sampled_from([number + 1, number - 1, -1, 2**64])))


def _tamper_tx(led, draw):  # an edited payload, value or nonce
    k, i = _tx_position(led, draw)
    txs = list(led.blocks[k].txs)
    txs[i] = TX_TAMPERS[draw(st.sampled_from(sorted(TX_TAMPERS)))](txs[i])
    _replace_block(led, k, txs=tuple(txs))


def _tamper_order(led, draw):  # a dropped, swapped or moved block
    if len(led.blocks) < 3:
        return
    how = draw(st.sampled_from(["drop", "swap", "move"]))
    j = _later_block(led, draw)
    if how == "drop":
        del led.blocks[j]
        return
    k = draw(st.sampled_from([k for k in range(1, len(led.blocks)) if k != j]))
    if how == "swap":
        led.blocks[j], led.blocks[k] = led.blocks[k], led.blocks[j]
    else:
        led.blocks.insert(k, led.blocks.pop(j))


def _tamper_move_tx(led, draw):  # a transaction and its flag moved to another block
    if len(led.blocks) < 3:
        return
    k, i = _tx_position(led, draw, flagged=True)
    j = draw(st.sampled_from([j for j in range(1, len(led.blocks)) if j != k]))
    src, dst = led.blocks[k], led.blocks[j]
    at = draw(st.integers(min_value=0, max_value=min(len(dst.txs), len(dst.validity))))
    _replace_block(led, k, txs=src.txs[:i] + src.txs[i + 1:],
                   validity=src.validity[:i] + src.validity[i + 1:])
    _replace_block(led, j, txs=dst.txs[:at] + (src.txs[i],) + dst.txs[at:],
                   validity=dst.validity[:at] + (src.validity[i],) + dst.validity[at:])


def _tamper_restate(led, draw):  # a body hash restated over the block's records
    k = _later_block(led, draw)
    blk = led.blocks[k]
    _replace_block(led, k, body_hash=ledger.body_hash(
        (tx.tx_id, tx.kind, ok, reason) for tx, (ok, reason) in zip(blk.txs, blk.validity)))


def _tamper_world_state(led, draw):
    key = draw(st.sampled_from(sorted(led.world_state)))
    value, version = led.world_state[key]
    how = draw(st.sampled_from(["value", "version", "drop", "add"]))
    if how == "value":
        led.world_state[key] = ("forged", version)
    elif how == "version":
        led.world_state[key] = (value, version + 1)
    elif how == "drop":
        del led.world_state[key]
    else:
        led.world_state["forged"] = ("x", 1)


def _tamper_genesis(led, draw):  # a body hash restated over it is pinned on its own
    how = draw(st.sampled_from(["prev_hash", "body_hash", "tx"]))
    if how == "tx":
        k, i = _tx_position(led, draw, flagged=True)
        blk = led.blocks[k]
        _replace_block(led, 0, txs=led.blocks[0].txs + (blk.txs[i],),
                       validity=led.blocks[0].validity + (blk.validity[i],))
    else:
        _replace_block(led, 0, **{how: draw(st.binary(min_size=32, max_size=32))})


AUDIT_TAMPERS = [_tamper_flag, _tamper_link, _tamper_number, _tamper_tx, _tamper_order,
                 _tamper_move_tx, _tamper_restate, _tamper_world_state, _tamper_genesis]


@given(st.data())
@settings(deadline=None, max_examples=500)
def test_property_audit_matches_link_walk_and_replay(data):
    """One to three tampers of any kind give the catch-up audit the
    verdict of the link walk and replay it replaces."""
    base, policy = audit_chain()
    led = ChainLedger()
    led.blocks, led.world_state = list(base.blocks), dict(base.world_state)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        data.draw(st.sampled_from(AUDIT_TAMPERS))(led, data.draw)
    assert verify_chain(led, policy) == reference_verify_chain(led, policy)


def _genesis_with_records(txs, validity, restate):
    genesis = ChainLedger().blocks[0]
    body = ledger.body_hash((tx.tx_id, tx.kind, ok, reason)
                            for tx, (ok, reason) in zip(txs, validity))
    return dataclasses.replace(genesis, txs=txs, validity=validity,
                               body_hash=body if restate else genesis.body_hash)


@pytest.mark.parametrize("txs,restate,link_walk", [
    (1, True, 1),  # rewritten consistently: block 1's link to it breaks
    (0, False, None),  # a flag without a transaction hashes like none
], ids=["restated-tx", "flag-without-tx"])
def test_edited_genesis_is_named_block_0(txs, restate, link_walk):
    """The catch-up audit checks genesis against a fresh ledger's, so a
    genesis given records its body hash agrees with is block 0. The link
    walk and replay named block 1, whose link broke, for a transaction
    with its body hash restated, and passed a flag without a transaction,
    which the body hash does not cover."""
    led, policy = build_chain(4)
    led.blocks[0] = _genesis_with_records(led.blocks[1].txs[:txs], ((True, None),), restate)
    assert reference_verify_chain(led, policy) == link_walk
    assert verify_chain(led, policy) == 0


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_export_roundtrip_verifies():
    led, _ = build_chain(5)
    lines = export_ledger_lines(led)
    assert verify_export_lines(lines) is None
    record = json.loads(lines[1])
    assert set(record) == {"number", "prev_hash", "body_hash", "txs"}
    assert set(record["txs"][0]) == {"tx_id", "kind", "valid", "reason"}


def test_export_flip_detected():
    led, _ = build_chain(5)
    lines = export_ledger_lines(led)
    rec = json.loads(lines[3])
    txid = rec["txs"][0]["tx_id"]
    rec["txs"][0]["tx_id"] = ("0" if txid[0] != "0" else "1") + txid[1:]
    lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    assert verify_export_lines(lines) == 3


def test_export_world_state_sorted():
    led, _ = build_chain(4)
    doc = json.loads(export_world_state(led))
    assert list(doc) == sorted(doc)
    for entry in doc.values():
        assert set(entry) == {"value", "version"}


def world_state_reference(state):
    doc = {key: {"value": value, "version": version} for key, (value, version) in state.items()}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_export_world_state_matches_json_dumps():
    led = ChainLedger()
    assert export_world_state(led) == world_state_reference({}) == "{}\n"
    led.world_state.update({
        'say "hi"': ('"quoted"', 1),
        "back\\slash": ("a\\b\\", 2),
        "ctrl\x00\x01\t\n\r\x1f\x7f": ("\b\f\x0b", 3),
        "caf\u00e9/\u8eca": ("\u00fcber \u2028\u2029", 4),
        "\U0001F697": ("\U0001F6A8 \U00010000", 5),
        "": ("", 0),
    })
    assert export_world_state(led) == world_state_reference(led.world_state)
    led, _ = build_chain(4)
    assert export_world_state(led) == world_state_reference(led.world_state)


@given(st.dictionaries(st.text(), st.tuples(st.text(), st.integers(0, 10**9))))
@settings(deadline=None, max_examples=200)
def test_property_export_world_state_matches_json_dumps(state):
    led = ChainLedger()
    led.world_state.update(state)
    assert export_world_state(led) == world_state_reference(state)


def compact_reference(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# strings a JSON writer must escape exactly as json.dumps does: quotes,
# backslashes, control characters, non-ASCII, U+2028/9, astral code points
AWKWARD_TEXT = ("", 'say "hi"', "back\\slash\\", "ctrl\x00\x01\t\n\r\x1f\x7f\b\f",
                "caf\u00e9/\u8eca", "\u2028\u2029", "\U0001F697 \U00010000\U0010FFFF")
awkward_text = st.one_of(st.sampled_from(AWKWARD_TEXT), st.text())


def frame_result_reference(read_set, write_set):
    """The general framing of a read set and a write set: read count, then
    key and version per read, write count, then key and value per write."""
    parts = [str(len(read_set)).encode()]
    for key, version in read_set:
        parts += (key.encode(), str(version).encode())
    parts.append(str(len(write_set)).encode())
    for key, value in write_set:
        parts += (key.encode(), value.encode())
    return _frame(parts)


# values across the 256-byte prefix table: 1-, 2- and 4-byte characters
long_text = st.builds(lambda n, c: c * n, st.integers(60, 300),
                      st.sampled_from("x\u00e9\U0001F697"))


@given(key=st.one_of(awkward_text, long_text),
       version=st.one_of(st.sampled_from((0, 255, 256, 2**63)), st.integers(0, 2**63)),
       value=st.one_of(awkward_text, long_text, st.text(min_size=256)))
@settings(deadline=None, max_examples=300)
def test_property_frame_result_is_the_one_entry_read_and_write_sets(key, version, value):
    """The one-key result frames exactly the bytes of a read set of
    (key, version) and a write set of (key, value)."""
    assert _frame_result(key, version, value) == frame_result_reference(
        ((key, version),), ((key, value),))


@given(key=awkward_text, value=awkward_text)
@settings(deadline=None, max_examples=200)
def test_property_compact_json_matches_json_dumps_on_state_payloads(key, value):
    doc = {"state_key": key, "state_value": value}
    assert state_payload(key, value).decode("ascii") == compact_reference(doc)
    assert state_payload(key, value) == compact_reference(doc).encode()


def framed_reference(parts):
    """The per-part loop the framing join replaced, kept as the reference."""
    buf = bytearray()
    for part in parts:
        buf += len(part).to_bytes(4, "big")
        buf += part
    return bytes(buf)


@pytest.mark.parametrize("lengths", [(), (0,), (255,), (256,), (70_000,),
                                     (0, 255, 256, 70_000, 1, 0)])
def test_frame_matches_the_per_part_loop(lengths):
    parts = [bytes((k % 251,)) * n for k, n in enumerate(lengths)]
    assert ledger._frame(parts) == framed_reference(parts)
    assert ledger._frame(iter(parts)) == framed_reference(parts)


@given(st.lists(st.binary(max_size=600)))
@settings(deadline=None, max_examples=200)
def test_property_frame_matches_the_per_part_loop(parts):
    assert ledger._frame(parts) == framed_reference(parts)


def body_hash_reference(records):
    """SHA-256 of the generic framing of each record's (tx id, kind, flags
    byte, reason or "")."""
    parts = []
    for tx_id, kind, valid, reason in records:
        flags = (valid is True) | (reason is not None) << 1
        parts += (tx_id.encode(), kind.encode(), bytes((flags,)), (reason or "").encode())
    return hashlib.sha256(framed_reference(parts)).digest()


body_record = st.tuples(st.one_of(awkward_text, long_text, st.text(min_size=256)),
                        st.one_of(st.sampled_from(sorted(ledger.TX_KINDS)), awkward_text,
                                  long_text),
                        st.booleans(),
                        st.one_of(st.none(), st.just(""), awkward_text, long_text))


@given(st.lists(body_record, max_size=6))
@settings(deadline=None, max_examples=300)
def test_property_body_hash_is_the_generic_framing(records):
    """The pre-framed pieces (kinds, the reason-less flags) hash the bytes
    of the generic framing, past the 256-byte prefix table and for kinds
    and reasons no commit writes."""
    assert ledger.body_hash(records) == body_hash_reference(records)


def simulate_execution_reference(payload_bytes, world_state):
    """The chaincode read through json.loads alone."""
    doc = json.loads(payload_bytes.decode())
    key, value = doc["state_key"], doc["state_value"]
    if not isinstance(key, str) or not isinstance(value, str):
        raise ValueError("state_key and state_value must be strings")
    return key, world_state.get(key, ("", 0))[1], value


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # the exception is the outcome compared
        return type(err), str(err)


@st.composite
def chaincode_payloads(draw):
    """state_payload bytes, the same with junk spliced in, or json.dumps's
    spaced form, of awkward keys and values."""
    key, value = draw(awkward_text), draw(awkward_text)
    canonical = state_payload(key, value)
    how = draw(st.sampled_from(["canonical", "spliced", "spaced"]))
    if how == "canonical":
        return canonical
    if how == "spaced":
        return payload(key, value)
    at = draw(st.one_of(st.integers(0, len(canonical)),
                        st.sampled_from([14, len(canonical) - 1, len(canonical)])))
    cut = draw(st.integers(0, 3))
    junk = draw(st.one_of(
        st.sampled_from([b'"', b"\\", b"}", b",", b"\\u12", b"\x01", b" ", b"\xff"]),
        st.binary(max_size=4)))
    return canonical[:at] + junk + canonical[at + cut:]


@given(chaincode_payloads(), st.integers(0, 2**70))
@example(state_payload("k", "v") + b"}", 0)  # extra data after the canonical shape
@example(state_payload("k", "v") + b" ", 0)  # trailing whitespace json.loads takes
@example(state_payload("k", "v")[:-1], 0)
@example(state_payload("k\x01", "v").replace(b"\\u0001", b"\x01"), 0)  # a raw control character
@settings(deadline=None, max_examples=500)
def test_property_simulate_execution_matches_json_loads(payload_bytes, version):
    """The scanned canonical payload reads as json.loads reads it, and
    any other text gives json.loads's result or its exception."""
    try:
        key = json.loads(payload_bytes)["state_key"]
    except Exception:
        key = "k"
    state = {key: ("x", version)} if isinstance(key, str) else {}
    assert (outcome(simulate_execution, payload_bytes, state)
            == outcome(simulate_execution_reference, payload_bytes, state))


def ledger_line_reference(blk):
    return compact_reference({
        "number": blk.number,
        "prev_hash": blk.prev_hash.hex(),
        "body_hash": blk.body_hash.hex(),
        "txs": [{"tx_id": tx.tx_id, "kind": tx.kind, "valid": ok, "reason": reason}
                for tx, (ok, reason) in zip(blk.txs, blk.validity)],
    })


def bare_tx(tx_id, kind, client):
    return EndorsedTransaction(tx_id, kind, b"", client, 0.0, 0, "", "", 0, "", (), ())


awkward_record = st.tuples(awkward_text, awkward_text, st.booleans(),
                           st.one_of(st.none(), st.just(""), awkward_text))


@given(st.lists(st.lists(awkward_record, max_size=4), max_size=4),
       st.binary(min_size=32, max_size=32))
@settings(deadline=None, max_examples=200)
def test_property_export_ledger_lines_match_json_dumps(blocks, prev_hash):
    _, _, client, _ = make_network()
    led = ChainLedger()  # the genesis block has no transactions
    for n, records in enumerate(blocks, start=1):
        txs = tuple(bare_tx(tx_id, kind, client) for tx_id, kind, _, _ in records)
        validity = tuple((ok, reason) for _, _, ok, reason in records)
        led.blocks.append(Block(n, prev_hash, txs, ledger.body_hash(records), validity))
    lines = export_ledger_lines(led)
    assert lines == [ledger_line_reference(blk) for blk in led.blocks]
    assert lines[0] == ('{"body_hash":"%s","number":0,"prev_hash":"%s","txs":[]}'
                        % (hashlib.sha256(b"").hexdigest(), "00" * 32))


def test_export_ledger_lines_match_json_dumps_on_a_committed_chain():
    led, _ = build_chain(6)
    assert export_ledger_lines(led) == [ledger_line_reference(blk) for blk in led.blocks]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def write_batches(draw):
    n_blocks = draw(st.integers(min_value=1, max_value=5))
    batches = []
    nonce = 0
    for _ in range(n_blocks):
        size = draw(st.integers(min_value=1, max_value=4))
        keys = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=size, max_size=size))
        batches.append([(k, nonce + i) for i, k in enumerate(keys)])
        nonce += size
    return batches


@given(write_batches())
@settings(deadline=None, max_examples=25)
def test_property_replay_and_versions(batches):
    _, peers, client, policy = make_network()
    led = ChainLedger()
    for batch in batches:
        txs = [endorse_tx(client, peers, led, k, f"v{n}", nonce=n) for k, n in batch]
        commit(led, policy, txs)
    # hash chain holds
    for k in range(1, len(led.blocks)):
        assert led.blocks[k].prev_hash == led.blocks[k - 1].header()
    # replay reproduces the world state and validity flags
    assert verify_chain(led, policy) is None
    # per-key versions equal the count of committed valid writes
    for key, (_, version) in led.world_state.items():
        valid_writes = sum(
            1
            for blk in led.blocks
            for tx, (ok, _) in zip(blk.txs, blk.validity)
            if ok and tx.key == key
        )
        assert version == valid_writes
    # every submitted tx on the chain exactly once per commit attempt
    assert len(tx_records(led)) == sum(len(b) for b in batches)
    # no valid transaction with unsatisfied policy
    for blk in led.blocks:
        for tx, (ok, _) in zip(blk.txs, blk.validity):
            if ok:
                assert check_policy(tx, policy)

