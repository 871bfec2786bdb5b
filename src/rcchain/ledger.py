"""Simulated execute-order-validate transaction pipeline.

Identities come from a certificate authority that never re-admits a
revoked registration. Endorsing peers simulate chaincode execution
deterministically and sign tx id + result hash, which binds an
endorsement to its transaction; the ordering service cuts blocks by
batch size or timeout (orderer faults are the scenario's); committing
peers re-check policy, duplicates, and read-set versions (the MVCC check
that kills double spends), apply valid writes to the world state, and
seal every transaction into its block regardless of legality; the sealed
block is the commit result, and its validity flags are the only record
of which transactions took effect; a tx whose id does not match its
content is sealed "structure", the one place a digest may fail. Audits
share the link walk (numbers, prev-hash links, body hashes from genesis)
over chains and exported files, and the replay that validates recorded
blocks once more onto another ledger for peer catch-up and the full
audit. Validation does each piece of work once: the replay's flag
comparison is its only digest check, and a policy check hashes the
result once and stops verifying as soon as the policy is met.

Signatures are HMAC tags keyed by each identity's key tag; transaction
ids are content digests, so the tx-id-only body hash still pins every
payload byte. Hashing is bit-exact: header = SHA-256(number as 8-byte
big-endian || prev_hash || body_hash), body = SHA-256 of the
concatenated tx ids, genesis prev_hash = 32 zero bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

ZERO_HASH = bytes(32)
CA_SECRET = b"rcchain-ca"  # the certificate authority's key for every identity's key tag

ROLES = frozenset({"client", "endorsing_peer", "orderer"})

TX_KINDS = frozenset(
    {
        "qa_request",
        "service_offer",
        "service_proposal",
        "service_process",
        "feedback",
        "reputation_update",
        "data_index",
    }
)


class IntegrityError(Exception):
    """Ledger content fails hash or replay verification."""


class BlockRejected(Exception):
    """Candidate block does not extend the current tip."""


@dataclass(frozen=True)
class Identity:
    id: str
    org: str
    role: str
    key_tag: str  # hex; the HMAC signing key


def sign(identity: Identity, message: bytes) -> str:
    return hmac.digest(bytes.fromhex(identity.key_tag), message, "sha256").hex()


def verify_sig(identity: Identity, message: bytes, sig: str) -> bool:
    return hmac.compare_digest(sign(identity, message), sig)


class CertificateAuthority:
    """Issues identities bound to registration info; revocation is final."""

    def __init__(self):
        self._issued: dict[str, Identity] = {}
        self._revoked: set[str] = set()

    def register(self, org: str, role: str, registration_info: str) -> Identity:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if not registration_info:
            raise ValueError("registration info must be nonempty")
        if registration_info in self._revoked:
            raise ValueError(f"registration {registration_info!r} was revoked")
        if registration_info in self._issued:
            raise ValueError(f"registration {registration_info!r} already bound")
        key_tag = hmac.digest(
            CA_SECRET, f"{org}|{role}|{registration_info}".encode(), "sha256"
        ).hex()
        ident = Identity(id=registration_info, org=org, role=role, key_tag=key_tag)
        self._issued[registration_info] = ident
        return ident

    def revoke(self, registration_info: str) -> None:
        self._revoked.add(registration_info)
        self._issued.pop(registration_info, None)


@dataclass(frozen=True)
class EndorsementPolicy:
    required_orgs: frozenset[str]
    threshold: int = 1

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("policy threshold must be >= 1")
        if not self.required_orgs:
            raise ValueError("policy needs at least one required org")


def _tx_digest(kind: str, payload: bytes, client_id: str, created_at: float, nonce: int) -> str:
    h = hashlib.sha256()
    for part in (kind.encode(), payload, client_id.encode(),
                 repr(float(created_at)).encode(), str(nonce).encode()):
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.hexdigest()


@dataclass(frozen=True)
class TransactionProposal:
    tx_id: str
    kind: str
    payload: bytes
    client: Identity
    created_at: float
    nonce: int
    client_sig: str

    def digest_ok(self) -> bool:
        return self.tx_id == _tx_digest(
            self.kind, self.payload, self.client.id, self.created_at, self.nonce
        )


def propose(
    kind: str, payload: bytes, client: Identity, created_at: float, nonce: int = 0
) -> TransactionProposal:
    if kind not in TX_KINDS:
        raise ValueError(f"unknown transaction kind {kind!r}")
    tx_id = _tx_digest(kind, payload, client.id, created_at, nonce)
    return TransactionProposal(
        tx_id=tx_id,
        kind=kind,
        payload=payload,
        client=client,
        created_at=created_at,
        nonce=nonce,
        client_sig=sign(client, tx_id.encode()),
    )


@dataclass(frozen=True)
class Endorsement:
    endorser: Identity
    sig: str  # over the endorsed transaction's id + result hash


@dataclass(frozen=True)
class EndorsedTransaction:
    proposal: TransactionProposal
    read_set: tuple[tuple[str, int], ...]
    write_set: tuple[tuple[str, str], ...]
    endorsements: tuple[Endorsement, ...]

    @property
    def tx_id(self) -> str:
        return self.proposal.tx_id

    @property
    def kind(self) -> str:
        return self.proposal.kind


def state_payload(key: str, value: str) -> bytes:
    """Canonical payload bytes of a write of value to the state key; the
    inverse of what simulate_execution reads."""
    return json.dumps(
        {"state_key": key, "state_value": value}, sort_keys=True, separators=(",", ":")
    ).encode()


def simulate_execution(
    kind: str, payload: bytes, world_state: dict[str, tuple[str, int]]
) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[str, str], ...]]:
    """Deterministic chaincode stand-in: read-modify-write of the payload's
    state key against the current world-state version."""
    doc = json.loads(payload.decode())
    key = doc["state_key"]
    value = doc["state_value"]
    if not isinstance(key, str) or not isinstance(value, str):
        raise ValueError("state_key and state_value must be strings")
    _, version = world_state.get(key, ("", 0))
    return ((key, version),), ((key, value),)


def _result_hash(read_set, write_set) -> str:
    canon = json.dumps({"reads": list(read_set), "writes": list(write_set)},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def endorse(
    proposal: TransactionProposal,
    policy: EndorsementPolicy,
    peers: Iterable[Identity],
    world_state: dict[str, tuple[str, int]],
    unreachable: frozenset[str] = frozenset(),
) -> EndorsedTransaction:
    """Collect endorsements from every reachable endorsing peer of the
    policy's required orgs.

    Unreachable peers contribute nothing (execution timeout); whether
    the result satisfies the policy is the caller's check_policy call,
    not an exception.
    """
    if not proposal.digest_ok():
        raise ValueError("proposal content does not match its tx id")
    read_set, write_set = simulate_execution(proposal.kind, proposal.payload, world_state)
    msg = (proposal.tx_id + _result_hash(read_set, write_set)).encode()
    endorsements = []
    for peer in peers:
        if peer.role != "endorsing_peer":
            raise ValueError(f"{peer.id} is not an endorsing peer")
        if peer.org in policy.required_orgs and peer.id not in unreachable:
            endorsements.append(Endorsement(endorser=peer, sig=sign(peer, msg)))
    return EndorsedTransaction(
        proposal=proposal,
        read_set=read_set,
        write_set=write_set,
        endorsements=tuple(endorsements),
    )


def check_policy(tx: EndorsedTransaction, policy: EndorsementPolicy) -> bool:
    msg = (tx.tx_id + _result_hash(tx.read_set, tx.write_set)).encode()
    missing = dict.fromkeys(policy.required_orgs, policy.threshold)
    for e in tx.endorsements:
        if missing.get(e.endorser.org) and verify_sig(e.endorser, msg, e.sig):
            missing[e.endorser.org] -= 1
            if not any(missing.values()):
                return True
    return False


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderingConfig:
    batch_size: int = 10
    batch_timeout_s: float = 2.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class PendingTx:
    submitted_at: float
    tx: EndorsedTransaction


def order_batch(
    pending: deque[PendingTx], cfg: OrderingConfig, now: float
) -> Optional[list[EndorsedTransaction]]:
    """Cut a batch: exactly batch_size oldest when over-full, everything
    pending when the oldest has waited past the timeout, else nothing."""
    if not pending:
        return None
    if len(pending) >= cfg.batch_size:
        return [pending.popleft().tx for _ in range(cfg.batch_size)]
    if now - pending[0].submitted_at >= cfg.batch_timeout_s:
        return [pending.popleft().tx for _ in range(len(pending))]
    return None


# ---------------------------------------------------------------------------
# blocks and the chain ledger
# ---------------------------------------------------------------------------

def body_hash(tx_ids: Iterable[str]) -> bytes:
    return hashlib.sha256(b"".join(tx_id.encode() for tx_id in tx_ids)).digest()


def header_hash(number: int, prev_hash: bytes, body: bytes) -> bytes:
    return hashlib.sha256(number.to_bytes(8, "big") + prev_hash + body).digest()


@dataclass(frozen=True)
class BlockProposal:
    number: int
    prev_hash: bytes
    txs: tuple[EndorsedTransaction, ...]


@dataclass(frozen=True)
class Block:
    number: int
    prev_hash: bytes
    txs: tuple[EndorsedTransaction, ...]
    body_hash: bytes
    validity: tuple[tuple[bool, Optional[str]], ...]

    def header(self) -> bytes:
        return header_hash(self.number, self.prev_hash, self.body_hash)


class ChainLedger:
    """Hash-chained blocks plus the versioned world state. Each block
    carries the validity flag and reason of every transaction in it."""

    def __init__(self):
        genesis = Block(0, ZERO_HASH, (), body_hash(()), ())
        self.blocks: list[Block] = [genesis]
        self.world_state: dict[str, tuple[str, int]] = {}
        self._seen_tx_ids: set[str] = set()

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def next_proposal(self, txs: Iterable[EndorsedTransaction]) -> BlockProposal:
        return BlockProposal(self.tip.number + 1, self.tip.header(), tuple(txs))


def _validate_tx(
    tx: EndorsedTransaction,
    policy: EndorsementPolicy,
    world_state,
    seen: set[str],
) -> Optional[str]:
    """Reason the transaction is invalid, or None. Check order: structure,
    signatures/policy, duplicate, read-set versions."""
    if not tx.proposal.digest_ok():
        return "structure"
    if not verify_sig(tx.proposal.client, tx.proposal.tx_id.encode(), tx.proposal.client_sig):
        return "signature"
    if not check_policy(tx, policy):
        return "policy"
    if tx.tx_id in seen:
        return "duplicate"
    for key, version in tx.read_set:
        if world_state.get(key, ("", 0))[1] != version:
            return "mvcc_conflict"
    return None


def validate_and_commit(
    candidate: BlockProposal, ledger: ChainLedger, policy: EndorsementPolicy
) -> Block:
    """Validate every transaction in order, apply valid write sets, and
    append and return the block sealed with every transaction's validity."""
    if candidate.number != ledger.tip.number + 1:
        raise BlockRejected(
            f"expected block {ledger.tip.number + 1}, got {candidate.number}"
        )
    if candidate.prev_hash != ledger.tip.header():
        raise BlockRejected(f"block {candidate.number} does not link to the tip")
    validity = []
    for tx in candidate.txs:
        reason = _validate_tx(tx, policy, ledger.world_state, ledger._seen_tx_ids)
        if reason is None:
            for key, value in tx.write_set:
                _, version = ledger.world_state.get(key, ("", 0))
                ledger.world_state[key] = (value, version + 1)
        ledger._seen_tx_ids.add(tx.tx_id)
        validity.append((reason is None, reason))
    block = Block(candidate.number, candidate.prev_hash, candidate.txs,
                  body_hash(tx.tx_id for tx in candidate.txs), tuple(validity))
    ledger.blocks.append(block)
    return block


def _first_bad_link(records: Iterable[tuple[int, bytes, bytes, bytes]]) -> Optional[int]:
    """Walk (number, prev_hash, stated body hash, recomputed body hash)
    records from genesis; returns the position of the first one out of
    sequence, off the link, or with a wrong body hash."""
    prev_header, k = ZERO_HASH, -1
    for k, (number, prev_hash, stated, recomputed) in enumerate(records):
        if number != k or prev_hash != prev_header or stated != recomputed:
            return k
        prev_header = header_hash(number, prev_hash, stated)
    if k < 0:
        raise ValueError("no genesis block")
    return None


def _replay(target: ChainLedger, blocks: list[Block], policy: EndorsementPolicy) -> Optional[int]:
    """Re-validate recorded blocks onto target; returns the number of the
    first one rejected or sealed to other flags or header."""
    for blk in blocks:
        k = target.tip.number + 1
        try:
            proposal = BlockProposal(blk.number, blk.prev_hash, blk.txs)
            sealed = validate_and_commit(proposal, target, policy)
        except BlockRejected:
            return k
        if sealed.validity != blk.validity or sealed.header() != blk.header():
            return k
    return None


def sync_peer(lagging: ChainLedger, source: ChainLedger, policy: EndorsementPolicy) -> None:
    """Replay the source's missing blocks onto the lagging ledger. The
    shared prefix must match hash-for-hash and every replayed block must
    seal to the flags and header the source recorded; divergence is an
    integrity error, never silently repaired, and leaves the lagging
    ledger as it was: the replay runs on a copy adopted only when clean."""
    if lagging.tip.number > source.tip.number:
        raise IntegrityError("lagging ledger is ahead of the source")
    for k in range(lagging.tip.number + 1):
        if lagging.blocks[k].header() != source.blocks[k].header():
            raise IntegrityError(f"divergent prefix at block {k}")
    trial = ChainLedger()
    trial.blocks, trial.world_state, trial._seen_tx_ids = (
        lagging.blocks[:], dict(lagging.world_state), set(lagging._seen_tx_ids))
    bad = _replay(trial, source.blocks[lagging.tip.number + 1:], policy)
    if bad is not None:
        raise IntegrityError(f"replay of block {bad} does not match the source")
    lagging.blocks, lagging.world_state, lagging._seen_tx_ids = (
        trial.blocks, trial.world_state, trial._seen_tx_ids)


def verify_chain(ledger: ChainLedger, policy: EndorsementPolicy) -> Optional[int]:
    """Full audit: the link walk, then a replay of the validity flags and
    world state from genesis. None when clean, else the first bad block."""
    bad_link = _first_bad_link(
        (b.number, b.prev_hash, b.body_hash, body_hash(tx.tx_id for tx in b.txs))
        for b in ledger.blocks
    )
    scratch = ChainLedger()
    bad = _replay(scratch, ledger.blocks[1:], policy)
    if bad is None and scratch.world_state != ledger.world_state:
        bad = ledger.tip.number
    return min((k for k in (bad, bad_link) if k is not None), default=None)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_ledger_lines(ledger: ChainLedger) -> list[str]:
    """One canonical-JSON record per block, in block order."""
    lines = []
    for blk in ledger.blocks:
        record = {
            "number": blk.number,
            "prev_hash": blk.prev_hash.hex(),
            "body_hash": blk.body_hash.hex(),
            "txs": [
                {"tx_id": tx.tx_id, "kind": tx.kind, "valid": ok, "reason": reason}
                for tx, (ok, reason) in zip(blk.txs, blk.validity)
            ],
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def export_world_state(ledger: ChainLedger) -> str:
    doc = {
        key: {"value": value, "version": version}
        for key, (value, version) in sorted(ledger.world_state.items())
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def export_files(ledger: ChainLedger) -> dict[str, str]:
    """A chain's two export files, name -> text."""
    return {
        "ledger.jsonl": "\n".join(export_ledger_lines(ledger)) + "\n",
        "world_state.json": export_world_state(ledger),
    }


def verify_export_lines(lines: Iterable[str]) -> Optional[int]:
    """Link walk over an exported ledger file; the export is
    self-verifiable because the body hash covers the tx ids. Returns
    None when clean, else the first bad block number."""
    return _first_bad_link(
        (r["number"], bytes.fromhex(r["prev_hash"]), bytes.fromhex(r["body_hash"]),
         body_hash(tx["tx_id"] for tx in r["txs"]))
        for r in map(json.loads, lines)
    )
