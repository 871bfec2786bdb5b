"""Simulated execute-order-validate transaction pipeline.

Identities come from a certificate authority that never re-admits a
revoked registration. Endorsing peers simulate chaincode execution
deterministically and sign tx id + result hash, which binds an
endorsement to its transaction; only the first `threshold` reachable
peers of each required org, in the order given, are asked, since a
policy needs no more. The ordering service cuts blocks by batch size or
timeout (orderer faults are the scenario's); committing peers re-check
policy, duplicates, and the version each transaction read of its one
key (the MVCC check that kills double spends), store each valid write
in the world state, and seal every transaction into its block
regardless of legality; the sealed block is the commit result, and its
validity flags are the only record of which transactions took effect; a
tx whose id does not match its content is sealed "structure", the one
place a digest may fail. The full chain audit is a fresh peer catching
up from genesis; an export, with no content to replay, gets a link walk
(numbers, prev-hash links, body hashes). Validation does each piece of
work once per role, audits included: the replay's flag comparison is
its only digest check, and a policy check hashes the result once and
stops verifying as soon as the policy is met.

Signatures are raw 32-byte RFC 2104 HMAC-SHA256 tags keyed by each
identity's key (the bytes of its hex key tag), computed from the
identity's two pad states (SHA-256 over the key XOR ipad and XOR opad,
derived once when the identity is built) and bit-equal to hmac.digest;
no signature is exported. Every digest hashes one framing: each field
as its 4-byte big-endian length (from a table below 256), then its
bytes; a framing of a fixed number of parts (an id's tail, a result, a
block body's entries) is one join of pre-framed pieces, byte-equal to
_frame's, and a payload in state_payload's canonical shape is read by
json's C string scanner. A transaction is one record from endorsement to audit: its
proposal plus what endorsement added (the chaincode's one-key read and
write, and its endorsers and their tags as two tuples, run parallel in
the order endorse asked the peers). It keeps the framed (repr(created_at),
nonce) tail of its id's preimage, whose kind and client id come
pre-framed and whose payload is hashed where it lies, and the framed
(key, version, value) result; every role (endorser, client, committer,
the audit's replay) hashes them anew. Hashing is bit-exact:
- tx id = SHA-256 of the framed (kind, payload, client id,
  repr(created_at), nonce); ids are content digests, so the body hash
  pins every payload byte;
- result hash = SHA-256 of the framed ("1", key, version, "1", key,
  value), hex: the chaincode reads and writes one key, framed as a read
  set and a write set of one entry each (a count, then key and version;
  a count, then key and value);
- body hash = SHA-256 of the framed (tx id, kind, flags, reason) of
  every transaction in block order, flags being one byte (bit 0 valid,
  bit 1 a reason is present), so an export is tamper-evident down to
  each validity flag and reason;
- header = SHA-256(number as 8-byte big-endian || prev_hash ||
  body_hash), genesis prev_hash = 32 zero bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from collections import deque
from dataclasses import dataclass, field, fields
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional

from .ioutil import parse_json

ZERO_HASH = bytes(32)
CA_SECRET = b"rcchain-ca"  # the certificate authority's key for every identity's key tag
BATCH_TIMEOUT_S = 2.0  # Fabric's default BatchTimeout: OrderingConfig's and the DES's

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


_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _hmac_pads(key: bytes):
    """HMAC-SHA256's starting states (RFC 2104): SHA-256 over the key,
    hashed first when longer than the 64-byte block and zero-padded to
    it, XOR ipad and XOR opad."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\0")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


@dataclass(frozen=True)
class Identity:
    id: str
    org: str
    role: str
    key_tag: str  # hex; the HMAC signing key
    inner: object = field(init=False, repr=False, compare=False)  # the key's HMAC pad states
    outer: object = field(init=False, repr=False, compare=False)
    framed_id: bytes = field(init=False, repr=False, compare=False)  # id as tx ids frame it

    def __post_init__(self):
        inner, outer = _hmac_pads(bytes.fromhex(self.key_tag))
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "framed_id", _frame((self.id.encode(),)))

    def __reduce__(self):  # hash states do not pickle: rebuild them from the fields
        return Identity, (self.id, self.org, self.role, self.key_tag)


def sign(identity: Identity, message: bytes) -> bytes:
    """The raw 32-byte HMAC-SHA256 tag of message under the identity's key."""
    inner = identity.inner.copy()
    inner.update(message)
    outer = identity.outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def verify_sig(identity: Identity, message: bytes, sig: bytes) -> bool:
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


class _Prefixes(dict):
    """Length -> its 4-byte big-endian prefix, built on lookup from 256 up."""

    def __missing__(self, n: int) -> bytes:
        return n.to_bytes(4, "big")


_PREFIX = _Prefixes((n, n.to_bytes(4, "big")) for n in range(256))


def _frame(parts: Iterable[bytes]) -> bytes:
    """Each part as its 4-byte big-endian length, then its bytes, in one
    join: the one injective encoding every digest in this module hashes."""
    out = []
    for part in parts:
        out += (_PREFIX[len(part)], part)
    return b"".join(out)


_FRAMED_KINDS = {kind: _frame((kind.encode(),)) for kind in TX_KINDS}
_FRAMED_ONE = _frame((b"1",))  # a read or write set's count
_FRAMED_NO_REASON = (_frame((b"\0", b"")), _frame((b"\1", b"")))  # body_hash's (flags, "")


def _frame_tail(created_at: float, nonce: int) -> bytes:
    """The last two fields of a tx id's preimage, framed."""
    t, n = repr(float(created_at)).encode(), str(nonce).encode()
    return b"".join((_PREFIX[len(t)], t, _PREFIX[len(n)], n))


def _tx_digest(kind: str, payload: bytes, framed_client: bytes, tail: bytes) -> str:
    """SHA-256 of the framed (kind, payload, client id, repr(created_at),
    nonce), hex. The parts are hashed where they lie: the payload is not
    copied into a framing, and the kind and client id come pre-framed."""
    h = hashlib.sha256(_FRAMED_KINDS.get(kind) or _frame((kind.encode(),)))
    h.update(_PREFIX[len(payload)])
    h.update(payload)
    h.update(framed_client)
    h.update(tail)
    return h.hexdigest()


@dataclass(frozen=True, slots=True)
class TransactionProposal:
    tx_id: str
    kind: str
    payload: bytes
    client: Identity
    created_at: float
    nonce: int
    client_sig: bytes  # the client's tag over tx_id
    # _frame_tail of this proposal's fields, derived once: never a
    # caller's, so dataclasses.replace derives it again
    _tail: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def digest_ok(self) -> bool:
        """Whether tx_id is the digest of this proposal's content, hashed
        anew on every call."""
        tail = self._tail
        if tail is None:
            tail = _frame_tail(self.created_at, self.nonce)
            object.__setattr__(self, "_tail", tail)
        return self.tx_id == _tx_digest(self.kind, self.payload, self.client.framed_id, tail)


def _sealer(cls):
    """A builder of cls records from every field's value, in field order,
    writing each slot once through its member descriptor. __init__ pays a
    frozen object.__setattr__ per field and writes a kept-bytes slot twice
    (None, then the bytes); the builder is compiled, as dataclasses
    compiles __init__, so its writes run unrolled."""
    names = [f.name for f in fields(cls)]
    env = {"new": object.__new__, "cls": cls} | {f"set{n}": getattr(cls, n).__set__ for n in names}
    exec(f"def seal({', '.join(names)}):\n rec = new(cls)\n"
         + "".join(f" set{n}(rec, {n})\n" for n in names) + " return rec", env)
    return env["seal"]


def propose(
    kind: str, payload: bytes, client: Identity, created_at: float, nonce: int = 0
) -> TransactionProposal:
    if kind not in TX_KINDS:
        raise ValueError(f"unknown transaction kind {kind!r}")
    tail = _frame_tail(created_at, nonce)
    tx_id = _tx_digest(kind, payload, client.framed_id, tail)
    return _seal_proposal(tx_id, kind, payload, client, created_at, nonce,
                          sign(client, tx_id.encode()), tail)  # the bytes just hashed


def _frame_result(key: str, version: int, value: str) -> bytes:
    """The result hash's preimage: one read of key at version and one
    write of value to it, each set framed as its count, then its entry."""
    k, v, w = key.encode(), str(version).encode(), value.encode()
    k = _PREFIX[len(k)] + k
    return b"".join((_FRAMED_ONE, k, _PREFIX[len(v)], v, _FRAMED_ONE, k, _PREFIX[len(w)], w))


def _signed_message(tx_id: str, framed_result: bytes) -> bytes:
    """What an endorser signs: the tx id and the hex result hash."""
    return (tx_id + hashlib.sha256(framed_result).hexdigest()).encode()


@dataclass(frozen=True, slots=True)
class EndorsedTransaction(TransactionProposal):
    """A proposal plus what endorsement added: the one record a block holds."""
    key: str  # the one state key the chaincode read and wrote
    version: int  # the key's version it read
    value: str  # what it wrote there
    endorsers: tuple[Identity, ...]  # the peers endorse asked, in order
    sigs: tuple[bytes, ...]  # each endorser's tag over signed_message(), in the same order
    # _frame_result of key, version and value, derived once: never a
    # caller's, so dataclasses.replace derives it again
    _result: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def signed_message(self) -> bytes:
        """The message each endorser must sign; the result is hashed
        anew on every call."""
        framed = self._result
        if framed is None:
            framed = _frame_result(self.key, self.version, self.value)
            object.__setattr__(self, "_result", framed)
        return _signed_message(self.tx_id, framed)


_seal_proposal, _seal_record = _sealer(TransactionProposal), _sealer(EndorsedTransaction)


def state_payload(key: str, value: str) -> bytes:
    """Canonical payload bytes of a write of value to the state key (the
    bytes of json.dumps with sorted keys and compact separators); the
    inverse of what simulate_execution reads."""
    q = encode_basestring_ascii
    return f'{{"state_key":{q(key)},"state_value":{q(value)}}}'.encode()


_KEY_HEAD, _VALUE_HEAD = '{"state_key":"', ',"state_value":"'


def simulate_execution(payload: bytes,
                       world_state: dict[str, tuple[str, int]]) -> tuple[str, int, str]:
    """Deterministic chaincode stand-in: read-modify-write of the payload's
    one state key. Returns (key, the world-state version read, the value
    written)."""
    text = payload.decode()
    if text.startswith(_KEY_HEAD):  # state_payload's shape: scan its two strings
        # json.loads scans these same strings first, so an error here is its error
        key, end = scanstring(text, len(_KEY_HEAD))
        if text.startswith(_VALUE_HEAD, end):
            value, end = scanstring(text, end + len(_VALUE_HEAD))
            if text[end:] == "}":
                return key, world_state.get(key, ("", 0))[1], value
    doc = json.loads(text)
    key = doc["state_key"]
    value = doc["state_value"]
    if not isinstance(key, str) or not isinstance(value, str):
        raise ValueError("state_key and state_value must be strings")
    return key, world_state.get(key, ("", 0))[1], value


def endorse(
    proposal: TransactionProposal,
    policy: EndorsementPolicy,
    peers: Iterable[Identity],
    world_state: dict[str, tuple[str, int]],
    unreachable: frozenset[str] = frozenset(),
) -> EndorsedTransaction:
    """Collect endorsements from the first policy.threshold reachable
    endorsing peers of each required org, in peers order.

    Unreachable peers contribute nothing (execution timeout); whether
    the result satisfies the policy is the caller's check_policy call,
    not an exception.
    """
    if not proposal.digest_ok():
        raise ValueError("proposal content does not match its tx id")
    key, version, value = simulate_execution(proposal.payload, world_state)
    framed = _frame_result(key, version, value)
    msg = _signed_message(proposal.tx_id, framed)
    wanted = dict.fromkeys(policy.required_orgs, policy.threshold)
    endorsers = []
    for peer in peers:
        if peer.role != "endorsing_peer":
            raise ValueError(f"{peer.id} is not an endorsing peer")
        if wanted.get(peer.org) and peer.id not in unreachable:
            wanted[peer.org] -= 1
            endorsers.append(peer)
    p = proposal  # its _tail was derived by digest_ok above; framed was just hashed
    return _seal_record(p.tx_id, p.kind, p.payload, p.client, p.created_at, p.nonce,
                        p.client_sig, p._tail, key, version, value, tuple(endorsers),
                        tuple([sign(peer, msg) for peer in endorsers]), framed)


def check_policy(tx: EndorsedTransaction, policy: EndorsementPolicy) -> bool:
    """Whether the matched (endorser, tag) pairs meet the policy; unequal tuples never raise."""
    msg = tx.signed_message()
    missing = dict.fromkeys(policy.required_orgs, policy.threshold)
    short = len(missing)  # required orgs still below the threshold
    for peer, sig in zip(tx.endorsers, tx.sigs):
        org = peer.org
        if missing.get(org) and verify_sig(peer, msg, sig):
            missing[org] -= 1
            if not missing[org]:
                short -= 1
                if not short:
                    return True
    return False


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderingConfig:
    batch_size: int = 10
    batch_timeout_s: float = BATCH_TIMEOUT_S

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.batch_timeout_s >= 0:
            raise ValueError(f"batch_timeout_s must be >= 0, got {self.batch_timeout_s!r}")


class PendingTx(NamedTuple):
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

def body_hash(results: Iterable[tuple[str, str, bool, Optional[str]]]) -> bytes:
    """SHA-256 of every transaction's framed (tx_id, kind, flags, reason),
    in block order. flags is one byte: bit 0 is the validity flag and
    bit 1 is set when there is a reason, so a missing reason and an empty
    one hash apart."""
    parts = []
    for tx_id, kind, valid, reason in results:
        i = tx_id.encode()
        parts += (_PREFIX[len(i)], i, _FRAMED_KINDS.get(kind) or _frame((kind.encode(),)),
                  _FRAMED_NO_REASON[valid is True] if reason is None
                  else _frame((bytes(((valid is True) | 2,)), reason.encode())))
    return hashlib.sha256(b"".join(parts)).digest()


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
    signatures/policy, duplicate, the version read."""
    if not tx.digest_ok():
        return "structure"
    if not verify_sig(tx.client, tx.tx_id.encode(), tx.client_sig):
        return "signature"
    if not check_policy(tx, policy):
        return "policy"
    if tx.tx_id in seen:
        return "duplicate"
    if world_state.get(tx.key, ("", 0))[1] != tx.version:
        return "mvcc_conflict"
    return None


_VALID = (True, None)  # the validity of every valid transaction, one shared tuple


def validate_and_commit(
    candidate: BlockProposal, ledger: ChainLedger, policy: EndorsementPolicy
) -> Block:
    """Validate every transaction in order, store each valid write, and
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
        if reason is None:  # the version read is the current one
            ledger.world_state[tx.key] = (tx.value, tx.version + 1)
        ledger._seen_tx_ids.add(tx.tx_id)
        validity.append(_VALID if reason is None else (False, reason))
    body = body_hash((tx.tx_id, tx.kind, ok, reason)
                     for tx, (ok, reason) in zip(candidate.txs, validity))
    block = Block(candidate.number, candidate.prev_hash, candidate.txs, body, tuple(validity))
    ledger.blocks.append(block)
    return block


def _catch_up(peer: ChainLedger, source: list[Block], policy: EndorsementPolicy) -> Optional[int]:
    """The peer's blocks must match the source's in number, then header;
    later ones are re-validated onto a copy of the peer, adopted once each
    seals to the recorded flags and header (commit checks number and link,
    so the body hash decides). Returns the first bad block's number or None."""
    for k, (mine, theirs) in enumerate(zip(peer.blocks, source)):
        if theirs.number != k or theirs.header() != mine.header():
            return k
    trial = ChainLedger()
    trial.blocks, trial.world_state, trial._seen_tx_ids = (
        peer.blocks[:], dict(peer.world_state), set(peer._seen_tx_ids))
    for k, blk in enumerate(source[len(peer.blocks):], start=len(peer.blocks)):
        try:
            sealed = validate_and_commit(BlockProposal(blk.number, blk.prev_hash, blk.txs),
                                         trial, policy)
        except BlockRejected:
            return k
        if sealed.validity != blk.validity or sealed.body_hash != blk.body_hash:
            return k
    peer.blocks, peer.world_state, peer._seen_tx_ids = (
        trial.blocks, trial.world_state, trial._seen_tx_ids)
    return None


def sync_peer(lagging: ChainLedger, source: ChainLedger, policy: EndorsementPolicy) -> None:
    """Catch the lagging ledger up to the source. Divergence is an integrity
    error, never silently repaired, and leaves the lagging ledger as it was."""
    if len(lagging.blocks) > len(source.blocks):
        raise IntegrityError("lagging ledger is ahead of the source")
    bad = _catch_up(lagging, source.blocks, policy)
    if bad is not None:
        raise IntegrityError(f"divergent prefix at block {bad}" if bad < len(lagging.blocks)
                             else f"replay of block {bad} does not match the source")


def verify_chain(ledger: ChainLedger, policy: EndorsementPolicy) -> Optional[int]:
    """Full audit: a fresh peer, whose genesis the chain's must equal,
    catches up and must replay the same world state. None when clean,
    else the first bad block."""
    if not ledger.blocks:
        raise ValueError("no genesis block")
    peer = ChainLedger()
    bad = 0 if ledger.blocks[0] != peer.blocks[0] else _catch_up(peer, ledger.blocks, policy)
    if bad is None and peer.world_state != ledger.world_state:
        bad = ledger.tip.number
    return bad


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_ledger_lines(ledger: ChainLedger) -> list[str]:
    """One record per block, in block order, in the bytes of json.dumps
    with sorted keys and compact separators: body_hash, number,
    prev_hash, then txs of {kind, reason, tx_id, valid}."""
    q = encode_basestring_ascii
    return [
        f'{{"body_hash":"{blk.body_hash.hex()}","number":{blk.number},'
        f'"prev_hash":"{blk.prev_hash.hex()}","txs":['
        + ",".join(f'{{"kind":{q(tx.kind)},"reason":{"null" if reason is None else q(reason)},'
                   f'"tx_id":{q(tx.tx_id)},"valid":{"true" if ok else "false"}}}'
                   for tx, (ok, reason) in zip(blk.txs, blk.validity))
        + "]}"
        for blk in ledger.blocks
    ]


def export_world_state(ledger: ChainLedger) -> str:
    """{key: {"value", "version"}} in json.dumps(sort_keys=True, indent=2)
    layout, written with json's C string encoder; indent would select its
    pure-Python encoder."""
    if not ledger.world_state:
        return "{}\n"
    q = encode_basestring_ascii
    entries = [f'  {q(key)}: {{\n    "value": {q(value)},\n    "version": {version}\n  }}'
               for key, (value, version) in sorted(ledger.world_state.items())]
    return "{\n" + ",\n".join(entries) + "\n}\n"


def export_files(ledger: ChainLedger) -> dict[str, str]:
    """A chain's two export files, name -> text."""
    return {
        "ledger.jsonl": "\n".join(export_ledger_lines(ledger)) + "\n",
        "world_state.json": export_world_state(ledger),
    }


def verify_export_lines(lines: Iterable[str]) -> Optional[int]:
    """Link walk over an exported ledger file from genesis; the export is
    self-verifiable because the body hash covers every exported field of
    each transaction. Returns None when clean, else the first bad block
    number; a number that is not a JSON integer, a validity flag that is
    not a JSON boolean, or a reason that is neither a JSON string nor
    null, is a TypeError; a line nested too deep to parse is a ValueError."""
    prev_header, k = ZERO_HASH, -1
    for k, r in enumerate(map(parse_json, lines)):
        number, prev_hash, stated = (
            r["number"], bytes.fromhex(r["prev_hash"]), bytes.fromhex(r["body_hash"]))
        if type(number) is not int:  # a JSON true would hash as 1
            raise TypeError(f"block number {number!r} is not an integer")
        if any(type(tx["valid"]) is not bool for tx in r["txs"]):  # 0 or null would hash as false
            raise TypeError(f"block {k} has a validity flag that is not a boolean")
        if any(tx["reason"] is not None and type(tx["reason"]) is not str  # false would hash as ""
               for tx in r["txs"]):
            raise TypeError(f"block {k} has a reason that is neither a string nor null")
        recomputed = body_hash(
            (tx["tx_id"], tx["kind"], tx["valid"], tx["reason"]) for tx in r["txs"])
        if number != k or prev_hash != prev_header or stated != recomputed:
            return k
        prev_header = header_hash(number, prev_hash, stated)
    if k < 0:
        raise ValueError("no genesis block")
    return None
