//! The bounded-channel component (`chan` interface).
//!
//! | function | role | effect |
//! |---|---|---|
//! | `chan_open(compid, chan_no, role)` → cid | create | open a producer/consumer endpoint on a channel |
//! | `chan_send(compid, desc, seq, payload)` | block | enqueue (idempotent by `seq`); blocks while the ring is full |
//! | `chan_peek(compid, desc)` → payload | block | read the message at the cursor without consuming it |
//! | `chan_commit(compid, desc)` → cursor | wakeup | consume the peeked message; returns the new cursor |
//! | `chan_close(compid, desc)` | terminate | close the endpoint |
//!
//! # Peek-before-commit
//!
//! A consumer *peeks* the message at its cursor, processes it, then
//! *commits* — only the commit advances the cursor. The commit's return
//! value is harvested by the SuperGlue stub as tracked σ-state
//! (`desc_data_retval(long, cursor)` in `idl/chan.sg`), so the
//! `chan_restore` recovery upcall re-seats a micro-rebooted endpoint at
//! the last *committed* position (**CR0**). Peeked-but-uncommitted
//! messages are deliberately re-delivered; committed ones never are —
//! exactly-once observable effects without any channel-side client
//! coordination.
//!
//! The ring itself is redundantly persisted through the storage
//! component inside each mutation's critical region (**G1**, the RamFS
//! pattern), so a micro-reboot loses only the volatile endpoint seating
//! that CR0 restores. Channel `n` keeps its tail and committed floor
//! under `ch{n}:tail` and `ch{n}:floor`, message `s` under `ch{n}:m{s}`,
//! and its delivery-fault counter and dead-letter marker under
//! `ch{n}:f{s}` and `ch{n}:x{s}`. The keys are written on the stack and,
//! for any channel below 10 and sequence number below 10^16, fit
//! `SmallStr`'s 22 inline bytes, so naming a slot allocates nothing. A
//! payload travels as one shared [`Bytes`] buffer from `chan_send` into
//! storage and back out of `chan_peek`, never copied; each 8-byte
//! counter write is one allocation.
//!
//! # Dead-letter escalation
//!
//! Delivery of a *showstopper* message (payload prefix `poison`, the
//! simulated analogue of a message whose bytes crash its consumer's
//! protected delivery path) faults the channel component mid-peek. The
//! per-message fault counter is persisted, so the count survives the
//! micro-reboot the fault triggers; once a message has faulted delivery
//! `poison_limit` times it is routed to the dead-letter queue
//! ([`ServiceCtx::note_dead_letter`] — the **DL0** counter and a
//! `DeadLetter` trace instant) and delivery resumes with the next
//! message. This is the escalation rung between per-call micro-reboot
//! recovery and reboot-storm backoff: a poisoned message costs exactly
//! `poison_limit` reboots, never an unbounded storm.

use std::collections::BTreeMap;

use composite::{Bytes, ComponentId, Service, ServiceCtx, ServiceError, SmallStr, ThreadId, Value};

/// Endpoint role: the sending side of a channel.
pub const ROLE_PRODUCER: i64 = 0;
/// Endpoint role: the receiving side of a channel.
pub const ROLE_CONSUMER: i64 = 1;

/// Payload prefix marking a showstopper message.
pub const POISON_PREFIX: &[u8] = b"poison";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Endpoint {
    chan_no: i64,
    role: i64,
    /// Consumer read position: the first not-yet-committed sequence
    /// number. Volatile — lost on micro-reboot, re-seated by
    /// `chan_restore` from the stub's tracked commit retval (CR0).
    cursor: i64,
}

/// The bounded-channel service component.
#[derive(Debug)]
pub struct ChannelService {
    storage: ComponentId,
    /// Ring capacity: maximum uncommitted messages per channel.
    capacity: i64,
    /// Dead-letter threshold K: a message that faults delivery this many
    /// times is routed to the dead-letter queue. Must not exceed the
    /// runtime's per-call retry budget or the client observes the fault.
    poison_limit: u64,
    /// Volatile endpoint table (cid → seat).
    endpoints: BTreeMap<i64, Endpoint>,
    /// Producers blocked on a full ring, per channel. Volatile: a fault
    /// wakes every blocked thread and the retried call re-registers.
    send_waiters: BTreeMap<i64, Vec<ThreadId>>,
    /// Consumers blocked on an empty ring, per channel.
    peek_waiters: BTreeMap<i64, Vec<ThreadId>>,
    next_cid: i64,
}

impl ChannelService {
    /// A channel service persisting through `storage`, with the given
    /// ring capacity and dead-letter threshold.
    #[must_use]
    pub fn new(storage: ComponentId, capacity: i64, poison_limit: u64) -> Self {
        Self {
            storage,
            capacity: capacity.max(1),
            poison_limit,
            endpoints: BTreeMap::new(),
            send_waiters: BTreeMap::new(),
            peek_waiters: BTreeMap::new(),
            next_cid: 0,
        }
    }

    fn fetch(&self, ctx: &mut ServiceCtx<'_>, key: Value) -> Option<Bytes> {
        match ctx.invoke(self.storage, "st_fetch", &[key]) {
            Ok(Value::Bytes(b)) => Some(b),
            _ => None,
        }
    }

    fn fetch_int(&self, ctx: &mut ServiceCtx<'_>, key: Value) -> Option<i64> {
        let b = self.fetch(ctx, key)?;
        Some(i64::from_le_bytes((*b).try_into().ok()?))
    }

    fn store(&self, ctx: &mut ServiceCtx<'_>, key: Value, v: Bytes) -> Result<(), ServiceError> {
        ctx.invoke(self.storage, "st_store", &[key, Value::Bytes(v)])
            .map(|_| ())
            .map_err(|_| ServiceError::Unavailable)
    }

    fn store_int(&self, ctx: &mut ServiceCtx<'_>, key: Value, v: i64) -> Result<(), ServiceError> {
        self.store(ctx, key, Bytes::from(&v.to_le_bytes()[..]))
    }

    fn tail(&self, ctx: &mut ServiceCtx<'_>, chan_no: i64) -> i64 {
        self.fetch_int(ctx, ring_key(chan_no, "tail", None))
            .unwrap_or(0)
    }

    /// Committed floor: backpressure only — the authoritative consumer
    /// position is the endpoint seat (volatile, CR0-restored).
    fn floor(&self, ctx: &mut ServiceCtx<'_>, chan_no: i64) -> i64 {
        self.fetch_int(ctx, ring_key(chan_no, "floor", None))
            .unwrap_or(0)
    }

    fn dead_lettered(&self, ctx: &mut ServiceCtx<'_>, chan_no: i64, seq: i64) -> bool {
        self.fetch_int(ctx, ring_key(chan_no, "x", Some(seq)))
            .is_some()
    }

    fn wake_all(ctx: &mut ServiceCtx<'_>, waiters: Option<Vec<ThreadId>>) {
        for w in waiters.unwrap_or_default() {
            let _ = ctx.wake(w);
        }
    }

    fn endpoint(&self, cid: i64, role: i64) -> Result<Endpoint, ServiceError> {
        let ep = self.endpoints.get(&cid).ok_or(ServiceError::NotFound)?;
        if ep.role != role {
            return Err(ServiceError::InvalidArg);
        }
        Ok(ep.clone())
    }
}

/// The storage key `ch{chan_no}:{field}`, followed by `seq` when given,
/// written into a stack buffer: no `format!`, no heap `String`.
fn ring_key(chan_no: i64, field: &str, seq: Option<i64>) -> Value {
    let mut key = KeyWriter {
        buf: [0; 48],
        len: 0,
    };
    key.push(b"ch");
    key.push_int(chan_no);
    key.push(b":");
    key.push(field.as_bytes());
    if let Some(seq) = seq {
        key.push_int(seq);
    }
    let key = std::str::from_utf8(&key.buf[..key.len]).expect("ring keys are ASCII");
    Value::Str(SmallStr::from(key))
}

/// A stack buffer for [`ring_key`]: "ch", ':', a field of at most 5
/// bytes and two `i64`s of at most 20 characters each fit its 48 bytes.
struct KeyWriter {
    buf: [u8; 48],
    len: usize,
}

impl KeyWriter {
    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn push_int(&mut self, n: i64) {
        if n < 0 {
            self.push(b"-");
        }
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut rest = n.unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.push(&digits[i..]);
    }
}

impl Service for ChannelService {
    fn interface(&self) -> &'static str {
        "chan"
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            // chan_open(compid, chan_no, role) -> cid
            "chan_open" => {
                let chan_no = args[1].int()?;
                let role = args[2].int()?;
                if role != ROLE_PRODUCER && role != ROLE_CONSUMER {
                    return Err(ServiceError::InvalidArg);
                }
                self.next_cid += 1;
                let cid = self.next_cid;
                self.endpoints.insert(
                    cid,
                    Endpoint {
                        chan_no,
                        role,
                        cursor: 0,
                    },
                );
                Ok(Value::Int(cid))
            }
            // chan_restore(creator, cid, chan_no, role, cursor) —
            // recovery-only G0 upcall: re-seat an endpoint under its
            // original id at the last *committed* cursor (CR0). The
            // cursor argument is the stub-tracked return value of the
            // last successful chan_commit (0 before any commit).
            "chan_restore" => {
                let cid = args[1].int()?;
                let chan_no = args[2].int()?;
                let role = args[3].int()?;
                let cursor = args[4].int()?;
                self.endpoints.insert(
                    cid,
                    Endpoint {
                        chan_no,
                        role,
                        cursor,
                    },
                );
                // Restored ids must never be recycled by later opens.
                self.next_cid = self.next_cid.max(cid);
                Ok(Value::Int(cid))
            }
            // chan_send(compid, desc(cid), seq, payload) -> payload len
            "chan_send" => {
                let cid = args[1].int()?;
                let seq = args[2].int()?;
                let payload = args[3].shared_bytes()?;
                let sent = Value::Int(payload.len() as i64);
                let ep = self.endpoint(cid, ROLE_PRODUCER)?;
                let msg_key = ring_key(ep.chan_no, "m", Some(seq));
                // Idempotent by seq: a redone send (stub retry after a
                // mid-call fault) finds its message already in the ring.
                if self.fetch(ctx, msg_key.clone()).is_some() {
                    return Ok(sent);
                }
                let tail = self.tail(ctx, ep.chan_no);
                let floor = self.floor(ctx, ep.chan_no);
                if tail - floor >= self.capacity {
                    let me = ctx.thread;
                    let ws = self.send_waiters.entry(ep.chan_no).or_default();
                    if !ws.contains(&me) {
                        ws.push(me);
                    }
                    return Err(ctx.block_current());
                }
                // G1: persist inside the critical region, message first
                // so a torn write can never publish an empty slot.
                self.store(ctx, msg_key, payload.clone())?;
                if seq + 1 > tail {
                    self.store_int(ctx, ring_key(ep.chan_no, "tail", None), seq + 1)?;
                }
                Self::wake_all(ctx, self.peek_waiters.remove(&ep.chan_no));
                Ok(sent)
            }
            // chan_peek(compid, desc(cid)) -> payload
            "chan_peek" => {
                let cid = args[1].int()?;
                let ep = self.endpoint(cid, ROLE_CONSUMER)?;
                let tail = self.tail(ctx, ep.chan_no);
                let mut pos = ep.cursor;
                loop {
                    if pos >= tail {
                        let me = ctx.thread;
                        let ws = self.peek_waiters.entry(ep.chan_no).or_default();
                        if !ws.contains(&me) {
                            ws.push(me);
                        }
                        return Err(ctx.block_current());
                    }
                    if self.dead_lettered(ctx, ep.chan_no, pos) {
                        pos += 1;
                        continue;
                    }
                    let payload = self
                        .fetch(ctx, ring_key(ep.chan_no, "m", Some(pos)))
                        .ok_or(ServiceError::NotFound)?;
                    if !payload.starts_with(POISON_PREFIX) {
                        return Ok(Value::Bytes(payload));
                    }
                    // Showstopper delivery. The persisted per-message
                    // fault counter survives the micro-reboot this fault
                    // triggers, so escalation is monotone.
                    let fkey = ring_key(ep.chan_no, "f", Some(pos));
                    let faults = self.fetch_int(ctx, fkey.clone()).unwrap_or(0) as u64;
                    if faults < self.poison_limit {
                        self.store_int(ctx, fkey, (faults + 1) as i64)?;
                        // The message crashes its consumer's delivery
                        // path: fault ourselves mid-peek. The client
                        // observes CallError::Fault; the stub
                        // micro-reboots us, CR0 re-seats the cursor,
                        // and the redone peek lands back here.
                        ctx.raise_fault(ctx.this);
                        return Err(ServiceError::Unavailable);
                    }
                    // K faults reached: route to the dead-letter queue
                    // (once — the marker gates the DL0 note) and serve
                    // the next message.
                    self.store_int(ctx, ring_key(ep.chan_no, "x", Some(pos)), faults as i64)?;
                    ctx.note_dead_letter(cid, pos, faults);
                    pos += 1;
                }
            }
            // chan_commit(compid, desc(cid)) -> new cursor
            "chan_commit" => {
                let cid = args[1].int()?;
                let ep = self.endpoint(cid, ROLE_CONSUMER)?;
                let tail = self.tail(ctx, ep.chan_no);
                // Consume the first deliverable message at/after the
                // cursor — exactly the one the last peek returned. The
                // skip is recomputed from persisted dead-letter markers,
                // so a redone commit after CR0 re-seating collapses to
                // the same position (exactly-once).
                let mut pos = ep.cursor;
                while pos < tail && self.dead_lettered(ctx, ep.chan_no, pos) {
                    pos += 1;
                }
                if pos >= tail {
                    return Err(ServiceError::InvalidArg);
                }
                let cursor = pos + 1;
                self.endpoints
                    .get_mut(&cid)
                    .expect("endpoint checked above")
                    .cursor = cursor;
                let floor = self.floor(ctx, ep.chan_no);
                if cursor > floor {
                    self.store_int(ctx, ring_key(ep.chan_no, "floor", None), cursor)?;
                }
                Self::wake_all(ctx, self.send_waiters.remove(&ep.chan_no));
                Ok(Value::Int(cursor))
            }
            // chan_close(compid, desc(cid))
            "chan_close" => {
                let cid = args[1].int()?;
                self.endpoints.remove(&cid).ok_or(ServiceError::NotFound)?;
                Ok(Value::Int(0))
            }
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }

    fn reset(&mut self) {
        // The ring lives in storage (G1); only endpoint seating and
        // waiter lists are lost. next_cid stays monotone across reboots
        // so re-opened endpoints never collide with tracked descriptors.
        self.endpoints.clear();
        self.send_waiters.clear();
        self.peek_waiters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use composite::{CallError, CostModel, Kernel, Priority};
    use sg_services::storage::StorageService;

    fn setup(capacity: i64, limit: u64) -> (Kernel, ComponentId, ComponentId, ThreadId) {
        let mut k = Kernel::with_costs(CostModel::free());
        let app = k.add_client_component("app");
        let st = k.add_component("storage", Box::new(StorageService::new()));
        let ch = k.add_component("chan", Box::new(ChannelService::new(st, capacity, limit)));
        k.grant(app, ch);
        k.grant(ch, st);
        let t = k.create_thread(app, Priority(5));
        (k, app, ch, t)
    }

    fn open(k: &mut Kernel, app: ComponentId, ch: ComponentId, t: ThreadId, role: i64) -> i64 {
        k.invoke(
            app,
            t,
            ch,
            "chan_open",
            &[Value::Int(1), Value::Int(7), Value::Int(role)],
        )
        .unwrap()
        .int()
        .unwrap()
    }

    fn send(
        k: &mut Kernel,
        app: ComponentId,
        ch: ComponentId,
        t: ThreadId,
        cid: i64,
        seq: i64,
        p: &[u8],
    ) {
        k.invoke(
            app,
            t,
            ch,
            "chan_send",
            &[
                Value::Int(1),
                Value::Int(cid),
                Value::Int(seq),
                Value::from(p.to_vec()),
            ],
        )
        .unwrap();
    }

    fn peek(k: &mut Kernel, app: ComponentId, ch: ComponentId, t: ThreadId, cid: i64) -> Vec<u8> {
        k.invoke(app, t, ch, "chan_peek", &[Value::Int(1), Value::Int(cid)])
            .unwrap()
            .bytes()
            .unwrap()
            .to_vec()
    }

    fn commit(k: &mut Kernel, app: ComponentId, ch: ComponentId, t: ThreadId, cid: i64) -> i64 {
        k.invoke(app, t, ch, "chan_commit", &[Value::Int(1), Value::Int(cid)])
            .unwrap()
            .int()
            .unwrap()
    }

    #[test]
    fn ring_keys_match_their_format() {
        for (chan_no, field, seq) in [
            (0, "tail", None),
            (1, "m", Some(0)),
            (0, "m", Some(19_999)),
            (-3, "f", Some(-42)),
            (i64::MIN, "floor", Some(i64::MIN)),
            (i64::MAX, "x", Some(i64::MAX)),
        ] {
            let want = match seq {
                Some(seq) => format!("ch{chan_no}:{field}{seq}"),
                None => format!("ch{chan_no}:{field}"),
            };
            assert_eq!(ring_key(chan_no, field, seq), Value::from(want));
        }
    }

    #[test]
    fn send_peek_commit_in_order() {
        let (mut k, app, ch, t) = setup(8, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        send(&mut k, app, ch, t, p, 0, b"a");
        send(&mut k, app, ch, t, p, 1, b"b");
        assert_eq!(peek(&mut k, app, ch, t, c), b"a");
        // Peek does not consume.
        assert_eq!(peek(&mut k, app, ch, t, c), b"a");
        assert_eq!(commit(&mut k, app, ch, t, c), 1);
        assert_eq!(peek(&mut k, app, ch, t, c), b"b");
        assert_eq!(commit(&mut k, app, ch, t, c), 2);
    }

    #[test]
    fn empty_peek_blocks_and_send_wakes() {
        let (mut k, app, ch, t) = setup(8, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        let t2 = k.create_thread(app, Priority(5));
        let err = k
            .invoke(app, t2, ch, "chan_peek", &[Value::Int(1), Value::Int(c)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        send(&mut k, app, ch, t, p, 0, b"x");
        assert!(k.thread(t2).unwrap().state.is_runnable());
        assert_eq!(peek(&mut k, app, ch, t2, c), b"x");
    }

    #[test]
    fn full_ring_blocks_sender_until_commit() {
        let (mut k, app, ch, t) = setup(2, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        send(&mut k, app, ch, t, p, 0, b"a");
        send(&mut k, app, ch, t, p, 1, b"b");
        let t2 = k.create_thread(app, Priority(5));
        let err = k
            .invoke(
                app,
                t2,
                ch,
                "chan_send",
                &[
                    Value::Int(1),
                    Value::Int(p),
                    Value::Int(2),
                    Value::from(b"c".to_vec()),
                ],
            )
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock);
        peek(&mut k, app, ch, t, c);
        commit(&mut k, app, ch, t, c);
        assert!(k.thread(t2).unwrap().state.is_runnable());
        send(&mut k, app, ch, t2, p, 2, b"c");
    }

    #[test]
    fn send_is_idempotent_by_seq() {
        let (mut k, app, ch, t) = setup(8, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        send(&mut k, app, ch, t, p, 0, b"once");
        // The redo of a send whose first attempt already landed.
        send(&mut k, app, ch, t, p, 0, b"once");
        assert_eq!(peek(&mut k, app, ch, t, c), b"once");
        assert_eq!(commit(&mut k, app, ch, t, c), 1);
        let err = k
            .invoke(app, t, ch, "chan_peek", &[Value::Int(1), Value::Int(c)])
            .unwrap_err();
        assert_eq!(err, CallError::WouldBlock, "duplicate must not enqueue");
    }

    #[test]
    fn restore_reseats_cursor_and_keeps_ids_monotone() {
        let (mut k, app, ch, t) = setup(8, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        send(&mut k, app, ch, t, p, 0, b"a");
        send(&mut k, app, ch, t, p, 1, b"b");
        peek(&mut k, app, ch, t, c);
        commit(&mut k, app, ch, t, c);
        peek(&mut k, app, ch, t, c); // b peeked, NOT committed
        k.fault(ch);
        k.micro_reboot(ch).unwrap();
        // Recovery re-seats both endpoints; the consumer at cursor 1.
        for (cid, role, cursor) in [(p, ROLE_PRODUCER, 0), (c, ROLE_CONSUMER, 1)] {
            k.invoke(
                app,
                t,
                ch,
                "chan_restore",
                &[
                    Value::Int(1),
                    Value::Int(cid),
                    Value::Int(7),
                    Value::Int(role),
                    Value::Int(cursor),
                ],
            )
            .unwrap();
        }
        // The uncommitted message is re-delivered; the committed one not.
        assert_eq!(peek(&mut k, app, ch, t, c), b"b");
        assert_eq!(commit(&mut k, app, ch, t, c), 2);
        let fresh = open(&mut k, app, ch, t, ROLE_PRODUCER);
        assert!(fresh > c, "restored ids must not be recycled");
    }

    #[test]
    fn poison_faults_exactly_k_times_then_dead_letters() {
        let (mut k, app, ch, t) = setup(8, 2);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        send(&mut k, app, ch, t, p, 0, b"poison:0");
        send(&mut k, app, ch, t, p, 1, b"ok");
        for round in 0..2 {
            let err = k
                .invoke(app, t, ch, "chan_peek", &[Value::Int(1), Value::Int(c)])
                .unwrap_err();
            assert_eq!(err, CallError::Fault { component: ch }, "round {round}");
            k.micro_reboot(ch).unwrap();
            k.invoke(
                app,
                t,
                ch,
                "chan_restore",
                &[
                    Value::Int(1),
                    Value::Int(c),
                    Value::Int(7),
                    Value::Int(ROLE_CONSUMER),
                    Value::Int(0),
                ],
            )
            .unwrap();
        }
        // Third delivery attempt: the counter reached K=2, the message
        // is dead-lettered and the next one is served.
        assert_eq!(peek(&mut k, app, ch, t, c), b"ok");
        // Commit skips the dead-lettered slot: cursor jumps 0 → 2.
        assert_eq!(commit(&mut k, app, ch, t, c), 2);
    }

    #[test]
    fn role_mismatch_rejected() {
        let (mut k, app, ch, t) = setup(8, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        let err = k
            .invoke(app, t, ch, "chan_peek", &[Value::Int(1), Value::Int(p)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn commit_without_message_rejected() {
        let (mut k, app, ch, t) = setup(8, 3);
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        let err = k
            .invoke(app, t, ch, "chan_commit", &[Value::Int(1), Value::Int(c)])
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::InvalidArg));
    }

    #[test]
    fn reset_loses_endpoints_but_ring_survives_in_storage() {
        let (mut k, app, ch, t) = setup(8, 3);
        let p = open(&mut k, app, ch, t, ROLE_PRODUCER);
        send(&mut k, app, ch, t, p, 0, b"kept");
        k.fault(ch);
        k.micro_reboot(ch).unwrap();
        let err = k
            .invoke(
                app,
                t,
                ch,
                "chan_send",
                &[
                    Value::Int(1),
                    Value::Int(p),
                    Value::Int(1),
                    Value::from(b"y".to_vec()),
                ],
            )
            .unwrap_err();
        assert_eq!(err, CallError::Service(ServiceError::NotFound));
        // Re-seat and read the surviving message.
        let c = open(&mut k, app, ch, t, ROLE_CONSUMER);
        assert_eq!(peek(&mut k, app, ch, t, c), b"kept");
    }
}
