//! The discrete-event engine.
//!
//! A simulation is a [`Model`]: a state machine with a typed event alphabet.
//! The [`Engine`] owns the model and a time-ordered event queue. Handling an
//! event may schedule further events through the [`Ctx`] passed to the
//! handler. Two events at the same instant are delivered in the order they
//! were scheduled, which makes every run bit-for-bit reproducible.
//!
//! Two queue backends implement that contract behind the same API:
//!
//! * [`EngineKind::Calendar`] (the default) — a hierarchical calendar
//!   queue: a slab of event slots addressed by a packed
//!   `(generation, index)` [`EventId`], a circular wheel of near-future
//!   buckets (2^24 µs ≈ 16.8 s wide, 256 buckets ≈ 71.6 min per round), a
//!   round-indexed overflow map for the far future, and a sorted run for
//!   the bucket being drained. The wheel is small because every engine
//!   owns one and a multi-tenant grid runs a hundred sparse queues: 256
//!   bucket headers are 6 KB per engine. When the cursor reaches a
//!   bucket, its live slots are stable-sorted by instant into a `Vec`
//!   with the next event at the back, so same-instant events keep their
//!   schedule order (FIFO) and a pop is a `Vec::pop`. A schedule at or
//!   behind the cursor is a binary search plus a shift of the entries
//!   due before it: short for the common schedule near `now`, the whole
//!   run at worst.
//!   Cancellation is O(1) and in place (the slot is blanked; no tombstone
//!   set grows). The far-round map is the only ordered tree, touched once
//!   per 71.6-minute round rather than once per event.
//! * [`EngineKind::ReferenceHeap`] — the original
//!   `BinaryHeap<Reverse<Scheduled>>` with a tombstone `HashSet`, kept as
//!   the executable specification. `tests/engine_diff.rs` pins the two
//!   backends to byte-identical traces over seeded cluster campaigns.
//!
//! Events can be cancelled: [`Ctx::schedule`] returns an [`EventId`] which
//! [`Ctx::cancel`] invalidates; cancelled events never reach the model.
//! Cancelling an event that already fired is a no-op (the slot generation
//! has moved on).

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
// simlint::allow(no-unordered-iteration): tombstone set is insert/remove/contains only
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// Identifier of a scheduled event, usable for cancellation.
///
/// Opaque: the two queue backends pack different information into the
/// integer (the calendar queue packs `(generation << 32) | slot`, the
/// reference heap a monotone counter), so ids must not be compared across
/// engines or interpreted numerically.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(u64);

/// Which event-queue implementation an [`Engine`] runs on.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Hierarchical calendar/bucket queue (production default).
    #[default]
    Calendar,
    /// The original binary-heap queue, kept as the reference
    /// implementation for differential tests.
    ReferenceHeap,
}

/// A simulation model: state plus an event handler.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at the current simulated time.
    fn handle(&mut self, ev: Self::Event, ctx: &mut Ctx<Self::Event>);
}

// ---------------------------------------------------------------------------
// Reference backend: binary heap + tombstone set.
// ---------------------------------------------------------------------------

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    ev: E,
}

// Order by (time, seq) — BinaryHeap is a max-heap so we wrap in Reverse at
// the call sites instead of inverting Ord here.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct HeapQueue<E> {
    seq: u64,
    next_id: u64,
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    // simlint::allow(no-unordered-iteration): membership tests only; never iterated
    cancelled: HashSet<EventId>,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            seq: 0,
            next_id: 0,
            heap: BinaryHeap::new(),
            // simlint::allow(no-unordered-iteration): membership tests only; never iterated
            cancelled: HashSet::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, ev: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, id, ev }));
        id
    }

    fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    fn pending(&self) -> usize {
        self.heap.len()
    }

    fn tombstones(&self) -> usize {
        self.cancelled.len()
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse(s)) = self.heap.pop() {
            if self.cancelled.remove(&s.id) {
                continue;
            }
            return Some((s.at, s.ev));
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        // Drain tombstones at the head so the peek is accurate.
        while let Some(Reverse(s)) = self.heap.peek() {
            if self.cancelled.contains(&s.id) {
                let Reverse(s) = self.heap.pop().expect("peeked");
                self.cancelled.remove(&s.id);
            } else {
                return Some(s.at);
            }
        }
        None
    }

    /// Pop the next live event if it fires at or before `deadline`; a
    /// later event stays queued. One head walk instead of peek-then-pop.
    fn pop_at_most(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        loop {
            let head = self.heap.peek()?;
            if self.cancelled.contains(&head.0.id) {
                let Reverse(s) = self.heap.pop().expect("peeked");
                self.cancelled.remove(&s.id);
                continue;
            }
            if head.0.at > deadline {
                return None;
            }
            let Reverse(s) = self.heap.pop().expect("peeked");
            return Some((s.at, s.ev));
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar backend: slab + near wheel + far rounds + sorted cursor bucket.
// ---------------------------------------------------------------------------

/// log2 of a full round's span: 2^32 µs ≈ 71.6 min.
const ROUND_SHIFT: u32 = 32;
/// log2 of a near-wheel bucket width in microseconds (2^24 µs ≈ 16.8 s).
const BUCKET_SHIFT: u32 = 24;
/// Buckets per wheel round (a power of two; see [`Calendar::near`]).
const NEAR_BUCKETS: usize = 1 << 8;

// Delivery order does not depend on the geometry. The round stays at
// 2^32 µs whatever the bucket count, so far-map traffic is comparable
// across geometries, and the wheel's buckets tile exactly one round.
const _: () = assert!(ROUND_SHIFT == 32);
const _: () = assert!((NEAR_BUCKETS as u64) << BUCKET_SHIFT == 1u64 << ROUND_SHIFT);

/// One near-wheel bucket in microseconds, for tests and benches that
/// place events on bucket edges.
#[doc(hidden)]
pub const BUCKET_US: u64 = 1 << BUCKET_SHIFT;
/// One wheel round in microseconds, for tests and benches that place
/// events on round edges.
#[doc(hidden)]
pub const ROUND_US: u64 = 1 << ROUND_SHIFT;

/// One slab entry. `ev: Some` — live pending event; `ev: None` while still
/// referenced by a bucket — cancelled, awaiting sweep; free-listed slots
/// are only reachable through the free list, so no extra state byte is
/// needed to tell the cases apart.
struct Slot<E> {
    at: u64,
    gen: u32,
    ev: Option<E>,
}

struct Calendar<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Live (non-cancelled) pending events.
    live: usize,
    /// Cancelled slots not yet swept out of their bucket.
    cancelled: usize,
    /// Near wheel: one append-ordered vector of slot indices per bucket of
    /// the cursor's current round. Only buckets strictly after the cursor
    /// hold events; the cursor bucket itself is sealed into `cur`.
    ///
    /// 256 buckets of 2^24 µs (16.8 s) per 71.6-minute round. The wheel
    /// is per engine: 24 bytes of header a bucket (6 KB), plus each
    /// bucket's retained allocation. A multi-tenant grid holds a hundred
    /// engines that each see about one event per 9 s of simulated time,
    /// so on a larger wheel nearly every schedule and pop lands in a cold
    /// bucket. Of 2^8 to 2^12 buckets at this round span, 2^8 ran many
    /// small queues fastest with the smallest heap, and did not slow one
    /// 20k-core engine.
    near: Vec<Vec<u32>>,
    near_len: usize,
    /// The cursor bucket plus anything scheduled at or behind the cursor
    /// (possible after a peek advanced it), as a sorted run of
    /// `(instant, slot)` pairs: instants descend, and equal instants sit
    /// in reverse schedule order, so the next event is `last()` and ties
    /// pop FIFO. Every entry here precedes every event still in
    /// `near`/`far`.
    cur: Vec<(u64, u32)>,
    cur_round: u64,
    cur_bucket: usize,
    /// Far future: wheel round → slot indices in schedule order. Scattered
    /// into the near wheel when the cursor reaches that round.
    far: BTreeMap<u64, Vec<u32>>,
    far_len: usize,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            cancelled: 0,
            near: (0..NEAR_BUCKETS).map(|_| Vec::new()).collect(),
            near_len: 0,
            cur: Vec::new(),
            cur_round: 0,
            cur_bucket: 0,
            far: BTreeMap::new(),
            far_len: 0,
        }
    }

    fn pending(&self) -> usize {
        self.live + self.cancelled
    }

    fn tombstones(&self) -> usize {
        self.cancelled
    }

    fn schedule(&mut self, at: u64, ev: E) -> EventId {
        let (idx, gen) = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.at = at;
                s.ev = Some(ev);
                (idx, s.gen)
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize, "calendar slab full");
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    at,
                    gen: 0,
                    ev: Some(ev),
                });
                (idx, 0)
            }
        };
        self.live += 1;
        let r = at >> ROUND_SHIFT;
        let b = (at >> BUCKET_SHIFT) as usize & (NEAR_BUCKETS - 1);
        if r < self.cur_round || (r == self.cur_round && b <= self.cur_bucket) {
            // At or behind the cursor (the cursor may sit ahead of `now`
            // after a peek). Inserting below every entry of the same
            // instant keeps ties FIFO; an event at `now` lands next to the
            // back, so the shift is short on the common path.
            let pos = self.cur.partition_point(|&(t, _)| t > at);
            self.cur.insert(pos, (at, idx));
        } else if r == self.cur_round {
            self.near[b].push(idx);
            self.near_len += 1;
        } else {
            self.far.entry(r).or_default().push(idx);
            self.far_len += 1;
        }
        EventId((u64::from(gen) << 32) | u64::from(idx))
    }

    /// O(1) in-place cancellation: blank the slot if the generation still
    /// matches. The bucket entry is swept (and the slot reclaimed) when it
    /// surfaces at the cursor.
    fn cancel(&mut self, id: EventId) {
        let idx = (id.0 & u64::from(u32::MAX)) as usize;
        let gen = (id.0 >> 32) as u32;
        if let Some(s) = self.slots.get_mut(idx) {
            if s.gen == gen && s.ev.is_some() {
                s.ev = None;
                self.live -= 1;
                self.cancelled += 1;
            }
        }
    }

    /// Return the slot to the free list; bumping the generation makes any
    /// outstanding [`EventId`] for it stale (cancel becomes a no-op).
    fn release(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Seal near-wheel bucket `b` into the (empty) cursor run, sweeping
    /// cancelled slots instead of moving them. A stable ascending sort
    /// keeps equal instants in bucket (schedule) order, and the reversal
    /// puts the earliest at the back. The bucket's allocation is kept for
    /// reuse.
    fn seal(&mut self, b: usize) {
        debug_assert!(self.cur.is_empty(), "sealing over a non-empty cursor");
        let mut items = std::mem::take(&mut self.near[b]);
        self.near_len -= items.len();
        for &idx in &items {
            let s = &self.slots[idx as usize];
            if s.ev.is_some() {
                self.cur.push((s.at, idx));
            } else {
                self.cancelled -= 1;
                self.release(idx);
            }
        }
        self.cur.sort_by_key(|&(at, _)| at);
        self.cur.reverse();
        items.clear();
        self.near[b] = items;
    }

    /// Move the cursor forward until `cur` is non-empty or the queue is
    /// exhausted. Returns `false` when nothing is left anywhere.
    fn advance(&mut self) -> bool {
        loop {
            if !self.cur.is_empty() {
                return true;
            }
            if self.near_len > 0 {
                // Some bucket strictly after the cursor is non-empty
                // (buckets at or before it route into `cur`).
                while self.cur_bucket + 1 < NEAR_BUCKETS {
                    self.cur_bucket += 1;
                    if !self.near[self.cur_bucket].is_empty() {
                        self.seal(self.cur_bucket);
                        break;
                    }
                }
                continue;
            }
            if self.far_len > 0 {
                // Enter the earliest far round: scatter it over the wheel.
                let Some((r, items)) = self.far.pop_first() else {
                    return false; // unreachable: far_len > 0
                };
                self.far_len -= items.len();
                self.cur_round = r;
                self.cur_bucket = 0;
                for &idx in &items {
                    let s = &self.slots[idx as usize];
                    if s.ev.is_some() {
                        let b = (s.at >> BUCKET_SHIFT) as usize & (NEAR_BUCKETS - 1);
                        self.near[b].push(idx);
                        self.near_len += 1;
                    } else {
                        self.cancelled -= 1;
                        self.release(idx);
                    }
                }
                // The cursor now sits on bucket 0; anything scattered there
                // must live in `cur` to preserve the routing invariant.
                if !self.near[0].is_empty() {
                    self.seal(0);
                }
                continue;
            }
            return false;
        }
    }

    /// Take the cursor's head off the run, reclaiming its slot: the event
    /// if it was live, `None` for a swept tombstone.
    fn take_head(&mut self) -> Option<(SimTime, E)> {
        let (at, idx) = self.cur.pop()?;
        let ev = self.slots[idx as usize].ev.take();
        match ev {
            Some(_) => self.live -= 1,
            None => self.cancelled -= 1,
        }
        self.release(idx);
        ev.map(|ev| (SimTime::from_micros(at), ev))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while self.advance() {
            if let Some(next) = self.take_head() {
                return Some(next);
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while self.advance() {
            let &(at, idx) = self.cur.last()?;
            if self.slots[idx as usize].ev.is_some() {
                return Some(SimTime::from_micros(at));
            }
            // Sweep the cancelled head and keep looking.
            self.take_head();
        }
        None
    }

    /// Pop the next live event if it fires at or before `deadline`; a
    /// later event stays queued. Cancelled heads are swept regardless of
    /// the deadline, exactly as [`Calendar::peek_time`] would. One cursor
    /// walk instead of peek-then-pop.
    fn pop_at_most(&mut self, deadline: u64) -> Option<(SimTime, E)> {
        while self.advance() {
            let &(at, idx) = self.cur.last()?;
            if at > deadline && self.slots[idx as usize].ev.is_some() {
                return None;
            }
            if let Some(next) = self.take_head() {
                return Some(next);
            }
        }
        None
    }
}

enum QueueImpl<E> {
    Calendar(Calendar<E>),
    Heap(HeapQueue<E>),
}

/// Scheduling context handed to [`Model::handle`].
///
/// Holds the current time and the pending-event queue. All mutation of the
/// future happens through this type.
pub struct Ctx<E> {
    now: SimTime,
    queue: QueueImpl<E>,
    /// Count of events delivered so far (diagnostics).
    delivered: u64,
}

impl<E> Ctx<E> {
    fn new(kind: EngineKind) -> Self {
        Ctx {
            now: SimTime::ZERO,
            queue: match kind {
                EngineKind::Calendar => QueueImpl::Calendar(Calendar::new()),
                EngineKind::ReferenceHeap => QueueImpl::Heap(HeapQueue::new()),
            },
            delivered: 0,
        }
    }

    /// Which backend this context runs on.
    pub fn kind(&self) -> EngineKind {
        match self.queue {
            QueueImpl::Calendar(_) => EngineKind::Calendar,
            QueueImpl::Heap(_) => EngineKind::ReferenceHeap,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending (including cancelled-but-unswept
    /// ones).
    pub fn pending(&self) -> usize {
        match &self.queue {
            QueueImpl::Calendar(q) => q.pending(),
            QueueImpl::Heap(q) => q.pending(),
        }
    }

    /// Number of unreclaimed tombstones. On the calendar backend this is
    /// the count of cancelled slots not yet swept out of their bucket
    /// (bounded by `pending`, reclaimed as the cursor passes); on the
    /// reference heap it is the tombstone-set size, which also retains
    /// cancellations of already-fired events until the queue drains.
    /// Either way, draining the queue reclaims every tombstone for an
    /// event that was still pending when it was cancelled.
    pub fn tombstones(&self) -> usize {
        match &self.queue {
            QueueImpl::Calendar(q) => q.tombstones(),
            QueueImpl::Heap(q) => q.tombstones(),
        }
    }

    /// Schedule `ev` to fire after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, ev: E) -> EventId {
        self.schedule_at(self.now + delay, ev)
    }

    /// Schedule `ev` at an absolute instant. Instants in the past are
    /// clamped to "now" (they fire next, after already-queued events at
    /// the current instant).
    pub fn schedule_at(&mut self, at: SimTime, ev: E) -> EventId {
        let at = at.max(self.now);
        match &mut self.queue {
            QueueImpl::Calendar(q) => q.schedule(at.as_micros(), ev),
            QueueImpl::Heap(q) => q.schedule(at, ev),
        }
    }

    /// Cancel a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        match &mut self.queue {
            QueueImpl::Calendar(q) => q.cancel(id),
            QueueImpl::Heap(q) => q.cancel(id),
        }
    }

    /// Pop the next live event, if any.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let next = match &mut self.queue {
            QueueImpl::Calendar(q) => q.pop(),
            QueueImpl::Heap(q) => q.pop(),
        };
        if let Some((at, ev)) = next {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.delivered += 1;
            Some((at, ev))
        } else {
            None
        }
    }

    /// Time of the next live event without delivering it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.queue {
            QueueImpl::Calendar(q) => q.peek_time(),
            QueueImpl::Heap(q) => q.peek_time(),
        }
    }

    /// Pop the next live event if it fires at or before `deadline` —
    /// the single-walk fusion of [`Ctx::peek_time`] + pop that the run
    /// loops use. Later events stay queued.
    fn pop_at_most(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let next = match &mut self.queue {
            QueueImpl::Calendar(q) => q.pop_at_most(deadline.as_micros()),
            QueueImpl::Heap(q) => q.pop_at_most(deadline),
        };
        if let Some((at, ev)) = next {
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.delivered += 1;
            Some((at, ev))
        } else {
            None
        }
    }
}

/// The event loop: owns a model and drives it to completion.
pub struct Engine<M: Model> {
    model: M,
    ctx: Ctx<M::Event>,
}

impl<M: Model> Engine<M> {
    /// Create an engine around `model` with an empty event queue on the
    /// default (calendar) backend.
    pub fn new(model: M) -> Self {
        Self::with_kind(model, EngineKind::Calendar)
    }

    /// Create an engine on an explicit queue backend. Differential tests
    /// use this to pit the calendar queue against the reference heap.
    pub fn with_kind(model: M, kind: EngineKind) -> Self {
        Engine {
            model,
            ctx: Ctx::new(kind),
        }
    }

    /// Seed the queue with an initial event at t=0 (or later).
    pub fn prime(&mut self, delay: SimDuration, ev: M::Event) -> EventId {
        self.ctx.schedule(delay, ev)
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for pre-run setup or post-run harvest).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.ctx.delivered()
    }

    /// Scheduling context (e.g. to prime several events).
    pub fn ctx(&mut self) -> &mut Ctx<M::Event> {
        &mut self.ctx
    }

    /// Deliver a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.ctx.pop() {
            Some((_, ev)) => {
                self.model.handle(ev, &mut self.ctx);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue drains. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.ctx.now()
    }

    /// Run until the queue drains or simulated time would exceed
    /// `deadline`; events after the deadline stay queued. Returns the
    /// time of the last delivered event (≤ deadline).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some((_, ev)) = self.ctx.pop_at_most(deadline) {
            self.model.handle(ev, &mut self.ctx);
        }
        self.ctx.now()
    }

    /// Like [`Engine::run_until`], but additionally stop after delivering
    /// at most `max_events` further events — the crash-injection hook:
    /// a master killed at an event boundary is a run stopped here, and a
    /// restart is a fresh engine over recovered state. Returns the time
    /// of the last delivered event.
    pub fn run_until_events(&mut self, deadline: SimTime, max_events: u64) -> SimTime {
        let stop = self.ctx.delivered.saturating_add(max_events);
        while self.ctx.delivered < stop {
            match self.ctx.pop_at_most(deadline) {
                Some((_, ev)) => self.model.handle(ev, &mut self.ctx),
                None => break,
            }
        }
        self.ctx.now()
    }

    /// Consume the engine, returning the model (for result harvest).
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records the order events arrive in.
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Ctx<u32>) {
            self.seen.push((ctx.now().as_micros(), ev));
            // Event 1 fans out into two more.
            if ev == 1 {
                ctx.schedule(SimDuration::from_micros(5), 10);
                ctx.schedule(SimDuration::from_micros(5), 11);
            }
        }
    }

    /// Run every backend-agnostic scenario on both queue implementations.
    fn both_kinds(f: impl Fn(EngineKind)) {
        f(EngineKind::Calendar);
        f(EngineKind::ReferenceHeap);
    }

    #[test]
    fn delivers_in_time_order() {
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(Recorder { seen: vec![] }, kind);
            eng.prime(SimDuration::from_micros(20), 2);
            eng.prime(SimDuration::from_micros(10), 1);
            let end = eng.run();
            assert_eq!(end, SimTime::from_micros(20));
            assert_eq!(eng.model().seen, vec![(10, 1), (15, 10), (15, 11), (20, 2)]);
        });
    }

    #[test]
    fn ties_break_by_schedule_order() {
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(Recorder { seen: vec![] }, kind);
            eng.prime(SimDuration::from_micros(7), 100);
            eng.prime(SimDuration::from_micros(7), 200);
            eng.prime(SimDuration::from_micros(7), 300);
            eng.run();
            let evs: Vec<u32> = eng.model().seen.iter().map(|&(_, e)| e).collect();
            assert_eq!(evs, vec![100, 200, 300]);
        });
    }

    #[test]
    fn cancellation_skips_events() {
        struct Canceller {
            victim: Option<EventId>,
            fired: Vec<u32>,
        }
        impl Model for Canceller {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<u32>) {
                self.fired.push(ev);
                if ev == 1 {
                    if let Some(id) = self.victim.take() {
                        ctx.cancel(id);
                    }
                }
            }
        }
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(
                Canceller {
                    victim: None,
                    fired: vec![],
                },
                kind,
            );
            eng.prime(SimDuration::from_micros(1), 1);
            let victim = eng.prime(SimDuration::from_micros(2), 2);
            eng.prime(SimDuration::from_micros(3), 3);
            eng.model_mut().victim = Some(victim);
            eng.run();
            assert_eq!(eng.model().fired, vec![1, 3]);
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(Recorder { seen: vec![] }, kind);
            let id = eng.prime(SimDuration::from_micros(1), 5);
            eng.run();
            eng.ctx().cancel(id); // must not panic or corrupt state
            eng.prime(SimDuration::from_micros(1), 6);
            eng.run();
            assert_eq!(eng.model().seen.len(), 2);
        });
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(Recorder { seen: vec![] }, kind);
            eng.prime(SimDuration::from_micros(10), 1); // spawns at 15
            eng.prime(SimDuration::from_micros(100), 2);
            let t = eng.run_until(SimTime::from_micros(50));
            assert_eq!(t, SimTime::from_micros(15));
            assert_eq!(eng.model().seen.len(), 3);
            // Resume picks up the rest.
            eng.run();
            assert_eq!(eng.model().seen.len(), 4);
        });
    }

    #[test]
    fn run_until_events_stops_at_budget_and_resumes() {
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(Recorder { seen: vec![] }, kind);
            eng.prime(SimDuration::from_micros(10), 1); // spawns two at 15
            eng.prime(SimDuration::from_micros(100), 2);
            let deadline = SimTime::from_micros(1000);
            let t = eng.run_until_events(deadline, 2);
            assert_eq!(t, SimTime::from_micros(15));
            assert_eq!(eng.model().seen.len(), 2, "stopped mid-run at the budget");
            assert!(eng.ctx().peek_time().is_some(), "work remains queued");
            // Resuming with a generous budget completes identically to run().
            eng.run_until_events(deadline, u64::MAX);
            assert_eq!(
                eng.model().seen,
                vec![(10, 1), (15, 10), (15, 11), (100, 2)]
            );
            assert!(eng.ctx().peek_time().is_none());
        });
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct PastScheduler {
            fired: Vec<u64>,
        }
        impl Model for PastScheduler {
            type Event = u32;
            fn handle(&mut self, ev: u32, ctx: &mut Ctx<u32>) {
                self.fired.push(ctx.now().as_micros());
                if ev == 1 {
                    ctx.schedule_at(SimTime::ZERO, 2); // in the past
                }
            }
        }
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(PastScheduler { fired: vec![] }, kind);
            eng.prime(SimDuration::from_micros(10), 1);
            eng.run();
            assert_eq!(eng.model().fired, vec![10, 10]);
        });
    }

    #[test]
    fn delivered_counts_live_events_only() {
        both_kinds(|kind| {
            let mut eng = Engine::with_kind(Recorder { seen: vec![] }, kind);
            let id = eng.prime(SimDuration::from_micros(1), 1);
            eng.ctx().cancel(id);
            eng.prime(SimDuration::from_micros(2), 2);
            eng.run();
            assert_eq!(eng.ctx().delivered(), 1);
        });
    }

    #[test]
    fn default_engine_is_calendar() {
        let mut eng = Engine::new(Recorder { seen: vec![] });
        assert_eq!(eng.ctx().kind(), EngineKind::Calendar);
    }

    #[test]
    fn calendar_crosses_bucket_and_round_boundaries() {
        // Events spanning several wheel buckets and several full rounds
        // (hours apart) still come out in global time order.
        let mut eng = Engine::new(Recorder { seen: vec![] });
        let hour = 3_600_000_000u64; // µs
        let times = [
            5u64,
            (1 << BUCKET_SHIFT) + 1, // next bucket
            (1 << ROUND_SHIFT) + 7,  // next round
            3 * hour,                // a few rounds out
            50 * hour,               // far future
            (1 << BUCKET_SHIFT) - 1, // back near the start
        ];
        for (i, &t) in times.iter().enumerate() {
            // Offset past the Recorder's fan-out trigger value.
            eng.ctx()
                .schedule_at(SimTime::from_micros(t), i as u32 + 100);
        }
        eng.run();
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let seen_times: Vec<u64> = eng.model().seen.iter().map(|&(t, _)| t).collect();
        assert_eq!(seen_times, sorted);
    }

    #[test]
    fn calendar_cancel_does_not_grow_tombstones_unbounded() {
        // The cancel/reschedule churn pattern (watchdogs, squid wakes):
        // repeatedly schedule and cancel. Slots are reused and the
        // tombstone residue is swept as the cursor passes — it never
        // exceeds the pending count and drains to zero.
        let mut eng = Engine::new(Recorder { seen: vec![] });
        for i in 0..10_000u32 {
            let id = eng
                .ctx()
                .schedule(SimDuration::from_micros(u64::from(i % 97) + 1), i);
            eng.ctx().cancel(id);
        }
        assert!(eng.ctx().tombstones() <= eng.ctx().pending());
        eng.prime(SimDuration::from_micros(200), 42);
        eng.run();
        assert_eq!(eng.ctx().tombstones(), 0, "drain sweeps every tombstone");
        assert_eq!(eng.ctx().pending(), 0);
        assert_eq!(eng.model().seen.len(), 1, "only the live event fired");
    }

    #[test]
    fn calendar_reuses_slots_without_id_aliasing() {
        // A stale EventId (its slot was freed and reused) must not cancel
        // the new occupant.
        let mut eng = Engine::new(Recorder { seen: vec![] });
        let stale = eng.prime(SimDuration::from_micros(1), 101);
        eng.run(); // fires; slot freed
        eng.prime(SimDuration::from_micros(1), 102); // likely reuses the slot
        eng.ctx().cancel(stale); // generation mismatch → no-op
        eng.run();
        assert_eq!(eng.model().seen.len(), 2, "second event survived");
    }

    #[test]
    fn peek_then_schedule_behind_cursor_stays_ordered() {
        // peek_time advances the calendar cursor; a subsequent schedule
        // for an earlier instant (≥ now) must still fire first.
        let mut eng = Engine::new(Recorder { seen: vec![] });
        let hour = SimDuration::from_hours(1);
        eng.prime(hour + hour, 200); // two rounds out
        assert!(eng.ctx().peek_time().is_some()); // cursor walks forward
        eng.prime(SimDuration::from_micros(3), 100);
        eng.run();
        let evs: Vec<u32> = eng.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![100, 200]);
    }
}
