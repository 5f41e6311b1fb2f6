//! Simulation-side Work Queue bookkeeping.
//!
//! The cluster-scale experiments drive tens of thousands of workers inside
//! the discrete-event engine. This module holds the master's view of that
//! fleet: which workers exist, their slot occupancy and cache temperature,
//! and the ready-task *dispatch buffer* — the paper maintains "a buffer of
//! 400 tasks ... to be assigned as workers become available" (§4.1).
//!
//! The actual event loop lives in `lobster::driver`; these types keep its
//! state transitions small and testable.

use crate::task::TaskId;
use simkit::time::SimTime;
use std::collections::VecDeque;

/// Dense-id bitset over worker ids. Ids are handed out from 0 and never
/// reused, so membership is one bit and the lowest free id is a word scan
/// with `trailing_zeros` — O(1) insert/remove against the O(log n) of the
/// ordered set it replaces, at ~2 KiB per 100k workers.
///
/// Evicted workers leave long runs of zero words below the live ids, so
/// the scan starts at a low-water word `low`: every word below it is zero.
/// `insert` lowers it and `first` moves it past the zero words it skips,
/// so a claim costs amortised O(1) words and still returns the smallest
/// member.
#[derive(Clone, Debug, Default)]
struct IdBitSet {
    words: Vec<u64>,
    /// Index of the first word that may be non-zero.
    low: usize,
}

impl IdBitSet {
    fn insert(&mut self, id: u64) {
        let w = (id / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id % 64);
        self.low = self.low.min(w);
    }

    /// Clear `id`; true when it was present.
    fn remove(&mut self, id: u64) -> bool {
        let Some(word) = self.words.get_mut((id / 64) as usize) else {
            return false;
        };
        let bit = 1u64 << (id % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Smallest member, if any.
    fn first(&mut self) -> Option<u64> {
        let skip = self.words[self.low..].iter().take_while(|w| **w == 0);
        self.low += skip.count();
        let w = *self.words.get(self.low)?;
        Some(self.low as u64 * 64 + u64::from(w.trailing_zeros()))
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| i as u64 * 64 + b)
        })
    }
}

/// Master-side record of one simulated worker, with whatever the master
/// keeps per worker beside it (`payload`, nothing by default).
#[derive(Clone, Debug)]
pub struct SimWorker<T = ()> {
    /// Worker identity.
    pub id: u64,
    /// Slots (cores) it manages.
    pub cores: u32,
    /// Slots currently running tasks.
    pub busy: u32,
    /// Whether the software cache has been populated (cold → hot after
    /// the first task's environment setup).
    pub cache_hot: bool,
    /// When it connected.
    pub connected_at: SimTime,
    /// Which foreman it connects through (index into the foreman rank).
    pub foreman: usize,
    /// The master's own per-worker state, handed back whole by
    /// [`WorkerTable::disconnect`].
    pub payload: T,
}

impl<T> SimWorker<T> {
    /// Free slots.
    pub fn free(&self) -> u32 {
        self.cores - self.busy
    }
}

/// The master's worker table with an index of workers that have free slots.
///
/// Free workers are indexed in two bitsets split by cache temperature so a
/// claim stays cheap even when the whole fleet is cold (10k+ workers).
#[derive(Clone, Debug, Default)]
pub struct WorkerTable<T = ()> {
    /// Worker records indexed by id. Ids are handed out densely and never
    /// reused, so the slab gives O(1) lookups on the dispatch hot path.
    /// Rows are boxed: a disconnected worker leaves a one-pointer-wide
    /// vacant slot, however large the payload.
    workers: Vec<Option<Box<SimWorker<T>>>>,
    /// Hot-cache workers with at least one free slot.
    free_hot: IdBitSet,
    /// Cold-cache workers with at least one free slot.
    free_cold: IdBitSet,
    connected: usize,
}

impl WorkerTable {
    /// Empty table with no per-worker payload.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Default> WorkerTable<T> {
    /// Register a connecting worker with a default payload; returns its
    /// id.
    pub fn connect(&mut self, cores: u32, foreman: usize, at: SimTime) -> u64 {
        assert!(cores >= 1);
        let id = self.workers.len() as u64;
        self.workers.push(Some(Box::new(SimWorker {
            id,
            cores,
            busy: 0,
            cache_hot: false,
            connected_at: at,
            foreman,
            payload: T::default(),
        })));
        self.connected += 1;
        self.free_cold.insert(id);
        id
    }

    /// Remove a worker (eviction/retirement). Returns its record, payload
    /// included.
    pub fn disconnect(&mut self, id: u64) -> Option<SimWorker<T>> {
        self.free_hot.remove(id);
        self.free_cold.remove(id);
        let w = self.workers.get_mut(id as usize)?.take();
        if w.is_some() {
            self.connected -= 1;
        }
        w.map(|b| *b)
    }

    /// Look up a worker.
    pub fn get(&self, id: u64) -> Option<&SimWorker<T>> {
        self.workers.get(id as usize)?.as_deref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut SimWorker<T>> {
        self.workers.get_mut(id as usize)?.as_deref_mut()
    }

    /// A connected worker's payload. Slot and cache state change only
    /// through the table, which keeps the free index in step.
    pub fn payload_mut(&mut self, id: u64) -> Option<&mut T> {
        self.get_mut(id).map(|w| &mut w.payload)
    }

    /// Mark a worker's cache hot (first environment setup finished).
    pub fn set_cache_hot(&mut self, id: u64) {
        if let Some(w) = self.get_mut(id) {
            w.cache_hot = true;
            if self.free_cold.remove(id) {
                self.free_hot.insert(id);
            }
        }
    }

    /// Claim one slot on the first worker with free capacity, preferring
    /// hot-cache workers (they start tasks cheaper). Returns the worker id.
    pub fn claim_slot(&mut self) -> Option<u64> {
        let pick = self.free_hot.first().or_else(|| self.free_cold.first())?;
        let w = self.get_mut(pick).expect("indexed");
        w.busy += 1;
        if w.free() == 0 {
            self.free_hot.remove(pick);
            self.free_cold.remove(pick);
        }
        Some(pick)
    }

    /// Release one slot on `id` (task finished or was collected).
    pub fn release_slot(&mut self, id: u64) {
        if let Some(w) = self.get_mut(id) {
            debug_assert!(w.busy > 0, "release on idle worker");
            w.busy = w.busy.saturating_sub(1);
            if w.cache_hot {
                self.free_hot.insert(id);
            } else {
                self.free_cold.insert(id);
            }
        }
    }

    /// Number of connected workers.
    pub fn len(&self) -> usize {
        self.connected
    }

    /// True when no workers are connected.
    pub fn is_empty(&self) -> bool {
        self.connected == 0
    }

    /// Total connected cores.
    pub fn total_cores(&self) -> u64 {
        self.workers.iter().flatten().map(|w| w.cores as u64).sum()
    }

    /// Total busy slots.
    pub fn busy_slots(&self) -> u64 {
        self.workers.iter().flatten().map(|w| w.busy as u64).sum()
    }

    /// Total free slots.
    pub fn free_slots(&self) -> u64 {
        self.total_cores() - self.busy_slots()
    }

    /// Iterate workers in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SimWorker<T>> {
        self.workers.iter().flatten().map(|w| &**w)
    }

    /// The youngest connected worker: the highest id, since ids are
    /// handed out in connect order. Walks the slab from its end, so it
    /// passes only the slots of workers that joined after the youngest
    /// live one and have left, not every worker ever connected.
    pub fn youngest(&self) -> Option<u64> {
        self.workers.iter().rev().flatten().next().map(|w| w.id)
    }

    /// Hot-cache workers with at least one free slot, in id order.
    /// Exposed so invariant tests can compare the maintained index
    /// against a recomputed scan.
    pub fn free_hot_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.free_hot.iter()
    }

    /// Cold-cache workers with at least one free slot, in id order.
    pub fn free_cold_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.free_cold.iter()
    }
}

/// The ready-task dispatch buffer. Lobster tops this up to `target`
/// (default 400) so assignment never waits on task *creation*.
///
/// Each entry is whatever the master keeps per queued task, a bare
/// [`TaskId`] by default. The ring grows as it fills and is released when
/// its last task is taken, so a master whose buffer drained, such as one
/// of many tenants whose campaign is done, holds no memory for it.
#[derive(Clone, Debug)]
pub struct DispatchBuffer<T = TaskId> {
    target: usize,
    ready: VecDeque<T>,
}

impl<T> DispatchBuffer<T> {
    /// Buffer with the paper's default target of 400 ready tasks.
    pub fn new() -> Self {
        Self::with_target(400)
    }

    /// Buffer with a custom target. Nothing is reserved: a small
    /// campaign never fills the target, and many masters that each
    /// reserved it would hold that memory for the whole run.
    pub fn with_target(target: usize) -> Self {
        DispatchBuffer {
            target,
            ready: VecDeque::new(),
        }
    }

    /// The refill target.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Tasks currently buffered.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// True when no tasks are buffered.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// How many new tasks the creator should materialise right now.
    pub fn deficit(&self) -> usize {
        self.target.saturating_sub(self.ready.len())
    }

    /// Add a materialised task to the back of the buffer.
    pub fn push(&mut self, task: T) {
        self.ready.push_back(task);
    }

    /// Take the next ready task. A ring that falls to a quarter full
    /// shrinks to half its size, so memory follows the buffer down as it
    /// drains (amortised O(1) per task), and taking the last task
    /// releases the ring.
    pub fn pop(&mut self) -> Option<T> {
        let task = self.ready.pop_front();
        if self.ready.len() <= self.ready.capacity() / 4 {
            self.ready.shrink_to(self.ready.len() * 2);
        }
        task
    }
}

impl<T> Default for DispatchBuffer<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_slots() {
        let mut t = WorkerTable::new();
        let a = t.connect(2, 0, SimTime::ZERO);
        let b = t.connect(1, 1, SimTime::ZERO);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_cores(), 3);
        assert_eq!(t.free_slots(), 3);
        // Claims fill a fully before b is touched (BTree order, both cold).
        assert_eq!(t.claim_slot(), Some(a));
        assert_eq!(t.claim_slot(), Some(a));
        assert_eq!(t.claim_slot(), Some(b));
        assert_eq!(t.claim_slot(), None, "all slots busy");
        assert_eq!(t.busy_slots(), 3);
    }

    #[test]
    fn hot_cache_preferred() {
        let mut t = WorkerTable::new();
        let _cold = t.connect(4, 0, SimTime::ZERO);
        let hot = t.connect(4, 0, SimTime::ZERO);
        t.set_cache_hot(hot);
        assert_eq!(t.claim_slot(), Some(hot));
    }

    #[test]
    fn release_returns_slot() {
        let mut t = WorkerTable::new();
        let a = t.connect(1, 0, SimTime::ZERO);
        assert_eq!(t.claim_slot(), Some(a));
        assert_eq!(t.claim_slot(), None);
        t.release_slot(a);
        assert_eq!(t.claim_slot(), Some(a));
    }

    #[test]
    fn disconnect_removes_capacity() {
        let mut t = WorkerTable::new();
        let a = t.connect(8, 0, SimTime::ZERO);
        t.claim_slot();
        let w = t.disconnect(a).expect("present");
        assert_eq!(w.busy, 1);
        assert!(t.is_empty());
        assert_eq!(t.claim_slot(), None);
        assert!(t.disconnect(a).is_none(), "double disconnect");
    }

    #[test]
    fn youngest_matches_full_scan() {
        let mut t = WorkerTable::new();
        let scan = |t: &WorkerTable| t.iter().map(|w| w.id).max();
        assert_eq!(t.youngest(), None);
        for i in 0..64u64 {
            t.connect(1 + (i % 4) as u32, 0, SimTime::ZERO);
            assert_eq!(t.youngest(), scan(&t));
            // Evict in a scattered order: the youngest, an old one, or
            // one from the middle, as eviction storms and preemption do.
            let victim = match i % 3 {
                0 => t.youngest(),
                1 => t.iter().map(|w| w.id).next(),
                _ => t.iter().map(|w| w.id).nth(t.len() / 2),
            };
            if i % 2 == 0 {
                t.disconnect(victim.expect("connected"));
                assert_eq!(t.youngest(), scan(&t));
            }
        }
        while let Some(y) = t.youngest() {
            assert_eq!(Some(y), scan(&t));
            t.disconnect(y);
        }
        assert!(t.is_empty());
        assert_eq!(scan(&t), None);
    }

    #[test]
    fn disconnect_hands_back_the_payload() {
        let mut t: WorkerTable<Vec<u32>> = WorkerTable::default();
        let a = t.connect(2, 0, SimTime::ZERO);
        let b = t.connect(2, 0, SimTime::ZERO);
        t.payload_mut(a).expect("connected").push(7);
        t.payload_mut(b).expect("connected").push(9);
        let w = t.disconnect(a).expect("present");
        assert_eq!((w.id, w.payload), (a, vec![7]));
        assert!(t.payload_mut(a).is_none(), "a left");
        assert_eq!(t.get(b).map(|w| w.payload.clone()), Some(vec![9]));
    }

    #[test]
    fn release_after_disconnect_is_noop() {
        let mut t = WorkerTable::new();
        let a = t.connect(1, 0, SimTime::ZERO);
        t.claim_slot();
        t.disconnect(a);
        t.release_slot(a); // must not panic or resurrect the worker
        assert!(t.is_empty());
    }

    #[test]
    fn buffer_deficit_and_order() {
        let mut b = DispatchBuffer::with_target(3);
        assert_eq!(b.deficit(), 3);
        b.push(TaskId(1));
        b.push(TaskId(2));
        assert_eq!(b.deficit(), 1);
        assert_eq!(b.pop(), Some(TaskId(1)));
        assert_eq!(b.pop(), Some(TaskId(2)));
        assert_eq!(b.pop(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn default_buffer_matches_paper() {
        assert_eq!(DispatchBuffer::<TaskId>::new().target(), 400);
    }

    #[test]
    fn drained_buffer_holds_no_memory() {
        let mut b = DispatchBuffer::with_target(400);
        assert_eq!(b.ready.capacity(), 0, "nothing reserved up front");
        for i in 0..300 {
            b.push(TaskId(i));
        }
        assert!(b.ready.capacity() >= 300);
        while b.pop().is_some() {
            // Memory follows the buffer down as it drains.
            assert!(b.ready.capacity() <= 4 * b.len(), "{b:?}");
        }
        assert_eq!(b.ready.capacity(), 0, "the drained ring is released");
    }
}
