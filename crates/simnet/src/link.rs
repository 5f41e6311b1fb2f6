//! Max-min fair-shared link with virtual service time.
//!
//! All flows active on a [`FairLink`] share its capacity in proportion to
//! their weights (equal weights → equal shares). Instead of recomputing
//! every flow's completion time whenever the flow set changes — `O(n)` per
//! change — we track a *virtual time* `V` that advances at the per-unit-
//! weight service rate: `dV/dt = min(capacity / Σw, unit_rate_cap)`. A
//! flow admitted at virtual time `V₀` with `bytes` to move and weight `w`
//! completes when `V` reaches `V₀ + bytes / w`, a constant *finish tag*
//! computed once at admission. The earliest-finishing flow is the minimum
//! tag, maintained in a heap: `O(log n)` per admit/complete/abort.
//!
//! The optional `unit_rate_cap` models per-stream throughput limits (a
//! remote XrootD server will not serve one stream at 10 Gbit/s even if the
//! campus link is idle).
//!
//! The caller owns event scheduling: after any mutation, re-ask
//! [`FairLink::next_completion`] and (re)schedule an engine event there.
//! In the cluster driver that caller is `lobster::driver`'s `Site`, which
//! owns each squid's and the federation's link together with its pending
//! wake, and re-times the wake inside every method that mutates the link.

use simkit::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;

/// Identifier for a flow on a particular link.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Finish-tag key with total ordering for the heap.
#[derive(Copy, Clone, PartialEq, Debug)]
struct Tag(f64);

impl Eq for Tag {}
impl PartialOrd for Tag {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tag {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Clone, Debug)]
struct FlowState {
    weight: f64,
    bytes: u64,
    admitted_v: f64,
    tag: f64,
}

/// A fair-shared link.
#[derive(Clone, Debug)]
pub struct FairLink {
    capacity: f64,
    unit_rate_cap: Option<f64>,
    v: f64,
    last: SimTime,
    total_weight: f64,
    heap: BinaryHeap<Reverse<(Tag, FlowId)>>,
    flows: BTreeMap<FlowId, FlowState>,
    next_id: u64,
    bytes_delivered: f64,
    flows_completed: u64,
    flows_aborted: u64,
}

impl FairLink {
    /// A link with `capacity` bytes/second, no per-flow cap.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "FairLink: bad capacity"
        );
        FairLink {
            capacity,
            unit_rate_cap: None,
            v: 0.0,
            last: SimTime::ZERO,
            total_weight: 0.0,
            heap: BinaryHeap::new(),
            flows: BTreeMap::new(),
            next_id: 0,
            bytes_delivered: 0.0,
            flows_completed: 0,
            flows_aborted: 0,
        }
    }

    /// Cap the service rate per unit of flow weight (bytes/second). A
    /// weight-1 flow never exceeds this rate even on an idle link.
    pub fn with_unit_rate_cap(mut self, cap: f64) -> Self {
        assert!(cap > 0.0, "FairLink: non-positive rate cap");
        self.unit_rate_cap = Some(cap);
        self
    }

    /// Current rate at which virtual time advances (service per unit
    /// weight, bytes/second).
    fn v_rate(&self) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let share = self.capacity / self.total_weight;
        match self.unit_rate_cap {
            Some(cap) => share.min(cap),
            None => share,
        }
    }

    /// Advance internal clocks to `now`.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "link time went backwards");
        let dt = (now - self.last).as_secs_f64();
        if dt > 0.0 {
            let rate = self.v_rate();
            if rate > 0.0 {
                self.v += rate * dt;
                self.bytes_delivered += rate * self.total_weight * dt;
            }
            self.last = now;
        } else {
            self.last = now;
        }
    }

    /// Admit a flow of `bytes` with `weight > 0` at time `now`.
    pub fn admit(&mut self, now: SimTime, bytes: u64, weight: f64) -> FlowId {
        assert!(weight > 0.0 && weight.is_finite(), "FairLink: bad weight");
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let tag = self.v + bytes as f64 / weight;
        self.flows.insert(
            id,
            FlowState {
                weight,
                bytes,
                admitted_v: self.v,
                tag,
            },
        );
        self.total_weight += weight;
        self.heap.push(Reverse((Tag(tag), id)));
        id
    }

    /// Equal-weight admission.
    pub fn admit_flow(&mut self, now: SimTime, bytes: u64) -> FlowId {
        self.admit(now, bytes, 1.0)
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// True if `id` is still in flight.
    pub fn is_active(&self, id: FlowId) -> bool {
        self.flows.contains_key(&id)
    }

    /// Bytes already delivered for an active flow at `now` (None if the
    /// flow finished or was aborted).
    pub fn progress(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
        self.advance(now);
        let f = self.flows.get(&id)?;
        let served = (self.v - f.admitted_v) * f.weight;
        Some((served.max(0.0) as u64).min(f.bytes))
    }

    /// Abort an active flow (e.g. its task was evicted). Returns the bytes
    /// that had been delivered, or `None` if the flow was not active.
    pub fn abort(&mut self, now: SimTime, id: FlowId) -> Option<u64> {
        self.advance(now);
        let f = self.flows.remove(&id)?;
        self.total_weight -= f.weight;
        if self.total_weight < 1e-12 {
            self.total_weight = 0.0;
        }
        self.flows_aborted += 1;
        let served = ((self.v - f.admitted_v) * f.weight).max(0.0);
        Some((served as u64).min(f.bytes))
    }

    /// Time and id of the next flow to complete, or `None` if the link is
    /// idle or stalled (zero capacity).
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        // Drop tombstones (aborted/completed flows still in the heap).
        while let Some(Reverse((tag, id))) = self.heap.peek().copied() {
            match self.flows.get(&id) {
                Some(f) if f.tag == tag.0 => break,
                _ => {
                    self.heap.pop();
                }
            }
        }
        let Reverse((Tag(tag), id)) = *self.heap.peek()?;
        let rate = self.v_rate();
        if rate <= 0.0 {
            return None; // stalled: outage or zero capacity
        }
        let remaining_v = (tag - self.v).max(0.0);
        let dt = remaining_v / rate;
        // Ceil to the next whole microsecond: the predicted instant must
        // never precede the true completion, or a caller draining
        // completions at the predicted time would find nothing and spin.
        let micros = (dt * 1e6).ceil() as u64;
        Some((self.last + SimDuration::from_micros(micros), id))
    }

    /// Pop every flow whose transfer has completed by `now`.
    pub fn completions(&mut self, now: SimTime) -> Vec<FlowId> {
        let mut done = Vec::new();
        self.completions_into(now, &mut done);
        done
    }

    /// As [`FairLink::completions`], but appending into a caller-owned
    /// buffer (cleared first). The driver wakes a link once per predicted
    /// completion; reusing one buffer across wakes keeps the dispatch hot
    /// path free of per-event allocation.
    pub fn completions_into(&mut self, now: SimTime, out: &mut Vec<FlowId>) {
        out.clear();
        self.advance(now);
        // The epsilon absorbs float rounding between next_completion()'s
        // predicted instant (quantised to whole microseconds, rounded up)
        // and v: anything within ~2 µs of service at the current rate has
        // effectively completed.
        let eps = 1e-6 * self.v.abs().max(1.0) + 1.0 + self.v_rate() * 2e-6;
        while let Some(&Reverse((Tag(tag), id))) = self.heap.peek() {
            let alive = matches!(self.flows.get(&id), Some(f) if f.tag == tag);
            if !alive {
                self.heap.pop();
                continue;
            }
            if tag <= self.v + eps {
                self.heap.pop();
                let f = self.flows.remove(&id).expect("alive");
                self.total_weight -= f.weight;
                if self.total_weight < 1e-12 {
                    self.total_weight = 0.0;
                }
                self.flows_completed += 1;
                out.push(id);
            } else {
                break;
            }
        }
    }

    /// Change link capacity at `now` (0 = outage/stall). In-flight flows
    /// keep their progress and resume when capacity returns.
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        assert!(
            capacity >= 0.0 && capacity.is_finite(),
            "FairLink: bad capacity"
        );
        self.advance(now);
        self.capacity = capacity;
    }

    /// Current capacity (bytes/second).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Instantaneous rate of one weight-1 flow at `now`.
    pub fn flow_rate(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.v_rate()
    }

    /// Total payload bytes moved so far (completed + partial).
    pub fn bytes_delivered(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.bytes_delivered
    }

    /// Completed-flow count.
    pub fn flows_completed(&self) -> u64 {
        self.flows_completed
    }

    /// Aborted-flow count.
    pub fn flows_aborted(&self) -> u64 {
        self.flows_aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet_test_util::*;

    mod simnet_test_util {
        use simkit::time::SimTime;
        pub fn t(s: f64) -> SimTime {
            SimTime::from_micros((s * 1e6) as u64)
        }
        pub fn approx(a: SimTime, b: SimTime, tol_s: f64) -> bool {
            (a.as_secs_f64() - b.as_secs_f64()).abs() <= tol_s
        }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut link = FairLink::new(100.0); // 100 B/s
        let id = link.admit_flow(t(0.0), 1000);
        let (when, who) = link.next_completion().unwrap();
        assert_eq!(who, id);
        assert!(approx(when, t(10.0), 1e-6), "{when:?}");
        let done = link.completions(when);
        assert_eq!(done, vec![id]);
        assert_eq!(link.active(), 0);
    }

    #[test]
    fn two_equal_flows_halve_the_rate() {
        let mut link = FairLink::new(100.0);
        let a = link.admit_flow(t(0.0), 500);
        let _b = link.admit_flow(t(0.0), 1000);
        // a needs 500B at 50B/s → 10s; then b has 500B left at 100B/s → 15s total
        let (when_a, who) = link.next_completion().unwrap();
        assert_eq!(who, a);
        assert!(approx(when_a, t(10.0), 1e-6));
        link.completions(when_a);
        let (when_b, _) = link.next_completion().unwrap();
        assert!(approx(when_b, t(15.0), 1e-5), "{when_b:?}");
    }

    #[test]
    fn weighted_flows_share_proportionally() {
        let mut link = FairLink::new(90.0);
        // weight 2 gets 60 B/s, weight 1 gets 30 B/s
        let heavy = link.admit(t(0.0), 600, 2.0);
        let light = link.admit(t(0.0), 600, 1.0);
        let (when, who) = link.next_completion().unwrap();
        assert_eq!(who, heavy);
        assert!(approx(when, t(10.0), 1e-6));
        link.completions(when);
        // light had 300B done, 300 left at full 90 B/s → 10 + 3.33s
        let (when2, who2) = link.next_completion().unwrap();
        assert_eq!(who2, light);
        assert!(approx(when2, t(10.0 + 300.0 / 90.0), 1e-5));
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut link = FairLink::new(100.0);
        let a = link.admit_flow(t(0.0), 1000);
        // at t=5, a has 500B left; b arrives
        let _b = link.admit_flow(t(5.0), 10_000);
        let (when, who) = link.next_completion().unwrap();
        assert_eq!(who, a);
        // 500B at 50B/s → completes at t=15
        assert!(approx(when, t(15.0), 1e-5), "{when:?}");
    }

    #[test]
    fn unit_rate_cap_limits_idle_link() {
        let mut link = FairLink::new(1000.0).with_unit_rate_cap(10.0);
        let _ = link.admit_flow(t(0.0), 100);
        let (when, _) = link.next_completion().unwrap();
        assert!(approx(when, t(10.0), 1e-6), "capped at 10B/s: {when:?}");
    }

    #[test]
    fn cap_irrelevant_under_contention() {
        let mut link = FairLink::new(100.0).with_unit_rate_cap(1000.0);
        let _a = link.admit_flow(t(0.0), 500);
        let _b = link.admit_flow(t(0.0), 500);
        let (when, _) = link.next_completion().unwrap();
        assert!(approx(when, t(10.0), 1e-6)); // 50 B/s shares
    }

    #[test]
    fn abort_returns_partial_progress_and_frees_capacity() {
        let mut link = FairLink::new(100.0);
        let a = link.admit_flow(t(0.0), 1000);
        let b = link.admit_flow(t(0.0), 1000);
        let got = link.abort(t(5.0), a).unwrap();
        assert_eq!(got, 250); // 5s at 50B/s
        assert!(!link.is_active(a));
        // b now gets full rate: 750B left at 100B/s → done at t=12.5
        let (when, who) = link.next_completion().unwrap();
        assert_eq!(who, b);
        assert!(approx(when, t(12.5), 1e-5));
        assert!(link.abort(t(6.0), a).is_none(), "double abort is None");
        assert_eq!(link.flows_aborted(), 1);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = FairLink::new(100.0);
        let id = link.admit_flow(t(1.0), 0);
        let (when, who) = link.next_completion().unwrap();
        assert_eq!(who, id);
        assert!(approx(when, t(1.0), 1e-9));
        assert_eq!(link.completions(t(1.0)), vec![id]);
    }

    #[test]
    fn outage_stalls_and_resumes() {
        let mut link = FairLink::new(100.0);
        let id = link.admit_flow(t(0.0), 1000);
        link.set_capacity(t(5.0), 0.0); // outage after 500B
        assert!(
            link.next_completion().is_none(),
            "stalled link never completes"
        );
        assert!(link.completions(t(60.0)).is_empty());
        link.set_capacity(t(65.0), 100.0); // restore
        let (when, who) = link.next_completion().unwrap();
        assert_eq!(who, id);
        assert!(approx(when, t(70.0), 1e-5), "{when:?}");
    }

    #[test]
    fn progress_tracks_service() {
        let mut link = FairLink::new(100.0);
        let id = link.admit_flow(t(0.0), 1000);
        assert_eq!(link.progress(t(3.0), id), Some(300));
        assert_eq!(link.progress(t(20.0), id), Some(1000)); // clamped to size
        link.completions(t(20.0));
        assert_eq!(link.progress(t(21.0), id), None);
    }

    #[test]
    fn bytes_delivered_accounting() {
        let mut link = FairLink::new(100.0);
        link.admit_flow(t(0.0), 400);
        link.admit_flow(t(0.0), 400);
        let delivered = link.bytes_delivered(t(4.0));
        assert!((delivered - 400.0).abs() < 1.0, "{delivered}");
        link.completions(t(8.0));
        assert_eq!(link.flows_completed(), 2);
    }

    #[test]
    fn many_flows_complete_in_size_order() {
        let mut link = FairLink::new(1000.0);
        let mut ids = Vec::new();
        for i in 1..=10u64 {
            ids.push((link.admit_flow(t(0.0), i * 100), i));
        }
        let mut order = Vec::new();
        while let Some((when, _)) = link.next_completion() {
            for done in link.completions(when) {
                order.push(done);
            }
        }
        let expected: Vec<FlowId> = ids.iter().map(|&(id, _)| id).collect();
        assert_eq!(order, expected, "equal shares → smallest flow first");
    }

    #[test]
    fn simultaneous_equal_flows_complete_together() {
        let mut link = FairLink::new(100.0);
        let a = link.admit_flow(t(0.0), 500);
        let b = link.admit_flow(t(0.0), 500);
        let (when, _) = link.next_completion().unwrap();
        let done = link.completions(when);
        assert_eq!(done.len(), 2);
        assert!(done.contains(&a) && done.contains(&b));
    }

    #[test]
    fn idle_link_has_no_completion() {
        let mut link = FairLink::new(100.0);
        assert!(link.next_completion().is_none());
        assert!(link.completions(t(10.0)).is_empty());
    }

    #[test]
    fn high_capacity_drain_terminates() {
        // Regression: with GB/s capacities, a predicted completion time
        // rounded *down* to the microsecond grid left residual virtual
        // time above the pop epsilon, so completions(when) returned
        // nothing and drain loops spun forever. next_completion now
        // ceils, and the epsilon accounts for the service rate.
        let mut link = FairLink::new(1.25e9);
        for i in 0..5_000u64 {
            link.admit_flow(SimTime::ZERO, 1_000_000 + i);
        }
        let mut drained = 0;
        let mut rounds = 0;
        while let Some((when, _)) = link.next_completion() {
            let done = link.completions(when);
            assert!(!done.is_empty(), "predicted completion must pop a flow");
            drained += done.len();
            rounds += 1;
            assert!(rounds <= 10_000, "drain must terminate");
        }
        assert_eq!(drained, 5_000);
    }
}
