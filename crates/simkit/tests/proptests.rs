//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simkit::dist::{Dist, Empirical, Exponential, LogUniform, Normal, Uniform, Weibull};
use simkit::engine::{BUCKET_US, ROUND_US};
use simkit::prelude::*;

/// A model that records delivery times for the ordering property.
struct Recorder {
    delivered: Vec<u64>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, _ev: u32, ctx: &mut Ctx<u32>) {
        self.delivered.push(ctx.now().as_micros());
    }
}

/// A model that records event payloads, for identity-level cancellation
/// properties.
struct PayloadRecorder {
    fired: Vec<u32>,
}

impl Model for PayloadRecorder {
    type Event = u32;
    fn handle(&mut self, ev: u32, _ctx: &mut Ctx<u32>) {
        self.fired.push(ev);
    }
}

/// A model that logs `(time, payload)` per delivery and fans some events
/// out, so handlers schedule into the bucket under the cursor too: every
/// payload divisible by 5 schedules a zero-delay child, every one
/// divisible by 7 a child a few buckets ahead.
struct TraceRecorder {
    trace: Vec<(u64, u32)>,
}

impl Model for TraceRecorder {
    type Event = u32;
    fn handle(&mut self, ev: u32, ctx: &mut Ctx<u32>) {
        self.trace.push((ctx.now().as_micros(), ev));
        if ev < 1_000_000 {
            if ev.is_multiple_of(5) {
                ctx.schedule(SimDuration::ZERO, ev + 1_000_000);
            }
            if ev.is_multiple_of(7) {
                ctx.schedule(SimDuration::from_micros(3 * BUCKET_US), ev + 2_000_000);
            }
        }
    }
}

/// Run the op program `ops` on a `kind` engine; returns the delivery
/// trace (peeked times logged as payload `u32::MAX`) and `delivered()`.
fn run_program(kind: EngineKind, ops: &[(u8, u64)]) -> (Vec<(u64, u32)>, u64) {
    let mut eng = Engine::with_kind(TraceRecorder { trace: Vec::new() }, kind);
    let mut ids: Vec<EventId> = Vec::new();
    let mut last_at = SimTime::ZERO;
    for (i, &(op, x)) in ops.iter().enumerate() {
        let payload = i as u32;
        let now = eng.now();
        match op % 9 {
            0 => {
                // Zero delay, a later instant in this bucket, or a repeat
                // of the last scheduled instant (a tie).
                let at = match x % 3 {
                    0 => now,
                    1 => now + SimDuration::from_micros(x % BUCKET_US),
                    _ => last_at.max(now),
                };
                ids.push(eng.ctx().schedule_at(at, payload));
                last_at = at;
            }
            1 => {
                // A few buckets to a few rounds ahead.
                let at = now + SimDuration::from_micros(x % (3 * ROUND_US));
                ids.push(eng.ctx().schedule_at(at, payload));
                last_at = at;
            }
            2 => {
                // Peek moves the calendar cursor up to the next event,
                // then schedule behind it.
                let peeked = eng.ctx().peek_time();
                eng.model_mut()
                    .trace
                    .push((peeked.map_or(0, SimTime::as_micros), u32::MAX));
                let at = now + SimDuration::from_micros(x % (2 * BUCKET_US));
                ids.push(eng.ctx().schedule_at(at, payload));
                last_at = at;
            }
            3 | 4 => {
                // Cancel any id seen so far: live, fired, or cancelled
                // already.
                if !ids.is_empty() {
                    let id = ids[(x % ids.len() as u64) as usize];
                    eng.ctx().cancel(id);
                }
            }
            5 => {
                eng.run_until(now + SimDuration::from_micros(x % ROUND_US));
            }
            6 => {
                let deadline = now + SimDuration::from_micros(x % (2 * ROUND_US));
                eng.run_until_events(deadline, x % 9);
            }
            7 => {
                // Exactly on a bucket edge, or one µs either side of it:
                // from the end of `now`'s bucket to a bit over two rounds
                // ahead.
                let k = now.as_micros() / BUCKET_US + 1 + (x / 3) % 600;
                let at = SimTime::from_micros(match x % 3 {
                    0 => k * BUCKET_US - 1,
                    1 => k * BUCKET_US,
                    _ => k * BUCKET_US + 1,
                });
                ids.push(eng.ctx().schedule_at(at, payload));
                last_at = at;
            }
            _ => {
                eng.step();
            }
        }
    }
    eng.run();
    let delivered = eng.ctx().delivered();
    (eng.into_model().trace, delivered)
}

proptest! {
    /// Events are always delivered in nondecreasing time order regardless
    /// of the order they were scheduled in.
    #[test]
    fn engine_delivers_in_time_order(delays in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut eng = Engine::new(Recorder { delivered: Vec::new() });
        for (i, &d) in delays.iter().enumerate() {
            eng.prime(SimDuration::from_micros(d), i as u32);
        }
        eng.run();
        let times = &eng.model().delivered;
        prop_assert_eq!(times.len(), delays.len());
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let mut expected = delays.clone();
        expected.sort_unstable();
        prop_assert_eq!(times, &expected);
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn engine_cancellation_is_exact(
        delays in prop::collection::vec(1u64..100_000, 1..100),
        kill_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut eng = Engine::new(Recorder { delivered: Vec::new() });
        let ids: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| eng.prime(SimDuration::from_micros(d), i as u32))
            .collect();
        let mut kept = 0;
        for (i, id) in ids.iter().enumerate() {
            if *kill_mask.get(i).unwrap_or(&false) {
                eng.ctx().cancel(*id);
            } else {
                kept += 1;
            }
        }
        eng.run();
        prop_assert_eq!(eng.model().delivered.len(), kept);
    }

    /// Cancellation is precise at the identity level: a cancelled event is
    /// never handed to the model, every survivor is handed over exactly
    /// once, and once the queue drains every tombstone for a then-pending
    /// event has been reclaimed.
    #[test]
    fn engine_cancelled_events_never_reach_model(
        delays in prop::collection::vec(0u64..500_000, 1..150),
        kill_mask in prop::collection::vec(any::<bool>(), 1..150),
        double_cancel in any::<bool>(),
    ) {
        let mut eng = Engine::new(PayloadRecorder { fired: Vec::new() });
        let ids: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| eng.prime(SimDuration::from_micros(d), i as u32))
            .collect();
        // Cancel a subset while everything is still pending; cancelling
        // twice must behave identically to cancelling once.
        let mut expected_live: Vec<u32> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *kill_mask.get(i).unwrap_or(&false) {
                eng.ctx().cancel(*id);
                if double_cancel {
                    eng.ctx().cancel(*id);
                }
            } else {
                expected_live.push(i as u32);
            }
        }
        eng.run();
        // Exactly the survivors fired — no cancelled payload leaked
        // through, none was delivered twice, none was lost.
        let mut fired = eng.model().fired.clone();
        fired.sort_unstable();
        prop_assert_eq!(fired, expected_live);
        // The queue drained completely and reclaimed every tombstone.
        prop_assert_eq!(eng.ctx().pending(), 0);
        prop_assert_eq!(eng.ctx().tombstones(), 0);
    }

    /// All samplers produce finite values respecting their support.
    #[test]
    fn distributions_respect_support(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let u = Uniform::new(2.0, 5.0).sample(&mut rng);
            prop_assert!((2.0..5.0).contains(&u));
            let lu = LogUniform::new(1.0, 1000.0).sample(&mut rng);
            prop_assert!((1.0..1000.0 + 1e-9).contains(&lu));
            let e = Exponential::new(3.0).sample(&mut rng);
            prop_assert!(e.is_finite() && e >= 0.0);
            let w = Weibull::new(2.0, 0.7).sample(&mut rng);
            prop_assert!(w.is_finite() && w >= 0.0);
            let n = Normal::new(0.0, 1.0).sample(&mut rng);
            prop_assert!(n.is_finite());
        }
    }

    /// Empirical quantile function is monotone nondecreasing.
    #[test]
    fn empirical_quantile_monotone(
        points in prop::collection::vec((0.0f64..1e6, 0.01f64..100.0), 1..50),
        qs in prop::collection::vec(0.0f64..1.0, 2..30),
    ) {
        let d = Empirical::from_weighted(points);
        let mut sorted = qs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let values: Vec<f64> = sorted.iter().map(|&q| d.quantile(q)).collect();
        prop_assert!(values.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    /// Split RNG streams never collide with their parents in practice and
    /// are reproducible.
    #[test]
    fn rng_split_reproducible(seed in any::<u64>(), idx in 0u64..1_000) {
        let root = SimRng::new(seed);
        let mut a = root.split(idx);
        let mut b = root.split(idx);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Server grants never overlap beyond capacity and respect FIFO
    /// start ordering for same-arrival offers.
    #[test]
    fn server_same_instant_fifo(durations in prop::collection::vec(1u64..100, 2..40)) {
        let mut s = Server::new(3);
        let grants: Vec<_> = durations
            .iter()
            .map(|&d| s.offer(SimTime::ZERO, SimDuration::from_secs(d)))
            .collect();
        prop_assert!(grants.windows(2).all(|w| w[0].start <= w[1].start));
        let busy_at_zero = grants.iter().filter(|g| g.start == SimTime::ZERO).count();
        prop_assert!(busy_at_zero <= 3);
    }

    /// Spread conservation: smearing a value over an arbitrary interval
    /// preserves its total across bin sums, and never fabricates counts.
    #[test]
    fn timeseries_spread_conserves_value(
        start_us in 0u64..10_000_000,
        span_us in 0u64..10_000_000,
        width_us in 1u64..5_000_000,
        value in 0.0f64..1e6,
    ) {
        let mut ts = TimeSeries::new(SimDuration::from_micros(width_us));
        let start = SimTime::from_micros(start_us);
        let end = SimTime::from_micros(start_us + span_us);
        ts.record_spread(start, end, value);
        let total: f64 = ts.sums().iter().sum();
        prop_assert!(
            (total - value).abs() <= 1e-9 * value.max(1.0),
            "Σ bin sums {} != value {} (start {} span {} width {})",
            total, value, start_us, span_us, width_us
        );
        let snap = ts.snapshot();
        prop_assert!(snap.counts.iter().all(|&c| c == 0));
    }

    /// The calendar queue and the reference heap are one queue, op by op:
    /// the same random program of schedules (ties, zero delays, bucket
    /// edges, far rounds, behind a peeked cursor), cancels (live, fired,
    /// twice) and bounded runs gives the same delivery trace and the same
    /// `delivered()`. Tombstone counts differ by design and are not
    /// compared.
    #[test]
    fn calendar_matches_reference_heap_op_by_op(
        ops in prop::collection::vec((0u8..9, any::<u64>()), 1..300),
    ) {
        let (cal, cal_n) = run_program(EngineKind::Calendar, &ops);
        let (heap, heap_n) = run_program(EngineKind::ReferenceHeap, &ops);
        prop_assert_eq!(cal_n, heap_n);
        prop_assert_eq!(cal, heap);
    }
}
