//! Property-based tests for the software-delivery models.

use cvmfssim::catalog::{CatalogConfig, ReleaseCatalog};
use cvmfssim::parrot::{CacheMode, SetupPlan};
use cvmfssim::squid::{Squid, SquidConfig};
use proptest::prelude::*;
use simkit::time::{SimDuration, SimTime};

proptest! {
    /// Generated catalogs always hit their size target within 2 % and
    /// contain no zero-size files.
    #[test]
    fn catalog_respects_target(
        n_files in 1usize..2_000,
        total_mb in 10u64..4_000,
        seed in any::<u64>(),
    ) {
        let cfg = CatalogConfig {
            n_files,
            total_bytes: total_mb * 1_000_000,
            min_file: 1_000,
            max_file: 32_000_000,
        };
        let cat = ReleaseCatalog::generate("r", cfg, seed);
        prop_assert_eq!(cat.n_files(), n_files);
        let diff = cat.total_bytes().abs_diff(cfg.total_bytes);
        prop_assert!(diff <= cfg.total_bytes / 50 + n_files as u64);
        prop_assert!(cat.files().iter().all(|f| f.size >= 1));
    }

    /// Setup plans: alien-node never pulls more bytes than any other
    /// mode, and wall-clock is monotone in the per-stream rate.
    #[test]
    fn setup_plan_dominance(
        tasks in 1u32..16,
        workers in 1u32..4,
        ws_mb in 100u64..3_000,
        rate in 1e5f64..1e8,
    ) {
        let ws = ws_mb * 1_000_000;
        let node_cap = 1e9;
        let bytes: Vec<u64> = CacheMode::ALL
            .iter()
            .map(|&m| SetupPlan::plan(m, tasks, workers, ws).total_bytes())
            .collect();
        let alien_node = SetupPlan::plan(CacheMode::AlienNode, tasks, workers, ws);
        prop_assert!(bytes.iter().all(|&b| b >= alien_node.total_bytes()));
        // Faster streams never make a plan slower.
        for &m in &CacheMode::ALL {
            let p = SetupPlan::plan(m, tasks, workers, ws);
            let slow = p.wall_clock_secs(rate, node_cap);
            let fast = p.wall_clock_secs(rate * 2.0, node_cap);
            prop_assert!(fast <= slow + 1e-9);
        }
    }

    /// Squid: more concurrent clients never make any individual request
    /// finish *earlier*, and bytes served equals bytes requested when all
    /// flows complete.
    #[test]
    fn squid_monotone_in_load(clients in 1usize..50, bytes in 1u64..1_000_000) {
        let mk = |n: usize| {
            let mut s = Squid::new(SquidConfig {
                bandwidth: 1e6,
                per_client_cap: 1e5,
                timeout: SimDuration::from_hours(1_000),
            });
            for _ in 0..n {
                s.request(SimTime::ZERO, bytes).unwrap();
            }
            let mut last = SimTime::ZERO;
            while let Some((when, _)) = s.next_completion() {
                s.completions(when);
                last = when;
            }
            (last, s.bytes_served(last))
        };
        let (t1, b1) = mk(1);
        let (tn, bn) = mk(clients);
        prop_assert!(tn >= t1);
        prop_assert!((b1 - bytes as f64).abs() < 2.0);
        prop_assert!((bn - (clients as u64 * bytes) as f64).abs() < clients as f64 + 1.0);
    }
}
