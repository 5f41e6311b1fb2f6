//! End-to-end and per-layer benchmark of the Lobster reproduction.
//!
//! The benchmark builds every input from a seed ([`workload`]), drives
//! the program only through its public functions ([`profile`]), and times
//! one repetition of a workload at a time ([`rep`]). `src/main.rs` turns
//! repetitions into the metrics `BENCHMARK.json` names; `README.md`
//! explains the workloads and the layer → metric → workload map.

pub mod profile;
pub mod rep;
pub mod workload;

use profile::EV_NAMES;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("tasklets_per_s", "tasklets/s"),
    ("setup_s", "s"),
    ("peak_alloc_mb", "MB"),
];

/// Driver events no workload fires, left out of the per-layer metrics:
/// the driver never schedules `Dispatch`, and no workload merges through
/// Hadoop.
const NEVER_FIRED: [&str; 2] = ["Dispatch", "HadoopGroupDone"];

/// Per-layer metrics of a traced run: `(name, unit)`, with a count and a
/// mean self time per driver event. A layer a workload does not exercise
/// reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = [
        ("engine.self_s", "s"),
        ("engine.ns_per_event", "ns"),
        ("engine.events", "count"),
        ("engine.queue_hw", "count"),
        ("engine.tombstone_hw", "count"),
        ("driver.handler_s", "s"),
    ];
    let rest = [
        ("db.journal_s", "s"),
        ("db.recover_s", "s"),
        ("db.tail_records", "count"),
        ("db.journal_bytes", "bytes"),
        ("resume.reconcile_s", "s"),
        ("resume_s", "s"),
        ("journal_mb", "MB"),
        ("jain_fairness", "ratio"),
        ("tenancy.rounds", "count"),
        ("tenancy.events", "count"),
        ("tenancy.round_ns", "ns"),
        ("arbiter.allocate_ns", "ns"),
        ("ops.report_s", "s"),
        ("ops.snapshot_s", "s"),
        ("ops.snapshot_bytes", "bytes"),
        ("tenancy.federate_s", "s"),
        ("tenancy.federated_bytes", "bytes"),
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for ev in EV_NAMES.iter().filter(|ev| !NEVER_FIRED.contains(ev)) {
        out.push((format!("driver.{ev}.n"), "count"));
        out.push((format!("driver.{ev}.ns"), "ns"));
    }
    out.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}
