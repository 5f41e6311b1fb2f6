//! Data access methods (§4.2, Figure 4).
//!
//! A task's input can reach the worker three ways: streamed over XrootD,
//! copied by the Work Queue master, or pulled through a Chirp server. The
//! first is *streaming* — I/O overlaps computation; the other two are
//! *staging* — the file lands before the application starts.
//!
//! The timing consequence (Figure 4): with staging, the CPU idles for the
//! whole transfer, so wall-clock = transfer + compute and CPU utilisation
//! is low; with streaming, wall-clock = max(compute, transfer) + a small
//! open cost, so "staging ... results in less CPU utilization but overall
//! runtime longer than streaming".

use serde::{Deserialize, Serialize};
use simkit::time::SimDuration;

/// How tasks obtain their input data.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DataAccessMode {
    /// Stream via XrootD (the primary mode in production).
    Stream,
    /// Stage via the Work Queue master.
    StageWq,
    /// Stage via a user-started Chirp server.
    StageChirp,
}

impl DataAccessMode {
    /// Streaming or staging? (groups the modes as §4.2 does).
    pub fn is_streaming(self) -> bool {
        matches!(self, DataAccessMode::Stream)
    }

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DataAccessMode::Stream => "streaming (xrootd)",
            DataAccessMode::StageWq => "staging (wq)",
            DataAccessMode::StageChirp => "staging (chirp)",
        }
    }
}

/// The I/O cost decomposition of one task attempt.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccessTiming {
    /// Blocking transfer before the application starts.
    pub stage_in: SimDuration,
    /// Time the application stalls on data *during* execution.
    pub io_wait: SimDuration,
}

impl AccessTiming {
    /// Fixed cost of opening a remote stream (redirector lookup + TCP).
    pub const STREAM_OPEN: SimDuration = SimDuration::from_secs(30);
    /// Fixed cost of setting up a staged copy.
    pub const STAGE_SETUP: SimDuration = SimDuration::from_secs(10);

    /// Compute the I/O profile of a task needing `input_bytes` while its
    /// application runs for `cpu`, with `rate` bytes/second of delivered
    /// bandwidth for this task's transfer.
    pub fn compute(
        mode: DataAccessMode,
        input_bytes: u64,
        cpu: SimDuration,
        rate: f64,
    ) -> AccessTiming {
        assert!(rate > 0.0, "non-positive transfer rate");
        let transfer = SimDuration::from_secs_f64(input_bytes as f64 / rate);
        match mode {
            DataAccessMode::Stream => {
                // Only the part of the transfer not hidden behind the CPU
                // shows up as a stall.
                let io_wait = transfer.saturating_sub(cpu);
                AccessTiming {
                    stage_in: Self::STREAM_OPEN,
                    io_wait,
                }
            }
            DataAccessMode::StageWq | DataAccessMode::StageChirp => AccessTiming {
                stage_in: Self::STAGE_SETUP + transfer,
                io_wait: SimDuration::ZERO,
            },
        }
    }

    /// Wall-clock of the I/O-plus-compute portion of the task.
    pub fn wall_with_cpu(&self, cpu: SimDuration) -> SimDuration {
        self.stage_in + cpu + self.io_wait
    }

    /// CPU utilisation of that portion.
    pub fn utilisation(&self, cpu: SimDuration) -> f64 {
        let wall = self.wall_with_cpu(cpu).as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            cpu.as_secs_f64() / wall
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn mode_grouping() {
        assert!(DataAccessMode::Stream.is_streaming());
        assert!(!DataAccessMode::StageWq.is_streaming());
        assert!(!DataAccessMode::StageChirp.is_streaming());
    }

    #[test]
    fn streaming_hides_io_behind_cpu() {
        // 6 GB at 10 MB/s = 600 s transfer; CPU 1200 s hides it entirely.
        let t = AccessTiming::compute(
            DataAccessMode::Stream,
            6 * GB,
            SimDuration::from_secs(1200),
            10e6,
        );
        assert_eq!(t.io_wait, SimDuration::ZERO);
        assert_eq!(t.stage_in, AccessTiming::STREAM_OPEN);
    }

    #[test]
    fn streaming_stalls_when_starved() {
        // 12 GB at 10 MB/s = 1200 s transfer; CPU 600 s → 600 s of stall.
        let t = AccessTiming::compute(
            DataAccessMode::Stream,
            12 * GB,
            SimDuration::from_secs(600),
            10e6,
        );
        assert_eq!(t.io_wait, SimDuration::from_secs(600));
    }

    #[test]
    fn staging_blocks_up_front() {
        let t = AccessTiming::compute(
            DataAccessMode::StageChirp,
            6 * GB,
            SimDuration::from_secs(1200),
            10e6,
        );
        assert_eq!(t.io_wait, SimDuration::ZERO);
        assert_eq!(
            t.stage_in,
            AccessTiming::STAGE_SETUP + SimDuration::from_secs(600)
        );
    }

    #[test]
    fn figure4_shape_streaming_beats_staging() {
        // Same task, same bandwidth: staging is longer overall and has
        // lower CPU utilisation — the Figure 4 comparison.
        let cpu = SimDuration::from_secs(1200);
        let stream = AccessTiming::compute(DataAccessMode::Stream, 6 * GB, cpu, 10e6);
        let staged = AccessTiming::compute(DataAccessMode::StageChirp, 6 * GB, cpu, 10e6);
        assert!(stream.wall_with_cpu(cpu) < staged.wall_with_cpu(cpu));
        assert!(stream.utilisation(cpu) > staged.utilisation(cpu));
    }

    #[test]
    fn utilisation_bounds() {
        let cpu = SimDuration::from_secs(100);
        let t = AccessTiming::compute(DataAccessMode::Stream, 0, cpu, 1e6);
        let u = t.utilisation(cpu);
        assert!(u > 0.0 && u <= 1.0);
        let empty = AccessTiming {
            stage_in: SimDuration::ZERO,
            io_wait: SimDuration::ZERO,
        };
        assert_eq!(empty.utilisation(SimDuration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-positive transfer rate")]
    fn rejects_zero_rate() {
        AccessTiming::compute(DataAccessMode::Stream, 1, SimDuration::from_secs(1), 0.0);
    }
}
