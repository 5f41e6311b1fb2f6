//! Dataset Bookkeeping Service (DBS).
//!
//! CMS catalogues its data hierarchically: a *dataset* (e.g.
//! `/SingleMu/Run2012A-22Jan2013-v1/AOD`) contains *logical files*, each
//! holding a span of *luminosity sections* ("lumis") from particular
//! detector *runs*. Lobster queries DBS for a dataset and decomposes the
//! returned lumi list into tasklets (§4.2).
//!
//! This module stores that hierarchy and generates synthetic datasets
//! deterministically — the stand-in for real CMS metadata.

use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A contiguous range of luminosity sections within one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LumiRange {
    /// Detector run number.
    pub run: u32,
    /// First lumi section (inclusive).
    pub first: u32,
    /// Last lumi section (inclusive).
    pub last: u32,
}

impl LumiRange {
    /// Number of lumi sections covered.
    pub fn len(&self) -> u64 {
        (self.last - self.first + 1) as u64
    }

    /// Always false — a range covers at least one lumi.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// One logical file in a dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogicalFile {
    /// Logical file name, unique within the federation.
    pub lfn: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Number of physics events.
    pub events: u64,
    /// Lumi sections contained.
    pub lumis: Vec<LumiRange>,
}

/// A dataset: an ordered collection of logical files.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset path, e.g. `/TTJets/Spring14-PU20/AOD`.
    pub name: String,
    /// Files in catalogue order.
    pub files: Vec<LogicalFile>,
}

impl Dataset {
    /// Total size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Total events.
    pub fn total_events(&self) -> u64 {
        self.files.iter().map(|f| f.events).sum()
    }

    /// Total lumi sections.
    pub fn total_lumis(&self) -> u64 {
        self.files
            .iter()
            .flat_map(|f| &f.lumis)
            .map(|r| r.len())
            .sum()
    }
}

/// Parameters for synthetic dataset generation.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Number of logical files.
    pub n_files: usize,
    /// Mean file size in bytes (log-normal-ish spread around it).
    pub mean_file_bytes: u64,
    /// Events per lumi section (fixed, CMS-typical ~ a few hundred).
    pub events_per_lumi: u32,
    /// Lumi sections per file.
    pub lumis_per_file: u32,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        // ~0.1–1 PB is a "typical analysis" (§2); a single dataset slice
        // here defaults to ~4 TB over 1000 files of ~4 GB.
        DatasetSpec {
            n_files: 1_000,
            mean_file_bytes: 4_000_000_000,
            events_per_lumi: 300,
            lumis_per_file: 250,
        }
    }
}

/// The bookkeeping service: a name → dataset catalogue.
#[derive(Clone, Debug, Default)]
pub struct Dbs {
    datasets: BTreeMap<String, Dataset>,
}

impl Dbs {
    /// Empty catalogue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a dataset (replacing any same-named one).
    pub fn publish(&mut self, ds: Dataset) {
        self.datasets.insert(ds.name.clone(), ds);
    }

    /// Query a dataset by exact name.
    pub fn query(&self, name: &str) -> Option<&Dataset> {
        self.datasets.get(name)
    }

    /// All dataset names.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Generate and publish a synthetic dataset; returns its name.
    pub fn generate(&mut self, name: impl Into<String>, spec: DatasetSpec, seed: u64) -> String {
        let name = name.into();
        let mut rng = SimRng::new(seed);
        let mut files = Vec::with_capacity(spec.n_files);
        let mut run = 190_000 + (seed % 1000) as u32; // plausible run numbers
        let mut next_lumi = 1u32;
        for i in 0..spec.n_files {
            // Occasionally move to a new run, resetting lumi numbering.
            if rng.chance(0.05) {
                run += 1 + rng.below(5) as u32;
                next_lumi = 1;
            }
            let lumis = vec![LumiRange {
                run,
                first: next_lumi,
                last: next_lumi + spec.lumis_per_file - 1,
            }];
            next_lumi += spec.lumis_per_file;
            // File sizes vary ±50% around the mean.
            let bytes = (spec.mean_file_bytes as f64 * rng.range_f64(0.5, 1.5)).round() as u64;
            // `/store`, `/file_`, six digits and `.root` add 23 bytes to
            // the name (24 leaves room for a seventh digit): one
            // allocation per LFN instead of a regrowing buffer.
            let mut lfn = String::with_capacity(name.len() + 24);
            let _ = write!(lfn, "/store{name}/file_{i:06}.root");
            files.push(LogicalFile {
                lfn,
                bytes,
                events: spec.events_per_lumi as u64 * spec.lumis_per_file as u64,
                lumis,
            });
        }
        let ds = Dataset {
            name: name.clone(),
            files,
        };
        self.publish(ds);
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumi_range_len() {
        let r = LumiRange {
            run: 1,
            first: 10,
            last: 19,
        };
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = Dbs::new();
        let mut b = Dbs::new();
        a.generate("/TT/x/AOD", DatasetSpec::default(), 42);
        b.generate("/TT/x/AOD", DatasetSpec::default(), 42);
        let (da, db) = (a.query("/TT/x/AOD").unwrap(), b.query("/TT/x/AOD").unwrap());
        assert_eq!(da.total_bytes(), db.total_bytes());
        assert_eq!(da.files[500].lfn, db.files[500].lfn);
        assert_eq!(da.files[500].lfn, "/store/TT/x/AOD/file_000500.root");
        assert_eq!(da.files[500].bytes, db.files[500].bytes);
    }

    #[test]
    fn totals_add_up() {
        let mut dbs = Dbs::new();
        let spec = DatasetSpec {
            n_files: 10,
            mean_file_bytes: 1_000,
            events_per_lumi: 5,
            lumis_per_file: 4,
        };
        dbs.generate("/small/x/AOD", spec, 1);
        let ds = dbs.query("/small/x/AOD").unwrap();
        assert_eq!(ds.files.len(), 10);
        assert_eq!(ds.total_lumis(), 40);
        assert_eq!(ds.total_events(), 10 * 5 * 4);
        // sizes within ±50% of mean
        assert!(ds.files.iter().all(|f| f.bytes >= 500 && f.bytes <= 1_500));
    }

    #[test]
    fn default_spec_is_multi_tb() {
        let mut dbs = Dbs::new();
        dbs.generate("/big/x/AOD", DatasetSpec::default(), 2);
        let ds = dbs.query("/big/x/AOD").unwrap();
        let tb = ds.total_bytes() as f64 / 1e12;
        assert!(tb > 3.0 && tb < 5.0, "{tb} TB");
    }

    #[test]
    fn lfns_are_unique() {
        let mut dbs = Dbs::new();
        dbs.generate(
            "/u/x/AOD",
            DatasetSpec {
                n_files: 200,
                ..DatasetSpec::default()
            },
            3,
        );
        let ds = dbs.query("/u/x/AOD").unwrap();
        let set: std::collections::HashSet<&str> =
            ds.files.iter().map(|f| f.lfn.as_str()).collect();
        assert_eq!(set.len(), 200);
    }

    #[test]
    fn query_unknown_is_none() {
        let dbs = Dbs::new();
        assert!(dbs.query("/nope").is_none());
        assert!(dbs.dataset_names().is_empty());
    }
}
