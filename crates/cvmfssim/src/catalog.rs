//! Synthetic software release catalogs.
//!
//! A CVMFS repository is a read-only tree of files fetched on demand. For
//! the simulation we need its *economics*, not its contents: how many
//! files a job touches, how many bytes that is cold, and how cheap it is
//! hot. The paper pins the cold working set at ≈ 1.5 GB per cache (§4.3).
//!
//! The catalog generator is deterministic in its seed, producing file
//! sizes log-uniform between 1 kB and 32 MB — small Python/config files
//! through large shared libraries — plus the Frontier conditions payload
//! each job fetches (§4.2).

use serde::Serialize;
use simkit::dist::{Dist, LogUniform};
use simkit::rng::SimRng;
use simnet::units::{KB, MB};

/// One file in the release.
#[derive(Clone, Debug, Serialize)]
pub struct CatalogFile {
    /// Path-like identifier.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
}

/// A synthetic software release.
#[derive(Clone, Debug, Serialize)]
pub struct ReleaseCatalog {
    /// Release label, e.g. "CMSSW_7_4_2".
    pub name: String,
    files: Vec<CatalogFile>,
    total_bytes: u64,
}

/// Parameters for catalog generation.
#[derive(Clone, Copy, Debug)]
pub struct CatalogConfig {
    /// Number of files in the release.
    pub n_files: usize,
    /// Target total size in bytes (sizes are rescaled to hit this).
    pub total_bytes: u64,
    /// Smallest file size.
    pub min_file: u64,
    /// Largest file size.
    pub max_file: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        // ≈1.5 GB cold working set over a few thousand files, per §4.3.
        CatalogConfig {
            n_files: 4_000,
            total_bytes: 1_500 * MB,
            min_file: KB,
            max_file: 32 * MB,
        }
    }
}

impl ReleaseCatalog {
    /// Generate a release deterministically from `seed`.
    pub fn generate(name: impl Into<String>, cfg: CatalogConfig, seed: u64) -> Self {
        let files: Vec<CatalogFile> = file_sizes(cfg, seed)
            .into_iter()
            .enumerate()
            .map(|(i, size)| CatalogFile {
                name: format!("lib/file_{i:05}.so"),
                size,
            })
            .collect();
        let total_bytes = files.iter().map(|f| f.size).sum();
        ReleaseCatalog {
            name: name.into(),
            files,
            total_bytes,
        }
    }

    /// The paper's default CMSSW-like release.
    pub fn cmssw_default(seed: u64) -> Self {
        Self::generate("CMSSW_7_4_2", CatalogConfig::default(), seed)
    }

    /// All files.
    pub fn files(&self) -> &[CatalogFile] {
        &self.files
    }

    /// Number of files.
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// Total release size in bytes (the cold cache fill volume).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes a *hot* cache still transfers per task (see
    /// [`ReleaseFootprint::hot_bytes`]).
    pub fn hot_bytes(&self) -> u64 {
        self.footprint().hot_bytes()
    }

    /// File count and total bytes, without the file list.
    pub fn footprint(&self) -> ReleaseFootprint {
        ReleaseFootprint {
            n_files: self.files.len() as u64,
            total_bytes: self.total_bytes,
        }
    }

    /// Number of HTTP requests a cold fill issues (one per file plus
    /// catalog lookups).
    pub fn cold_requests(&self) -> u64 {
        self.n_files() as u64 + self.n_files() as u64 / 10
    }

    /// Number of HTTP requests a hot task issues (revalidations).
    pub fn hot_requests(&self) -> u64 {
        (self.n_files() as u64 / 100).max(1)
    }
}

/// The sizes of a generated release's files: log-uniform draws in file
/// order, rescaled to the target total.
fn file_sizes(cfg: CatalogConfig, seed: u64) -> Vec<u64> {
    assert!(cfg.n_files > 0, "empty catalog");
    assert!(
        cfg.min_file > 0 && cfg.max_file >= cfg.min_file,
        "bad size bounds"
    );
    let mut rng = SimRng::new(seed);
    let dist = LogUniform::new(cfg.min_file as f64, cfg.max_file as f64);
    let mut sizes: Vec<u64> = (0..cfg.n_files)
        .map(|_| dist.sample(&mut rng).round() as u64)
        .collect();
    let raw_total: u64 = sizes.iter().sum();
    let scale = cfg.total_bytes as f64 / raw_total as f64;
    for size in &mut sizes {
        *size = ((*size as f64 * scale).round() as u64).max(1);
    }
    sizes
}

/// What a release costs a cache — file count and total bytes — without
/// the per-file names of a [`ReleaseCatalog`]. A master only needs
/// these two figures, and one name string per file made building a
/// master allocation-bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReleaseFootprint {
    n_files: u64,
    total_bytes: u64,
}

impl ReleaseFootprint {
    /// The footprint of `ReleaseCatalog::generate(_, cfg, seed)`.
    pub fn generate(cfg: CatalogConfig, seed: u64) -> Self {
        let sizes = file_sizes(cfg, seed);
        ReleaseFootprint {
            n_files: sizes.len() as u64,
            total_bytes: sizes.iter().sum(),
        }
    }

    /// The footprint of [`ReleaseCatalog::cmssw_default`].
    pub fn cmssw_default(seed: u64) -> Self {
        Self::generate(CatalogConfig::default(), seed)
    }

    /// Total release size in bytes (the cold cache fill volume).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes a *hot* cache still transfers per task: catalog revalidation
    /// plus the Frontier conditions payload — a small, fixed cost.
    pub fn hot_bytes(&self) -> u64 {
        // ~1% of file count in metadata requests of ~4 kB plus ~8 MB of
        // conditions data: tuned so hot setup is minutes, not hours.
        (self.n_files / 100) * 4 * KB + 8 * MB
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::units::GB;

    #[test]
    fn generation_is_deterministic() {
        let a = ReleaseCatalog::cmssw_default(7);
        let b = ReleaseCatalog::cmssw_default(7);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.files()[17].size, b.files()[17].size);
        let c = ReleaseCatalog::cmssw_default(8);
        assert_ne!(a.files()[17].size, c.files()[17].size);
    }

    #[test]
    fn total_close_to_target() {
        let cat = ReleaseCatalog::cmssw_default(1);
        let target = 1_500 * MB;
        let diff = cat.total_bytes().abs_diff(target);
        assert!(
            diff < target / 100,
            "total {} vs target {target}",
            cat.total_bytes()
        );
    }

    #[test]
    fn sizes_within_rough_bounds() {
        let cat = ReleaseCatalog::cmssw_default(2);
        assert!(cat.files().iter().all(|f| f.size >= 1));
        // After rescaling, no file should exceed ~2x the configured max.
        assert!(cat.files().iter().all(|f| f.size < 64 * MB));
        assert_eq!(cat.n_files(), 4_000);
    }

    #[test]
    fn hot_is_much_cheaper_than_cold() {
        let cat = ReleaseCatalog::cmssw_default(3);
        assert!(cat.hot_bytes() * 50 < cat.total_bytes());
        assert!(cat.hot_requests() * 10 < cat.cold_requests());
    }

    #[test]
    fn custom_config_respected() {
        let cfg = CatalogConfig {
            n_files: 100,
            total_bytes: GB,
            min_file: KB,
            max_file: MB,
        };
        let cat = ReleaseCatalog::generate("tiny", cfg, 4);
        assert_eq!(cat.n_files(), 100);
        let diff = cat.total_bytes().abs_diff(GB);
        assert!(diff < GB / 50);
    }

    #[test]
    fn footprint_matches_the_generated_catalog() {
        let tiny = CatalogConfig {
            n_files: 100,
            total_bytes: GB,
            min_file: KB,
            max_file: MB,
        };
        for seed in [0, 1, 7, 0xCAFE, u64::MAX] {
            let cat = ReleaseCatalog::cmssw_default(seed);
            let fp = ReleaseFootprint::cmssw_default(seed);
            assert_eq!(fp, cat.footprint(), "seed {seed}");
            assert_eq!(fp.total_bytes(), cat.total_bytes());
            assert_eq!(fp.hot_bytes(), cat.hot_bytes());
            assert_eq!(
                ReleaseFootprint::generate(tiny, seed),
                ReleaseCatalog::generate("tiny", tiny, seed).footprint()
            );
        }
        // Totals the catalog generator produced before the footprint
        // existed: a master's cold and hot fetch sizes must not move.
        for (seed, total) in [(7, 1_499_999_973), (0xCAFE ^ 1, 1_499_999_987)] {
            let fp = ReleaseFootprint::cmssw_default(seed);
            assert_eq!((fp.total_bytes(), fp.hot_bytes()), (total, 8_160_000));
        }
    }

    #[test]
    #[should_panic(expected = "empty catalog")]
    fn rejects_zero_files() {
        ReleaseCatalog::generate(
            "x",
            CatalogConfig {
                n_files: 0,
                ..CatalogConfig::default()
            },
            1,
        );
    }
}
