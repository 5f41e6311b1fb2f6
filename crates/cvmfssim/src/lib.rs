//! # cvmfssim — scalable software delivery (CVMFS + Parrot + Squid)
//!
//! HEP applications need a multi-gigabyte software stack that opportunistic
//! nodes do not have. The paper delivers it on demand through the CernVM
//! File System, accessed without root via Parrot, with Squid proxies
//! caching the HTTP traffic (§4.3). The observed economics:
//!
//! * a *cold* worker cache pulls ≈ 1.5 GB before the first task can run;
//! * a *hot* cache re-validates cheaply, so "one proxy is able to sustain
//!   about 1000 workers before performance begins to suffer" (Figure 5);
//! * naive cache sharing serialises cold startups behind a single write
//!   lock, while the *alien cache* lets all Parrot instances populate
//!   concurrently (Figure 6 modes (a)–(e)).
//!
//! Modules:
//! * [`catalog`] — synthetic CMSSW-release catalogs: file inventory, sizes,
//!   per-job working sets (a hot cache also pays a fixed Frontier
//!   conditions payload per task).
//! * [`squid`] — a proxy as a fair-shared pipe with a per-client rate cap
//!   and a load-dependent timeout/failure model.
//! * [`parrot`] — the client cache: per-worker cache state and the five
//!   sharing modes of Figure 6 with their serialisation semantics.

pub mod catalog;
pub mod parrot;
pub mod squid;

pub use catalog::ReleaseCatalog;
pub use parrot::{CacheMode, CacheState, SetupPlan};
pub use squid::{Squid, SquidConfig};
