//! Deterministic fault injection for the block store's I/O layer.
//!
//! [`StoreFile`] wraps the positional file I/O the store performs
//! (`read_exact_at` / `write_all_at` / `sync_data`) and tags every call with a
//! **failpoint site** — a static string naming the logical operation the store
//! is doing (`"gen.append_write"`, `"manifest.sync"`, ...; the full list lives
//! in [`crate::blockstore`]'s module docs). An optional [`FaultInjector`],
//! shared by all of one store's files, can be armed to misbehave at any site:
//!
//! * [`FaultAction::Transient`] — fail the next N hits with
//!   [`std::io::ErrorKind::Interrupted`], then behave normally. Models
//!   EINTR-style blips; the store's bounded retry is expected to absorb them.
//! * [`FaultAction::Torn`] — write only the first `keep` bytes of the payload,
//!   then enter crash-stop. Models power loss in the middle of a `pwrite`.
//! * [`FaultAction::Crash`] — skip the operation entirely and enter
//!   crash-stop. Models power loss immediately before the operation.
//!
//! **Crash-stop is sticky**: once entered, every later I/O through the
//! injector fails, so nothing "after the power cut" can reach the disk —
//! including the store's own best-effort drop-time checkpoint. Reopening the
//! path with a fresh store (and no injector, or a fresh one) is the simulated
//! reboot.
//!
//! The injector records the ordered set of distinct sites it has seen, with a
//! hit count each, so the crash-point matrix test (`tests/fault_injection.rs`)
//! can *discover* every failpoint from a passive run and then enumerate a crash
//! at each one, and a test can count the `fsync`s a durability mode issues. All
//! injection decisions are deterministic; the seed only drives the helper RNG
//! ([`FaultInjector::next_u64`]) tests use to derive torn-write cut points and
//! fuzz corruptions.

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What an armed failpoint does when its site is next hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the next `times` hits with [`std::io::ErrorKind::Interrupted`],
    /// then succeed. The store's bounded retry turns a short burst into a
    /// counted, invisible recovery; a long burst surfaces as an error.
    Transient {
        /// How many consecutive hits fail before the site heals.
        times: u32,
    },
    /// On the next *write* at this site, persist only the first `keep` bytes
    /// of the payload, then enter crash-stop (the write itself reports
    /// failure — a real power cut never returns to the caller). On non-write
    /// operations this degrades to [`FaultAction::Crash`].
    Torn {
        /// Prefix length actually written; clamped to the payload length.
        keep: usize,
    },
    /// Skip the operation and enter crash-stop: this and every later I/O
    /// through the injector fails.
    Crash,
}

/// Outcome of consulting the injector at a site (internal).
enum Check {
    /// No fault armed: perform the real operation.
    Proceed,
    /// Write this prefix length, then fail (crash-stop already entered).
    Torn(usize),
    /// Fail with this error without touching the file.
    Fail(io::Error),
}

/// A seeded, deterministic fault plan shared by all files of one store.
///
/// Construct with [`FaultInjector::new`], pass to
/// [`crate::BlockStore::create_opts`] / [`crate::BlockStore::reopen_opts`],
/// and arm sites with [`FaultInjector::arm`]. See the module docs for
/// semantics.
#[derive(Debug)]
pub struct FaultInjector {
    rng: Mutex<u64>,
    crashed: AtomicBool,
    plans: Mutex<HashMap<&'static str, FaultAction>>,
    sites: Mutex<Vec<(&'static str, u64)>>,
}

impl FaultInjector {
    /// A fresh injector with nothing armed. `seed` drives only the helper RNG.
    pub fn new(seed: u64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            rng: Mutex::new(seed | 1),
            crashed: AtomicBool::new(false),
            plans: Mutex::new(HashMap::new()),
            sites: Mutex::new(Vec::new()),
        })
    }

    /// Arm `site` with `action`, replacing any previous plan for that site.
    pub fn arm(&self, site: &'static str, action: FaultAction) {
        self.plans
            .lock()
            .expect("fault plan lock poisoned")
            .insert(site, action);
    }

    /// Has the injector entered crash-stop (torn write performed or crash
    /// triggered)? After this, every I/O through the injector fails.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Ordered distinct failpoint sites this injector has seen so far — the
    /// crash-point matrix test discovers the failpoint inventory from this.
    pub fn sites_hit(&self) -> Vec<&'static str> {
        let sites = self.sites.lock().expect("fault site lock poisoned");
        sites.iter().map(|(site, _)| *site).collect()
    }

    /// How many times `site` has been reached so far (faulted hits and the
    /// retries they cause included).
    pub fn hits(&self, site: &str) -> u64 {
        let sites = self.sites.lock().expect("fault site lock poisoned");
        sites
            .iter()
            .find(|(seen, _)| *seen == site)
            .map_or(0, |(_, hits)| *hits)
    }

    /// Deterministic xorshift64* step — the only use of the seed. Tests use it
    /// to derive torn-write cut points and fuzz corruption offsets.
    pub fn next_u64(&self) -> u64 {
        let mut state = self.rng.lock().expect("fault rng lock poisoned");
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn crash_error(site: &'static str) -> io::Error {
        io::Error::other(format!("fault injection: crash-stop (at failpoint {site})"))
    }

    /// Consult the plan at `site`, recording the hit.
    fn check(&self, site: &'static str) -> Check {
        {
            let mut sites = self.sites.lock().expect("fault site lock poisoned");
            match sites.iter_mut().find(|(seen, _)| *seen == site) {
                Some((_, hits)) => *hits += 1,
                None => sites.push((site, 1)),
            }
        }
        if self.crashed() {
            return Check::Fail(FaultInjector::crash_error(site));
        }
        let mut plans = self.plans.lock().expect("fault plan lock poisoned");
        match plans.get_mut(site) {
            None => Check::Proceed,
            Some(FaultAction::Transient { times }) => {
                if *times > 1 {
                    *times -= 1;
                } else {
                    plans.remove(site);
                }
                Check::Fail(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("fault injection: transient error (at failpoint {site})"),
                ))
            }
            Some(FaultAction::Torn { keep }) => {
                let keep = *keep;
                self.crashed.store(true, Ordering::SeqCst);
                Check::Torn(keep)
            }
            Some(FaultAction::Crash) => {
                self.crashed.store(true, Ordering::SeqCst);
                Check::Fail(FaultInjector::crash_error(site))
            }
        }
    }
}

/// Consult an optional injector at a site that is not a file operation (e.g.
/// the checkpoint's `rename`). `Torn` degrades to `Crash` here.
pub(crate) fn failpoint(faults: &Option<Arc<FaultInjector>>, site: &'static str) -> io::Result<()> {
    let Some(injector) = faults else {
        return Ok(());
    };
    match injector.check(site) {
        Check::Proceed => Ok(()),
        Check::Torn(_) => Err(FaultInjector::crash_error(site)),
        Check::Fail(err) => Err(err),
    }
}

/// A positional-I/O file handle with named failpoints: the unit every
/// generation file and the manifest go through inside
/// [`crate::BlockStore`]. Without an injector attached it is a zero-cost
/// veneer over [`std::os::unix::fs::FileExt`].
#[derive(Debug, Clone)]
pub struct StoreFile {
    pub(crate) file: Arc<File>,
    faults: Option<Arc<FaultInjector>>,
}

impl StoreFile {
    /// Wrap `file`, routing every call through `faults` when present.
    pub fn new(file: File, faults: Option<Arc<FaultInjector>>) -> StoreFile {
        StoreFile {
            file: Arc::new(file),
            faults,
        }
    }

    /// The wrapped file, bypassing injection — an escape hatch for tests that
    /// need to corrupt bytes behind the store's back.
    pub fn raw(&self) -> &File {
        &self.file
    }

    fn check(&self, site: &'static str) -> Check {
        match &self.faults {
            None => Check::Proceed,
            Some(injector) => injector.check(site),
        }
    }

    /// `read_exact_at` through the failpoint at `site`.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64, site: &'static str) -> io::Result<()> {
        match self.check(site) {
            Check::Proceed => self.file.read_exact_at(buf, offset),
            Check::Torn(_) => Err(FaultInjector::crash_error(site)),
            Check::Fail(err) => Err(err),
        }
    }

    /// `write_all_at` through the failpoint at `site`. A [`FaultAction::Torn`]
    /// plan persists only the armed prefix and reports failure.
    pub fn write_all_at(&self, buf: &[u8], offset: u64, site: &'static str) -> io::Result<()> {
        match self.check(site) {
            Check::Proceed => self.file.write_all_at(buf, offset),
            Check::Torn(keep) => {
                let keep = keep.min(buf.len());
                // The torn prefix really reaches the file — that is the point.
                self.file.write_all_at(&buf[..keep], offset)?;
                Err(FaultInjector::crash_error(site))
            }
            Check::Fail(err) => Err(err),
        }
    }

    /// `sync_data` through the failpoint at `site`.
    pub fn sync_data(&self, site: &'static str) -> io::Result<()> {
        match self.check(site) {
            Check::Proceed => self.file.sync_data(),
            Check::Torn(_) => Err(FaultInjector::crash_error(site)),
            Check::Fail(err) => Err(err),
        }
    }

    /// `sync_all` through the failpoint at `site` (used for the
    /// parent-directory fsync of the checkpoint commit point).
    pub fn sync_all(&self, site: &'static str) -> io::Result<()> {
        match self.check(site) {
            Check::Proceed => self.file.sync_all(),
            Check::Torn(_) => Err(FaultInjector::crash_error(site)),
            Check::Fail(err) => Err(err),
        }
    }

    /// `set_len` through the failpoint at `site`.
    pub fn set_len(&self, len: u64, site: &'static str) -> io::Result<()> {
        match self.check(site) {
            Check::Proceed => self.file.set_len(len),
            Check::Torn(_) => Err(FaultInjector::crash_error(site)),
            Check::Fail(err) => Err(err),
        }
    }

    /// `metadata` of the wrapped file (no failpoint: metadata reads are not an
    /// interesting crash surface).
    pub fn metadata(&self) -> io::Result<std::fs::Metadata> {
        self.file.metadata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file() -> File {
        tempfile_in(std::env::temp_dir())
    }

    fn tempfile_in(dir: std::path::PathBuf) -> File {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = dir.join(format!(
            "faults-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create temp file");
        std::fs::remove_file(&path).expect("unlink temp file");
        file
    }

    #[test]
    fn unarmed_injector_passes_io_through_and_records_sites() {
        let injector = FaultInjector::new(7);
        let file = StoreFile::new(temp_file(), Some(Arc::clone(&injector)));
        file.write_all_at(b"hello", 0, "site.a").unwrap();
        let mut buf = [0u8; 5];
        file.read_exact_at(&mut buf, 0, "site.b").unwrap();
        assert_eq!(&buf, b"hello");
        file.sync_data("site.a").unwrap();
        assert_eq!(injector.sites_hit(), vec!["site.a", "site.b"]);
        assert!(!injector.crashed());
    }

    #[test]
    fn transient_fault_heals_after_armed_count() {
        let injector = FaultInjector::new(7);
        injector.arm("w", FaultAction::Transient { times: 2 });
        let file = StoreFile::new(temp_file(), Some(Arc::clone(&injector)));
        for _ in 0..2 {
            let err = file.write_all_at(b"x", 0, "w").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        }
        file.write_all_at(b"x", 0, "w").unwrap();
        assert!(!injector.crashed());
    }

    #[test]
    fn torn_write_persists_prefix_then_crash_stops() {
        let injector = FaultInjector::new(7);
        injector.arm("w", FaultAction::Torn { keep: 3 });
        let file = StoreFile::new(temp_file(), Some(Arc::clone(&injector)));
        assert!(file.write_all_at(b"abcdef", 0, "w").is_err());
        assert!(injector.crashed());
        // the prefix reached the file ...
        let mut buf = [0u8; 3];
        file.raw().read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"abc");
        // ... and everything afterwards fails, any site
        assert!(file.read_exact_at(&mut buf, 0, "other").is_err());
        assert!(file.sync_data("w").is_err());
    }

    #[test]
    fn crash_action_skips_the_operation() {
        let injector = FaultInjector::new(7);
        injector.arm("w", FaultAction::Crash);
        let file = StoreFile::new(temp_file(), Some(Arc::clone(&injector)));
        assert!(file.write_all_at(b"abc", 0, "w").is_err());
        assert_eq!(file.metadata().unwrap().len(), 0, "write never happened");
        assert!(injector.crashed());
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = FaultInjector::new(42);
        let b = FaultInjector::new(42);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }
}
