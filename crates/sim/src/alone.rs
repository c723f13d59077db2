//! Alone-run baselines: the slowdown denominators, and the cache that
//! shares them.
//!
//! A thread's slowdown divides its alone IPC by its shared IPC. The
//! alone IPC depends only on the machine (run with one thread), the
//! horizon and the benchmark profile — never on the policy, the
//! co-runners or the seed axis — so [`AloneIpcCache`] simulates each
//! [`AloneKey`] once and hands the result to every sweep that asks:
//! within a [`Session`](crate::Session), across sessions sharing one
//! cache (the `tcm-serve` daemon shares one across all of its jobs),
//! and, with a store directory, across process lifetimes.
//!
//! Lookups are single-flight: concurrent misses on one key simulate it
//! once; the other callers wait for that result.
//!
//! # The store
//!
//! [`AloneIpcCache::with_store`] persists every computed entry as one
//! small file, `<dir>/<16 hex digits of FNV-1a(key)>.alone`:
//!
//! ```text
//! tcm-alone-v1
//! build tcm-sim 0.3.0
//! key AloneKey { system: SystemConfig { .. }, horizon: .., profile: .. }
//! ipc_bits 4613937818241073152
//! check 0123456789abcdef
//! ```
//!
//! `check` is the FNV-1a of the four lines above it. Entries are read
//! lazily, on a memory miss, and written when computed, each published
//! whole through [`write_durable`] (an entry is one file, not an append
//! log, so no torn-tail rule applies). An entry is trusted only if it
//! re-renders byte for byte from its own `ipc_bits` and the key being
//! looked up. Anything else — a truncated file, a flipped bit, another
//! key's entry, another build's entry — is counted as corrupt,
//! recomputed and republished.

use crate::durable::write_durable;
use crate::runner::{fnv1a, PolicyKind, RunConfig};
use crate::sweep::run_cell;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use tcm_types::{Cycle, SystemConfig};
use tcm_workload::{BenchmarkProfile, TraceGenerator, WorkloadSpec};

/// Schema tag: the first line of every store entry.
const SCHEMA: &str = "tcm-alone-v1";
/// Build tag: an entry written by another build is never trusted.
const BUILD: &str = concat!("tcm-sim ", env!("CARGO_PKG_VERSION"));

/// Exact identity of a benchmark profile for alone-IPC caching.
///
/// The fingerprint stores the profile's name and the exact values of
/// its three characteristics (float bit patterns included), so distinct
/// profiles can never collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProfileFingerprint {
    name: String,
    mpki_bits: u64,
    rbl_bits: u64,
    blp_bits: u64,
}

impl ProfileFingerprint {
    /// Fingerprint of `profile`.
    pub fn of(profile: &BenchmarkProfile) -> Self {
        Self {
            name: profile.name.clone(),
            mpki_bits: profile.mpki.to_bits(),
            rbl_bits: profile.rbl.to_bits(),
            blp_bits: profile.blp.to_bits(),
        }
    }
}

/// Everything [`compute_alone_ipc`] reads, and nothing else: the
/// machine with `num_threads = 1` (so sessions that differ only in
/// thread count share entries), the horizon, and the profile.
/// [`RunConfig::intra_hosts`] is left out because the engine ignores it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct AloneKey {
    system: SystemConfig,
    horizon: Cycle,
    profile: ProfileFingerprint,
}

impl AloneKey {
    /// The key of `profile` running alone on `rc`'s machine.
    pub(crate) fn new(profile: &BenchmarkProfile, rc: &RunConfig) -> Self {
        let mut system = rc.system.clone();
        system.num_threads = 1;
        Self {
            system,
            horizon: rc.horizon,
            profile: ProfileFingerprint::of(profile),
        }
    }
}

/// IPC of memory-bound `profile` running alone on `rc`'s machine,
/// simulated (uncached) through the sweep's engine entry. The policy is
/// irrelevant with a single thread, so FR-FCFS is used. Only the
/// machine and horizon come from `rc`: the run takes the builder's
/// defaults (default watchdog; no chaos, verification, deadline or
/// telemetry) whatever `rc` sets for the shared runs.
fn compute_alone_ipc(profile: &BenchmarkProfile, rc: &RunConfig) -> f64 {
    let mut system = rc.system.clone();
    system.num_threads = 1;
    let alone = RunConfig::builder().system(system).horizon(rc.horizon).build();
    let workload = WorkloadSpec::new(profile.name.clone(), vec![profile.clone()]);
    let (run, _) = run_cell(&PolicyKind::FrFcfs, &workload, &alone, 0, None, None, None)
        .expect("alone-run simulation failed");
    run.ipc[0]
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    /// One caller is loading or simulating this key; others wait.
    Pending,
    Ready(f64),
}

/// Thread-safe, single-flight cache of alone-run IPCs, optionally backed
/// by an on-disk store (see [`AloneIpcCache::with_store`]).
///
/// A [`Session`](crate::Session) owns a private one by default; share
/// one between sessions with
/// [`Session::with_alone_cache`](crate::Session::with_alone_cache). The
/// counters make cache behavior observable (and testable): a repeated
/// key misses exactly once and hits on every later lookup.
#[derive(Debug, Default)]
pub struct AloneIpcCache {
    slots: Mutex<HashMap<AloneKey, Slot>>,
    filled: Condvar,
    store: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl AloneIpcCache {
    /// A cache that persists entries under `dir` (created on the first
    /// write) and falls back to it on a memory miss. Opening reads
    /// nothing.
    ///
    /// Each entry is one file, `<dir>/<FNV-1a of the key, 16 hex
    /// digits>.alone`, holding a schema tag, a build tag, the full key,
    /// the IPC as `ipc_bits` and a check line. An entry is trusted only
    /// if it is exactly what this build writes for the key looked up;
    /// anything else (truncated, bit-flipped, another key's or another
    /// build's) counts in [`AloneIpcCache::corrupt`], is recomputed and
    /// republished.
    pub fn with_store(dir: impl Into<PathBuf>) -> Self {
        Self {
            store: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Number of alone-run IPCs held in memory.
    pub fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Whether nothing is held in memory yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from memory (including callers that waited for
    /// a concurrent lookup of the same key).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups answered from a valid store entry.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the alone simulation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Store entries found but not trusted (then recomputed and
    /// republished).
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<AloneKey, Slot>> {
        // No slot update can be left half done by a panic, so a poisoned
        // map is still consistent.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The alone IPC of `profile` on `rc`'s machine, and whether this
    /// call ran the simulation to get it.
    ///
    /// A compute-only profile retires at the issue width by construction,
    /// so it bypasses the cache: nothing is simulated, counted or stored.
    pub(crate) fn get_or_compute(&self, profile: &BenchmarkProfile, rc: &RunConfig) -> (f64, bool) {
        if TraceGenerator::is_compute_only(profile) {
            return (rc.system.issue_width as f64, false);
        }
        let key = AloneKey::new(profile, rc);
        let mut slots = self.lock();
        loop {
            match slots.get(&key) {
                Some(&Slot::Ready(ipc)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (ipc, false);
                }
                Some(Slot::Pending) => {
                    slots = self
                        .filled
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => break,
            }
        }
        slots.insert(key.clone(), Slot::Pending);
        drop(slots);

        let claim = Claim {
            cache: self,
            key: &key,
        };
        let entry = self.store.as_ref().map(|dir| {
            let text = format!("{key:?}");
            (
                dir.join(format!("{:016x}.alone", fnv1a(text.as_bytes()))),
                text,
            )
        });
        if let Some(ipc) = entry
            .as_ref()
            .and_then(|(path, text)| self.load(path, text))
        {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            claim.fill(ipc);
            return (ipc, false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let ipc = compute_alone_ipc(profile, rc);
        claim.fill(ipc);
        if let Some((path, text)) = entry {
            if let Err(err) = persist(&path, &text, ipc) {
                eprintln!(
                    "warning: could not persist alone baseline {}: {err}",
                    path.display()
                );
            }
        }
        (ipc, true)
    }

    /// Reads the store entry at `path` for the key rendered as
    /// `key_text`: `None` if there is none or it is not trusted (the
    /// latter counted as corrupt).
    fn load(&self, path: &Path, key_text: &str) -> Option<f64> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return None,
            // Unreadable: as untrusted as an empty file.
            Err(_) => Vec::new(),
        };
        let ipc = String::from_utf8(bytes)
            .ok()
            .and_then(|text| parse_entry(&text, key_text));
        if ipc.is_none() {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
        ipc
    }
}

/// A caller's claim on a [`Slot::Pending`] key. Filling it publishes the
/// IPC and wakes the waiters; dropping it unfilled (the simulation
/// panicked) removes the slot, so a waiter takes the claim over instead
/// of waiting forever.
struct Claim<'c> {
    cache: &'c AloneIpcCache,
    key: &'c AloneKey,
}

impl Claim<'_> {
    fn fill(self, ipc: f64) {
        self.cache.lock().insert(self.key.clone(), Slot::Ready(ipc));
        self.cache.filled.notify_all();
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.lock().remove(self.key);
        self.cache.filled.notify_all();
    }
}

/// The store entry for `key_text` holding `ipc` (see the module docs).
pub fn render_entry(key_text: &str, ipc: f64) -> String {
    let body = format!(
        "{SCHEMA}\nbuild {BUILD}\nkey {key_text}\nipc_bits {}\n",
        ipc.to_bits()
    );
    let check = fnv1a(body.as_bytes());
    format!("{body}check {check:016x}\n")
}

/// The IPC an entry holds, if it is exactly the entry
/// [`render_entry`] writes for `key_text`.
pub fn parse_entry(text: &str, key_text: &str) -> Option<f64> {
    let bits = text
        .lines()
        .nth(3)?
        .strip_prefix("ipc_bits ")?
        .parse()
        .ok()?;
    let ipc = f64::from_bits(bits);
    (render_entry(key_text, ipc) == text).then_some(ipc)
}

fn persist(path: &Path, key_text: &str, ipc: f64) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    write_durable(path, &render_entry(key_text, ipc))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_trusted_only_when_whole_and_for_their_own_key() {
        let ipc = 1.234_567_890_123_f64;
        let entry = render_entry("key-a", ipc);
        assert_eq!(parse_entry(&entry, "key-a"), Some(ipc));
        assert_eq!(parse_entry(&entry, "key-b"), None, "another key");
        assert_eq!(
            parse_entry(&entry[..entry.len() - 3], "key-a"),
            None,
            "truncated"
        );
        // Any single flipped bit is caught, whether it lands in the IPC
        // digits (still a valid number, so only the check line can tell)
        // or anywhere else.
        for i in 0..entry.len() {
            let mut bytes = entry.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert_eq!(parse_entry(&flipped, "key-a"), None, "bit flip at byte {i}");
            }
        }
    }
}
