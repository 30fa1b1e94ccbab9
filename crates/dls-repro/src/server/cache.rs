//! Content-addressed result cache with single-flight coalescing and
//! corruption quarantine.
//!
//! A campaign result is a pure function of its [`JournalMeta::cache_key`](crate::journal::JournalMeta::cache_key)
//! — (command, fingerprint, seed, git rev) — so the cache can hand back the
//! exact response bytes of an earlier computation. Entries live in memory
//! for the server's lifetime and are persisted to `dir/<hash>.json`
//! through the fail-soft [`ArtifactSink`] seam (atomic tmp+fsync+rename,
//! bounded retries, an injectable [`HostIo`] so `repro chaos serve` can
//! crash-exhaust the writes): a crashed server restarts **warm** by
//! re-reading the directory, and a full disk degrades persistence without
//! failing the request — the result still serves from memory.
//!
//! Concurrent requests for one key are **coalesced**: the first becomes
//! the *leader* and computes; the rest wait on the leader's flight and are
//! answered from the fresh entry, so N identical submissions cost one
//! computation. An entry file is one line `{schema, key, body}` sealed by
//! the [`record`] codec — the journal's format and integrity rule — named
//! by the codec's [`key_stem`] of the key, which is verified on load: a
//! hash collision, a renamed file, a torn write or a bit-flipped disk can
//! at worst miss, never serve the wrong bytes.
//!
//! **Quarantine:** an entry that fails its seal, names another schema or
//! does not match its file name, found during the warm load, is *moved* into
//! `dir/quarantine/` — never deleted, so the evidence survives for
//! forensics — counted (`serve.cache_quarantined`), and the key simply
//! misses: the next request recomputes and rewrites a good entry. A
//! corrupt disk degrades to a cold start, not a wrong answer or a crash.

use crate::artifacts::{ArtifactSink, ArtifactTier};
use crate::record::{self, key_stem};
use dls_chaos::{HostIo, RealIo, RetryPolicy};
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Schema tag of on-disk cache entries; bump on breaking layout changes.
pub const SCHEMA: &str = "dls-cache/2";

/// Subdirectory corrupt entries are moved into (never deleted).
pub const QUARANTINE_DIR: &str = "quarantine";

/// What [`ResultCache::begin`] resolved a key to.
pub enum Begin {
    /// The result was already cached (or a coalesced leader finished it).
    Hit(Arc<String>),
    /// This request is the leader: compute, then call
    /// [`ResultCache::complete`] or [`ResultCache::fail`].
    Lead,
    /// A coalesced leader failed; carries its error message.
    LeaderFailed(String),
}

#[derive(Default)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Default)]
enum FlightState {
    #[default]
    Running,
    Done(Arc<String>),
    Failed(String),
}

#[derive(Default)]
struct CacheState {
    entries: HashMap<String, Arc<String>>,
    flights: HashMap<String, Arc<Flight>>,
}

/// The result cache; see the module docs.
pub struct ResultCache {
    dir: PathBuf,
    sink: ArtifactSink,
    io: Arc<dyn HostIo>,
    retry: RetryPolicy,
    quarantined: AtomicU64,
    state: Mutex<CacheState>,
}

impl ResultCache {
    /// Opens the cache over `dir` with real host I/O and the standard
    /// retry policy; see [`ResultCache::open_with_io`].
    pub fn open(dir: &Path) -> std::io::Result<ResultCache> {
        ResultCache::open_with_io(dir, Arc::new(RealIo), RetryPolicy::standard())
    }

    /// Opens the cache over `dir`, creating it if needed and loading every
    /// valid persisted entry (warm restart). An entry that fails any
    /// integrity check — unreadable, a failed seal, wrong schema, wrong
    /// key-to-name digest — is quarantined into
    /// [`QUARANTINE_DIR`] and
    /// counted; the key misses and recomputes. Persistence writes go
    /// through `io` under `retry` (the chaos-injection seam).
    pub fn open_with_io(
        dir: &Path,
        io: Arc<dyn HostIo>,
        retry: RetryPolicy,
    ) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let cache = ResultCache {
            dir: dir.to_path_buf(),
            sink: ArtifactSink::new(),
            io,
            retry,
            quarantined: AtomicU64::new(0),
            state: Mutex::new(CacheState::default()),
        };
        let mut warmed = 0usize;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            match load_entry(&path) {
                Some((key, body)) => {
                    let mut state = cache.state.lock().unwrap_or_else(|e| e.into_inner());
                    state.entries.insert(key, Arc::new(body));
                    warmed += 1;
                }
                None => cache.quarantine(&path),
            }
        }
        if warmed > 0 {
            crate::errln!("cache: restarted warm with {warmed} persisted result(s)");
        }
        Ok(cache)
    }

    /// Number of cached results currently in memory.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries quarantined since this cache was opened.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Labels of persistence writes that degraded (fail-soft failures);
    /// non-empty means warm restarts are currently incomplete — the
    /// readiness probe reports the cache tier degraded.
    pub fn degraded(&self) -> Vec<String> {
        self.sink.degraded()
    }

    /// Moves a corrupt or foreign entry into the quarantine subdirectory
    /// (creating it lazily) and counts it. The file is renamed, never
    /// deleted: the corrupt bytes stay available for inspection. A failed
    /// move leaves the file in place — it still will not load.
    fn quarantine(&self, path: &Path) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let file = path.file_name().map(|n| n.to_os_string()).unwrap_or_else(|| "entry".into());
        let moved =
            std::fs::create_dir_all(&qdir).and_then(|()| std::fs::rename(path, qdir.join(&file)));
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        match moved {
            Ok(()) => crate::errln!(
                "warning: {}: failed {SCHEMA} integrity checks — quarantined to {}",
                path.display(),
                qdir.display()
            ),
            Err(e) => crate::errln!(
                "warning: {}: failed {SCHEMA} integrity checks (quarantine move failed: {e})",
                path.display()
            ),
        }
    }

    /// Resolves `key`: an immediate hit, leadership of a new flight, or —
    /// after blocking on another request's in-progress flight — the
    /// leader's result or failure.
    pub fn begin(&self, key: &str) -> Begin {
        let flight = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(body) = state.entries.get(key) {
                return Begin::Hit(Arc::clone(body));
            }
            match state.flights.get(key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    state.flights.insert(key.to_string(), Arc::new(Flight::default()));
                    return Begin::Lead;
                }
            }
        };
        // Coalesced: wait for the leader to finish.
        let mut fs = flight.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*fs {
                FlightState::Done(body) => return Begin::Hit(Arc::clone(body)),
                FlightState::Failed(msg) => return Begin::LeaderFailed(msg.clone()),
                FlightState::Running => {
                    fs = flight.done.wait(fs).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Completes the flight for `key` with `body`: publishes the entry in
    /// memory, persists it fail-soft through the [`ArtifactSink`] seam,
    /// and wakes every coalesced waiter.
    pub fn complete(&self, key: &str, body: String) -> Arc<String> {
        let body = Arc::new(body);
        let path = self.dir.join(format!("{}.json", key_stem(key)));
        let rendered = entry_line(key, &body);
        // Secondary tier: a persistence failure degrades the warm-restart
        // guarantee, never the response — the entry still serves from
        // memory for the server's lifetime.
        let _ = self.sink.write_with(
            ArtifactTier::Secondary,
            &*self.io,
            self.retry,
            &path,
            rendered.as_bytes(),
        );

        let flight = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.entries.insert(key.to_string(), Arc::clone(&body));
            state.flights.remove(key)
        };
        if let Some(flight) = flight {
            let mut fs = flight.state.lock().unwrap_or_else(|e| e.into_inner());
            *fs = FlightState::Done(Arc::clone(&body));
            drop(fs);
            flight.done.notify_all();
        }
        body
    }

    /// Fails the flight for `key`, propagating `message` to every
    /// coalesced waiter. The key stays uncached, so a later request
    /// retries the computation.
    pub fn fail(&self, key: &str, message: String) {
        let flight = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.flights.remove(key)
        };
        if let Some(flight) = flight {
            let mut fs = flight.state.lock().unwrap_or_else(|e| e.into_inner());
            *fs = FlightState::Failed(message);
            drop(fs);
            flight.done.notify_all();
        }
    }
}

/// The sealed entry line persisted for `key`.
fn entry_line(key: &str, body: &str) -> String {
    let entry = Value::Object(vec![
        ("schema".into(), Value::String(SCHEMA.into())),
        ("key".into(), Value::String(key.to_string())),
        ("body".into(), Value::String(body.to_string())),
    ]);
    record::seal(&serde_json::to_string(&entry).expect("cache entry serialization"))
}

/// Reads one persisted entry, returning `(key, body)` if it unseals, names
/// the current schema, and sits under its key's file name.
pub(crate) fn load_entry(path: &Path) -> Option<(String, String)> {
    let value = record::decode(&std::fs::read(path).ok()?)?;
    if value.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return None;
    }
    let key = value.get("key").and_then(Value::as_str)?.to_string();
    let body = value.get("body").and_then(Value::as_str)?.to_string();
    // The file name is the digest of the key; verify so a renamed or
    // colliding file cannot answer for a different campaign.
    if path.file_stem().and_then(|s| s.to_str()) != Some(&key_stem(&key)) {
        return None;
    }
    Some((key, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dls-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let dir = tmp_dir("rt");
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert!(matches!(cache.begin("k1"), Begin::Lead));
        let body = cache.complete("k1", "a,b\n1,2\n".into());
        match cache.begin("k1") {
            Begin::Hit(hit) => assert_eq!(hit, body),
            _ => panic!("expected a hit after complete"),
        }
        assert_eq!(cache.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restarts_warm_from_disk_byte_identically() {
        let dir = tmp_dir("warm");
        let body = "technique,p\nFAC,2\nvalue with \"quotes\" and\nnewlines\n";
        {
            let cache = ResultCache::open(&dir).unwrap();
            assert!(matches!(cache.begin("key A"), Begin::Lead));
            cache.complete("key A", body.into());
        }
        // A fresh cache over the same directory serves the same bytes.
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.quarantined(), 0);
        match cache.begin("key A") {
            Begin::Hit(hit) => assert_eq!(*hit, body, "persisted bytes must round-trip"),
            _ => panic!("warm restart must hit"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_and_mismatched_files_are_quarantined_not_deleted() {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.json"), "{\"schema\":\"other\"}").unwrap();
        std::fs::write(dir.join("junk.json"), "not json at all").unwrap();
        // A valid entry under the *wrong* file name must not load: the
        // name-is-digest-of-key invariant is what makes collisions safe.
        std::fs::write(dir.join("0000.json"), entry_line("stolen", "x")).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty(), "no foreign file may load");
        assert_eq!(cache.quarantined(), 3);
        // Quarantined files are moved, never deleted.
        let qdir = dir.join(QUARANTINE_DIR);
        for f in ["notes.json", "junk.json", "0000.json"] {
            assert!(!dir.join(f).exists(), "{f} moved out of the cache dir");
            assert!(qdir.join(f).exists(), "{f} preserved in quarantine");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_body_is_quarantined_and_key_recomputes() {
        let dir = tmp_dir("bitflip");
        let key = "command=fig5 seed=0x2a";
        {
            let cache = ResultCache::open(&dir).unwrap();
            assert!(matches!(cache.begin(key), Begin::Lead));
            cache.complete(key, "a,b\n1,2\n".into());
        }
        // Flip the body inside the persisted entry, leaving the seal's
        // digest stale — a simulated bit-flipped disk.
        let path = dir.join(format!("{}.json", key_stem(key)));
        let tampered = std::fs::read_to_string(&path).unwrap().replace("1,2", "9,9");
        std::fs::write(&path, tampered).unwrap();

        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty(), "tampered entry must not serve");
        assert_eq!(cache.quarantined(), 1);
        assert!(!path.exists(), "tampered entry left the cache dir");
        // The key misses and recomputes: the wrong answer can never serve.
        assert!(matches!(cache.begin(key), Begin::Lead));
        cache.complete(key, "a,b\n1,2\n".into());
        // And the rewrite self-heals the disk entry.
        assert!(load_entry(&path).is_some(), "recompute rewrote a valid entry");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsealed_v1_entry_is_quarantined() {
        // The pre-codec layout: bare JSON with a separate checksum field.
        let dir = tmp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let key = "legacy key";
        let legacy = Value::Object(vec![
            ("schema".into(), Value::String("dls-cache/1".into())),
            ("key".into(), Value::String(key.into())),
            ("checksum".into(), Value::String(key_stem("old bytes"))),
            ("body".into(), Value::String("old bytes".into())),
        ]);
        let path = dir.join(format!("{}.json", key_stem(key)));
        std::fs::write(&path, serde_json::to_string(&legacy).unwrap()).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty(), "unverifiable entry must not serve");
        assert_eq!(cache.quarantined(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_entry_of_another_schema_is_quarantined() {
        let dir = tmp_dir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        let key = "future key";
        // A correctly sealed entry that names another schema: only the
        // schema check can refuse it.
        let payload = format!(r#"{{"schema":"dls-cache/9","key":"{key}","body":"x"}}"#);
        std::fs::write(dir.join(format!("{}.json", key_stem(key))), record::seal(&payload))
            .unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.quarantined(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_requests_coalesce_into_one_flight() {
        let cache = Arc::new(ResultCache::open(&tmp_dir("flight")).unwrap());
        assert!(matches!(cache.begin("k"), Begin::Lead));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match cache.begin("k") {
                    Begin::Hit(body) => (*body).clone(),
                    _ => panic!("waiters must resolve to the leader's result"),
                })
            })
            .collect();
        cache.complete("k", "result".into());
        for w in waiters {
            assert_eq!(w.join().unwrap(), "result");
        }
        std::fs::remove_dir_all(
            std::env::temp_dir().join(format!("dls-cache-flight-{}", std::process::id())),
        )
        .unwrap();
    }

    #[test]
    fn leader_failure_propagates_and_key_stays_retryable() {
        let dir = tmp_dir("fail");
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        assert!(matches!(cache.begin("k"), Begin::Lead));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.begin("k") {
                Begin::LeaderFailed(msg) => msg,
                _ => panic!("waiter must see the leader's failure"),
            })
        };
        // Wait until the waiter has actually joined the flight (it holds a
        // second Arc to it) before failing, so the test is race-free.
        loop {
            let state = cache.state.lock().unwrap();
            let joined = state.flights.get("k").is_some_and(|f| Arc::strong_count(f) > 1);
            drop(state);
            if joined {
                break;
            }
            std::thread::yield_now();
        }
        cache.fail("k", "boom".into());
        let msg = waiter.join().unwrap();
        assert_eq!(msg, "boom");
        // The failure is not cached: the next request leads again.
        assert!(matches!(cache.begin("k"), Begin::Lead));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
