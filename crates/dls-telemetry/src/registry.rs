//! The sharded registry: one shard per recording thread, merged at
//! snapshot time.
//!
//! Recording locks only the calling thread's own shard — an uncontended
//! mutex, i.e. one compare-and-swap — so campaign worker threads never
//! serialize on a shared line. The snapshot path takes the registry lock
//! plus each shard lock briefly, which is fine for its once-per-command
//! call frequency.
//!
//! A thread's shard is marked retired when the thread exits, and the
//! registry folds retired shards into one accumulator the next time it
//! registers a shard or takes a snapshot. So a long-lived registry holds
//! one shard per *live* recording thread plus the accumulator, however
//! many short-lived threads (campaign workers) have recorded into it.

use crate::hist::HistData;
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, Snapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Process-wide registry id source, used to key the thread-local shard
/// cache (several registries can be live at once, e.g. in tests).
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(0);

/// This thread's shard per live registry: `(registry id, shard)`. Weak, so
/// dropping a registry frees its shards even while threads that recorded
/// into it are still alive. Dropped at thread exit, which retires them.
struct ShardCache(RefCell<Vec<(u64, Weak<Shard>)>>);

impl Drop for ShardCache {
    fn drop(&mut self) {
        for (_, weak) in self.0.get_mut().drain(..) {
            if let Some(shard) = weak.upgrade() {
                shard.retired.store(true, Ordering::Release);
            }
        }
    }
}

thread_local! {
    static TLS_SHARDS: ShardCache = const { ShardCache(RefCell::new(Vec::new())) };
}

#[derive(Default)]
pub(crate) struct Shard {
    data: Mutex<ShardData>,
    /// Set once the recording thread has exited: nothing records into the
    /// shard again, so it can be folded away. Stored with `Release` after
    /// the thread's last record and loaded with `Acquire` by the fold.
    retired: AtomicBool,
}

#[derive(Default)]
pub(crate) struct ShardData {
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge value tagged with a registry-global sequence number so the
    /// cross-shard merge is genuinely last-write-wins.
    pub gauges: BTreeMap<&'static str, (u64, f64)>,
    pub histograms: BTreeMap<&'static str, HistData>,
}

impl ShardData {
    /// Adds `other` into `self`: counters sum (saturating), histograms
    /// merge, and each gauge keeps the value with the later sequence number.
    fn merge(&mut self, other: &ShardData) {
        for (name, v) in &other.counters {
            let c = self.counters.entry(name).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (name, &(seq, v)) in &other.gauges {
            match self.gauges.get(name) {
                Some(&(best, _)) if best > seq => {}
                _ => {
                    self.gauges.insert(name, (seq, v));
                }
            }
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

/// The registered shards of live threads, plus everything retired shards
/// recorded.
#[derive(Default)]
struct Shards {
    live: Vec<Arc<Shard>>,
    retired: ShardData,
}

impl Shards {
    /// Folds every retired shard into the accumulator and unregisters it.
    fn fold_retired(&mut self) {
        let Shards { live, retired } = self;
        live.retain(|shard| {
            if !shard.retired.load(Ordering::Acquire) {
                return true;
            }
            retired.merge(&shard.data.lock().unwrap_or_else(|e| e.into_inner()));
            false
        });
    }
}

pub(crate) struct Registry {
    id: u64,
    shards: Mutex<Shards>,
    gauge_seq: AtomicU64,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            shards: Mutex::default(),
            gauge_seq: AtomicU64::new(0),
        }
    }

    pub fn next_gauge_seq(&self) -> u64 {
        self.gauge_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` on the calling thread's shard, creating and registering it
    /// on first use.
    pub fn with_shard<R>(&self, f: impl FnOnce(&mut ShardData) -> R) -> R {
        TLS_SHARDS.with(|ShardCache(cell)| {
            let mut cache = cell.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(id, _)| *id == self.id) {
                if let Some(shard) = weak.upgrade() {
                    // A panic mid-record leaves plain data records in a
                    // valid (if partial) state — recover, don't cascade.
                    return f(&mut shard.data.lock().unwrap_or_else(|e| e.into_inner()));
                }
            }
            // First record from this thread (or the registry of a stale
            // entry died): prune dead entries, create and register a shard.
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            let shard = Arc::new(Shard::default());
            {
                let mut shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
                shards.fold_retired();
                shards.live.push(Arc::clone(&shard));
            }
            cache.push((self.id, Arc::downgrade(&shard)));
            let mut guard = shard.data.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut guard)
        })
    }

    /// Merges all shards into one deterministic, name-sorted snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        shards.fold_retired();
        let mut merged = ShardData::default();
        merged.merge(&shards.retired);
        for shard in &shards.live {
            merged.merge(&shard.data.lock().unwrap_or_else(|e| e.into_inner()));
        }
        Snapshot {
            counters: merged
                .counters
                .into_iter()
                .map(|(name, value)| CounterSnapshot { name: name.into(), value })
                .collect(),
            gauges: merged
                .gauges
                .into_iter()
                .map(|(name, (_, value))| GaugeSnapshot { name: name.into(), value })
                .collect(),
            histograms: merged
                .histograms
                .iter_mut()
                .map(|(name, h)| crate::snapshot::summarize(name, h))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Poisons `m` by panicking while holding its guard.
    fn poison<T>(m: &Mutex<T>) {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison for test");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
    }

    #[test]
    fn poisoned_shard_lock_still_records_and_snapshots() {
        let reg = Registry::new();
        reg.with_shard(|d| *d.counters.entry("c").or_insert(0) += 1);
        // Poison the shard this thread just registered.
        let shard = {
            let shards = reg.shards.lock().unwrap();
            Arc::clone(&shards.live[0])
        };
        poison(&shard.data);
        // Recording and snapshotting must both recover rather than cascade.
        reg.with_shard(|d| *d.counters.entry("c").or_insert(0) += 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(2));
    }

    #[test]
    fn poisoned_registry_lock_still_accepts_new_shards() {
        let reg = Registry::new();
        poison(&reg.shards);
        // First record from this thread pushes a new shard through the
        // (poisoned) registry lock.
        reg.with_shard(|d| *d.counters.entry("k").or_insert(0) += 3);
        assert_eq!(reg.snapshot().counter("k"), Some(3));
    }

    /// The counters and histogram counts of a snapshot, by name: the parts
    /// that must not depend on which threads recorded.
    fn totals(snap: &Snapshot) -> Vec<(String, u64)> {
        let counters = snap.counters.iter().map(|c| (c.name.clone(), c.value));
        counters.chain(snap.histograms.iter().map(|h| (h.name.clone(), h.count))).collect()
    }

    fn record_events(reg: &Registry, i: u64) {
        reg.with_shard(|d| *d.counters.entry("events").or_insert(0) += 1 + i % 3);
        reg.with_shard(|d| d.histograms.entry("wall_s").or_default().record(i as f64 * 1e-4));
        let seq = reg.next_gauge_seq();
        reg.with_shard(|d| {
            d.gauges.insert("last", (seq, i as f64));
        });
    }

    #[test]
    fn exited_threads_are_folded_into_one_accumulator() {
        let reg = Registry::new();
        // An explicit join returns once the thread has exited, thread-local
        // destructors included.
        for i in 0..100 {
            std::thread::scope(|s| s.spawn(|| record_events(&reg, i)).join().unwrap());
        }
        let snap = reg.snapshot();
        // Every shard was folded into the accumulator.
        assert_eq!(reg.shards.lock().unwrap().live.len(), 0);

        let one_thread = Registry::new();
        for i in 0..100 {
            record_events(&one_thread, i);
        }
        assert_eq!(totals(&snap), totals(&one_thread.snapshot()));
        // Gauges stay last-write-wins across the fold.
        assert_eq!(snap.gauge("last"), Some(99.0));
    }

    #[test]
    fn a_live_thread_keeps_its_shard_and_its_later_records() {
        let reg = Registry::new();
        reg.with_shard(|d| *d.counters.entry("c").or_insert(0) += 1);
        std::thread::scope(|s| {
            s.spawn(|| reg.with_shard(|d| *d.counters.entry("c").or_insert(0) += 10))
                .join()
                .unwrap();
        });
        assert_eq!(reg.snapshot().counter("c"), Some(11));
        // This thread's shard was not retired: it still records.
        reg.with_shard(|d| *d.counters.entry("c").or_insert(0) += 100);
        assert_eq!(reg.snapshot().counter("c"), Some(111));
        assert_eq!(reg.shards.lock().unwrap().live.len(), 1);
    }
}
