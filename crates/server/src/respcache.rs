//! The pre-serialized response cache: warm requests skip rendering.
//!
//! The artifact cache memoizes *computed results*; this cache memoizes
//! the *wire bytes* built from them — header block (both persistence
//! modes, `Content-Length` precomputed) plus body — keyed by the request
//! shape (`path`, query string, `Accept` variant). A warm request on
//! its connection thread is then parse → key → one lookup → `writev`,
//! never re-rendering JSON and never crossing into the worker pool.
//!
//! Only safe entries are admitted, by the pool handler in `lib.rs`:
//! `GET` requests answering `200` on the immutable-content routes
//! (`/experiments`, `/experiments/{id}`, `/query`, `/query/schema`).
//! Those bodies are deterministic for the lifetime of the process — the
//! artifact cache memoizes forever and query answers are canonical — so
//! entries can never go stale. `/healthz` and `/metrics` change per
//! request and are never cached; non-200s (404 rosters, failure bodies)
//! are recomputed so retry semantics stay live.
//!
//! Eviction is LRU under a hard byte cap, mirroring the query engine's
//! LRU discipline: a logical tick orders entries, eviction removes the
//! least-recently-used until the newcomer fits, and an entry larger
//! than the whole cap is refused outright. Lookups scan a flat `Vec`
//! guarded by one mutex — entry counts are small (bounded by the
//! registry + query working set under the byte cap) and the scan
//! compares a precomputed 64-bit key hash before ever touching the key
//! string, so the warm path stays cheap and deterministic (no
//! hash-order iteration anywhere).

use std::sync::{Arc, Mutex, PoisonError};

use crate::http::Response;
use crate::metrics::Route;

/// One cached response: precomputed wire bytes for both persistence
/// modes plus the metadata the front end needs to record metrics.
#[derive(Debug)]
pub struct CachedResponse {
    /// HTTP status (always 200 under the current admission rules).
    pub status: u16,
    /// The route label the original compute was observed under.
    pub route: Route,
    /// Header block ending in `\r\n\r\n`, `Connection: keep-alive`.
    pub head_keep: Vec<u8>,
    /// Header block ending in `\r\n\r\n`, `Connection: close`.
    pub head_close: Vec<u8>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// A point-in-time snapshot of the cache counters for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RespCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the request went to the pool).
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to fit newcomers under the byte cap.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Bytes currently held (heads + bodies + keys).
    pub bytes: u64,
    /// The configured byte cap.
    pub capacity_bytes: u64,
}

struct Entry {
    /// FNV-1a of `key`, compared before the key string on lookup.
    hash: u64,
    key: Box<str>,
    response: Arc<CachedResponse>,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// The cache itself: one mutex over a flat entry list (see module docs
/// for why that is enough).
pub struct ResponseCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResponseCache")
            .field("capacity", &self.capacity)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .finish_non_exhaustive()
    }
}

impl ResponseCache {
    /// An empty cache capped at `capacity` bytes.
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks `key` up, refreshing its LRU position on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<CachedResponse>> {
        let hash = fnv1a(key.as_bytes());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && *e.key == *key)
        {
            Some(entry) => {
                entry.last_used = tick;
                let response = Arc::clone(&entry.response);
                inner.hits += 1;
                Some(response)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Admits one response under `key`, pre-rendering both header-block
    /// variants. A duplicate key (two pool workers racing the same
    /// compute) keeps the incumbent; an entry larger than the whole cap
    /// is refused; otherwise LRU entries are evicted until it fits.
    pub fn insert(&self, key: &str, route: Route, response: &Response) {
        let cached = CachedResponse {
            status: response.status,
            route,
            head_keep: response.head_bytes(true),
            head_close: response.head_bytes(false),
            body: response.body.clone(),
        };
        let cost = key.len() + cached.head_keep.len() + cached.head_close.len() + cached.body.len();
        if cost > self.capacity {
            return;
        }
        let hash = fnv1a(key.as_bytes());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner
            .entries
            .iter()
            .any(|e| e.hash == hash && *e.key == *key)
        {
            return;
        }
        while inner.bytes + cost > self.capacity {
            let Some(oldest) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            let evicted = inner.entries.swap_remove(oldest);
            inner.bytes -= evicted.cost;
            inner.evictions += 1;
        }
        inner.tick += 1;
        let last_used = inner.tick;
        inner.bytes += cost;
        inner.insertions += 1;
        inner.entries.push(Entry {
            hash,
            key: key.into(),
            response: Arc::new(cached),
            cost,
            last_used,
        });
    }

    /// A counter snapshot for the `/metrics` rendering.
    pub fn stats(&self) -> RespCacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RespCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.entries.len() as u64,
            bytes: inner.bytes as u64,
            capacity_bytes: self.capacity as u64,
        }
    }
}

/// FNV-1a over `bytes` — the same dependency-free hash idiom the query
/// engine keys with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, body: &str) -> (String, Response) {
        (key.to_string(), Response::json(200, body.to_string()))
    }

    #[test]
    fn hits_return_prerendered_bytes_for_both_modes() {
        let cache = ResponseCache::new(4096);
        let (key, response) = entry("exp:fig3a:j", "{\"x\": 1}\n");
        assert!(cache.get(&key).is_none());
        cache.insert(&key, Route::Experiment, &response);
        let hit = cache.get(&key).expect("inserted entry");
        assert_eq!(hit.status, 200);
        assert_eq!(hit.body, response.body);
        let keep = String::from_utf8(hit.head_keep.clone()).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.contains(&format!("Content-Length: {}\r\n", response.body.len())));
        let close = String::from_utf8(hit.head_close.clone()).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_under_the_byte_cap_and_refuses_oversize() {
        // Measure one entry's true cost (key + both heads + body), then
        // cap the cache at four-and-a-half entries.
        let probe = ResponseCache::new(1 << 20);
        let (key, response) = entry("exp:fig0:j", &"x".repeat(64));
        probe.insert(&key, Route::Experiment, &response);
        let cost = probe.stats().bytes as usize;
        let cache = ResponseCache::new(4 * cost + cost / 2);
        for i in 0..4 {
            let (key, response) = entry(&format!("exp:fig{i}:j"), &"x".repeat(64));
            cache.insert(&key, Route::Experiment, &response);
        }
        // Touch the oldest so eviction order reflects use, not insertion.
        assert!(cache.get("exp:fig0:j").is_some());
        let (key, response) = entry("exp:fig4:j", &"y".repeat(64));
        cache.insert(&key, Route::Experiment, &response);
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.bytes <= stats.capacity_bytes, "{stats:?}");
        assert!(cache.get("exp:fig0:j").is_some(), "recently-used evicted");
        assert!(cache.get("exp:fig1:j").is_none(), "LRU survived");
        // An entry bigger than the whole cap is refused, not thrashed.
        let before = cache.stats();
        let (key, response) = entry("exp:huge:j", &"z".repeat(4096));
        cache.insert(&key, Route::Experiment, &response);
        assert_eq!(cache.stats().insertions, before.insertions);
    }

    #[test]
    fn duplicate_keys_keep_the_incumbent() {
        let cache = ResponseCache::new(4096);
        let (key, first) = entry("roster", "[1]\n");
        cache.insert(&key, Route::Experiments, &first);
        let (_, second) = entry("roster", "[2]\n");
        cache.insert(&key, Route::Experiments, &second);
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.get(&key).expect("entry").body, first.body);
    }
}
