//! The persistent, content-addressed result cache.
//!
//! One design point = one JSON file under the cache directory, named by
//! the FNV-1a hash of the point's identity (format version + domain +
//! canonical config text). Every entry embeds enough redundancy — the
//! expected key, the domain, the canonical text's length and an
//! independent check hash — that a stale, truncated, hand-edited or
//! hash-colliding file is detected on read and treated as a miss: the
//! point is re-simulated and the entry rewritten. Writes go through a
//! temp file + rename so a crashed run never leaves a half-written entry
//! behind.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::fnv::{fnv1a64, fnv1a64_from, hex64, splitmix_finalize};
use salam::RunReport;
use salam_obs::json::{escape, Reader, Value};

/// Bumped whenever the entry format or any payload serialization changes
/// incompatibly; old entries then read as misses, never as wrong results.
/// Version 3: [`RunReport`] stats gained the `fault_counts` map.
pub const CACHE_FORMAT_VERSION: u64 = 3;

/// A value that can live in the cache: serializes to a JSON object and
/// parses back from the entry's embedded payload.
pub trait CachePayload: Sized {
    /// The payload as a standalone JSON object text.
    fn payload_to_json(&self) -> String;

    /// Reads the payload at the cursor, once the entry's header has been
    /// checked. Small payloads take `r.value()` and pick it apart; a
    /// payload that runs to megabytes decodes straight from the text.
    ///
    /// # Errors
    ///
    /// Any message marks the entry corrupt (the point is re-simulated).
    fn payload_from_json(r: &mut Reader<'_>) -> Result<Self, String>;
}

impl CachePayload for RunReport {
    fn payload_to_json(&self) -> String {
        self.to_json()
    }

    fn payload_from_json(r: &mut Reader<'_>) -> Result<Self, String> {
        RunReport::from_json_value(&r.value()?)
    }
}

/// The identity of one design point: a `domain` namespace (e.g.
/// `standalone/gemm-ncubed` or `fig16/stream-buffers`) plus the canonical
/// text of every knob that can change the result. Equal identities — and
/// only equal identities — map to the same cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheId {
    /// Namespace: execution model + kernel/scenario identity.
    pub domain: String,
    /// Canonical configuration text (see `canonical_repr` on the config
    /// types). Not hashed-only: its length and check hash are stored in
    /// the entry so collisions are detected rather than served.
    pub canon: String,
}

impl CacheId {
    /// An id from a cache domain and a canonical configuration string.
    pub fn new(domain: impl Into<String>, canon: impl Into<String>) -> Self {
        CacheId {
            domain: domain.into(),
            canon: canon.into(),
        }
    }

    /// The primary content address (the cache file stem).
    pub fn key(&self) -> u64 {
        let mut h = fnv1a64(b"salam-dse");
        h = fnv1a64_from(h, &CACHE_FORMAT_VERSION.to_le_bytes());
        h = fnv1a64_from(h, &[0]);
        h = fnv1a64_from(h, self.domain.as_bytes());
        h = fnv1a64_from(h, &[0]);
        fnv1a64_from(h, self.canon.as_bytes())
    }

    /// Hex form of [`CacheId::key`].
    pub fn key_hex(&self) -> String {
        hex64(self.key())
    }

    /// The independent secondary hash over the canonical text, stored in
    /// the entry to catch primary-key collisions.
    pub fn canon_check_hex(&self) -> String {
        hex64(splitmix_finalize(fnv1a64(self.canon.as_bytes())))
    }
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum Lookup<T> {
    /// A valid entry was found.
    Hit(T),
    /// No entry exists for this key.
    Miss,
    /// An entry exists but failed validation; the caller should re-run
    /// the point and overwrite it.
    Corrupt,
}

/// A directory of result entries.
///
/// Optionally size-capped: when `max_bytes` is set (explicitly or via
/// `SALAM_DSE_CACHE_MAX_BYTES`), every store enforces the cap by evicting
/// the least-recently-written entries (LRU by file mtime, ties broken by
/// file name for determinism) until the directory fits. A long-running
/// server would otherwise grow `target/dse-cache` without bound.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
    /// Cumulative evictions, shared across clones so the server's metrics
    /// see every worker's evictions.
    evictions: Arc<AtomicU64>,
}

impl ResultCache {
    /// A cache rooted at `dir` (created on first store). Unbounded by
    /// default; set a cap with [`ResultCache::with_max_bytes`], typically
    /// from [`env_max_bytes`] at process entry points.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            max_bytes: None,
            evictions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets (or clears) the size cap in bytes.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The configured size cap, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Entries evicted by this cache (and its clones) so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total bytes of entry files currently on disk.
    pub fn disk_bytes(&self) -> u64 {
        list_entries(&self.dir).iter().map(|e| e.bytes).sum()
    }

    /// Publishes cache occupancy and eviction counters under `prefix`
    /// (`{prefix}.entries`, `{prefix}.bytes`, `{prefix}.evictions`,
    /// `{prefix}.max_bytes`).
    pub fn export_metrics(&self, reg: &mut salam_obs::MetricsRegistry, prefix: &str) {
        reg.set(&format!("{prefix}.entries"), self.entry_count() as f64);
        reg.set(&format!("{prefix}.bytes"), self.disk_bytes() as f64);
        reg.set(&format!("{prefix}.evictions"), self.evictions() as f64);
        reg.set(
            &format!("{prefix}.max_bytes"),
            self.max_bytes.map(|b| b as f64).unwrap_or(-1.0),
        );
    }

    /// The default location: `$SALAM_DSE_CACHE` if set, else
    /// `target/dse-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        match std::env::var_os("SALAM_DSE_CACHE") {
            Some(d) if !d.is_empty() => PathBuf::from(d),
            _ => PathBuf::from("target/dse-cache"),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an identity maps to.
    pub fn entry_path(&self, id: &CacheId) -> PathBuf {
        self.dir.join(format!("{}.json", id.key_hex()))
    }

    /// Probes the cache for `id`, validating the entry end to end.
    pub fn lookup<T: CachePayload>(&self, id: &CacheId) -> Lookup<T> {
        let path = self.entry_path(id);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(_) => return Lookup::Corrupt,
        };
        match Self::validate(id, &text) {
            Ok(payload) => Lookup::Hit(payload),
            Err(_) => Lookup::Corrupt,
        }
    }

    /// Checks the header fields — everything `store` writes ahead of the
    /// payload — and only then decodes the payload, in the same pass over
    /// the text.
    fn validate<T: CachePayload>(id: &CacheId, text: &str) -> Result<T, String> {
        let mut r = Reader::new(text);
        let mut header = Vec::new();
        let mut payload = None;
        r.object(|r, key| {
            if key == "payload" {
                Self::check_header(id, &Value::Object(std::mem::take(&mut header)))?;
                payload = Some(T::payload_from_json(r)?);
            } else {
                header.push((key, r.value()?));
            }
            Ok(())
        })?;
        r.finish()?;
        payload.ok_or_else(|| "missing 'payload'".to_string())
    }

    fn check_header(id: &CacheId, header: &Value) -> Result<(), String> {
        let expected = [
            ("version", Value::Number(CACHE_FORMAT_VERSION as f64)),
            ("key", Value::String(id.key_hex())),
            ("domain", Value::String(id.domain.clone())),
            ("canon_len", Value::Number(id.canon.len() as f64)),
            ("canon_check", Value::String(id.canon_check_hex())),
        ];
        match expected
            .iter()
            .find(|(key, want)| header.get(key) != Some(want))
        {
            Some((key, _)) => Err(format!("'{key}' missing or not this entry's")),
            None => Ok(()),
        }
    }

    /// Writes (or overwrites) the entry for `id` atomically.
    ///
    /// # Errors
    ///
    /// I/O failures only; callers may treat the cache as best-effort.
    pub fn store<T: CachePayload>(&self, id: &CacheId, payload: &T) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(id);
        let payload_text = payload.payload_to_json();
        let entry = format!(
            "{{\n\"version\": {},\n\"key\": \"{}\",\n\"domain\": \"{}\",\n\"canon_len\": {},\n\"canon_check\": \"{}\",\n\"payload\": {}}}\n",
            CACHE_FORMAT_VERSION,
            id.key_hex(),
            escape(&id.domain),
            id.canon.len(),
            id.canon_check_hex(),
            payload_text.trim_end(),
        );
        let tmp = self
            .dir
            .join(format!(".{}.tmp.{}", id.key_hex(), std::process::id()));
        std::fs::write(&tmp, entry)?;
        std::fs::rename(&tmp, &path)?;
        self.enforce_cap(&path);
        Ok(())
    }

    /// Evicts least-recently-written entries until the directory fits the
    /// cap. The entry just written (`keep`) is never evicted — a cap
    /// smaller than one entry must not turn every store into a miss loop.
    /// Best-effort: racing removals and I/O errors are ignored.
    fn enforce_cap(&self, keep: &Path) {
        let Some(cap) = self.max_bytes else { return };
        let entries = list_entries(&self.dir);
        for name in plan_evictions(&entries, cap, keep.file_name().and_then(|n| n.to_str())) {
            let victim = self.dir.join(&name);
            if std::fs::remove_file(&victim).is_ok() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "salam-dse: cache cap {cap}B exceeded, evicted {}",
                    victim.display()
                );
            }
        }
    }

    /// Number of entries currently on disk (diagnostics / tests).
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }
}

/// One cache entry file as seen by the eviction planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// File name (`<key>.json`).
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Modification time as a sortable integer (nanoseconds since the
    /// epoch; 0 when the filesystem can't say).
    pub mtime_ns: u128,
}

/// The cap configured through `SALAM_DSE_CACHE_MAX_BYTES` (unset, empty,
/// unparsable or zero all mean unbounded). Read at process entry points —
/// the sweep driver and the serve binary — not inside [`ResultCache::at`],
/// so library callers stay deterministic under test.
pub fn env_max_bytes() -> Option<u64> {
    std::env::var("SALAM_DSE_CACHE_MAX_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&b| b > 0)
}

fn list_entries(dir: &Path) -> Vec<EntryMeta> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<EntryMeta> = rd
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| {
            let md = e.metadata().ok()?;
            let mtime_ns = md
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            Some(EntryMeta {
                name: e.file_name().to_string_lossy().into_owned(),
                bytes: md.len(),
                mtime_ns,
            })
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Picks the entries to evict so the remaining total fits `cap`: oldest
/// mtime first, file-name order on ties, `keep` exempt. Pure so the policy
/// is unit-testable without touching filesystem timestamps.
pub fn plan_evictions(entries: &[EntryMeta], cap: u64, keep: Option<&str>) -> Vec<String> {
    let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
    if total <= cap {
        return Vec::new();
    }
    let mut candidates: Vec<&EntryMeta> = entries
        .iter()
        .filter(|e| Some(e.name.as_str()) != keep)
        .collect();
    candidates.sort_by(|a, b| a.mtime_ns.cmp(&b.mtime_ns).then(a.name.cmp(&b.name)));
    let mut out = Vec::new();
    for e in candidates {
        if total <= cap {
            break;
        }
        total -= e.bytes;
        out.push(e.name.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("salam-dse-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report() -> RunReport {
        let k = machsuite::gemm::build(&machsuite::gemm::Params { n: 4, unroll: 1 });
        salam::standalone::run_kernel(&k, &salam::standalone::StandaloneConfig::default())
    }

    #[test]
    fn default_dir_respects_env_override() {
        let _env = crate::test_env::lock();
        let over = crate::test_env::EnvGuard::set("SALAM_DSE_CACHE", "/tmp/salam-cache-override");
        assert_eq!(
            ResultCache::default_dir(),
            PathBuf::from("/tmp/salam-cache-override")
        );
        drop(over);
        // Empty counts as unset; still under the lock so nobody else can
        // have re-set the variable in between.
        let _empty = crate::test_env::EnvGuard::set("SALAM_DSE_CACHE", "");
        assert_eq!(
            ResultCache::default_dir(),
            PathBuf::from("target/dse-cache")
        );
    }

    #[test]
    fn ids_differ_by_domain_and_canon() {
        let a = CacheId::new("standalone/gemm", "x=1");
        let b = CacheId::new("standalone/gemm", "x=2");
        let c = CacheId::new("standalone/bfs", "x=1");
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key(), CacheId::new("standalone/gemm", "x=1").key());
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let cache = ResultCache::at(scratch_dir("roundtrip"));
        let id = CacheId::new("standalone/gemm[n=4,u=1]", "cfg-canon-text");
        let report = sample_report();
        assert!(matches!(cache.lookup::<RunReport>(&id), Lookup::Miss));
        cache.store(&id, &report).unwrap();
        match cache.lookup::<RunReport>(&id) {
            Lookup::Hit(back) => {
                assert_eq!(back.cycles, report.cycles);
                assert_eq!(back.to_json(), report.to_json());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_reads_as_corrupt() {
        let cache = ResultCache::at(scratch_dir("truncated"));
        let id = CacheId::new("standalone/x", "canon");
        cache.store(&id, &sample_report()).unwrap();
        let path = cache.entry_path(&id);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(cache.lookup::<RunReport>(&id), Lookup::Corrupt));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_for_different_canon_is_not_served() {
        // Simulate a primary-key collision: copy an entry onto the file
        // name of a *different* identity. The canon check must reject it.
        let cache = ResultCache::at(scratch_dir("collision"));
        let a = CacheId::new("standalone/x", "canon-a");
        let b = CacheId::new("standalone/x", "canon-b");
        cache.store(&a, &sample_report()).unwrap();
        std::fs::copy(cache.entry_path(&a), cache.entry_path(&b)).unwrap();
        assert!(matches!(cache.lookup::<RunReport>(&b), Lookup::Corrupt));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn eviction_plan_is_lru_by_mtime_with_name_tiebreak() {
        let e = |name: &str, bytes: u64, mtime_ns: u128| EntryMeta {
            name: name.into(),
            bytes,
            mtime_ns,
        };
        let entries = vec![
            e("cc.json", 100, 30),
            e("aa.json", 100, 10),
            e("bb.json", 100, 20),
            e("dd.json", 100, 20),
        ];
        // Under cap: nothing to do.
        assert!(plan_evictions(&entries, 400, None).is_empty());
        // Oldest first; equal mtimes fall back to name order.
        assert_eq!(
            plan_evictions(&entries, 200, None),
            vec!["aa.json".to_string(), "bb.json".to_string()]
        );
        // The just-written entry is exempt even when it is the oldest.
        assert_eq!(
            plan_evictions(&entries, 200, Some("aa.json")),
            vec!["bb.json".to_string(), "dd.json".to_string()]
        );
        // A cap below a single entry still keeps the protected one.
        assert_eq!(plan_evictions(&entries, 0, Some("aa.json")).len(), 3);
    }

    #[test]
    fn store_enforces_cap_and_counts_evictions() {
        let report = sample_report();
        let entry_bytes = {
            let probe = ResultCache::at(scratch_dir("cap-probe")).with_max_bytes(None);
            probe
                .store(&CacheId::new("standalone/x", "probe"), &report)
                .unwrap();
            let bytes = probe.disk_bytes();
            let _ = std::fs::remove_dir_all(probe.dir());
            bytes
        };
        // Room for two entries, not three.
        let cache = ResultCache::at(scratch_dir("cap")).with_max_bytes(Some(entry_bytes * 2 + 10));
        let ids: Vec<CacheId> = (0..3)
            .map(|i| CacheId::new("standalone/x", format!("canon-{i}")))
            .collect();
        for id in &ids {
            cache.store(id, &report).unwrap();
        }
        assert_eq!(cache.entry_count(), 2, "cap must hold two entries");
        assert_eq!(cache.evictions(), 1);
        assert!(
            matches!(cache.lookup::<RunReport>(&ids[2]), Lookup::Hit(_)),
            "the just-written entry must survive its own eviction pass"
        );
        let survivors = (0..2)
            .filter(|&i| matches!(cache.lookup::<RunReport>(&ids[i]), Lookup::Hit(_)))
            .count();
        assert_eq!(survivors, 1, "exactly one older entry must remain");

        let mut reg = salam_obs::MetricsRegistry::new();
        cache.export_metrics(&mut reg, "cache");
        assert_eq!(reg.get("cache.evictions"), Some(1.0));
        assert_eq!(reg.get("cache.entries"), Some(2.0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cap_env_override_parses() {
        let _env = crate::test_env::lock();
        // A huge cap: even if a concurrently-running sweep test resolves
        // its cache while this guard is live, nothing gets evicted.
        let _cap = crate::test_env::EnvGuard::set("SALAM_DSE_CACHE_MAX_BYTES", "1099511627776");
        assert_eq!(env_max_bytes(), Some(1 << 40));
        let _bad = crate::test_env::EnvGuard::set("SALAM_DSE_CACHE_MAX_BYTES", "nope");
        assert_eq!(env_max_bytes(), None);
        let _zero = crate::test_env::EnvGuard::set("SALAM_DSE_CACHE_MAX_BYTES", "0");
        assert_eq!(env_max_bytes(), None);
    }

    #[test]
    fn version_bump_invalidates() {
        let cache = ResultCache::at(scratch_dir("version"));
        let id = CacheId::new("standalone/x", "canon");
        cache.store(&id, &sample_report()).unwrap();
        let path = cache.entry_path(&id);
        let text = std::fs::read_to_string(&path).unwrap();
        let current = format!("\"version\": {CACHE_FORMAT_VERSION}");
        assert!(text.contains(&current), "entry must embed the version");
        std::fs::write(&path, text.replace(&current, "\"version\": 999")).unwrap();
        assert!(matches!(cache.lookup::<RunReport>(&id), Lookup::Corrupt));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
