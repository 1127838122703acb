//! The content-addressed on-disk result cache.
//!
//! One file per canonical spec: `<dir>/<hash>.json`, where `<hash>` is
//! the 16-hex-digit `wormspec` content hash and the payload is the
//! `wormserve/1` verdict document byte-for-byte. Because the hash is
//! taken over the *canonical* text, any surface rewrite of a spec —
//! whitespace, comments, key order, spelled-out defaults — hits the
//! same entry, and because the verdict document is deterministic, a hit
//! can be replayed without rerunning any engine and without byte drift.
//!
//! Stores write to a `.tmp` sibling and rename into place, so a crash
//! mid-write can leave a stray temp file but never a torn entry. Each
//! store gets a temp name of its own (process id plus a counter):
//! workers that compute the same spec at once never write one file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Stores started by this process, numbering their temp files.
static STORES: AtomicU64 = AtomicU64::new(0);

/// A directory of verdict documents keyed by canonical spec hash.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a canonical hash.
    pub fn entry_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.json"))
    }

    /// The stored verdict for `hash`, if present.
    pub fn lookup(&self, hash: &str) -> Option<String> {
        fs::read_to_string(self.entry_path(hash)).ok()
    }

    /// Store `verdict` under `hash` atomically (write-temp + rename).
    pub fn store(&self, hash: &str, verdict: &str) -> io::Result<()> {
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{hash}.json.{}.{n}.tmp", std::process::id()));
        fs::write(&tmp, verdict)
            .and_then(|()| fs::rename(&tmp, self.entry_path(hash)))
            .inspect_err(|_| {
                let _ = fs::remove_file(&tmp);
            })
    }

    /// Entry count (for monitoring and tests).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wormserve-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_replays_the_exact_bytes() {
        let cache = ResultCache::open(tmpdir("roundtrip")).unwrap();
        assert!(cache.lookup("00112233aabbccdd").is_none());
        let verdict = "{\"schema\":\"wormserve/1\"}";
        cache.store("00112233aabbccdd", verdict).unwrap();
        assert_eq!(cache.lookup("00112233aabbccdd").as_deref(), Some(verdict));
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_stores_of_one_hash_never_tear() {
        const HASH: &str = "0123456789abcdef";
        let cache = ResultCache::open(tmpdir("concurrent")).unwrap();
        let verdict: String = (0..1 << 20)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (stores, torn) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..32).try_for_each(|_| cache.store(HASH, &verdict))))
                .collect();
            let reader = s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    match cache.lookup(HASH) {
                        Some(found) if found != verdict => return Some(found.len()),
                        _ => {}
                    }
                }
                None
            });
            let stores: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            done.store(true, Ordering::Relaxed);
            (stores, reader.join().unwrap())
        });
        assert_eq!(
            torn, None,
            "a lookup replayed a torn entry of this many bytes"
        );
        for result in stores {
            result.expect("every store succeeds");
        }
        assert_eq!(cache.lookup(HASH).as_deref(), Some(verdict.as_str()));
        let names: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, [format!("{HASH}.json")], "no temp file is left");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_are_isolated_by_hash() {
        let cache = ResultCache::open(tmpdir("isolated")).unwrap();
        cache.store("aaaaaaaaaaaaaaaa", "A").unwrap();
        cache.store("bbbbbbbbbbbbbbbb", "B").unwrap();
        assert_eq!(cache.lookup("aaaaaaaaaaaaaaaa").as_deref(), Some("A"));
        assert_eq!(cache.lookup("bbbbbbbbbbbbbbbb").as_deref(), Some("B"));
        assert_eq!(cache.len(), 2);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
