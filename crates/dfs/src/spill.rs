//! Disk spill store backing the zero-copy (mmap) scan path.
//!
//! The simulated DFS keeps block payloads in memory (`Bytes`), so there is
//! no on-disk file to map. The spill store bridges that gap at read time:
//! the first mmap-enabled scan of a file writes its concatenated block
//! bytes to a private temp file once, maps it, and caches the mapping
//! keyed by `(path, generation, len)`. Later scans of the same file —
//! including cold scans after a `BlockCache` clear — reuse the mapping
//! without re-spilling or re-copying.
//!
//! Correctness protocol:
//!
//! * Spill files are **immutable per generation**. Every `create` (and
//!   every repair) gives the file a fresh generation from one DFS-wide
//!   monotonic counter, so an overwrite under the same path can never be
//!   served from a stale mapping — the key no longer matches and a fresh
//!   spill file (with a fresh name) is written. The old file is unlinked immediately;
//!   existing mappings keep their pages per POSIX semantics.
//! * Node kills and re-replication change *placement*, not *content*, so
//!   they do not invalidate spills. Availability is still enforced because
//!   callers obtain the bytes through [`crate::Dfs::read_block`] (which
//!   fails on unavailable blocks) before asking for a mapping.
//! * A `validated` flag records that a consumer has already run its full
//!   content validation (e.g. the columnar decoder's finite-value check)
//!   against this exact mapping, letting repeat cold scans skip it.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use memmap2::Mmap;
use parking_lot::Mutex;

/// A cached read-only mapping of one file's bytes.
#[derive(Clone, Debug)]
pub struct SpillMap {
    /// The mapping; keeps the pages alive even after the spill file is
    /// unlinked or superseded by a newer generation.
    pub map: Arc<Mmap>,
    /// True once [`SpillStore::mark_validated`] has been called for this
    /// exact `(path, generation)` — the consumer's content validation has
    /// already passed against these bytes.
    pub validated: bool,
}

struct SpillEntry {
    generation: u64,
    /// CRC-64 the caller claimed for the spilled bytes — a hit requires
    /// the same checksum, so a repaired file (new digest, same length)
    /// can never reuse a mapping of the pre-repair bytes.
    crc: u64,
    file: PathBuf,
    map: Arc<Mmap>,
    validated: bool,
}

struct SpillInner {
    dir: Option<PathBuf>,
    entries: HashMap<String, SpillEntry>,
    next_seq: u64,
}

/// Process-private spill directory with one immutable file per
/// `(path, generation)` currently cached. Created lazily on first use and
/// removed on drop.
pub struct SpillStore {
    inner: Mutex<SpillInner>,
}

impl Default for SpillStore {
    fn default() -> SpillStore {
        SpillStore {
            inner: Mutex::new(SpillInner {
                dir: None,
                entries: HashMap::new(),
                next_seq: 0,
            }),
        }
    }
}

impl SpillStore {
    /// Returns a mapping of `data` for DFS path `key` at `generation`,
    /// spilling to disk on first use and reusing the cached mapping when
    /// the generation, length, and checksum still match.
    ///
    /// `crc` is the expected CRC-64 of `data` (the file's write-time
    /// digest). A fresh spill is verified against it after the write+map
    /// round-trip, so a torn spill write or tmpfs bit-flip surfaces as an
    /// error (callers fall back to the owned path) instead of being
    /// scanned as truth.
    pub fn map_path(
        &self,
        key: &str,
        generation: u64,
        data: &[u8],
        crc: u64,
    ) -> io::Result<SpillMap> {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.entries.get(key) {
            if entry.generation == generation && entry.map.len() == data.len() && entry.crc == crc {
                return Ok(SpillMap {
                    map: Arc::clone(&entry.map),
                    validated: entry.validated,
                });
            }
        }
        if inner.dir.is_none() {
            let dir = std::env::temp_dir().join(format!(
                "sh-spill-{}-{:x}",
                std::process::id(),
                self as *const SpillStore as usize
            ));
            fs::create_dir_all(&dir)?;
            inner.dir = Some(dir);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let file = inner
            .dir
            .as_ref()
            .expect("spill dir initialized above")
            .join(format!("s{seq}.bin"));
        fs::write(&file, data)?;
        let map = Arc::new(unsafe { Mmap::map(&fs::File::open(&file)?)? });
        if crate::crc64::crc64(&map) != crc {
            let _ = fs::remove_file(&file);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spill of {key} failed its checksum"),
            ));
        }
        if let Some(old) = inner.entries.insert(
            key.to_string(),
            SpillEntry {
                generation,
                crc,
                file,
                map: Arc::clone(&map),
                validated: false,
            },
        ) {
            // Superseded spill: unlink now; live mappings keep their pages.
            let _ = fs::remove_file(&old.file);
        }
        Ok(SpillMap {
            map,
            validated: false,
        })
    }

    /// Records that the consumer's content validation passed against the
    /// mapping currently cached for `(key, generation)`.
    pub fn mark_validated(&self, key: &str, generation: u64) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.entries.get_mut(key) {
            if entry.generation == generation {
                entry.validated = true;
            }
        }
    }

    /// Drops the cached spill for `key` (file deleted or overwritten);
    /// live mappings handed out earlier stay readable.
    pub fn remove(&self, key: &str) {
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.remove(key) {
            let _ = fs::remove_file(&old.file);
        }
    }

    /// Number of cached spill files (tests / introspection).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no spills are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if let Some(dir) = inner.dir.take() {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc64::crc64;

    fn map(store: &SpillStore, key: &str, generation: u64, data: &[u8]) -> io::Result<SpillMap> {
        store.map_path(key, generation, data, crc64(data))
    }

    #[test]
    fn spill_roundtrip_and_reuse() {
        let store = SpillStore::default();
        let m1 = map(&store, "/f", 1, b"abcdef").unwrap();
        assert_eq!(&m1.map[..], b"abcdef");
        assert!(!m1.validated);
        store.mark_validated("/f", 1);
        let m2 = map(&store, "/f", 1, b"abcdef").unwrap();
        assert!(m2.validated, "revalidated flag survives a cache hit");
        assert!(
            std::ptr::eq(Arc::as_ptr(&m1.map), Arc::as_ptr(&m2.map)),
            "same generation reuses the same mapping"
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn new_generation_respills_and_old_mapping_stays_readable() {
        let store = SpillStore::default();
        let old = map(&store, "/f", 1, b"old contents").unwrap();
        store.mark_validated("/f", 1);
        let new = map(&store, "/f", 2, b"new!").unwrap();
        assert_eq!(&new.map[..], b"new!");
        assert!(
            !new.validated,
            "validation does not carry across generations"
        );
        assert_eq!(&old.map[..], b"old contents", "unlinked pages stay valid");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn length_change_respills() {
        let store = SpillStore::default();
        map(&store, "/f", 1, b"aaaa").unwrap();
        let m = map(&store, "/f", 1, b"aaaaaa").unwrap();
        assert_eq!(m.map.len(), 6);
    }

    #[test]
    fn crc_change_respills_same_length() {
        let store = SpillStore::default();
        let old = map(&store, "/f", 1, b"aaaa").unwrap();
        store.mark_validated("/f", 1);
        // Same generation and length, different bytes (a repaired file):
        // must not serve the stale mapping or its validated flag.
        let new = map(&store, "/f", 1, b"bbbb").unwrap();
        assert_eq!(&new.map[..], b"bbbb");
        assert!(!new.validated);
        assert_eq!(&old.map[..], b"aaaa");
    }

    #[test]
    fn checksum_mismatch_is_an_error() {
        let store = SpillStore::default();
        let err = store
            .map_path("/f", 1, b"payload", 0xDEAD_BEEF)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(store.is_empty(), "rejected spill leaves nothing cached");
    }

    #[test]
    fn remove_drops_entry() {
        let store = SpillStore::default();
        map(&store, "/f", 1, b"x").unwrap();
        store.remove("/f");
        assert!(store.is_empty());
    }
}
