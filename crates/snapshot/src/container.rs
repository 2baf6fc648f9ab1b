//! The `PBPSNAP1` section container: build, atomic save, verified load.

use crate::crc::Crc32;
use crate::error::SnapshotError;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes at the head of every snapshot file.
pub const MAGIC: &[u8; 8] = b"PBPSNAP1";

/// Container version this crate writes and reads.
pub const VERSION: u32 = 1;

/// Upper bound on the section count; anything larger is corruption.
const MAX_SECTIONS: u32 = 1 << 20;

/// Accumulates named sections and writes them as one container.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Adds a named section. Re-adding a name replaces the previous
    /// payload (last writer wins), keeping builders idempotent.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Section names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serializes the container into a writer.
    pub fn write_to(&self, out: &mut impl Write) -> Result<(), SnapshotError> {
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        for (name, payload) in &self.sections {
            let name_bytes = name.as_bytes();
            assert!(
                name_bytes.len() <= u16::MAX as usize,
                "section name too long"
            );
            out.write_all(&(name_bytes.len() as u16).to_le_bytes())?;
            out.write_all(name_bytes)?;
            out.write_all(&section_crc(name_bytes, payload).to_le_bytes())?;
            out.write_all(&(payload.len() as u64).to_le_bytes())?;
            out.write_all(payload)?;
        }
        Ok(())
    }

    /// Serializes the container into a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("in-memory write cannot fail");
        out
    }

    /// Writes the container to `path` atomically: the bytes go to a
    /// temp file in the same directory (same filesystem, so the final
    /// rename is atomic), are synced to disk, and only then renamed
    /// over the destination. A crash mid-write leaves either the old
    /// snapshot or none — never a torn file. The temp name embeds the
    /// process id *and* a process-wide counter, so concurrent writers —
    /// two ranks sharing a snapshot directory, or two threads of one
    /// process — never collide on the temp path.
    pub fn save_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        fs::create_dir_all(dir).map_err(SnapshotError::Io)?;
        let file_name = path.file_name().ok_or_else(|| {
            SnapshotError::Io(std::io::Error::other("snapshot path has no file name"))
        })?;
        let tmp = dir.join(format!(
            ".{}.tmp-{}-{}",
            file_name.to_string_lossy(),
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> Result<(), SnapshotError> {
            let mut file = fs::File::create(&tmp).map_err(SnapshotError::Io)?;
            self.write_to(&mut file)?;
            file.sync_all().map_err(SnapshotError::Io)?;
            fs::rename(&tmp, path).map_err(SnapshotError::Io)?;
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

/// A parsed, checksum-verified snapshot container.
#[derive(Debug)]
pub struct SnapshotArchive {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotArchive {
    /// Parses a container from a reader, verifying the magic, version,
    /// and every section's CRC before returning.
    pub fn read_from(input: &mut impl Read) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 8];
        read_exact(input, &mut magic)?;
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32(input)?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let count = read_u32(input)?;
        if count > MAX_SECTIONS {
            return Err(SnapshotError::Corrupt(format!(
                "section count {count} exceeds limit"
            )));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name_len = read_u16(input)? as usize;
            let mut name_bytes = vec![0u8; name_len];
            read_exact(input, &mut name_bytes)?;
            let name = String::from_utf8(name_bytes)
                .map_err(|_| SnapshotError::Corrupt("section name is not UTF-8".into()))?;
            let stored_crc = read_u32(input)?;
            let len = read_u64(input)?;
            let len = usize::try_from(len).map_err(|_| {
                SnapshotError::Corrupt(format!("section {name:?} length {len} overflows"))
            })?;
            // Never pre-allocate from an untrusted length: a corrupted
            // length field must surface as truncation, not an OOM abort.
            let mut payload = Vec::new();
            (&mut *input)
                .take(len as u64)
                .read_to_end(&mut payload)
                .map_err(SnapshotError::from)?;
            if payload.len() != len {
                return Err(SnapshotError::Corrupt(format!(
                    "section {name:?} truncated: wanted {len} bytes, got {}",
                    payload.len()
                )));
            }
            if section_crc(name.as_bytes(), &payload) != stored_crc {
                return Err(SnapshotError::ChecksumMismatch(name));
            }
            sections.push((name, payload));
        }
        // The container owns the whole byte stream: anything after the
        // last section means a corrupted section count or appended junk.
        let mut probe = [0u8; 1];
        match input.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => {
                return Err(SnapshotError::Corrupt(
                    "trailing bytes after last section".into(),
                ))
            }
            Err(e) => return Err(SnapshotError::from(e)),
        }
        Ok(SnapshotArchive { sections })
    }

    /// Loads and verifies a container from a file.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let mut file = fs::File::open(path).map_err(SnapshotError::Io)?;
        SnapshotArchive::read_from(&mut file)
    }

    /// Parses a container from an in-memory byte slice.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cursor = bytes;
        SnapshotArchive::read_from(&mut cursor)
    }

    /// Section names in file order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Borrows a section payload by name.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, payload)| payload.as_slice())
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }
}

/// The default snapshot file-name prefix; single-process runs write
/// `snap-{samples:012}.pbps`.
pub const SNAP_PREFIX: &str = "snap";

/// The file-name prefix for one rank of a multi-process run. Rank
/// prefixes embed the rank *before* the `snap` marker
/// (`rank003-snap-…`), so rank snapshots sharing a directory are
/// invisible to the default-prefix scans and two ranks never shadow
/// each other's progress.
pub fn rank_prefix(rank: usize) -> String {
    format!("rank{rank:03}-snap")
}

/// The canonical snapshot file name for `prefix` at a progress counter:
/// `{prefix}-{counter:012}.pbps`. Zero padding keeps lexicographic and
/// numeric order identical, which the `latest_*` scans rely on.
pub fn snapshot_file_name(prefix: &str, counter: usize) -> String {
    format!("{prefix}-{counter:012}.pbps")
}

/// True if `name` is a snapshot file for `prefix`: exactly
/// `{prefix}-{digits}.pbps`. The digit check keeps prefixes that extend
/// one another (e.g. `snap` vs `rank000-snap`) from matching each
/// other's files.
fn matches_prefix(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix('-'))
        .and_then(|rest| rest.strip_suffix(".pbps"))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// Collects `{prefix}-{digits}.pbps` files in `dir`, sorted ascending by
/// name (= ascending by progress counter). Entries that vanish while
/// scanning (a concurrent writer pruning its retention window) are
/// skipped, not errors. Returns an empty list for a missing directory.
fn snapshot_candidates(dir: &Path, prefix: &str) -> Result<Vec<PathBuf>, SnapshotError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    let mut candidates: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let path = match entry {
            Ok(entry) => entry.path(),
            // A concurrently pruned entry can surface as a NotFound
            // while iterating; losing a candidate another writer chose
            // to delete is the correct outcome.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(SnapshotError::Io(e)),
        };
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if matches_prefix(name, prefix) {
            candidates.push(path);
        }
    }
    candidates.sort();
    Ok(candidates)
}

/// Finds the newest snapshot (`snap-*.pbps`, lexicographically greatest
/// name — file names embed a zero-padded progress counter) in `dir`.
/// Returns `Ok(None)` if the directory is missing or holds no snapshots.
pub fn latest_snapshot(dir: &Path) -> Result<Option<PathBuf>, SnapshotError> {
    latest_snapshot_with_prefix(dir, SNAP_PREFIX)
}

/// [`latest_snapshot`] for an arbitrary file-name prefix — used by
/// multi-process runs where every rank owns a [`rank_prefix`] family in
/// a shared directory.
pub fn latest_snapshot_with_prefix(
    dir: &Path,
    prefix: &str,
) -> Result<Option<PathBuf>, SnapshotError> {
    Ok(snapshot_candidates(dir, prefix)?.pop())
}

/// Finds the newest snapshot in `dir` that actually **loads** — magic,
/// version, every section checksum and the framing all verify. Corrupted
/// or truncated files (a crash mid-write outside the atomic rename path,
/// disk damage, manual truncation) are skipped with a warning on stderr
/// and the next-newest candidate is tried, so one bad file never aborts a
/// resume while an older good snapshot exists. Returns `Ok(None)` if the
/// directory is missing or holds no loadable snapshot.
pub fn latest_valid_snapshot(dir: &Path) -> Result<Option<PathBuf>, SnapshotError> {
    latest_valid_snapshot_with_prefix(dir, SNAP_PREFIX)
}

/// [`latest_valid_snapshot`] for an arbitrary file-name prefix. Safe
/// against concurrent writers in the same directory: candidates deleted
/// between the scan and the load (a neighboring rank pruning its own
/// files) are skipped like corrupt ones instead of aborting the resume.
pub fn latest_valid_snapshot_with_prefix(
    dir: &Path,
    prefix: &str,
) -> Result<Option<PathBuf>, SnapshotError> {
    for path in snapshot_candidates(dir, prefix)?.into_iter().rev() {
        match SnapshotArchive::load(&path) {
            Ok(_) => return Ok(Some(path)),
            Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!(
                    "warning: skipping unreadable snapshot {}: {e}",
                    path.display()
                );
            }
        }
    }
    Ok(None)
}

/// The progress counters for which `prefix`'s family in `dir` holds a
/// *valid* snapshot — every candidate is fully loaded, so magic,
/// version, and all section CRCs verify — ascending. Corrupt,
/// truncated, or concurrently-pruned files are silently skipped: a
/// counter in this list is a counter the family can genuinely resume
/// from. Distributed launchers intersect these lists across ranks to
/// find the group's common rewind point.
pub fn valid_snapshot_counters(dir: &Path, prefix: &str) -> Vec<usize> {
    let Ok(candidates) = snapshot_candidates(dir, prefix) else {
        return Vec::new();
    };
    let marker = format!("{prefix}-");
    candidates
        .into_iter()
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let digits = name.strip_prefix(&marker)?.strip_suffix(".pbps")?;
            let counter = digits.parse::<usize>().ok()?;
            SnapshotArchive::load(&path).ok()?;
            Some(counter)
        })
        .collect()
}

/// Section checksum: covers the name bytes and the payload, so flips in
/// either are detected.
fn section_crc(name: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(name);
    crc.update(payload);
    crc.finish()
}

fn read_exact(input: &mut impl Read, buf: &mut [u8]) -> Result<(), SnapshotError> {
    input.read_exact(buf).map_err(SnapshotError::from)
}

fn read_u16(input: &mut impl Read) -> Result<u16, SnapshotError> {
    let mut b = [0u8; 2];
    read_exact(input, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(input: &mut impl Read) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    read_exact(input, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(input: &mut impl Read) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    read_exact(input, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_builder() -> SnapshotBuilder {
        let mut b = SnapshotBuilder::new();
        b.add_section("net", vec![1, 2, 3, 4, 5]);
        b.add_section("engine", vec![]);
        b.add_section("run", b"run state".to_vec());
        b
    }

    #[test]
    fn container_round_trips() {
        let bytes = sample_builder().to_bytes();
        let ar = SnapshotArchive::from_bytes(&bytes).unwrap();
        assert_eq!(ar.names().collect::<Vec<_>>(), vec!["net", "engine", "run"]);
        assert_eq!(ar.section("net").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(ar.section("engine").unwrap(), &[] as &[u8]);
        assert_eq!(ar.section("run").unwrap(), b"run state");
        assert!(matches!(
            ar.section("absent"),
            Err(SnapshotError::MissingSection(_))
        ));
    }

    #[test]
    fn re_adding_a_section_replaces_it() {
        let mut b = SnapshotBuilder::new();
        b.add_section("net", vec![1]);
        b.add_section("net", vec![2, 3]);
        let ar = SnapshotArchive::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(ar.section("net").unwrap(), &[2, 3]);
        assert_eq!(ar.names().count(), 1);
    }

    #[test]
    fn corrupted_magic_is_bad_magic() {
        let mut bytes = sample_builder().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapshotArchive::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_builder().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            SnapshotArchive::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let bytes = sample_builder().to_bytes();
        // Flip one bit in the "net" payload (the last 5 bytes of its
        // section record, which ends before "engine"'s name record).
        let mut corrupted = bytes.clone();
        let pos = 8 + 4 + 4 + 2 + 3 + 4 + 8; // header + name rec + crc + len
        corrupted[pos] ^= 0x10;
        match SnapshotArchive::from_bytes(&corrupted) {
            Err(SnapshotError::ChecksumMismatch(name)) => assert_eq!(name, "net"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_any_point_is_typed_error() {
        let bytes = sample_builder().to_bytes();
        for cut in 0..bytes.len() {
            match SnapshotArchive::from_bytes(&bytes[..cut]) {
                Err(
                    SnapshotError::Corrupt(_)
                    | SnapshotError::BadMagic
                    | SnapshotError::ChecksumMismatch(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn atomic_save_and_latest_snapshot() {
        let dir = std::env::temp_dir().join(format!("pbp_snap_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        assert!(latest_snapshot(&dir).unwrap().is_none());
        let b = sample_builder();
        b.save_atomic(&dir.join("snap-000000000010.pbps")).unwrap();
        b.save_atomic(&dir.join("snap-000000000002.pbps")).unwrap();
        let latest = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(
            latest.file_name().unwrap().to_str().unwrap(),
            "snap-000000000010.pbps"
        );
        let ar = SnapshotArchive::load(&latest).unwrap();
        assert_eq!(ar.section("net").unwrap(), &[1, 2, 3, 4, 5]);
        // No temp files left behind.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                name.to_string_lossy().ends_with(".pbps"),
                "stray file {name:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefix_matching_is_digit_strict_and_family_scoped() {
        assert!(matches_prefix("snap-000000000010.pbps", "snap"));
        assert!(matches_prefix(
            "rank003-snap-000000000010.pbps",
            "rank003-snap"
        ));
        // Rank families and the default family never see each other.
        assert!(!matches_prefix("rank003-snap-000000000010.pbps", "snap"));
        assert!(!matches_prefix("snap-000000000010.pbps", "rank003-snap"));
        // Non-digit counters, missing separators, foreign suffixes.
        assert!(!matches_prefix("snap-final.pbps", "snap"));
        assert!(!matches_prefix("snap-.pbps", "snap"));
        assert!(!matches_prefix("snap000000000010.pbps", "snap"));
        assert!(!matches_prefix("snap-000000000010.tmp", "snap"));
        assert!(!matches_prefix(".snap-000000000010.pbps.tmp-1-2", "snap"));
    }

    #[test]
    fn rank_prefixed_families_resolve_independently() {
        let dir = std::env::temp_dir().join(format!("pbp_rank_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let b = sample_builder();
        for (rank, counter) in [(0usize, 10usize), (0, 20), (1, 10)] {
            let name = snapshot_file_name(&rank_prefix(rank), counter);
            b.save_atomic(&dir.join(name)).unwrap();
        }
        b.save_atomic(&dir.join(snapshot_file_name(SNAP_PREFIX, 30)))
            .unwrap();

        let newest_r0 = latest_valid_snapshot_with_prefix(&dir, &rank_prefix(0))
            .unwrap()
            .unwrap();
        assert_eq!(
            newest_r0.file_name().unwrap().to_str().unwrap(),
            "rank000-snap-000000000020.pbps"
        );
        let newest_r1 = latest_snapshot_with_prefix(&dir, &rank_prefix(1))
            .unwrap()
            .unwrap();
        assert_eq!(
            newest_r1.file_name().unwrap().to_str().unwrap(),
            "rank001-snap-000000000010.pbps"
        );
        // The default scan is blind to every rank family.
        let default = latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(
            default.file_name().unwrap().to_str().unwrap(),
            "snap-000000000030.pbps"
        );
        assert!(latest_valid_snapshot_with_prefix(&dir, &rank_prefix(2))
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_in_one_directory_never_collide() {
        // Two "ranks" (threads) hammer the same directory, each writing
        // its own prefixed family via the temp+rename path, while a
        // reader polls for the newest valid snapshot of each family.
        // Every write must survive with valid contents and no stray
        // temp files — the satellite fix this PR makes to the snapshot
        // layer (per-writer temp names, prefix-scoped scans).
        let dir = std::env::temp_dir().join(format!("pbp_concwr_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let writers: Vec<_> = (0..2usize)
            .map(|rank| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let b = sample_builder();
                    for counter in 1..=20usize {
                        let name = snapshot_file_name(&rank_prefix(rank), counter);
                        b.save_atomic(&dir.join(name)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for rank in 0..2usize {
            let newest = latest_valid_snapshot_with_prefix(&dir, &rank_prefix(rank))
                .unwrap()
                .unwrap();
            assert_eq!(
                newest.file_name().unwrap().to_str().unwrap(),
                snapshot_file_name(&rank_prefix(rank), 20)
            );
            let ar = SnapshotArchive::load(&newest).unwrap();
            assert_eq!(ar.section("net").unwrap(), &[1, 2, 3, 4, 5]);
        }
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                name.to_string_lossy().ends_with(".pbps"),
                "stray file {name:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = SnapshotArchive::load(Path::new("/nonexistent/snap.pbps")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    }

    #[test]
    fn latest_valid_skips_bit_flipped_newest() {
        let dir = std::env::temp_dir().join(format!("pbp_valid_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(latest_valid_snapshot(&dir).unwrap().is_none());

        let b = sample_builder();
        let good = dir.join("snap-000000000010.pbps");
        let bad = dir.join("snap-000000000020.pbps");
        b.save_atomic(&good).unwrap();
        b.save_atomic(&bad).unwrap();
        // The plain loader picks the newest file regardless of damage...
        assert_eq!(latest_snapshot(&dir).unwrap().unwrap(), bad);
        // ...so flip one bit inside a section payload of the newest file
        // and confirm the valid loader falls back to the older one.
        let mut bytes = fs::read(&bad).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] ^= 0x01;
        fs::write(&bad, &bytes).unwrap();
        assert!(SnapshotArchive::load(&bad).is_err());
        assert_eq!(latest_valid_snapshot(&dir).unwrap().unwrap(), good);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_skips_truncated_newest_and_reports_none_when_all_bad() {
        let dir = std::env::temp_dir().join(format!("pbp_trunc_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let b = sample_builder();
        let good = dir.join("snap-000000000005.pbps");
        let torn = dir.join("snap-000000000009.pbps");
        b.save_atomic(&good).unwrap();
        // A torn write: only half the container made it to disk.
        let bytes = b.to_bytes();
        fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(latest_valid_snapshot(&dir).unwrap().unwrap(), good);

        // With the good one gone, nothing in the directory loads.
        fs::remove_file(&good).unwrap();
        assert!(latest_valid_snapshot(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
