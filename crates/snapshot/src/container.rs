//! The `PBPSNAP1` section container: build, atomic save, verified load.

use crate::crc::Crc32;
use crate::error::SnapshotError;
use std::fs;
use std::io::{ErrorKind, Read, Write};
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

/// One host's snapshot files: `{prefix}-{counter:012}.pbps` in one
/// directory, the counter being the host's progress (samples for an
/// engine, microbatches for a rank). A file belongs to the family exactly
/// when its name is the one the family gives some counter, and the family
/// saves, prunes and scans its members only: families sharing a directory
/// — an engine's and the ranks', or two ranks' — never shadow or delete
/// one another's files, and no other file there is ever touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFamily {
    dir: PathBuf,
    prefix: String,
}

impl SnapshotFamily {
    /// A training engine's family in `dir`: `snap-{samples:012}.pbps`.
    pub fn engine(dir: impl Into<PathBuf>) -> Self {
        let (dir, prefix) = (dir.into(), "snap".into());
        SnapshotFamily { dir, prefix }
    }

    /// Rank `rank`'s family in a directory the ranks share:
    /// `rank{rank:03}-snap-{microbatches:012}.pbps`.
    pub fn rank(dir: impl Into<PathBuf>, rank: usize) -> Self {
        let (dir, prefix) = (dir.into(), format!("rank{rank:03}-snap"));
        SnapshotFamily { dir, prefix }
    }

    /// The file of the family's snapshot at `counter`. Zero padding keeps
    /// the order of names that of counters.
    pub fn path(&self, counter: usize) -> PathBuf {
        self.dir.join(self.file_name(counter))
    }

    fn file_name(&self, counter: usize) -> String {
        format!("{}-{counter:012}.pbps", self.prefix)
    }

    /// The counter `name` holds, if it is a member's name.
    fn counter_of(&self, name: &str) -> Option<usize> {
        let digits = name
            .strip_prefix(self.prefix.as_str())?
            .strip_prefix('-')?
            .strip_suffix(".pbps")?;
        let counter = digits.parse().ok()?;
        (self.file_name(counter) == name).then_some(counter)
    }

    /// The family's files, ascending by counter; none if the directory is
    /// missing. An entry that vanishes during the scan (another writer
    /// pruning) is skipped, not an error.
    fn members(&self) -> Result<Vec<(usize, PathBuf)>, SnapshotError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut members = Vec::new();
        for entry in entries {
            let path = match entry {
                Ok(entry) => entry.path(),
                Err(e) if e.kind() == ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            let name = path.file_name().and_then(|n| n.to_str());
            if let Some(counter) = name.and_then(|n| self.counter_of(n)) {
                members.push((counter, path));
            }
        }
        members.sort();
        Ok(members)
    }

    /// Writes `snap` atomically as the family's snapshot at `counter`,
    /// then deletes all but the `keep` newest members, whoever wrote them
    /// (`usize::MAX` keeps every one).
    pub fn save(
        &self,
        snap: &SnapshotBuilder,
        counter: usize,
        keep: usize,
    ) -> Result<(), SnapshotError> {
        snap.save_atomic(&self.path(counter))?;
        let members = self.members()?;
        let excess = members.len().saturating_sub(keep);
        for (_, old) in &members[..excess] {
            match fs::remove_file(old) {
                Ok(()) => {}
                // Another writer pruning the same family won the race.
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// The validated scan: members that fully load — magic, version, every
    /// section checksum, the framing — newest first, each loaded only when
    /// the iterator reaches it. A corrupt or truncated member is skipped
    /// with a warning on stderr; one deleted since the listing, silently.
    fn valid(&self) -> Result<impl Iterator<Item = (usize, PathBuf)>, SnapshotError> {
        let members = self.members()?.into_iter().rev();
        Ok(
            members.filter(|(_, path)| match SnapshotArchive::load(path) {
                Ok(_) => true,
                Err(SnapshotError::Io(e)) if e.kind() == ErrorKind::NotFound => false,
                Err(e) => {
                    eprintln!(
                        "warning: skipping unreadable snapshot {}: {e}",
                        path.display()
                    );
                    false
                }
            }),
        )
    }

    /// The newest member that loads, so one damaged file never aborts a
    /// resume while an older good one exists; `None` if there is none.
    pub fn latest_valid(&self) -> Result<Option<PathBuf>, SnapshotError> {
        Ok(self.valid()?.next().map(|(_, path)| path))
    }

    /// The counters the family holds a snapshot that loads for, ascending:
    /// the counters it can genuinely resume from. An unreadable directory
    /// holds none. Launchers intersect these lists across ranks to find
    /// the point a restarted group resumes from.
    pub fn valid_counters(&self) -> Vec<usize> {
        let Ok(valid) = self.valid() else {
            return Vec::new();
        };
        let mut counters: Vec<usize> = valid.map(|(counter, _)| counter).collect();
        counters.reverse();
        counters
    }
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

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbp_snap_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn atomic_save_and_latest_snapshot() {
        let dir = scratch("save");
        let family = SnapshotFamily::engine(&dir);
        assert!(family.latest_valid().unwrap().is_none());
        let b = sample_builder();
        family.save(&b, 10, usize::MAX).unwrap();
        family.save(&b, 2, usize::MAX).unwrap();
        let latest = family.latest_valid().unwrap().unwrap();
        assert_eq!(latest, dir.join("snap-000000000010.pbps"));
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
        let (engine, rank3) = (SnapshotFamily::engine("d"), SnapshotFamily::rank("d", 3));
        assert_eq!(engine.counter_of("snap-000000000010.pbps"), Some(10));
        assert_eq!(rank3.counter_of("rank003-snap-000000000010.pbps"), Some(10));
        // Rank families and the engine family never see each other.
        assert_eq!(engine.counter_of("rank003-snap-000000000010.pbps"), None);
        assert_eq!(rank3.counter_of("snap-000000000010.pbps"), None);
        // Non-digit or non-canonical counters, missing separators, foreign
        // suffixes, temp files.
        for name in [
            "snap-final.pbps",
            "snap-notes.pbps",
            "snap-.pbps",
            "snap-10.pbps",
            "snap-+00000000010.pbps",
            "snap000000000010.pbps",
            "snap-000000000010.tmp",
            ".snap-000000000010.pbps.tmp-1-2",
        ] {
            assert_eq!(engine.counter_of(name), None, "{name}");
        }
        // A counter past twelve digits keeps its name.
        let big = 1 << 50;
        assert_eq!(engine.counter_of(&engine.file_name(big)), Some(big));
    }

    #[test]
    fn rank_prefixed_families_resolve_independently() {
        let dir = scratch("rank");
        let b = sample_builder();
        let (engine, rank) = (SnapshotFamily::engine(&dir), |r| {
            SnapshotFamily::rank(&dir, r)
        });
        for (r, counter) in [(0, 10), (0, 20), (1, 10)] {
            rank(r).save(&b, counter, usize::MAX).unwrap();
        }
        engine.save(&b, 30, usize::MAX).unwrap();

        let newest_r0 = rank(0).latest_valid().unwrap().unwrap();
        assert_eq!(newest_r0, dir.join("rank000-snap-000000000020.pbps"));
        assert_eq!(rank(1).valid_counters(), vec![10]);
        // The engine's scan is blind to every rank family.
        assert_eq!(engine.valid_counters(), vec![30]);
        assert!(rank(2).latest_valid().unwrap().is_none());
        // Retention, too, stays inside its family.
        engine.save(&b, 40, 1).unwrap();
        rank(0).save(&b, 30, 2).unwrap();
        assert_eq!(engine.valid_counters(), vec![40]);
        assert_eq!(rank(0).valid_counters(), vec![20, 30]);
        assert_eq!(rank(1).valid_counters(), vec![10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_in_one_directory_never_collide() {
        // Two "ranks" (threads) hammer the same directory, each saving and
        // pruning its own family through the temp+rename path. Every write
        // must survive with valid contents, each family keep exactly its
        // own newest three, and no temp file may be left behind.
        let dir = scratch("concwr");
        fs::create_dir_all(&dir).unwrap();
        let writers: Vec<_> = (0..2usize)
            .map(|rank| {
                let family = SnapshotFamily::rank(&dir, rank);
                std::thread::spawn(move || {
                    let b = sample_builder();
                    for counter in 1..=20usize {
                        family.save(&b, counter, 3).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for rank in 0..2usize {
            let family = SnapshotFamily::rank(&dir, rank);
            assert_eq!(family.valid_counters(), vec![18, 19, 20]);
            let ar = SnapshotArchive::load(&family.path(20)).unwrap();
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
        let dir = scratch("valid");
        let family = SnapshotFamily::engine(&dir);
        assert!(family.latest_valid().unwrap().is_none());

        let b = sample_builder();
        family.save(&b, 10, usize::MAX).unwrap();
        family.save(&b, 20, usize::MAX).unwrap();
        // Flip one bit inside a section payload of the newest file and
        // confirm the scan falls back to the older one.
        let bad = family.path(20);
        let mut bytes = fs::read(&bad).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] ^= 0x01;
        fs::write(&bad, &bytes).unwrap();
        assert!(SnapshotArchive::load(&bad).is_err());
        assert_eq!(family.latest_valid().unwrap(), Some(family.path(10)));
        assert_eq!(family.valid_counters(), vec![10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_skips_truncated_newest_and_reports_none_when_all_bad() {
        let dir = scratch("trunc");
        let family = SnapshotFamily::engine(&dir);
        let b = sample_builder();
        family.save(&b, 5, usize::MAX).unwrap();
        // A torn write: only half the container made it to disk.
        let bytes = b.to_bytes();
        fs::write(family.path(9), &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(family.latest_valid().unwrap(), Some(family.path(5)));

        // With the good one gone, nothing in the directory loads.
        fs::remove_file(family.path(5)).unwrap();
        assert!(family.latest_valid().unwrap().is_none());
        assert!(family.valid_counters().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
