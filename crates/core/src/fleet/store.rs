//! The fleet's files: the producer's spill file and the aggregator's write-ahead
//! log. Recovery reads and cuts files; frames replay through ingest's own rules.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use djx_pmu::PmuEvent;

use super::protocol::{protocol_error, PendingFrame, ProducerState, SpillStore};
use super::{FsyncPolicy, ProducerRecovery};
use crate::profile::{escape, event_from_name, parse_kv, parse_u64, unescape};
use crate::wire;

/// The first two fields of the WAL header line. The version moves with
/// [`BINARY_VERSION`](crate::wire::BINARY_VERSION): v4 logs hold version-3 frames.
/// Recovery refuses a WAL of another version instead of reading its frames as a
/// torn tail and truncating them.
const WAL_MAGIC: &str = "djxperf-wal v4";

/// Names a process-unique spill file (several sinks may share one directory).
fn spill_file_path(dir: &Path) -> PathBuf {
    static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("djxperf-fleet-spill-{}-{seq}.bin", std::process::id()))
}

/// The spill tier of a producer's pending buffer: a temporary file of
/// `u64 epoch-key (LE, 0 = finish) · u8 sites flag · u32 length (LE) · frame bytes`
/// records, appended at the tail and consumed from a read cursor. Deleted on drop.
#[derive(Debug)]
pub(crate) struct SpillFile {
    file: File,
    path: PathBuf,
    read_off: u64,
    write_off: u64,
}

impl SpillStore for SpillFile {
    fn create(dir: &Path) -> io::Result<SpillFile> {
        let path = spill_file_path(dir);
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
        Ok(SpillFile { file, path, read_off: 0, write_off: 0 })
    }

    fn bytes(&self) -> u64 {
        self.write_off - self.read_off
    }

    // Seeks per record, so a failed append is overwritten by the next one.
    fn append(&mut self, frame: &PendingFrame) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.write_off))?;
        self.file.write_all(&frame.epoch.unwrap_or(0).to_le_bytes())?;
        self.file.write_all(&[u8::from(frame.sites)])?;
        self.file.write_all(&(frame.bytes.len() as u32).to_le_bytes())?;
        self.file.write_all(&frame.bytes)?;
        self.write_off += 13 + frame.bytes.len() as u64;
        Ok(())
    }

    fn read_next(&mut self) -> io::Result<PendingFrame> {
        self.file.seek(SeekFrom::Start(self.read_off))?;
        let mut header = [0u8; 13];
        self.file.read_exact(&mut header)?;
        let epoch_key = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(header[9..].try_into().expect("4 bytes"));
        let mut bytes = vec![0u8; len as usize];
        self.file.read_exact(&mut bytes)?;
        self.read_off += 13 + u64::from(len);
        if self.read_off == self.write_off {
            (self.read_off, self.write_off) = (0, 0);
            self.file.set_len(0)?;
        }
        Ok(PendingFrame {
            epoch: (epoch_key != 0).then_some(epoch_key),
            sites: header[8] != 0,
            bytes,
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Maps a producer name to its WAL file: a sanitized slug for human readability
/// plus an FNV-1a hash of the exact name for uniqueness (the header line inside
/// the file carries the authoritative name, so sanitization may be lossy).
pub(crate) fn wal_path(dir: &Path, producer: &str) -> PathBuf {
    let hash = wire::fnv1a(producer.as_bytes());
    let slug: String = producer
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .take(48)
        .collect();
    dir.join(format!("{slug}-{hash:08x}.wal"))
}

/// Parses a WAL header line (without its newline) into
/// `(producer, event, period, size_filter)`.
fn parse_wal_header(line: &str) -> Result<(String, PmuEvent, u64, u64), String> {
    let version = line.strip_prefix("djxperf-wal ").and_then(|rest| rest.split(' ').next());
    let fields = line
        .strip_prefix(WAL_MAGIC)
        .filter(|rest| rest.is_empty() || rest.starts_with(' '))
        .ok_or_else(|| match version {
            Some(version) => format!(
                "WAL format version {version} is not supported (this build reads {WAL_MAGIC:?})"
            ),
            None => format!("the header does not start with {WAL_MAGIC:?}"),
        })?;
    let kv = parse_kv(fields.split_whitespace());
    let producer = kv.get("producer").ok_or("the header misses the producer")?;
    let event =
        event_from_name(kv.get("event").map_or("", String::as_str)).map_err(|e| e.to_string())?;
    Ok((unescape(producer), event, parse_u64(&kv, "period")?, parse_u64(&kv, "size_filter")?))
}

/// One producer's write-ahead log: the header line followed by the received
/// [`crate::wire`] frames, appended verbatim **before** each acknowledgement, so
/// [`BinaryFrameReader`](crate::wire::BinaryFrameReader) replays it unmodified.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    pub(crate) bytes: u64,
    pub(crate) fsync: FsyncPolicy,
    appends_since_sync: u32,
}

impl Wal {
    /// Creates (truncating) the log for a fresh producer and writes the header.
    pub(crate) fn create(
        dir: &Path,
        producer: &str,
        event: PmuEvent,
        period: u64,
        size_filter: u64,
        fsync: FsyncPolicy,
    ) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let path = wal_path(dir, producer);
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        let (producer, event) = (escape(producer), event.hardware_name());
        let header = format!(
            "{WAL_MAGIC} producer={producer} event={event} period={period} size_filter={size_filter}\n"
        );
        file.write_all(header.as_bytes())?;
        let mut wal = Wal { file, bytes: header.len() as u64, fsync, appends_since_sync: 0 };
        wal.sync_point()?;
        Ok(wal)
    }

    /// Reopens a recovered log for appending at `bytes` (its post-truncation
    /// length).
    pub(crate) fn reopen(path: &Path, bytes: u64, fsync: FsyncPolicy) -> io::Result<Wal> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::Start(bytes))?;
        Ok(Wal { file, bytes, fsync, appends_since_sync: 0 })
    }

    pub(crate) fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)?;
        self.bytes += frame.len() as u64;
        self.appends_since_sync += 1;
        self.sync_point()
    }

    fn sync_point(&mut self) -> io::Result<()> {
        let due = match self.fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryFrame => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
        };
        if due {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }
}

/// Replays one WAL file through [`ProducerState::replay`] and truncates a torn
/// tail. `Ok(None)` means the file never got past its header line (crash
/// mid-create) — nothing was acknowledged from it, so it is skipped and
/// overwritten when its producer reconnects.
///
/// # Errors
///
/// IO failures, and [`io::ErrorKind::InvalidData`] when its header line is
/// complete but does not parse (a foreign or older-format file): skipping it
/// would let the producer's reconnect overwrite acknowledged frames. The caller
/// names the file in every error.
pub(crate) fn recover_wal_file(
    path: &Path,
) -> io::Result<Option<(String, ProducerState, ProducerRecovery)>> {
    let data = fs::read(path)?;
    let Some(header_end) = data.iter().position(|b| *b == b'\n') else {
        return Ok(None);
    };
    let (producer, event, period, size_filter) = std::str::from_utf8(&data[..header_end])
        .map_err(|e| e.to_string())
        .and_then(parse_wal_header)
        .map_err(|e| protocol_error(format!("unreadable header line: {e}")))?;
    let mut state = ProducerState::new(event, period, size_filter);
    let (frames, body, torn) = state.replay(&data[header_end + 1..]);
    let good = header_end as u64 + 1 + body;
    let torn = torn.map(|why| {
        let cut = data.len() as u64 - good;
        format!("{why}; cut {cut} bytes at file offset {good}")
    });
    if torn.is_some() {
        OpenOptions::new().write(true).open(path)?.set_len(good)?;
    }
    let recovery = ProducerRecovery {
        producer: producer.clone(),
        frames,
        last_epoch: state.fold.last_epoch().unwrap_or(0),
        finished: state.fold.is_finished(),
        torn_tail: torn,
        wal_bytes: good,
    };
    Ok(Some((producer, state, recovery)))
}
