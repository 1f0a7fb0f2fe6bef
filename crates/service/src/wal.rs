//! The append-only write-ahead command log.
//!
//! One log file holds a sequence of self-describing frames:
//!
//! ```text
//! ┌────────────────┬────────────────┬──────────────────┐
//! │ payload length │ CRC-32 (IEEE)  │ payload bytes    │
//! │ u32, LE        │ u32, LE        │ length bytes     │
//! └────────────────┴────────────────┴──────────────────┘
//! ```
//!
//! Payloads are serialized [`crate::ServiceCommand`] records (one JSON
//! object each), but the framing layer is payload-agnostic. The length
//! prefix makes torn final writes detectable (a frame that overruns the
//! file), and the checksum catches bit rot and partially overwritten
//! frames; [`scan_bytes`] and [`WalCursor`] read the longest valid frame
//! prefix and report the first bad frame as a typed
//! [`ServiceError::WalRecord`] — never a panic — so recovery can truncate
//! the log there and keep everything before it.
//!
//! Durability is batched: [`WalWriter::append`] hands frames to the OS
//! immediately (a *process* crash loses nothing that was appended) and
//! issues the expensive `fsync` once per `group_commit` appends — the
//! group-commit window. [`WalWriter::sync`] closes the window early;
//! checkpoints do so implicitly, and [`WalWriter::close`] is the explicit
//! fallible shutdown. A machine crash can therefore lose at most the tail
//! of the current window, and only ever a *suffix* of appended records —
//! prefix durability is exactly what replay needs.
//!
//! All file IO goes through the [`Storage`] trait, so the fault-schedule
//! suite can drive the writer over [`crate::storage::FaultyStorage`]. IO
//! failures are **self-resetting**: a failed or short append truncates the
//! file back to the last good frame boundary before reporting, so a retry
//! appends onto a clean tail instead of corrupting the log mid-file. If
//! even the reset fails, the writer marks itself broken and refuses further
//! appends — the degraded store's heal path abandons the file entirely.

use crate::error::ServiceError;
use crate::storage::{with_retries, RetryPolicy, Storage, StorageFile};
use std::path::{Path, PathBuf};

/// Bytes of frame header: payload length (u32 LE) + CRC-32 (u32 LE).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Hard cap on one frame's payload length. The length prefix is untrusted
/// input (a corrupt header can announce anything up to `u32::MAX`), so every
/// reader checks the announced length against this cap *before* buffering
/// the payload — a hostile length is a typed [`ServiceError::WalRecord`]
/// truncation point, never a multi-gigabyte allocation attempt. The writer
/// enforces the same cap on append ([`ServiceError::FrameTooLarge`]), so a
/// log produced by this module always scans. Comfortably above the wire
/// protocol's [`crate::net::proto::MAX_FRAME_BYTES`], so every command that
/// enters over the network fits in the log.
pub const MAX_WAL_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Chunk size of the streaming scanner's bounded reads.
const SCAN_CHUNK_BYTES: usize = 256 * 1024;

/// The slice-by-16 tables: `CRC32_TABLES[0]` is the classic byte table, and
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// one step folds sixteen input bytes with sixteen independent lookups
/// (Kounavis & Berry, ISCC 2005).
const fn build_crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = build_crc32_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`, sixteen bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = u32::MAX;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

/// Renders one framed record (header + payload) ready to append.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One decoded frame of a log scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Byte offset of the frame header in the log file.
    pub offset: u64,
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
}

/// Result of reading a log file: the longest valid frame prefix, plus what
/// (if anything) stopped the scan.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// The valid frames, in append order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix in bytes — the truncation point for a
    /// torn or corrupt tail (equals the file length on a clean scan).
    pub valid_len: u64,
    /// The first bad frame, as the typed error recovery reports
    /// ([`ServiceError::WalRecord`]); `None` when the whole file scanned
    /// clean.
    pub torn: Option<ServiceError>,
}

/// One step of the incremental frame decoder shared by [`scan_bytes`] and
/// [`WalCursor`]. `buf` starts at a frame boundary whose file offset is
/// `offset`; `at_end` says no further bytes can arrive behind `buf`.
enum DecodeStep {
    /// `buf` is empty and the log ends cleanly here.
    Clean,
    /// A complete, checksum-verified frame: payload + total bytes consumed.
    Frame(Vec<u8>, usize),
    /// The frame may continue past `buf` — more bytes are needed to judge it
    /// (never returned when `at_end`).
    NeedMore,
    /// Corrupt or torn at `offset`; scanning stops, the prefix stands.
    Torn(ServiceError),
}

fn decode_step(buf: &[u8], offset: u64, at_end: bool) -> DecodeStep {
    if buf.is_empty() && at_end {
        return DecodeStep::Clean;
    }
    let torn_at = |reason: String| DecodeStep::Torn(ServiceError::WalRecord { offset, reason });
    let Some(header) = buf.get(..FRAME_HEADER_BYTES) else {
        return if at_end {
            torn_at(format!(
                "torn frame header ({} of {FRAME_HEADER_BYTES} bytes)",
                buf.len()
            ))
        } else {
            DecodeStep::NeedMore
        };
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let expected_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    // The length prefix is untrusted: cap it *before* asking for (or
    // buffering toward) `len` payload bytes, so a corrupt header cannot
    // drive a multi-gigabyte allocation attempt.
    if len > MAX_WAL_FRAME_BYTES {
        return torn_at(format!(
            "frame length {len} exceeds the {MAX_WAL_FRAME_BYTES}-byte cap"
        ));
    }
    let Some(payload) = buf.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len) else {
        return if at_end {
            torn_at(format!(
                "frame length {len} overruns the log ({} bytes remain)",
                buf.len() - FRAME_HEADER_BYTES
            ))
        } else {
            DecodeStep::NeedMore
        };
    };
    let got_crc = crc32(payload);
    if got_crc != expected_crc {
        return torn_at(format!(
            "checksum mismatch (stored {expected_crc:#010x}, computed {got_crc:#010x})"
        ));
    }
    DecodeStep::Frame(payload.to_vec(), FRAME_HEADER_BYTES + len)
}

/// Scans in-memory log bytes (the pure core of the frame format, used
/// directly by the corruption tests).
pub fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let torn = loop {
        match decode_step(&bytes[pos..], pos as u64, true) {
            DecodeStep::Clean | DecodeStep::NeedMore => break None,
            DecodeStep::Frame(payload, advance) => {
                records.push(WalRecord {
                    offset: pos as u64,
                    payload,
                });
                pos += advance;
            }
            DecodeStep::Torn(e) => break Some(e),
        }
    };
    WalScan {
        records,
        valid_len: pos as u64,
        torn,
    }
}

/// A streaming log scanner: yields checksum-verified records one at a time,
/// reading the file through [`Storage::read_range`] in bounded chunks —
/// recovering a large log costs peak memory proportional to the chunk size
/// (plus one frame), never the log size. A missing file scans as empty.
/// Reads are retried under the cursor's [`RetryPolicy`]; corruption ends
/// the iteration and is reported by [`WalCursor::finish`], exactly like
/// [`scan_bytes`]'s `torn` field.
pub struct WalCursor<'a> {
    storage: &'a dyn Storage,
    path: PathBuf,
    retry: RetryPolicy,
    chunk: usize,
    /// Buffered file bytes; `buf[..head]` is already consumed (dropped
    /// once per `fill`, not once per frame) and `buf[head]` sits at file
    /// offset `start`.
    buf: Vec<u8>,
    head: usize,
    /// File offset of the next undecoded frame — the valid-prefix length
    /// once the cursor stops.
    start: u64,
    eof: bool,
    torn: Option<ServiceError>,
    finished: bool,
}

impl<'a> WalCursor<'a> {
    /// A cursor over `path` with the default chunk size.
    pub fn new(storage: &'a dyn Storage, path: &Path, retry: RetryPolicy) -> Self {
        Self::with_chunk(storage, path, retry, SCAN_CHUNK_BYTES)
    }

    /// A cursor with an explicit chunk size (tests use tiny chunks to force
    /// frames across read boundaries).
    pub fn with_chunk(
        storage: &'a dyn Storage,
        path: &Path,
        retry: RetryPolicy,
        chunk: usize,
    ) -> Self {
        WalCursor {
            storage,
            path: path.to_path_buf(),
            retry,
            chunk: chunk.max(FRAME_HEADER_BYTES),
            buf: Vec::new(),
            head: 0,
            start: 0,
            eof: false,
            torn: None,
            finished: false,
        }
    }

    /// The next verified record, `Ok(None)` when the scan is over (clean
    /// end *or* a torn/corrupt tail — ask [`WalCursor::finish`] which).
    /// `Err` only on unrecoverable I/O failure.
    pub fn next_record(&mut self) -> Result<Option<WalRecord>, ServiceError> {
        while !self.finished {
            match decode_step(&self.buf[self.head..], self.start, self.eof) {
                DecodeStep::Frame(payload, advance) => {
                    let record = WalRecord {
                        offset: self.start,
                        payload,
                    };
                    self.head += advance;
                    self.start += advance as u64;
                    return Ok(Some(record));
                }
                DecodeStep::Clean => self.finished = true,
                DecodeStep::Torn(e) => {
                    self.torn = Some(e);
                    self.finished = true;
                }
                DecodeStep::NeedMore => self.fill()?,
            }
        }
        Ok(None)
    }

    /// Reads the next chunk behind the buffered bytes. A short (or empty)
    /// read marks end-of-file; a missing file is an empty log.
    fn fill(&mut self) -> Result<(), ServiceError> {
        self.buf.drain(..self.head);
        self.head = 0;
        let offset = self.start + self.buf.len() as u64;
        let (path, chunk, retry) = (&self.path, self.chunk, self.retry);
        let storage = self.storage;
        match with_retries(&retry, || storage.read_range(path, offset, chunk))? {
            None => self.eof = true,
            Some(bytes) => {
                if bytes.len() < self.chunk {
                    self.eof = true;
                }
                self.buf.extend_from_slice(&bytes);
            }
        }
        Ok(())
    }

    /// Retires the cursor: the valid-prefix length in bytes (the truncation
    /// point for [`WalWriter::open_at`]) and the typed error describing the
    /// torn/corrupt tail, if any.
    pub fn finish(self) -> (u64, Option<ServiceError>) {
        (self.start, self.torn)
    }
}

/// Appender over one log file, with group-commit fsync batching and
/// self-resetting IO-failure handling.
pub struct WalWriter {
    file: Box<dyn StorageFile>,
    len: u64,
    pending: usize,
    group_commit: usize,
    /// Set when a failed append could not be cleaned back to a frame
    /// boundary: the on-disk tail is unreliable and further appends would
    /// bury good-looking frames behind garbage, so the writer refuses them.
    broken: bool,
}

impl WalWriter {
    /// Creates (or truncates) a fresh, empty, fsynced log file — the
    /// checkpoint path runs this *before* publishing the manifest that
    /// points at it. Each step is retried under `retry`.
    pub fn create(
        storage: &dyn Storage,
        path: &Path,
        group_commit: usize,
        retry: &RetryPolicy,
    ) -> Result<Self, ServiceError> {
        let mut file = with_retries(retry, || storage.create(path))?;
        with_retries(retry, || file.sync())?;
        Ok(WalWriter {
            file,
            len: 0,
            pending: 0,
            group_commit: group_commit.max(1),
            broken: false,
        })
    }

    /// Opens an existing log for appending after a scan: truncates whatever
    /// follows `valid_len` (the torn/corrupt tail) and positions the writer
    /// at the end of the valid prefix.
    pub fn open_at(
        storage: &dyn Storage,
        path: &Path,
        valid_len: u64,
        group_commit: usize,
        retry: &RetryPolicy,
    ) -> Result<Self, ServiceError> {
        let mut file = with_retries(retry, || storage.open_append(path))?;
        // The valid prefix survives; truncate cuts the tail and re-seeks.
        with_retries(retry, || file.truncate(valid_len))?;
        with_retries(retry, || file.sync())?;
        Ok(WalWriter {
            file,
            len: valid_len,
            pending: 0,
            group_commit: group_commit.max(1),
            broken: false,
        })
    }

    fn check_broken(&self) -> Result<(), ServiceError> {
        if self.broken {
            return Err(ServiceError::Storage(
                "log writer disabled by an earlier unrecoverable append failure".into(),
            ));
        }
        Ok(())
    }

    /// Appends one framed record and fsyncs if the group-commit window
    /// (`group_commit` appends) is full. Write failures (including short
    /// writes) truncate back to the previous frame boundary before each
    /// retry and before reporting, so the log never carries a half-frame
    /// in front of later appends; a failed group-commit sync removes the
    /// frame again (the command will be reported failed, so its record
    /// must not replay).
    pub fn append(&mut self, payload: &[u8], retry: &RetryPolicy) -> Result<(), ServiceError> {
        self.check_broken()?;
        // Defense in depth for the scan-side cap: a frame this writer
        // produces must always scan back, so an oversized payload is a
        // typed rejection here — before any bytes land on disk.
        if payload.len() > MAX_WAL_FRAME_BYTES {
            return Err(ServiceError::FrameTooLarge {
                bytes: payload.len() as u64,
                limit: MAX_WAL_FRAME_BYTES as u64,
            });
        }
        let framed = frame(payload);
        let base = self.len;
        let mut attempt = 0u32;
        loop {
            match self.file.append(&framed) {
                Ok(()) => break,
                Err(e) => {
                    // Clear any partial bytes before retrying or reporting.
                    if let Err(cut) = self.file.truncate(base) {
                        self.broken = true;
                        return Err(ServiceError::Storage(format!(
                            "append failed ({e}) and the reset failed too ({cut}); \
                             log writer disabled"
                        )));
                    }
                    if attempt >= retry.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(retry.delay_ms(attempt)));
                    attempt += 1;
                }
            }
        }
        self.len += framed.len() as u64;
        self.pending += 1;
        if self.pending >= self.group_commit {
            if let Err(e) = self.sync(retry) {
                // The caller will report this command failed, so its frame
                // must not survive to replay. Earlier frames of the window
                // stay: their commands were acknowledged under the
                // group-commit contract (crash may lose an unsynced suffix).
                self.len = base;
                self.pending -= 1;
                if self.file.truncate(base).is_err() {
                    self.broken = true;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Forces the pending window to stable storage (no-op when empty),
    /// retrying under `retry`.
    pub fn sync(&mut self, retry: &RetryPolicy) -> Result<(), ServiceError> {
        self.check_broken()?;
        if self.pending > 0 {
            with_retries(retry, || self.file.sync())?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Explicitly retires the writer: closes the group-commit window with a
    /// final sync and reports failure as a value — the fallible counterpart
    /// of `Drop` (which stays best-effort for the unwind/teardown paths and
    /// can only swallow what `close` would have reported).
    pub fn close(mut self, retry: &RetryPolicy) -> Result<(), ServiceError> {
        // A successful sync leaves pending == 0, so the Drop that follows
        // this move is a no-op.
        self.sync(retry)
    }

    /// Current log length in bytes (the compaction trigger input).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Best effort only — teardown cannot report. Every deliberate
        // retirement goes through [`WalWriter::close`] instead; this path
        // exists for unwinds and for writers superseded by a newer
        // generation (whose files are already durable or deleted).
        if !self.broken && self.pending > 0 {
            let _ = self.file.sync();
            self.pending = 0;
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unit tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 the slice-by-16 kernel replaced, kept as
    /// the reference it must match bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ u32::MAX
    }

    /// Every length 0..=257 (zero to sixteen blocks, every remainder) and
    /// every start offset 0..16 of one pseudo-random buffer.
    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..16 + 257)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=257 {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
        for start in 0..16 {
            let tail = &buf[start..];
            assert_eq!(crc32(tail), crc32_bytewise(tail), "start {start}");
        }
    }

    /// The header of one realistic ingest frame, captured from the
    /// byte-at-a-time CRC: every WAL byte a log ever held must stay valid.
    #[test]
    fn golden_ingest_frame_header_is_pinned() {
        use serde::Serialize;
        let command = crate::ServiceCommand::Ingest {
            name: "t".into(),
            items: (0..512u64)
                .map(|i| i * 2_654_435_761 % 1_000_000_007)
                .collect(),
        };
        let mut payload = String::new();
        command.serialize_json(&mut payload);
        assert_eq!(payload.len(), 5_091);
        let framed = frame(payload.as_bytes());
        assert_eq!(
            framed[..FRAME_HEADER_BYTES],
            [0xe3, 0x13, 0x00, 0x00, 0xc6, 0x5c, 0xc4, 0x38]
        );
        assert_eq!(crc32(payload.as_bytes()), 0x38c4_5cc6);
    }

    #[test]
    fn scan_inverts_framing_and_stops_at_the_first_bad_frame() {
        let mut log = Vec::new();
        for payload in [b"alpha".as_slice(), b"", b"gamma-longer-record"] {
            log.extend_from_slice(&frame(payload));
        }
        let clean = scan_bytes(&log);
        assert!(clean.torn.is_none());
        assert_eq!(clean.valid_len, log.len() as u64);
        assert_eq!(
            clean
                .records
                .iter()
                .map(|r| r.payload.as_slice())
                .collect::<Vec<_>>(),
            vec![b"alpha".as_slice(), b"", b"gamma-longer-record"]
        );

        // Flip one payload byte of the middle frame: the scan keeps the
        // first record, reports the second frame's offset, and ignores the
        // (intact) third record behind it — replay must never skip frames.
        let mut corrupt = log.clone();
        let second = clean.records[1].offset as usize + FRAME_HEADER_BYTES;
        corrupt[second - 1] ^= 0x40; // inside the CRC field
        let scanned = scan_bytes(&corrupt);
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.valid_len, clean.records[1].offset);
        assert!(
            matches!(scanned.torn, Some(ServiceError::WalRecord { offset, .. })
                if offset == clean.records[1].offset)
        );

        // Torn tail: every strict prefix of the log scans without panicking
        // and yields a frame-prefix of the records.
        for cut in 0..log.len() {
            let scanned = scan_bytes(&log[..cut]);
            assert!(scanned.valid_len <= cut as u64);
            assert!(scanned.records.len() <= clean.records.len());
            assert_eq!((scanned.torn.is_none()), scanned.valid_len == cut as u64);
        }
    }

    /// Every single-bit flip in the middle frame's header or payload (two
    /// 16-byte blocks plus a remainder) stops the scan at that frame with a
    /// typed error and keeps exactly the first record.
    #[test]
    fn every_single_bit_flip_in_a_frame_is_caught() {
        let middle: Vec<u8> = (0..43u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let mut log = frame(b"first");
        let offset = log.len();
        log.extend_from_slice(&frame(&middle));
        let end = log.len();
        log.extend_from_slice(&frame(b"third"));
        assert_eq!(scan_bytes(&log).records.len(), 3);
        for byte in offset..end {
            for bit in 0..8 {
                let mut flipped = log.clone();
                flipped[byte] ^= 1 << bit;
                let scanned = scan_bytes(&flipped);
                let at = format!("byte {byte} bit {bit}");
                assert_eq!(scanned.records.len(), 1, "{at}");
                assert_eq!(scanned.records[0].payload, b"first", "{at}");
                assert_eq!(scanned.valid_len, offset as u64, "{at}");
                assert!(
                    matches!(scanned.torn, Some(ServiceError::WalRecord { offset: o, .. })
                        if o == offset as u64),
                    "{at}: {:?}",
                    scanned.torn
                );
            }
        }
    }

    #[test]
    fn overrunning_length_is_a_typed_error() {
        let mut log = frame(b"ok");
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 4]);
        let scanned = scan_bytes(&log);
        assert_eq!(scanned.records.len(), 1);
        assert!(matches!(
            scanned.torn,
            Some(ServiceError::WalRecord { offset: 10, .. })
        ));
    }

    /// A hostile length prefix — larger than the cap but small enough that
    /// the payload *could* plausibly be buffered — is still a typed
    /// truncation, and its reason names the cap, not an overrun.
    #[test]
    fn hostile_length_prefix_is_rejected_by_the_cap() {
        let mut log = frame(b"good");
        let hostile = (MAX_WAL_FRAME_BYTES as u32) + 1;
        log.extend_from_slice(&hostile.to_le_bytes());
        log.extend_from_slice(&[0u8; 4]);
        let good_len = frame(b"good").len() as u64;
        let scanned = scan_bytes(&log);
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.valid_len, good_len);
        match scanned.torn {
            Some(ServiceError::WalRecord { offset, reason }) => {
                assert_eq!(offset, good_len);
                assert!(reason.contains("cap"), "{reason}");
            }
            other => panic!("expected a WalRecord error, got {other:?}"),
        }
    }

    #[test]
    fn writer_refuses_oversized_payloads_before_touching_disk() {
        let dir = std::env::temp_dir().join(format!("mcf0-wal-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let storage = crate::storage::FsStorage;
        let path = dir.join("cap.log");
        let retry = RetryPolicy::none();
        let mut writer = WalWriter::create(&storage, &path, 1, &retry).unwrap();
        let oversized = vec![0u8; MAX_WAL_FRAME_BYTES + 1];
        match writer.append(&oversized, &retry) {
            Err(ServiceError::FrameTooLarge { bytes, limit }) => {
                assert_eq!(bytes, oversized.len() as u64);
                assert_eq!(limit, MAX_WAL_FRAME_BYTES as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Nothing landed; the writer is still usable.
        assert!(writer.is_empty());
        writer.append(b"fine", &retry).unwrap();
        writer.close(&retry).unwrap();
        let scanned = scan_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(scanned.records.len(), 1);
        assert!(scanned.torn.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The streaming cursor agrees with the in-memory scanner byte for byte
    /// even when chunk reads split headers and payloads — clean logs, torn
    /// tails and corrupt frames alike.
    #[test]
    fn cursor_matches_scan_bytes_across_tiny_chunks() {
        let dir = std::env::temp_dir().join(format!("mcf0-wal-cursor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let storage = crate::storage::FsStorage;
        let retry = RetryPolicy::none();

        let mut log = Vec::new();
        for payload in [
            vec![7u8; 100],
            Vec::new(),
            (0..=255u8).cycle().take(700).collect(),
        ] {
            log.extend_from_slice(&frame(&payload));
        }
        // Clean log, a corrupt middle frame, and every torn prefix.
        let mut corrupt = log.clone();
        corrupt[frame(&[7u8; 100]).len() + 4] ^= 1; // CRC field of frame 2
        let mut variants = vec![log.clone(), corrupt];
        variants.extend((0..log.len()).step_by(37).map(|cut| log[..cut].to_vec()));

        for (i, bytes) in variants.iter().enumerate() {
            let path = dir.join(format!("log-{i}"));
            std::fs::write(&path, bytes).unwrap();
            let expected = scan_bytes(bytes);
            for chunk in [16usize, 64, 1 << 20] {
                let mut cursor = WalCursor::with_chunk(&storage, &path, retry, chunk);
                let mut records = Vec::new();
                while let Some(r) = cursor.next_record().unwrap() {
                    records.push(r);
                }
                let (valid_len, torn) = cursor.finish();
                assert_eq!(records, expected.records, "variant {i} chunk {chunk}");
                assert_eq!(valid_len, expected.valid_len, "variant {i} chunk {chunk}");
                assert_eq!(
                    torn.is_some(),
                    expected.torn.is_some(),
                    "variant {i} chunk {chunk}"
                );
                assert_eq!(torn, expected.torn, "variant {i} chunk {chunk}");
            }
        }

        // A missing file scans as an empty log.
        let mut cursor = WalCursor::new(&storage, &dir.join("absent"), retry);
        assert!(cursor.next_record().unwrap().is_none());
        assert_eq!(cursor.finish(), (0, None));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
