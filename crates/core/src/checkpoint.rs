//! Durable session checkpoints: versioned envelope, atomic writes,
//! retention, corruption-tolerant resume, and the batch cadence that
//! drives them.
//!
//! A long-running incremental session (§4.6) is only useful if hours of
//! accumulated schema state survive a crash. [`CheckpointStore`]
//! persists [`SessionCheckpoint`]s to a directory with the guarantees a
//! stream consumer actually needs:
//!
//! * **Versioned envelope** — every file starts with a one-line ASCII
//!   header `PGHIVE-CKPT v3 len=<n> crc32=<hex>` followed by the JSON
//!   payload. The length catches truncation, the CRC-32 catches bit
//!   rot (CRC-32 detects *all* single-bit errors), and the version
//!   gates format evolution: this build writes v3 and reads v1–v3.
//! * **One frame per session** — v3 adds two optional fields to v2, a
//!   live session's stream-side state (`aux`) and its host's own fields
//!   (`host`), so one checksummed file made durable by one rename holds
//!   all a restart needs. A bare engine checkpoint (the CLI's) has
//!   neither: its payload is the v2 payload byte for byte.
//! * **Atomic writes** — payloads are written to a temp file in the
//!   same directory, fsynced, then renamed over the final name; the
//!   directory is fsynced afterwards. A crash mid-write leaves at
//!   worst a stray temp file, never a half-written checkpoint under a
//!   valid name.
//! * **Retention** — only the newest `keep` checkpoints are retained
//!   (default [`CheckpointStore::DEFAULT_KEEP`]); older ones are
//!   pruned after each successful save.
//! * **Fallback resume** — [`CheckpointStore::resume`] walks
//!   checkpoints newest-first, skipping any file that fails envelope
//!   validation, and loads the newest *valid* one. Corrupt files are
//!   reported, not trusted.
//!
//! The byte-level [`encode`]/[`decode`] functions are exposed so
//! fault-injection tests can corrupt envelopes at arbitrary offsets
//! without going through the filesystem.

use crate::incremental::SessionCheckpoint;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::PathBuf;

/// The envelope format version this build writes. A v3 payload is a v2
/// payload plus the optional `aux` and `host` fields; the bump makes a
/// v2-only reader refuse a v3 file by version rather than resume a live
/// session's engine state without the stream-side state beside it.
pub const FORMAT_VERSION: u32 = 3;

/// The oldest envelope version this build reads. A v1 payload is a v2
/// payload plus the five fields of the pattern memo a session once
/// carried (`node_cache`, `edge_cache`, `cache_hits`, `node_fps`,
/// `edge_fps`); the decoder skips them like any field it does not know,
/// so the session resumes from the schema, accumulators and embedder
/// rows alone. A v1-only reader needs those fields, hence the bump: it
/// refuses a v2 file by version instead of failing on a missing field.
const OLDEST_READABLE_VERSION: u32 = 1;

const MAGIC: &str = "PGHIVE-CKPT";
const FILE_SUFFIX: &str = ".pghive";

/// Errors raised by checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// An envelope failed validation (bad magic, version, length,
    /// checksum, or payload).
    Corrupt {
        /// The offending file, when the bytes came from disk.
        path: Option<PathBuf>,
        /// What failed.
        reason: String,
    },
    /// `resume()` found checkpoint files but none of them were valid.
    NoValidCheckpoint {
        /// Every file tried, newest first, with its failure reason.
        skipped: Vec<(PathBuf, String)>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { context, source } => {
                write!(f, "checkpoint I/O error while {context}: {source}")
            }
            CheckpointError::Corrupt { path, reason } => match path {
                Some(p) => write!(f, "corrupt checkpoint {}: {reason}", p.display()),
                None => write!(f, "corrupt checkpoint: {reason}"),
            },
            CheckpointError::NoValidCheckpoint { skipped } => {
                write!(f, "no valid checkpoint found; tried {}:", skipped.len())?;
                for (p, why) in skipped {
                    write!(f, "\n  {}: {why}", p.display())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> CheckpointError {
    let context = context.into();
    move |source| CheckpointError::Io { context, source }
}

/// One step of the bitwise CRC-32: fold the low byte of `crc` through
/// the reflected polynomial `0xEDB88320`.
const fn crc32_fold_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        bit += 1;
    }
    crc
}

/// Slice-by-8 tables: `CRC32_TABLES[0]` is the classic byte table,
/// `CRC32_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        tables[0][b] = crc32_fold_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the payload
/// checksum of the checkpoint envelope. Table driven, eight bytes per
/// step; the tests hold it to the bitwise form.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Fold `bytes` into a running (uninverted) CRC-32 register, so a payload
/// held in pieces is checksummed piece by piece.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The rows of a session's trained label embedder, as a checkpoint
/// carries them ([`SessionCheckpoint::embedder`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbedderRows {
    /// Each trained token, in row order.
    pub tokens: Vec<String>,
    /// The tokens' embeddings, row-major `tokens × dim`.
    pub vectors: F64Bits,
}

/// `f64`s on the wire as their IEEE-754 bit patterns, sixteen hex digits
/// each, back to back in one string: what is read is what was written
/// bit for bit, with no decimal rendering in between to trust, in four
/// fifths of the bytes shortest-round-trip decimals take.
#[derive(Debug, Clone, PartialEq)]
pub struct F64Bits(pub Vec<f64>);

impl Serialize for F64Bits {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        use fmt::Write as _;
        let mut hex = String::with_capacity(self.0.len() * 16);
        for x in &self.0 {
            write!(hex, "{:016x}", x.to_bits()).expect("writing to a String");
        }
        sink.str(&hex)
    }
}

impl Deserialize for F64Bits {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let hex = value
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected a string of f64 bit patterns"))?;
        (hex.as_bytes().chunks(16))
            .map(|digits| {
                // `from_str_radix` alone would take a sign or a short tail.
                let digits = std::str::from_utf8(digits)
                    .ok()
                    .filter(|d| d.len() == 16 && d.bytes().all(|b| b.is_ascii_hexdigit()))?;
                u64::from_str_radix(digits, 16).ok().map(f64::from_bits)
            })
            .collect::<Option<_>>()
            .map(F64Bits)
            .ok_or_else(|| serde::Error::custom("malformed f64 bit patterns"))
    }
}

/// A checkpoint's envelope header and its payload, the payload in the
/// buffers the serializer filled: written out piece by piece, a frame is
/// never held twice.
fn frame(ckpt: &SessionCheckpoint) -> Result<(String, Vec<String>), CheckpointError> {
    let parts = serde_json::to_string_parts(ckpt).map_err(|e| CheckpointError::Corrupt {
        path: None,
        reason: format!("serializing checkpoint: {e}"),
    })?;
    let len: usize = parts.iter().map(String::len).sum();
    let crc = !(parts.iter()).fold(0xFFFF_FFFF, |crc, p| crc32_update(crc, p.as_bytes()));
    let header = format!("{MAGIC} v{FORMAT_VERSION} len={len} crc32={crc:08x}\n");
    Ok((header, parts))
}

/// Serialize a checkpoint into its envelope bytes.
pub fn encode(ckpt: &SessionCheckpoint) -> Result<Vec<u8>, CheckpointError> {
    let (header, parts) = frame(ckpt)?;
    let mut out = header.into_bytes();
    out.reserve_exact(parts.iter().map(String::len).sum());
    for part in &parts {
        out.extend_from_slice(part.as_bytes());
    }
    Ok(out)
}

/// Validate an envelope and deserialize the checkpoint inside. Any
/// deviation — missing or garbled header, wrong magic, unsupported
/// version, short or long payload, checksum mismatch, undecodable JSON
/// — yields [`CheckpointError::Corrupt`]; garbage is never returned as
/// a checkpoint.
pub fn decode(bytes: &[u8]) -> Result<SessionCheckpoint, CheckpointError> {
    let corrupt = |reason: String| CheckpointError::Corrupt { path: None, reason };

    // The header is one short ASCII line; cap the newline scan so a
    // corrupt multi-gigabyte blob is rejected cheaply.
    let header_end = bytes
        .iter()
        .take(128)
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing envelope header".into()))?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| corrupt("header is not UTF-8".into()))?;

    let parts: Vec<&str> = header.split_whitespace().collect();
    let [magic, version, len, crc] = parts.as_slice() else {
        return Err(corrupt(format!("malformed header {header:?}")));
    };
    if *magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:?}")));
    }
    let version: u32 = version
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("malformed version {version:?}")))?;
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(corrupt(format!(
            "unsupported format version {version} (this build reads \
             v{OLDEST_READABLE_VERSION}–v{FORMAT_VERSION})"
        )));
    }
    let expected_len: usize = len
        .strip_prefix("len=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("malformed length field {len:?}")))?;
    let expected_crc: u32 = crc
        .strip_prefix("crc32=")
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| corrupt(format!("malformed checksum field {crc:?}")))?;

    let payload = &bytes[header_end + 1..];
    if payload.len() < expected_len {
        return Err(corrupt(format!(
            "truncated payload: have {} of {expected_len} bytes",
            payload.len()
        )));
    }
    if payload.len() > expected_len {
        return Err(corrupt(format!(
            "trailing garbage: have {} of {expected_len} bytes",
            payload.len()
        )));
    }
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(corrupt(format!(
            "checksum mismatch: stored {expected_crc:08x}, computed {actual_crc:08x}"
        )));
    }
    let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| corrupt(format!("undecodable payload: {e}")))
}

/// The result of [`CheckpointStore::resume`].
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The newest valid checkpoint, or `None` if the directory holds no
    /// checkpoint files at all (a fresh start, not an error).
    pub checkpoint: Option<SessionCheckpoint>,
    /// The file the checkpoint was loaded from.
    pub path: Option<PathBuf>,
    /// Files that failed validation and were skipped, newest first.
    pub skipped: Vec<(PathBuf, String)>,
}

/// A directory of durable, sequence-numbered checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Checkpoints retained by default.
    pub const DEFAULT_KEEP: usize = 3;

    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(io_err(format!("creating directory {}", dir.display())))?;
        Ok(CheckpointStore {
            dir,
            keep: Self::DEFAULT_KEEP,
        })
    }

    /// Set how many checkpoints to retain (minimum 1).
    pub fn with_retention(mut self, keep: usize) -> CheckpointStore {
        self.keep = keep.max(1);
        self
    }

    /// Sequence-numbered checkpoint files, sorted oldest → newest.
    /// Files whose names don't match `ckpt-<seq>.pghive` are ignored.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut found = Vec::new();
        let entries =
            fs::read_dir(&self.dir).map_err(io_err(format!("listing {}", self.dir.display())))?;
        for entry in entries {
            let entry = entry.map_err(io_err(format!("listing {}", self.dir.display())))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|r| r.strip_suffix(FILE_SUFFIX))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            found.push((seq, entry.path()));
        }
        found.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(found)
    }

    /// Persist a checkpoint atomically (temp file + fsync + rename +
    /// directory fsync) under the next sequence number, then prune
    /// checkpoints beyond the retention limit. Returns the final path.
    pub fn save(&self, ckpt: &SessionCheckpoint) -> Result<PathBuf, CheckpointError> {
        let seq = self.list()?.last().map_or(0, |(s, _)| s + 1);
        let final_path = self.dir.join(format!("ckpt-{seq:08}{FILE_SUFFIX}"));
        let tmp_path = self.dir.join(format!(".tmp-ckpt-{seq:08}"));

        let (header, parts) = frame(ckpt)?;
        let mut f =
            File::create(&tmp_path).map_err(io_err(format!("creating {}", tmp_path.display())))?;
        (std::iter::once(&header).chain(&parts))
            .try_for_each(|part| f.write_all(part.as_bytes()))
            .map_err(io_err(format!("writing {}", tmp_path.display())))?;
        f.sync_all()
            .map_err(io_err(format!("fsyncing {}", tmp_path.display())))?;
        drop(f);
        fs::rename(&tmp_path, &final_path).map_err(io_err(format!(
            "renaming {} to {}",
            tmp_path.display(),
            final_path.display()
        )))?;
        // Make the rename itself durable. Directory fsync is
        // best-effort: some platforms refuse to open directories.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }

        self.prune()?;
        Ok(final_path)
    }

    /// Delete checkpoints beyond the retention limit, oldest first.
    fn prune(&self) -> Result<(), CheckpointError> {
        let files = self.list()?;
        if files.len() > self.keep {
            for (_, path) in &files[..files.len() - self.keep] {
                fs::remove_file(path).map_err(io_err(format!("pruning {}", path.display())))?;
            }
        }
        Ok(())
    }

    /// Load the newest valid checkpoint, skipping (and reporting) any
    /// that fail envelope validation. An empty directory is a fresh
    /// start (`checkpoint: None`); a directory with only corrupt files
    /// is [`CheckpointError::NoValidCheckpoint`].
    pub fn resume(&self) -> Result<ResumeOutcome, CheckpointError> {
        self.resume_where(|_| Ok(()))
    }

    /// [`resume`](CheckpointStore::resume) from the newest valid
    /// checkpoint that `accept` also takes; each one it refuses is
    /// skipped with the reason it gives, like a corrupt file.
    pub fn resume_where(
        &self,
        mut accept: impl FnMut(&SessionCheckpoint) -> Result<(), String>,
    ) -> Result<ResumeOutcome, CheckpointError> {
        let mut files = self.list()?;
        files.reverse(); // newest first
        if files.is_empty() {
            return Ok(ResumeOutcome {
                checkpoint: None,
                path: None,
                skipped: Vec::new(),
            });
        }
        let mut skipped = Vec::new();
        for (_, path) in files {
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    skipped.push((path, format!("unreadable: {e}")));
                    continue;
                }
            };
            match decode(&bytes).map_err(|e| e.to_string()).and_then(|ckpt| {
                accept(&ckpt)?;
                Ok(ckpt)
            }) {
                Ok(ckpt) => {
                    return Ok(ResumeOutcome {
                        checkpoint: Some(ckpt),
                        path: Some(path),
                        skipped,
                    });
                }
                Err(why) => skipped.push((path, why)),
            }
        }
        Err(CheckpointError::NoValidCheckpoint { skipped })
    }
}

/// The durability of one session: its [`CheckpointStore`] and the batch
/// cadence that decides when the next frame is written. The CLI's
/// checkpointed `discover` and the server's live sessions both persist
/// through it, and it is the only caller of [`CheckpointStore::save`].
#[derive(Debug)]
pub struct DurableSession {
    store: CheckpointStore,
    every: u64,
    lag: u64,
}

impl DurableSession {
    /// Persist through `store`, a frame every `every` applied batches
    /// (0: only when [`persist`](DurableSession::persist) is called).
    pub fn new(store: CheckpointStore, every: u64) -> DurableSession {
        DurableSession {
            store,
            every,
            lag: 0,
        }
    }

    /// Load the newest valid frame (see [`CheckpointStore::resume`]).
    pub fn resume(&self) -> Result<ResumeOutcome, CheckpointError> {
        self.store.resume()
    }

    /// Count `batches` more applied batches that no frame on disk holds
    /// yet; returns whether the cadence now asks for a save. After a
    /// failed save the count keeps growing, so every later tick retries.
    pub fn tick(&mut self, batches: u64) -> bool {
        self.lag += batches;
        self.every > 0 && self.lag >= self.every
    }

    /// Batches applied since the last frame was written: what a crash
    /// right now would lose.
    pub fn lag(&self) -> u64 {
        self.lag
    }

    /// Write `frame` as the session's newest checkpoint. Only a save that
    /// completed resets the lag; on failure the previous frame stays the
    /// resume point.
    pub fn persist(&mut self, frame: &SessionCheckpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.store.save(frame)?;
        self.lag = 0;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiveConfig;
    use crate::incremental::HiveSession;
    use pg_model::{LabelSet, Node, PropertyGraph};
    use proptest::prelude::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pg-hive-ckpt-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_checkpoint() -> SessionCheckpoint {
        let mut g = PropertyGraph::new();
        for i in 0..8 {
            g.add_node(Node::new(i, LabelSet::single("Person")).with_prop("age", i as i64))
                .unwrap();
        }
        let mut cfg = HiveConfig::default();
        if let crate::config::EmbeddingKind::Word2Vec(ref mut w) = cfg.embedding {
            w.dim = 4;
            w.epochs = 1;
        }
        cfg.post_processing = false;
        let mut session = HiveSession::new(cfg);
        let (nodes, edges) = pg_store::load(&g);
        session.process_batch(&nodes, &edges);
        session.checkpoint()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise form the table-driven [`crc32`] replaced, kept as its
    /// oracle: table-free and obviously correct.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest! {
        /// Every length class of the eight-byte stride: empty, shorter
        /// than one step, exact multiples, ragged tails.
        #[test]
        fn crc32_matches_the_bitwise_oracle(
            bytes in prop::collection::vec(any::<u8>(), 0..200),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = small_checkpoint();
        let bytes = encode(&ckpt).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.batches_processed, ckpt.batches_processed);
        assert_eq!(back.schema, ckpt.schema);
        assert_eq!(back.node_accums.len(), ckpt.node_accums.len());
    }

    #[test]
    fn header_is_humane_ascii() {
        let bytes = encode(&small_checkpoint()).unwrap();
        let header: Vec<u8> = bytes.iter().copied().take_while(|&b| b != b'\n').collect();
        let header = String::from_utf8(header).unwrap();
        assert!(header.starts_with("PGHIVE-CKPT v3 len="), "{header}");
        assert!(header.contains("crc32="), "{header}");
    }

    #[test]
    fn truncation_is_detected_at_every_boundary() {
        let bytes = encode(&small_checkpoint()).unwrap();
        // Spot-check a spread of prefixes including the empty file.
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt { .. }),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = encode(&small_checkpoint()).unwrap();
        for pos in [0, 3, 14, bytes.len() / 2, bytes.len() - 1] {
            for bit in [0, 4, 7] {
                let mut evil = bytes.clone();
                evil[pos] ^= 1 << bit;
                assert!(
                    decode(&evil).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&small_checkpoint()).unwrap();
        bytes.extend_from_slice(b"junk");
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn future_versions_are_refused_not_misread() {
        let bytes = encode(&small_checkpoint()).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        // The same refusal a v1–v2 build gives a v3 file ("unsupported
        // format version 3 (this build reads v1–v2)"; `schema_identity.sh`
        // drives that build).
        for (other, refusal) in [
            (
                0u64,
                "unsupported format version 0 (this build reads v1–v3)",
            ),
            (4, "unsupported format version 4 (this build reads v1–v3)"),
            (1 << 32, "malformed version \"v4294967296\""),
        ] {
            let bumped = text.replacen("PGHIVE-CKPT v3 ", &format!("PGHIVE-CKPT v{other} "), 1);
            let err = decode(bumped.as_bytes()).unwrap_err().to_string();
            assert!(err.ends_with(refusal), "v{other}: {err}");
        }
    }

    #[test]
    fn save_resume_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let ckpt = small_checkpoint();
        let path = store.save(&ckpt).unwrap();
        assert!(path.exists());
        let outcome = store.resume().unwrap();
        assert_eq!(outcome.path.as_deref(), Some(path.as_path()));
        assert!(outcome.skipped.is_empty());
        assert_eq!(outcome.checkpoint.unwrap().schema, ckpt.schema);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_is_a_fresh_start() {
        let dir = tmpdir("fresh");
        let store = CheckpointStore::open(&dir).unwrap();
        let outcome = store.resume().unwrap();
        assert!(outcome.checkpoint.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_prunes_oldest() {
        let dir = tmpdir("retention");
        let store = CheckpointStore::open(&dir).unwrap().with_retention(2);
        let ckpt = small_checkpoint();
        for _ in 0..5 {
            store.save(&ckpt).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(
            files.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![3, 4],
            "the newest sequence numbers survive"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_one_keeps_exactly_the_newest_and_recovers_past_corruption() {
        let dir = tmpdir("retention-one");
        let store = CheckpointStore::open(&dir).unwrap().with_retention(1);
        let ckpt = small_checkpoint();
        for _ in 0..3 {
            store.save(&ckpt).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 1, "keep=1 retains a single file");
        assert_eq!(files[0].0, 2, "and it is the newest sequence");

        // Corrupt the sole survivor: resume must refuse (there is
        // nothing valid to fall back to), not fabricate a fresh start.
        fs::write(&files[0].1, b"scribbled over").unwrap();
        match store.resume().unwrap_err() {
            CheckpointError::NoValidCheckpoint { skipped } => assert_eq!(skipped.len(), 1),
            other => panic!("wrong error {other}"),
        }

        // The next save sequences past the corrupt file, prunes it, and
        // resume is healthy again.
        store.save(&ckpt).unwrap();
        let files = store.list().unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(
            files[0].0, 3,
            "sequence numbering continues past the corpse"
        );
        let outcome = store.resume().unwrap();
        assert!(outcome.checkpoint.is_some());
        assert!(outcome.skipped.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_falls_back_past_a_corrupt_newest() {
        let dir = tmpdir("fallback");
        let store = CheckpointStore::open(&dir).unwrap();
        let ckpt = small_checkpoint();
        let good = store.save(&ckpt).unwrap();
        let newest = store.save(&ckpt).unwrap();
        // Truncate the newest file to half its size.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let outcome = store.resume().unwrap();
        assert_eq!(outcome.path.as_deref(), Some(good.as_path()));
        assert_eq!(outcome.skipped.len(), 1);
        assert_eq!(outcome.skipped[0].0, newest);
        assert!(outcome.checkpoint.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_an_error_not_garbage() {
        let dir = tmpdir("all-corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        let ckpt = small_checkpoint();
        for _ in 0..2 {
            store.save(&ckpt).unwrap();
        }
        for (_, path) in store.list().unwrap() {
            fs::write(&path, b"PGHIVE-CKPT v1 len=4 crc32=deadbeef\nXXXX").unwrap();
        }
        let err = store.resume().unwrap_err();
        match err {
            CheckpointError::NoValidCheckpoint { skipped } => assert_eq!(skipped.len(), 2),
            other => panic!("wrong error {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_files_are_ignored_by_listing() {
        let dir = tmpdir("stray");
        let store = CheckpointStore::open(&dir).unwrap();
        fs::write(dir.join("notes.txt"), "hi").unwrap();
        fs::write(dir.join(".tmp-ckpt-00000000"), "torn write leftovers").unwrap();
        let ckpt = small_checkpoint();
        store.save(&ckpt).unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        assert!(store.resume().unwrap().checkpoint.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bare_checkpoint_frame_has_no_aux_or_host_field() {
        let bytes = encode(&small_checkpoint()).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("\"aux\":") && !text.contains("\"host\":"));
        assert!(decode(text.as_bytes()).unwrap().host.is_none());
    }

    #[test]
    fn durable_session_saves_on_its_cadence_and_retries_a_failed_save() {
        let dir = tmpdir("durable");
        let mut durable = DurableSession::new(CheckpointStore::open(&dir).unwrap(), 2);
        let ckpt = small_checkpoint();
        assert!(!durable.tick(1));
        assert!(durable.tick(1), "the second batch is due");
        durable.persist(&ckpt).unwrap();
        assert_eq!(durable.lag(), 0);

        // A directory where the next temp frame goes fails the save.
        let obstacle = dir.join(".tmp-ckpt-00000001");
        fs::create_dir(&obstacle).unwrap();
        assert!(!durable.tick(1));
        assert!(durable.tick(1));
        assert!(durable.persist(&ckpt).is_err());
        assert_eq!(durable.lag(), 2, "a failed save leaves the lag counting");
        assert!(durable.tick(1), "and the next batch retries");
        fs::remove_dir(&obstacle).unwrap();
        let path = durable.persist(&ckpt).unwrap();
        assert!(path.ends_with("ckpt-00000001.pghive"));
        assert_eq!(durable.lag(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_where_skips_what_the_caller_refuses() {
        let dir = tmpdir("resume-where");
        let store = CheckpointStore::open(&dir).unwrap();
        let ckpt = small_checkpoint();
        let older = store.save(&ckpt).unwrap();
        let newer = store.save(&ckpt).unwrap();
        let mut seen = 0;
        let outcome = store
            .resume_where(|_| {
                seen += 1;
                match seen {
                    1 => Err("not this one".to_owned()),
                    _ => Ok(()),
                }
            })
            .unwrap();
        assert_eq!(outcome.path.as_deref(), Some(older.as_path()));
        assert_eq!(outcome.skipped, vec![(newer, "not this one".to_owned())]);
        let _ = fs::remove_dir_all(&dir);
    }
}
