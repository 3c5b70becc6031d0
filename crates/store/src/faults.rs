//! Injectable-failure I/O wrappers for fault-tolerance tests.
//!
//! Crash-safety claims ("a torn checkpoint write never corrupts
//! resume") are only credible if the failure is actually exercised.
//! These wrappers let tests cut an I/O stream at an exact byte offset:
//!
//! * [`FaultyWriter`] forwards writes to the inner writer until a byte
//!   budget is exhausted, then either errors ([`FaultKind::Error`]) or
//!   silently drops the rest ([`FaultKind::SilentTruncate`]) — the two
//!   ways a crash or full disk tears a write in practice.
//! * [`FaultyReader`] mirrors the same for reads, modelling a file that
//!   went unreadable partway through.

use std::io::{self, Read, Write};

/// What happens once the byte budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an `io::Error` (kind `Other`, message `"injected fault"`).
    Error,
    /// Pretend the bytes were written/read but drop them — models a
    /// crash between `write()` and `fsync()`.
    SilentTruncate,
    /// Keep writing/reading but flip the top bit of every byte past the
    /// budget — models silent media corruption that only a checksum
    /// (e.g. the checkpoint CRC envelope) can catch.
    Corrupt,
}

/// A writer that fails after forwarding `budget` bytes.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    budget: usize,
    kind: FaultKind,
    written: usize,
    tripped: bool,
}

impl<W: Write> FaultyWriter<W> {
    /// Wrap `inner`; the first `budget` bytes pass through untouched.
    pub fn new(inner: W, budget: usize, kind: FaultKind) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            budget,
            kind,
            written: 0,
            tripped: false,
        }
    }

    /// Bytes actually forwarded to the inner writer.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Whether the fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Unwrap the inner writer (e.g. to inspect the partial output).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.budget.saturating_sub(self.written);
        if room == 0 {
            self.tripped = true;
            return match self.kind {
                FaultKind::Error => Err(io::Error::other("injected fault")),
                // Claim success so the caller keeps going, exactly like
                // data sitting in a page cache that never hits disk.
                FaultKind::SilentTruncate => Ok(buf.len()),
                FaultKind::Corrupt => {
                    let garbled: Vec<u8> = buf.iter().map(|b| b ^ 0x80).collect();
                    let n = self.inner.write(&garbled)?;
                    self.written += n;
                    Ok(n)
                }
            };
        }
        let n = room.min(buf.len());
        let n = self.inner.write(&buf[..n])?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reads pass straight through: wrapping a duplex stream (e.g. a server
/// connection) in a `FaultyWriter` injects faults into the *response*
/// direction only, leaving the request readable.
impl<W: Read> Read for FaultyWriter<W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

/// A reader that fails after yielding `budget` bytes.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    budget: usize,
    kind: FaultKind,
    read: usize,
}

impl<R: Read> FaultyReader<R> {
    /// Wrap `inner`; the first `budget` bytes read normally.
    pub fn new(inner: R, budget: usize, kind: FaultKind) -> FaultyReader<R> {
        FaultyReader {
            inner,
            budget,
            kind,
            read: 0,
        }
    }

    /// Bytes yielded so far.
    pub fn bytes_read(&self) -> usize {
        self.read
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let room = self.budget.saturating_sub(self.read);
        if room == 0 {
            return match self.kind {
                FaultKind::Error => Err(io::Error::other("injected fault")),
                // EOF early: the file looks shorter than it was.
                FaultKind::SilentTruncate => Ok(0),
                FaultKind::Corrupt => {
                    let n = self.inner.read(buf)?;
                    for b in &mut buf[..n] {
                        *b ^= 0x80;
                    }
                    self.read += n;
                    Ok(n)
                }
            };
        }
        let cap = room.min(buf.len());
        let n = self.inner.read(&mut buf[..cap])?;
        self.read += n;
        Ok(n)
    }
}

/// Writes pass straight through: the mirror of `FaultyWriter`'s `Read`
/// pass-through, so a duplex stream wrapped in a `FaultyReader` injects
/// faults into the *request* direction only.
impl<R: Write> Write for FaultyReader<R> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_errors_at_the_budget() {
        let mut w = FaultyWriter::new(Vec::new(), 5, FaultKind::Error);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        assert_eq!(w.write(b"defg").unwrap(), 2, "clipped to the budget");
        assert!(w.write(b"h").is_err());
        assert!(w.tripped());
        assert_eq!(w.into_inner(), b"abcde");
    }

    #[test]
    fn writer_silent_truncate_claims_success() {
        let mut w = FaultyWriter::new(Vec::new(), 4, FaultKind::SilentTruncate);
        w.write_all(b"0123456789").unwrap();
        assert_eq!(w.written(), 4);
        assert_eq!(
            w.into_inner(),
            b"0123",
            "everything past the budget vanished"
        );
    }

    #[test]
    fn wrappers_are_duplex_pass_through() {
        // A `Cursor` is both Read and Write, standing in for a
        // connection stream. Faults fire only in the wrapped direction.
        let duplex = io::Cursor::new(b"request".to_vec());
        let mut w = FaultyWriter::new(duplex, 3, FaultKind::Error);
        let mut req = [0u8; 7];
        w.read_exact(&mut req).unwrap();
        assert_eq!(&req, b"request", "reads are untouched");
        assert_eq!(w.write(b"resp").unwrap(), 3, "writes clip at the budget");
        assert!(w.write(b"onse").is_err());

        let duplex = io::Cursor::new(b"request".to_vec());
        let mut r = FaultyReader::new(duplex, 3, FaultKind::Error);
        let mut part = [0u8; 3];
        r.read_exact(&mut part).unwrap();
        assert!(r.read(&mut part).is_err(), "reads fault at the budget");
        r.flush().unwrap();
    }

    #[test]
    fn corrupt_kind_garbles_past_the_budget() {
        let mut w = FaultyWriter::new(Vec::new(), 3, FaultKind::Corrupt);
        w.write_all(b"abcdef").unwrap();
        let out = w.into_inner();
        assert_eq!(&out[..3], b"abc", "prefix intact");
        assert_eq!(out[3], b'd' ^ 0x80, "suffix silently garbled");
        assert_eq!(out.len(), 6, "nothing is dropped — only damaged");

        let data = b"abcdef".to_vec();
        let mut r = FaultyReader::new(&data[..], 3, FaultKind::Corrupt);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(&out[..3], b"abc");
        assert_eq!(out[3], b'd' ^ 0x80);
    }

    #[test]
    fn reader_cuts_at_the_budget() {
        let data = b"hello world".to_vec();
        let mut r = FaultyReader::new(&data[..], 5, FaultKind::SilentTruncate);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");

        let mut r = FaultyReader::new(&data[..], 5, FaultKind::Error);
        let mut out = Vec::new();
        assert!(r.read_to_end(&mut out).is_err());
        assert_eq!(out, b"hello", "prefix still delivered before the fault");
    }
}
