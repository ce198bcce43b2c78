//! The one durable record format: every byte-level decision of the
//! checkpoint log ([`crate::ckstore`]), the job journal and the result
//! store (`eul3d-serve`) lives here.
//!
//! ```text
//! file:   magic (8) | version u32 LE | frame*
//! frame:  len u32 LE | crc32(payload) u32 LE | payload (len bytes)
//! ```
//!
//! A [`Log`] is the append-only shape. Opening one keeps the **longest
//! valid prefix**: the scan ends at the first frame that is cut short,
//! whose length field is over the cap, whose CRC mismatches, or whose
//! payload the caller's visitor rejects; the file is truncated back to
//! that frame boundary and a [`TailReport`] says what was dropped. A
//! `kill -9` at any byte boundary therefore loses at most the frame
//! being written, and any single damaged byte costs the records from
//! that frame on — never a record that was not written.
//! [`write_atomic`] / [`read_one`] are the one-frame shape: written
//! temp-then-rename, read back as "absent" unless the file is exactly
//! one valid frame.
//!
//! [`ByteWriter`] / [`ByteReader`] are the payload cursor the binary
//! record types encode through: little-endian integers, floats as their
//! bit patterns (so decode is the exact inverse of encode),
//! length-prefixed byte strings.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

const HEADER_LEN: usize = 12;
/// Bytes of `len | crc` in front of every payload.
const FRAME_HEAD: usize = 8;
/// Sanity cap on one frame (a fine-grid state of ~30M f64s); a length
/// field beyond this is corruption, not an allocation, and a payload
/// beyond it is refused before anything is written.
const MAX_FRAME_LEN: usize = 1 << 28;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the zlib/gzip
/// checksum, eight bytes per step (slicing-by-8): replaying the service
/// journal checksums every record on the startup path.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    }
    static T: [[u32; 256]; 8] = tables();
    let mut c = !0u32;
    let (words, rest) = bytes.as_chunks::<8>();
    for w in words {
        let x = u64::from_le_bytes(*w) ^ c as u64;
        c = (0..8).fold(0, |acc, k| acc ^ T[7 - k][(x >> (8 * k)) as u8 as usize]);
    }
    for &b in rest {
        c = T[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    !c
}

/// A durable-file failure. Tail damage is *not* an error — it is a
/// [`TailReport`] (logs) or an absent record (one-frame files).
#[derive(Debug)]
pub enum FramedError {
    /// The file exists but starts with another magic or version.
    BadHeader,
    /// The payload is over the frame cap; nothing was written.
    TooLarge { len: usize },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for FramedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FramedError::BadHeader => write!(f, "not this EUL3D record file (bad header)"),
            FramedError::TooLarge { len } => write!(f, "{len}-byte record is over the frame cap"),
            FramedError::Io(e) => write!(f, "record file I/O error: {e}"),
        }
    }
}

impl std::error::Error for FramedError {}

impl From<io::Error> for FramedError {
    fn from(e: io::Error) -> FramedError {
        FramedError::Io(e)
    }
}

impl From<FramedError> for io::Error {
    fn from(e: FramedError) -> io::Error {
        match e {
            FramedError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

/// What opening a log dropped while recovering the longest valid
/// prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReport {
    /// 1 when the scan stopped at a torn, corrupt or rejected frame and
    /// dropped it with everything behind it (how many frames that was is
    /// unknowable once a length field is suspect), else 0.
    pub dropped_frames: usize,
    /// Bytes truncated from the file.
    pub dropped_bytes: u64,
}

fn header(magic: &[u8; 8], version: u32) -> Vec<u8> {
    [&magic[..], &version.to_le_bytes()].concat()
}

/// The length field for a `len`-byte payload, or `TooLarge`.
fn check_len(len: usize) -> Result<u32, FramedError> {
    match u32::try_from(len) {
        Ok(n) if len <= MAX_FRAME_LEN => Ok(n),
        _ => Err(FramedError::TooLarge { len }),
    }
}

/// `file_header | len | crc | payload` — `file_header` is empty for a
/// log append, the 12 header bytes for a one-frame file.
fn frame(file_header: &[u8], payload: &[u8]) -> Result<Vec<u8>, FramedError> {
    let len = check_len(payload.len())?.to_le_bytes();
    Ok([file_header, &len, &crc32(payload).to_le_bytes(), payload].concat())
}

/// The payload of the complete, CRC-valid frame `bytes` starts with.
fn first_frame(bytes: &[u8]) -> Option<&[u8]> {
    let mut r = ByteReader(bytes);
    let (len, crc) = (r.u32()? as usize, r.u32()?);
    let payload = r.take(len)?;
    (len <= MAX_FRAME_LEN && crc32(payload) == crc).then_some(payload)
}

/// An open append-only file of frames.
#[derive(Debug)]
pub struct Log {
    file: File,
}

impl Log {
    /// Open (or create, with its parent directory) the log at `path`,
    /// hand every payload of the longest valid prefix to `visit` in
    /// order — as a slice of the read buffer; `false` rejects the frame
    /// and ends the prefix there — and truncate whatever follows. A file
    /// shorter than the header is a torn creation and recovers as an
    /// empty log; a full header with another magic or version is
    /// [`FramedError::BadHeader`] and the file is left alone.
    pub fn open(
        path: &Path,
        magic: &[u8; 8],
        version: u32,
        mut visit: impl FnMut(&[u8]) -> bool,
    ) -> Result<(Log, TailReport), FramedError> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        // Append mode: every write lands at the end of the file, which
        // after the truncation below is the end of the valid prefix.
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let header = header(magic, version);
        let mut valid_end = 0;
        if bytes.len() >= HEADER_LEN {
            if bytes[..HEADER_LEN] != header {
                return Err(FramedError::BadHeader);
            }
            valid_end = HEADER_LEN;
            while let Some(payload) = first_frame(&bytes[valid_end..]).filter(|p| visit(p)) {
                valid_end += FRAME_HEAD + payload.len();
            }
        }
        let tail = TailReport {
            dropped_frames: usize::from(valid_end >= HEADER_LEN && valid_end < bytes.len()),
            dropped_bytes: (bytes.len() - valid_end) as u64,
        };
        if tail.dropped_bytes > 0 {
            file.set_len(valid_end as u64)?;
        }
        if valid_end == 0 {
            file.write_all(&header)?;
        }
        if valid_end == 0 || tail.dropped_bytes > 0 {
            file.sync_data()?;
        }
        Ok((Log { file }, tail))
    }

    /// Append one frame (a single `write_all`). Not durable until
    /// [`Log::sync`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), FramedError> {
        Ok(self.file.write_all(&frame(&[], payload)?)?)
    }

    /// Make every appended frame durable.
    pub fn sync(&mut self) -> Result<(), FramedError> {
        Ok(self.file.sync_data()?)
    }
}

/// Write `payload` as the single frame of the file at `path`,
/// atomically: durable under a `.tmp` sibling first, then renamed, so
/// the file either does not exist or is complete. A failed write removes
/// its temp file.
pub fn write_atomic(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    payload: &[u8],
) -> Result<(), FramedError> {
    let bytes = frame(&header(magic, version), payload)?;
    let tmp = path.with_extension("tmp");
    let written = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    Ok(written?)
}

/// The payload of a file [`write_atomic`] wrote: `Some` only when the
/// file is the expected header, exactly one valid frame, and nothing
/// after it.
pub fn read_one(path: &Path, magic: &[u8; 8], version: u32) -> Option<Vec<u8>> {
    let mut bytes = fs::read(path).ok()?;
    let body = bytes.strip_prefix(&header(magic, version)[..])?;
    let whole = first_frame(body).is_some_and(|p| body.len() == FRAME_HEAD + p.len());
    whole.then(|| bytes.split_off(HEADER_LEN + FRAME_HEAD))
}

/// Payload encoder, the write half of the cursor: build over a `Vec`,
/// take it back with `.0`.
#[derive(Debug, Default)]
pub struct ByteWriter(pub Vec<u8>);

impl ByteWriter {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A count, then each float's bit pattern.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    /// A length, then the bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
}

/// Payload decoder over the bytes still unread: every read is
/// bounds-checked and `None` on a short or malformed payload, and no
/// count allocates before it is checked against what remains.
#[derive(Debug)]
pub struct ByteReader<'a>(pub &'a [u8]);

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    pub fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    /// A count that `unit`-byte items still to be read must fit behind.
    pub fn count(&mut self, unit: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= self.0.len() / unit).then_some(n)
    }
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.count(8)?;
        let (bits, _) = self.take(8 * n)?.as_chunks::<8>();
        let floats = bits.iter().map(|b| f64::from_bits(u64::from_le_bytes(*b)));
        Some(floats.collect())
    }
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const MAGIC: &[u8; 8] = b"EUL3DTST";

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("eul3d-framed-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        let _ = fs::remove_file(&p);
        p
    }

    /// Open and collect every payload of the valid prefix.
    fn open(p: &Path) -> (Log, TailReport, Vec<Vec<u8>>) {
        let mut seen = Vec::new();
        let (log, tail) = Log::open(p, MAGIC, 1, |b| {
            seen.push(b.to_vec());
            true
        })
        .unwrap();
        (log, tail, seen)
    }

    /// The bytewise table-free definition the sliced tables must match.
    fn bitwise_crc(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    #[test]
    fn checksum_matches_known_vectors_and_the_bitwise_definition() {
        // Standard IEEE test vectors (zlib crc32).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Every length around the 8-byte stride, then a long buffer.
        let data: Vec<u8> = (0..4099u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for n in (0..70).chain([4096, 4099]) {
            assert_eq!(crc32(&data[..n]), bitwise_crc(&data[..n]), "len {n}");
        }
    }

    #[test]
    fn fresh_log_is_a_header_and_appends_replay_in_order() {
        let p = tmp("fresh").join("nested").join("x.log");
        let (mut log, tail, seen) = open(&p);
        assert!(tail == TailReport::default() && seen.is_empty());
        assert_eq!(fs::read(&p).unwrap(), header(MAGIC, 1));
        log.append(b"one").unwrap();
        log.append(b"").unwrap();
        log.append(b"three").unwrap();
        log.sync().unwrap();
        let (_, tail, seen) = open(&p);
        assert_eq!(tail, TailReport::default());
        assert_eq!(seen, [&b"one"[..], b"", b"three"]);
    }

    #[test]
    fn torn_header_recovers_empty_and_foreign_header_is_typed_and_untouched() {
        let p = tmp("header");
        for cut in 1..HEADER_LEN {
            fs::write(&p, &header(MAGIC, 1)[..cut]).unwrap();
            let (_, tail, seen) = open(&p);
            assert!(seen.is_empty());
            assert_eq!((tail.dropped_frames, tail.dropped_bytes), (0, cut as u64));
            assert_eq!(fs::read(&p).unwrap(), header(MAGIC, 1), "cut {cut}");
        }
        for foreign in [&b"definitely not a record file"[..], &header(MAGIC, 2)] {
            fs::write(&p, foreign).unwrap();
            let err = Log::open(&p, MAGIC, 1, |_| true).unwrap_err();
            assert!(matches!(err, FramedError::BadHeader), "{err}");
            assert_eq!(fs::read(&p).unwrap(), foreign);
            assert!(read_one(&p, MAGIC, 1).is_none());
        }
        fs::remove_file(&p).ok();
    }

    #[test]
    fn over_cap_length_field_and_visitor_rejection_end_the_prefix() {
        let p = tmp("cap");
        let (mut log, _, _) = open(&p);
        log.append(b"keep").unwrap();
        let keep_len = fs::metadata(&p).unwrap().len();
        // A frame head claiming 4 GiB: corruption, not an allocation.
        let mut bytes = fs::read(&p).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&p, &bytes).unwrap();
        let (mut log, tail, seen) = open(&p);
        assert_eq!(seen, [b"keep"]);
        assert_eq!((tail.dropped_frames, tail.dropped_bytes), (1, 8));
        // A CRC-valid frame the caller cannot decode goes the same way,
        // with everything behind it.
        log.append(b"reject me").unwrap();
        log.append(b"never seen").unwrap();
        let mut seen = Vec::new();
        let (_, tail) = Log::open(&p, MAGIC, 1, |b| {
            seen.push(b.to_vec());
            b != b"reject me"
        })
        .unwrap();
        assert_eq!(seen, [&b"keep"[..], b"reject me"]);
        assert_eq!(tail.dropped_frames, 1);
        assert_eq!(fs::metadata(&p).unwrap().len(), keep_len);
        fs::remove_file(&p).ok();
    }

    #[test]
    fn over_cap_length_is_refused_before_any_frame_is_built() {
        assert_eq!(check_len(MAX_FRAME_LEN).ok(), Some(1 << 28));
        for len in [MAX_FRAME_LEN + 1, u32::MAX as usize + 1, usize::MAX] {
            let err = check_len(len).unwrap_err();
            assert!(
                matches!(err, FramedError::TooLarge { len: l } if l == len),
                "{err}"
            );
            assert_eq!(io::Error::from(err).kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn atomic_file_round_trips_and_is_absent_unless_exactly_one_frame() {
        let d = tmp("atomic");
        fs::create_dir_all(&d).unwrap();
        let p = d.join("k.res");
        assert!(read_one(&p, MAGIC, 1).is_none());
        write_atomic(&p, MAGIC, 1, b"payload").unwrap();
        assert!(!d.join("k.tmp").exists());
        assert_eq!(read_one(&p, MAGIC, 1).as_deref(), Some(&b"payload"[..]));
        assert!(read_one(&p, MAGIC, 2).is_none());
        // Overwrite replaces; a second frame or any trailing byte is
        // not what `write_atomic` writes, so it reads as absent.
        write_atomic(&p, MAGIC, 1, b"").unwrap();
        assert_eq!(read_one(&p, MAGIC, 1).as_deref(), Some(&b""[..]));
        let clean = fs::read(&p).unwrap();
        for extra in [&b"\0"[..], &clean[HEADER_LEN..]] {
            fs::write(&p, [&clean[..], extra].concat()).unwrap();
            assert!(read_one(&p, MAGIC, 1).is_none());
        }
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn failed_atomic_write_removes_its_temp_file() {
        // The destination is a non-empty directory: everything up to the
        // rename succeeds, the rename cannot.
        let d = tmp("tmpclean");
        let dest = d.join("k.res");
        fs::create_dir_all(dest.join("occupied")).unwrap();
        let err = write_atomic(&dest, MAGIC, 1, b"payload").unwrap_err();
        assert!(matches!(err, FramedError::Io(_)), "{err}");
        assert!(!d.join("k.tmp").exists());
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reader_refuses_counts_the_payload_cannot_back() {
        let mut w = ByteWriter::default();
        w.u8(7);
        w.u128(0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10);
        w.f64s(&[1.5, -0.0]);
        w.bytes("héllo".as_bytes());
        let bytes = w.0;
        let mut r = ByteReader(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u128(), Some(0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10));
        let f = r.f64s().unwrap();
        assert_eq!(
            [f[0].to_bits(), f[1].to_bits()],
            [1.5f64.to_bits(), (-0.0f64).to_bits()]
        );
        assert_eq!(r.str(), Some("héllo"));
        assert!(r.0.is_empty());
        // Short by one byte anywhere, or an absurd count: None, never a
        // panic or an allocation sized by the count.
        for cut in 0..bytes.len() {
            let mut r = ByteReader(&bytes[..cut]);
            let all = (|| {
                r.u8()?;
                r.u128()?;
                r.f64s()?;
                r.str()?;
                Some(())
            })();
            assert!(all.is_none(), "cut {cut}");
        }
        let mut absurd = ByteWriter::default();
        absurd.u64(u64::MAX);
        let absurd = absurd.0;
        assert!(ByteReader(&absurd).f64s().is_none());
        assert!(ByteReader(&absurd).bytes().is_none());
    }
}
