//! TLS record layer: framing and incremental deframing.

use crate::codec::{CodecError, WriteExt};
use crate::version::ProtocolVersion;

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    /// change_cipher_spec (20).
    ChangeCipherSpec,
    /// alert (21).
    Alert,
    /// handshake (22).
    Handshake,
    /// application_data (23).
    ApplicationData,
}

impl ContentType {
    /// Wire code point.
    pub fn wire(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    /// Decodes a wire code point.
    pub fn from_wire(v: u8) -> Option<ContentType> {
        match v {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

/// Maximum plaintext fragment length (RFC 5246 §6.2.1).
pub const MAX_FRAGMENT: usize = 16_384;

/// One TLS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub content_type: ContentType,
    /// Record-layer version field.
    pub version: ProtocolVersion,
    /// Fragment payload (possibly encrypted).
    pub payload: Vec<u8>,
}

impl Record {
    /// Builds a record; panics if the payload exceeds [`MAX_FRAGMENT`].
    pub fn new(content_type: ContentType, version: ProtocolVersion, payload: Vec<u8>) -> Record {
        assert!(payload.len() <= MAX_FRAGMENT, "fragment too large");
        Record {
            content_type,
            version,
            payload,
        }
    }

    /// Encodes to the 5-byte header plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.payload.len());
        out.put_u8(self.content_type.wire());
        out.put_u16(self.version.wire());
        out.put_vec16(&self.payload);
        out
    }

    /// Appends the encoding of [`Record::encode`] to a caller-owned
    /// buffer — byte-identical output, no intermediate vector. The
    /// legacy `encode` is kept (independently implemented) as the
    /// byte-identity oracle for this path.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(5 + self.payload.len());
        out.put_u8(self.content_type.wire());
        out.put_u16(self.version.wire());
        out.put_vec16(&self.payload);
    }

    /// Splits an arbitrarily long payload into records of at most
    /// [`MAX_FRAGMENT`] bytes.
    pub fn fragment(
        content_type: ContentType,
        version: ProtocolVersion,
        payload: &[u8],
    ) -> Vec<Record> {
        if payload.is_empty() {
            return vec![Record::new(content_type, version, Vec::new())];
        }
        payload
            .chunks(MAX_FRAGMENT)
            .map(|c| Record::new(content_type, version, c.to_vec()))
            .collect()
    }
}

/// A caller-owned outgoing byte buffer: the write-side counterpart of
/// [`Deframer`]. The sans-IO state machines append encoded records
/// here via [`write_record`]; the driver hands the accumulated wire
/// bytes to the transport and [`SessionBuf::clear`]s for the next
/// round, so steady-state encoding reuses one allocation per
/// direction.
#[derive(Debug, Default)]
pub struct SessionBuf {
    buf: Vec<u8>,
}

impl SessionBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated wire bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discards the contents, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Takes the contents as an owned vector (for callers that keep
    /// the bytes, like tape recording; the zero-allocation consumers
    /// use [`SessionBuf::as_slice`] + [`SessionBuf::clear`] instead).
    pub fn take_vec(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Mutable access for in-place record protection: the cipher is
    /// applied to payload bytes after they are framed in place.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

// ALLOC-FREE: begin (record write path — tier1.sh greps this region
// for reintroduced allocating calls on the hot path).

/// Encodes `payload` as one or more records of at most
/// [`MAX_FRAGMENT`] bytes directly into `out` — the write-path mirror
/// of [`Deframer::pop_ref`]: no intermediate [`Record`], no payload
/// copy beyond the single append into the caller's buffer. An empty
/// payload still produces one empty record, exactly like
/// [`Record::fragment`]. Record protection happens *before* framing:
/// callers encrypt `payload` in their scratch buffer first (fragment
/// boundaries do not disturb the stream ciphers' keystream order).
pub fn write_record(
    content_type: ContentType,
    version: ProtocolVersion,
    payload: &[u8],
    out: &mut SessionBuf,
) {
    out.buf.reserve(5 + payload.len());
    if payload.is_empty() {
        out.buf.put_u8(content_type.wire());
        out.buf.put_u16(version.wire());
        out.buf.put_u16(0);
        return;
    }
    for chunk in payload.chunks(MAX_FRAGMENT) {
        out.buf.put_u8(content_type.wire());
        out.buf.put_u16(version.wire());
        out.buf.put_vec16(chunk);
    }
}

// ALLOC-FREE: end (record write path)

/// A record whose payload borrows the deframer's buffer — the
/// zero-copy counterpart of [`Record`], used on the passive parse
/// path where payloads are scanned once and never stored.
#[derive(Debug, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Content type.
    pub content_type: ContentType,
    /// Record-layer version field.
    pub version: ProtocolVersion,
    /// Borrowed fragment payload.
    pub payload: &'a [u8],
}

/// Incremental record parser: feed bytes in any chunking, pop whole
/// records out.
///
/// Consumed records advance a cursor instead of draining the buffer;
/// the consumed prefix is reclaimed on the next [`Deframer::push`]
/// (usually a plain `clear`, since taps drain every complete record
/// between pushes), so steady-state popping does no per-record
/// allocation or memmove.
#[derive(Debug, Default)]
pub struct Deframer {
    buffer: Vec<u8>,
    start: usize,
}

impl Deframer {
    /// A fresh deframer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw transport bytes.
    pub fn push(&mut self, data: &[u8]) {
        if self.start == self.buffer.len() {
            // Everything consumed: reuse the allocation outright.
            self.buffer.clear();
        } else if self.start > 0 {
            self.buffer.drain(..self.start);
        }
        self.start = 0;
        self.buffer.extend_from_slice(data);
    }

    /// Bytes currently buffered (for diagnostics).
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.start
    }

    /// Discards all buffered bytes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.start = 0;
    }

    /// Parses the next record header without consuming anything:
    /// `(content_type, version, payload_len)`, or `None` if more bytes
    /// are needed. The single header decode shared by
    /// [`Deframer::pop_ref`] and [`Deframer::pop_ref_mut`].
    fn peek_header(&self) -> Result<Option<(ContentType, ProtocolVersion, usize)>, CodecError> {
        let buf = &self.buffer[self.start..];
        if buf.len() < 5 {
            return Ok(None);
        }
        let content_type =
            ContentType::from_wire(buf[0]).ok_or(CodecError::IllegalValue("content type"))?;
        let version = ProtocolVersion::from_wire(u16::from_be_bytes([buf[1], buf[2]]))
            .ok_or(CodecError::IllegalValue("record version"))?;
        let len = u16::from_be_bytes([buf[3], buf[4]]) as usize;
        if buf.len() < 5 + len {
            return Ok(None);
        }
        Ok(Some((content_type, version, len)))
    }

    /// Pops the next complete record with a borrowed payload, or
    /// `None` if more bytes are needed. Malformed headers are an
    /// error and consume nothing.
    pub fn pop_ref(&mut self) -> Result<Option<RecordRef<'_>>, CodecError> {
        match self.peek_header()? {
            None => Ok(None),
            Some((content_type, version, len)) => {
                self.start += 5 + len;
                Ok(Some(RecordRef {
                    content_type,
                    version,
                    payload: &self.buffer[self.start - len..self.start],
                }))
            }
        }
    }

    /// [`Deframer::pop_ref`] with a *mutable* payload borrow, for the
    /// middleware byte-feed path where rewrite hooks mutate record
    /// payloads in place. Same header parse, same consumption rules.
    pub fn pop_ref_mut(
        &mut self,
    ) -> Result<Option<(ContentType, &mut [u8])>, CodecError> {
        match self.peek_header()? {
            None => Ok(None),
            Some((content_type, _version, len)) => {
                self.start += 5 + len;
                let start = self.start - len;
                Ok(Some((content_type, &mut self.buffer[start..self.start])))
            }
        }
    }

    /// Pops the next complete record, or `None` if more bytes are
    /// needed. Malformed headers are an error.
    ///
    /// Allocates an owned payload per record: this is the *oracle*
    /// for the sans-IO path, kept for tests and one-shot callers.
    /// Production consumers (state machines, taps, drivers) use
    /// [`Deframer::pop_ref`], which borrows the payload instead.
    pub fn pop(&mut self) -> Result<Option<Record>, CodecError> {
        Ok(self.pop_ref()?.map(|r| Record {
            content_type: r.content_type,
            version: r.version,
            payload: r.payload.to_vec(),
        }))
    }

    /// Drains every complete record currently buffered.
    pub fn pop_all(&mut self) -> Result<Vec<Record>, CodecError> {
        let mut out = Vec::new();
        while let Some(rec) = self.pop()? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let rec = Record::new(
            ContentType::Handshake,
            ProtocolVersion::Tls12,
            vec![1, 2, 3],
        );
        let mut d = Deframer::new();
        d.push(&rec.encode());
        assert_eq!(d.pop().unwrap().unwrap(), rec);
        assert_eq!(d.pop().unwrap(), None);
    }

    #[test]
    fn deframer_handles_partial_delivery() {
        let rec = Record::new(ContentType::Alert, ProtocolVersion::Tls10, vec![2, 48]);
        let bytes = rec.encode();
        let mut d = Deframer::new();
        for b in &bytes[..bytes.len() - 1] {
            d.push(std::slice::from_ref(b));
            assert_eq!(d.pop().unwrap(), None);
        }
        d.push(&bytes[bytes.len() - 1..]);
        assert_eq!(d.pop().unwrap().unwrap(), rec);
    }

    #[test]
    fn deframer_handles_coalesced_records() {
        let a = Record::new(ContentType::Handshake, ProtocolVersion::Tls12, vec![1]);
        let b = Record::new(ContentType::ApplicationData, ProtocolVersion::Tls12, vec![2]);
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut d = Deframer::new();
        d.push(&bytes);
        let records = d.pop_all().unwrap();
        assert_eq!(records, vec![a, b]);
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn bad_content_type_rejected() {
        let mut d = Deframer::new();
        d.push(&[99, 3, 3, 0, 0]);
        assert!(d.pop().is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut d = Deframer::new();
        d.push(&[22, 9, 9, 0, 0]);
        assert!(d.pop().is_err());
    }

    #[test]
    fn fragmentation_respects_limit() {
        let big = vec![0xaa; MAX_FRAGMENT * 2 + 100];
        let frags = Record::fragment(ContentType::ApplicationData, ProtocolVersion::Tls12, &big);
        assert_eq!(frags.len(), 3);
        assert!(frags.iter().all(|f| f.payload.len() <= MAX_FRAGMENT));
        let total: usize = frags.iter().map(|f| f.payload.len()).sum();
        assert_eq!(total, big.len());
    }

    #[test]
    fn empty_payload_fragment() {
        let frags = Record::fragment(ContentType::Handshake, ProtocolVersion::Tls12, &[]);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].payload.is_empty());
    }

    #[test]
    #[should_panic(expected = "fragment too large")]
    fn oversized_record_panics() {
        Record::new(
            ContentType::ApplicationData,
            ProtocolVersion::Tls12,
            vec![0; MAX_FRAGMENT + 1],
        );
    }

    #[test]
    fn encode_into_matches_encode_oracle() {
        for (ct, ver, len) in [
            (ContentType::Handshake, ProtocolVersion::Tls12, 0usize),
            (ContentType::Alert, ProtocolVersion::Tls10, 2),
            (ContentType::ApplicationData, ProtocolVersion::Tls13, 1337),
            (ContentType::ChangeCipherSpec, ProtocolVersion::Ssl30, 1),
        ] {
            let rec = Record::new(ct, ver, (0..len).map(|i| i as u8).collect());
            let mut out = Vec::new();
            rec.encode_into(&mut out);
            assert_eq!(out, rec.encode());
        }
    }

    #[test]
    fn write_record_matches_fragment_plus_encode() {
        for len in [0usize, 1, 100, MAX_FRAGMENT, MAX_FRAGMENT + 1, MAX_FRAGMENT * 2 + 7] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut buf = SessionBuf::new();
            write_record(
                ContentType::ApplicationData,
                ProtocolVersion::Tls12,
                &payload,
                &mut buf,
            );
            let oracle: Vec<u8> =
                Record::fragment(ContentType::ApplicationData, ProtocolVersion::Tls12, &payload)
                    .iter()
                    .flat_map(Record::encode)
                    .collect();
            assert_eq!(buf.as_slice(), &oracle[..], "len {len}");
        }
    }

    #[test]
    fn session_buf_clear_keeps_capacity() {
        let mut buf = SessionBuf::new();
        write_record(
            ContentType::Handshake,
            ProtocolVersion::Tls12,
            &[1, 2, 3],
            &mut buf,
        );
        assert_eq!(buf.len(), 8);
        let cap_ptr = buf.as_slice().as_ptr();
        buf.clear();
        assert!(buf.is_empty());
        write_record(
            ContentType::Handshake,
            ProtocolVersion::Tls12,
            &[4, 5],
            &mut buf,
        );
        assert_eq!(buf.as_slice().as_ptr(), cap_ptr);
    }

    #[test]
    fn content_type_wire_roundtrip() {
        for ct in [
            ContentType::ChangeCipherSpec,
            ContentType::Alert,
            ContentType::Handshake,
            ContentType::ApplicationData,
        ] {
            assert_eq!(ContentType::from_wire(ct.wire()), Some(ct));
        }
        assert_eq!(ContentType::from_wire(0), None);
    }
}
