//! The shared frame layer: 4-byte little-endian length, one kind byte,
//! payload — the exact bytes `lumen_cluster::net::read_frame` has spoken
//! since wire v3, factored here so the poll loop's incremental decoder
//! and the blocking helpers can never drift apart.

/// Largest accepted frame (64 MiB) — a fully populated 50³ grid of f64 is
/// ~1 MB, so this leaves ample headroom while bounding a hostile length
/// prefix.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Frame-layer violations (distinct from transport I/O errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// An outgoing payload would exceed [`MAX_FRAME`].
    TooLong(usize),
    /// An incoming length prefix outside `(0, MAX_FRAME]`.
    BadLength(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong(n) => write!(f, "payload of {n} bytes exceeds the frame cap"),
            FrameError::BadLength(n) => write!(f, "bad frame length {n}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append one encoded frame to `out` as a single contiguous byte run, so
/// one `write` syscall (and, with `TCP_NODELAY`, at most one packet) can
/// carry the whole frame.
pub fn encode_frame_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) -> Result<(), FrameError> {
    let len = 1 + payload.len();
    if len as u64 > MAX_FRAME as u64 {
        return Err(FrameError::TooLong(payload.len()));
    }
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    Ok(())
}

/// One encoded frame as a fresh buffer (see [`encode_frame_into`]).
pub fn encode_frame(kind: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(5 + payload.len());
    encode_frame_into(&mut out, kind, payload)?;
    Ok(out)
}

/// Incremental frame assembly: feed it whatever byte runs the socket
/// yields, pop complete `(kind, payload)` frames as they materialize.
/// A frame split across any number of reads reassembles identically.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before this offset are already-consumed frames; the buffer
    /// compacts once the dead prefix dominates.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    /// A hostile length prefix is a [`FrameError`]; the caller should
    /// drop the connection, since the stream can no longer be trusted to
    /// be frame-aligned.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        let pending = &self.buf[self.pos..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len == 0 || len > MAX_FRAME {
            return Err(FrameError::BadLength(len));
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let kind = pending[4];
        let payload = pending[5..total].to_vec();
        self.pos += total;
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some((kind, payload)))
    }

    /// Is a frame partially assembled (bytes received, frame incomplete)?
    /// The stall guard keys off this: an idle connection is fine, a
    /// connection stuck mid-frame is desynchronized or dying.
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_decode_round_trips() {
        let bytes = encode_frame(0x42, b"hello").unwrap();
        assert_eq!(&bytes[..4], &6u32.to_le_bytes());
        assert_eq!(bytes[4], 0x42);
        assert_eq!(&bytes[5..], b"hello");

        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let (kind, payload) = dec.next_frame().unwrap().expect("one frame");
        assert_eq!((kind, payload.as_slice()), (0x42, b"hello".as_slice()));
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let bytes = encode_frame(0x07, &[9u8; 300]).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for (i, b) in bytes.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            if i + 1 < bytes.len() {
                assert!(dec.next_frame().unwrap().is_none());
                if i >= 4 {
                    assert!(dec.mid_frame());
                }
            } else {
                got = dec.next_frame().unwrap();
            }
        }
        let (kind, payload) = got.expect("frame completes on the last byte");
        assert_eq!(kind, 0x07);
        assert_eq!(payload, vec![9u8; 300]);
    }

    #[test]
    fn back_to_back_frames_pop_in_order() {
        let mut wire = encode_frame(1, b"a").unwrap();
        wire.extend(encode_frame(2, b"bb").unwrap());
        wire.extend(encode_frame(3, b"").unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert_eq!(dec.next_frame().unwrap(), Some((1, b"a".to_vec())));
        assert_eq!(dec.next_frame().unwrap(), Some((2, b"bb".to_vec())));
        assert_eq!(dec.next_frame().unwrap(), Some((3, Vec::new())));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&0u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::BadLength(0)));

        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::BadLength(u32::MAX)));

        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert_eq!(encode_frame(0, &huge), Err(FrameError::TooLong(huge.len())));
    }

    #[test]
    fn long_sessions_compact_the_buffer() {
        let mut dec = FrameDecoder::new();
        for i in 0..200u32 {
            dec.extend(&encode_frame(1, &[0u8; 64]).unwrap());
            let _ = dec.next_frame().unwrap().expect("frame");
            assert!(!dec.mid_frame(), "iteration {i}: decoder must drain fully");
        }
        assert!(dec.buf.len() < 8192, "consumed prefixes must be reclaimed");
    }
}
