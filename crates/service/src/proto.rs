//! Service frames riding the cluster wire format.
//!
//! `lumend` speaks the same framing as the distributed runtime (4-byte
//! LE length + kind byte + payload, HELLO version gating first), with
//! three kinds of its own:
//!
//! * [`KIND_QUERY`] (client → daemon) — payload is
//!   `wire::encode_scenario` of the requested scenario.
//! * [`KIND_RESULT`] (daemon → client) — a [`QueryReply`]: cache key,
//!   served tag, photons done, and the wire-encoded tally.
//! * [`KIND_ERROR`] (daemon → client) — a typed error message; the
//!   daemon sends this instead of dropping the connection when a
//!   request is malformed or fails, so clients always get a diagnosis.
//!
//! Kind values continue the existing numbering (client-to-server kinds
//! count up from `0x01`, server-to-client kinds from `0x81`).

use crate::service::{QueryReply, Served};
use lumen_cluster::wire::{self, Decoder, Encoder, Wire, WireError};

/// Client → daemon: run (or fetch) this scenario.
pub const KIND_QUERY: u8 = 0x05;
/// Daemon → client: the served result.
pub const KIND_RESULT: u8 = 0x83;
/// Daemon → client: typed failure for the preceding request.
pub const KIND_ERROR: u8 = 0x84;

/// One tag byte.
impl Wire for Served {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_u8(match self {
            Served::Cold => 0,
            Served::Warm => 1,
            Served::TopUp => 2,
        });
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(Served::Cold),
            1 => Ok(Served::Warm),
            2 => Ok(Served::TopUp),
            tag => Err(WireError::Invalid(format!("unknown served tag {tag}"))),
        }
    }
}

/// Cache key, served tag, photons done, then the tally as a nested
/// [`wire::encode_tally`] message (its own header, length-prefixed).
impl Wire for QueryReply {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put_bytes(&self.key);
        self.served.put(e);
        e.put_u64(self.photons_done);
        e.put_bytes(&wire::encode_tally(&self.tally));
    }
    #[inline]
    fn get(d: &mut Decoder) -> Result<Self, WireError> {
        let key_bytes = d.get_bytes()?;
        let key = key_bytes.as_slice().try_into().map_err(|_| {
            WireError::Invalid(format!("cache key must be 32 bytes, got {}", key_bytes.len()))
        })?;
        Ok(QueryReply {
            key,
            served: Wire::get(d)?,
            photons_done: d.get_u64()?,
            tally: wire::decode_tally(&d.get_bytes()?)?,
        })
    }
}

/// Encode a [`QueryReply`] for a [`KIND_RESULT`] frame.
pub fn encode_reply(reply: &QueryReply) -> Vec<u8> {
    wire::encode(reply)
}

/// Decode a [`KIND_RESULT`] payload.
pub fn decode_reply(bytes: &[u8]) -> Result<QueryReply, WireError> {
    wire::decode(bytes)
}

/// Encode a daemon-side error message for a [`KIND_ERROR`] frame: the
/// `String` layout, written from the borrowed `str` without a copy.
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(message);
    e.finish()
}

/// Decode a [`KIND_ERROR`] payload.
pub fn decode_error(bytes: &[u8]) -> Result<String, WireError> {
    wire::decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_core::tally::Tally;

    fn reply() -> QueryReply {
        let mut tally = Tally::new(2, None, None);
        tally.launched = 12_345;
        tally.detected = 678;
        tally.detected_weight = 0.125;
        QueryReply { key: [0xAB; 32], tally, photons_done: 200_000, served: Served::TopUp }
    }

    #[test]
    fn reply_round_trips() {
        let r = reply();
        let decoded = decode_reply(&encode_reply(&r)).expect("round trip");
        assert_eq!(decoded, r);
    }

    #[test]
    fn error_round_trips() {
        let msg = "backend failed: out of photons";
        assert_eq!(decode_error(&encode_error(msg)).unwrap(), msg);
    }

    #[test]
    fn truncated_reply_is_rejected_not_panicking() {
        let bytes = encode_reply(&reply());
        for cut in 0..bytes.len() {
            assert!(decode_reply(&bytes[..cut]).is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn bad_served_tag_is_rejected() {
        let r = reply();
        let mut bytes = encode_reply(&r);
        // The tag byte sits right after the header and the length-prefixed
        // 32-byte key: 5 (header) + 8 (len) + 32 (key).
        bytes[5 + 8 + 32] = 9;
        assert!(matches!(decode_reply(&bytes), Err(WireError::Invalid(_))));
    }

    #[test]
    fn short_key_is_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[1, 2, 3]);
        e.put_u8(0);
        e.put_u64(0);
        e.put_bytes(&wire::encode_tally(&Tally::new(1, None, None)));
        assert!(matches!(decode_reply(&e.finish()), Err(WireError::Invalid(_))));
    }
}
