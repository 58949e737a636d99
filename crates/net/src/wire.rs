//! The compact length-prefixed binary wire protocol.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload: one opcode byte plus a fixed-layout body. Fixed layouts keep
//! the decoder branch-cheap (the hot path is a length check and a
//! `copy_from_slice`), and the length prefix keeps the stream
//! resynchronizable: a frame with an unknown opcode can be skipped whole,
//! so one bad frame costs one error reply, not the connection.
//!
//! ```text
//! request  frames                     reply frames
//! ────────────────────────            ────────────────────────
//! HELLO    magic, client_id, epoch    RESP_BIN  req_id, bin, epoch
//! ALLOC    req_id, d, noise           RESP_ERR  req_id, code
//! SHUTDOWN —
//! ```
//!
//! The `epoch` fields carry the server's membership epoch
//! (`balloc_serve::MembershipEpoch`): a client that learned the
//! membership out of band asserts it in `HELLO` (`0` = "don't know,
//! accept anything") and is refused with [`ErrorCode::StaleEpoch`] if the
//! server has moved on; every `RESP_BIN` stamps the epoch the decision
//! was made under, so clients observe membership changes in-band.
//!
//! `ALLOC` carries the full request template (`d` and the noise mode), so
//! the server stays stateless about what clients want; pipelined runs of
//! identical templates are what the server batches into
//! [`SnapshotService::call_block`](balloc_serve::SnapshotService::call_block).

use balloc_serve::{NoiseMode, Request, ServeError};

/// Hard cap on a frame's payload length. Every defined frame fits in 32
/// bytes; anything claiming more is an attack or a desynchronized stream,
/// and the decoder refuses to allocate for it.
pub const MAX_PAYLOAD: usize = 64;

/// `HELLO` magic: `b"BAL1"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"BAL1");

const OP_HELLO: u8 = 0x01;
const OP_ALLOC: u8 = 0x02;
const OP_SHUTDOWN: u8 = 0x03;
const OP_RESP_BIN: u8 = 0x81;
const OP_RESP_ERR: u8 = 0x82;

const HELLO_LEN: usize = 1 + 4 + 4 + 8;
const ALLOC_LEN: usize = 1 + 8 + 2 + 1 + 8;
const SHUTDOWN_LEN: usize = 1;
const RESP_BIN_LEN: usize = 1 + 8 + 8 + 8;
const RESP_ERR_LEN: usize = 1 + 8 + 1;

const NOISE_SNAPSHOT: u8 = 0;
const NOISE_NOISY: u8 = 1;

/// One protocol frame, request or reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// Connection preamble: protocol magic plus the client's identity.
    /// `client_id` seeds the connection's decision stream
    /// (`point_seed(seed, client_id)`) and names the replay worker slot.
    Hello {
        /// The client's worker index.
        client_id: u32,
        /// The membership epoch the client believes is current, `0` to
        /// accept whatever the server is on.
        epoch: u64,
    },
    /// One allocation request.
    Alloc {
        /// Caller-chosen correlation id, echoed on the reply.
        req_id: u64,
        /// Candidate bins to sample (`d`), capped at `u16::MAX` on the
        /// wire.
        d: u16,
        /// How loads are read for the comparison.
        noise: NoiseMode,
    },
    /// Asks the server to drain and stop. The server refuses it with
    /// [`ErrorCode::UnknownOpcode`] and keeps the connection: only the
    /// owner's [`ShutdownHandle`](crate::ShutdownHandle) stops a server.
    Shutdown,
    /// A served allocation: the chosen bin.
    RespBin {
        /// Echo of the request's id.
        req_id: u64,
        /// The global bin index chosen.
        bin: u64,
        /// The membership epoch the decision was made under.
        epoch: u64,
    },
    /// A rejected request (or a protocol-level error, with `req_id = 0`
    /// when no request could be attributed).
    RespErr {
        /// Echo of the request's id, `0` for unattributable errors.
        req_id: u64,
        /// Why.
        code: ErrorCode,
    },
}

impl Frame {
    /// Builds the discovery handshake: `HELLO` with epoch 0, "serve me
    /// whatever membership you have". Clients that already learned an
    /// epoch assert it by constructing [`Frame::Hello`] directly.
    #[must_use]
    pub fn hello(client_id: u32) -> Self {
        Self::Hello {
            client_id,
            epoch: 0,
        }
    }

    /// Builds the `ALLOC` frame for a serve-layer request template.
    ///
    /// # Panics
    ///
    /// Panics if `req.d` does not fit the wire's `u16`.
    #[must_use]
    pub fn alloc(req_id: u64, req: &Request) -> Self {
        assert!(req.d <= usize::from(u16::MAX), "d exceeds the wire format");
        #[allow(clippy::cast_possible_truncation)]
        Self::Alloc {
            req_id,
            d: req.d as u16,
            noise: req.noise,
        }
    }
}

/// Why a request was rejected, as carried on the wire. Codes `1..=8` are
/// the [`ServeError`] variants, `1` and `4` reserved for retired ones;
/// codes `≥ 100` are protocol-level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Reserved: a retired bounded-buffer rejection. No server sends it;
    /// it still decodes.
    BufferFull = 1,
    /// [`ServeError::AtCapacity`].
    AtCapacity = 2,
    /// [`ServeError::Shed`].
    Shed = 3,
    /// Reserved: a retired worker-gone rejection. No server sends it; it
    /// still decodes.
    Closed = 4,
    /// [`ServeError::TimedOut`].
    TimedOut = 5,
    /// [`ServeError::Broken`].
    Broken = 6,
    /// [`ServeError::RateLimited`].
    RateLimited = 7,
    /// [`ServeError::Faulted`].
    Faulted = 8,
    /// The frame could not be decoded (bad length for its opcode, bad
    /// noise tag, oversized payload).
    Malformed = 100,
    /// The opcode is not in this protocol version; the frame was skipped.
    UnknownOpcode = 101,
    /// The connection's first frame was not a valid `HELLO` (wrong magic,
    /// or an `ALLOC` arrived before identification).
    BadHello = 102,
    /// The server is draining and no longer accepts new requests.
    ShuttingDown = 103,
    /// The `HELLO` asserted a non-zero membership epoch that is not the
    /// server's current one; the client must re-discover and reconnect.
    StaleEpoch = 104,
}

impl ErrorCode {
    /// Decodes a wire byte.
    #[must_use]
    pub fn from_u8(code: u8) -> Option<Self> {
        Some(match code {
            1 => Self::BufferFull,
            2 => Self::AtCapacity,
            3 => Self::Shed,
            4 => Self::Closed,
            5 => Self::TimedOut,
            6 => Self::Broken,
            7 => Self::RateLimited,
            8 => Self::Faulted,
            100 => Self::Malformed,
            101 => Self::UnknownOpcode,
            102 => Self::BadHello,
            103 => Self::ShuttingDown,
            104 => Self::StaleEpoch,
            _ => return None,
        })
    }
}

impl From<ServeError> for ErrorCode {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::AtCapacity => Self::AtCapacity,
            ServeError::Shed => Self::Shed,
            ServeError::TimedOut => Self::TimedOut,
            ServeError::Broken => Self::Broken,
            ServeError::RateLimited => Self::RateLimited,
            ServeError::Faulted => Self::Faulted,
        }
    }
}

/// Why a frame failed to decode. [`is_fatal`](Self::is_fatal) separates
/// stream-desynchronizing failures (close the connection) from skippable
/// bad frames (reply with an error, keep the connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The length prefix claims more than [`MAX_PAYLOAD`] bytes — the
    /// stream can no longer be trusted to frame correctly.
    Oversized {
        /// The claimed payload length.
        len: usize,
    },
    /// A known opcode arrived with the wrong payload length; the frame
    /// was skipped whole.
    BadLength {
        /// The frame's opcode (0 for an empty payload).
        opcode: u8,
        /// The claimed payload length.
        len: usize,
    },
    /// An opcode outside the protocol; the frame was skipped whole.
    UnknownOpcode(u8),
    /// A `HELLO` without the protocol magic; the frame was skipped.
    BadMagic,
    /// An `ALLOC` with a noise tag outside `{0, 1}`; the frame was
    /// skipped.
    BadNoiseTag(u8),
}

impl DecodeError {
    /// Whether the stream is desynchronized beyond recovery (the caller
    /// should error out and close). Non-fatal errors consumed the whole
    /// offending frame, so decoding can continue at the next frame.
    #[must_use]
    pub fn is_fatal(self) -> bool {
        matches!(self, Self::Oversized { .. })
    }

    /// The wire error code a server replies with for this failure.
    #[must_use]
    pub fn code(self) -> ErrorCode {
        match self {
            Self::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            Self::BadMagic => ErrorCode::BadHello,
            Self::Oversized { .. } | Self::BadLength { .. } | Self::BadNoiseTag(_) => {
                ErrorCode::Malformed
            }
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oversized { len } => write!(f, "payload length {len} exceeds {MAX_PAYLOAD}"),
            Self::BadLength { opcode, len } => {
                write!(f, "opcode {opcode:#04x} with bad payload length {len}")
            }
            Self::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            Self::BadMagic => f.write_str("HELLO without protocol magic"),
            Self::BadNoiseTag(tag) => write!(f, "unknown noise tag {tag}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `frame`'s encoding (length prefix + payload) to `out`.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    #[allow(clippy::cast_possible_truncation)]
    fn prefix(out: &mut Vec<u8>, payload_len: usize) {
        out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    }
    match *frame {
        Frame::Hello { client_id, epoch } => {
            prefix(out, HELLO_LEN);
            out.push(OP_HELLO);
            out.extend_from_slice(&MAGIC.to_le_bytes());
            out.extend_from_slice(&client_id.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Alloc { req_id, d, noise } => {
            prefix(out, ALLOC_LEN);
            out.push(OP_ALLOC);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&d.to_le_bytes());
            let (tag, sigma) = match noise {
                NoiseMode::Snapshot => (NOISE_SNAPSHOT, 0.0f64),
                NoiseMode::Noisy { sigma } => (NOISE_NOISY, sigma),
            };
            out.push(tag);
            out.extend_from_slice(&sigma.to_bits().to_le_bytes());
        }
        Frame::Shutdown => {
            prefix(out, SHUTDOWN_LEN);
            out.push(OP_SHUTDOWN);
        }
        Frame::RespBin { req_id, bin, epoch } => {
            prefix(out, RESP_BIN_LEN);
            out.push(OP_RESP_BIN);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&bin.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::RespErr { req_id, code } => {
            prefix(out, RESP_ERR_LEN);
            out.push(OP_RESP_ERR);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(code as u8);
        }
    }
}

/// Incremental frame decoder over a byte stream: feed raw reads in with
/// [`extend`](Self::extend), pull frames out with [`next_frame`](Self::next_frame).
/// Partial frames are simply not ready yet; malformed frames come back as
/// typed [`DecodeError`]s with the stream position already advanced past
/// the bad frame whenever recovery is possible.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw stream bytes into the decoder.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed bytes at the front are dead.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (a non-zero value at EOF means
    /// the peer died mid-frame).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, if any.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a malformed frame. Unless the error
    /// [`is_fatal`](DecodeError::is_fatal), the offending frame has been
    /// consumed and `next_frame` can be called again.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        let len = u32::from_le_bytes(len4) as usize;
        if len > MAX_PAYLOAD {
            // Fatal: do not consume — the stream is not trustworthy.
            return Err(DecodeError::Oversized { len });
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let payload = &self.buf[self.pos + 4..self.pos + 4 + len];
        let result = parse(payload);
        // Everything below Oversized consumed the frame (skippable).
        self.pos += 4 + len;
        result.map(Some)
    }
}

/// Parses one complete payload.
fn parse(payload: &[u8]) -> Result<Frame, DecodeError> {
    let Some(&opcode) = payload.first() else {
        return Err(DecodeError::BadLength { opcode: 0, len: 0 });
    };
    let len = payload.len();
    match opcode {
        OP_HELLO => {
            if len != HELLO_LEN {
                return Err(DecodeError::BadLength { opcode, len });
            }
            if read_u32(&payload[1..5]) != MAGIC {
                return Err(DecodeError::BadMagic);
            }
            Ok(Frame::Hello {
                client_id: read_u32(&payload[5..9]),
                epoch: read_u64(&payload[9..17]),
            })
        }
        OP_ALLOC => {
            if len != ALLOC_LEN {
                return Err(DecodeError::BadLength { opcode, len });
            }
            let req_id = read_u64(&payload[1..9]);
            let d = u16::from_le_bytes([payload[9], payload[10]]);
            let tag = payload[11];
            let sigma = f64::from_bits(read_u64(&payload[12..20]));
            let noise = match tag {
                NOISE_SNAPSHOT => NoiseMode::Snapshot,
                NOISE_NOISY => NoiseMode::Noisy { sigma },
                other => return Err(DecodeError::BadNoiseTag(other)),
            };
            Ok(Frame::Alloc { req_id, d, noise })
        }
        OP_SHUTDOWN => {
            if len != SHUTDOWN_LEN {
                return Err(DecodeError::BadLength { opcode, len });
            }
            Ok(Frame::Shutdown)
        }
        OP_RESP_BIN => {
            if len != RESP_BIN_LEN {
                return Err(DecodeError::BadLength { opcode, len });
            }
            Ok(Frame::RespBin {
                req_id: read_u64(&payload[1..9]),
                bin: read_u64(&payload[9..17]),
                epoch: read_u64(&payload[17..25]),
            })
        }
        OP_RESP_ERR => {
            if len != RESP_ERR_LEN {
                return Err(DecodeError::BadLength { opcode, len });
            }
            let code =
                ErrorCode::from_u8(payload[9]).ok_or(DecodeError::BadLength { opcode, len })?;
            Ok(Frame::RespErr {
                req_id: read_u64(&payload[1..9]),
                code,
            })
        }
        other => Err(DecodeError::UnknownOpcode(other)),
    }
}

#[inline]
fn read_u32(bytes: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(bytes);
    u32::from_le_bytes(b)
}

#[inline]
fn read_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(bytes);
    u64::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) -> Frame {
        let mut bytes = Vec::new();
        encode(&frame, &mut bytes);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(dec.buffered(), 0, "decoder must consume the whole frame");
        got
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in [
            Frame::Hello {
                client_id: 7,
                epoch: 0,
            },
            Frame::Hello {
                client_id: 9,
                epoch: u64::MAX,
            },
            Frame::Alloc {
                req_id: u64::MAX,
                d: 2,
                noise: NoiseMode::Snapshot,
            },
            Frame::Alloc {
                req_id: 1,
                d: 512,
                noise: NoiseMode::Noisy { sigma: 1.25 },
            },
            Frame::Shutdown,
            Frame::RespBin {
                req_id: 3,
                bin: 63,
                epoch: 4,
            },
            Frame::RespErr {
                req_id: 9,
                code: ErrorCode::Shed,
            },
            Frame::RespErr {
                req_id: 0,
                code: ErrorCode::StaleEpoch,
            },
        ] {
            assert_eq!(round_trip(frame), frame);
        }
    }

    #[test]
    fn split_delivery_reassembles() {
        let mut bytes = Vec::new();
        let frame = Frame::RespBin {
            req_id: 42,
            bin: 5,
            epoch: 1,
        };
        encode(&frame, &mut bytes);
        let mut dec = FrameDecoder::new();
        for &b in &bytes[..bytes.len() - 1] {
            dec.extend(&[b]);
            assert_eq!(
                dec.next_frame().unwrap(),
                None,
                "incomplete frame must wait"
            );
        }
        dec.extend(&bytes[bytes.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn oversized_length_is_fatal_and_not_consumed() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(10_000u32).to_le_bytes());
        dec.extend(&[0u8; 8]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err, DecodeError::Oversized { len: 10_000 });
        assert!(err.is_fatal());
        // Still stuck on the same bad prefix: the caller must close.
        assert!(dec.next_frame().unwrap_err().is_fatal());
    }

    #[test]
    fn unknown_opcode_skips_one_frame_and_recovers() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0x7f, 1, 2]);
        encode(&Frame::Shutdown, &mut bytes);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err, DecodeError::UnknownOpcode(0x7f));
        assert!(!err.is_fatal());
        assert_eq!(err.code(), ErrorCode::UnknownOpcode);
        // The stream stays in sync: the next frame decodes cleanly.
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Shutdown));
    }

    #[test]
    fn bad_magic_and_bad_tag_are_recoverable() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(HELLO_LEN as u32).to_le_bytes());
        bytes.push(OP_HELLO);
        bytes.extend_from_slice(&0xdead_beefu32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let mut alloc = Vec::new();
        encode(
            &Frame::Alloc {
                req_id: 1,
                d: 2,
                noise: NoiseMode::Snapshot,
            },
            &mut alloc,
        );
        alloc[4 + 11] = 9; // corrupt the noise tag in place
        bytes.extend_from_slice(&alloc);
        encode(&Frame::Shutdown, &mut bytes);

        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next_frame().unwrap_err(), DecodeError::BadMagic);
        assert_eq!(dec.next_frame().unwrap_err(), DecodeError::BadNoiseTag(9));
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Shutdown));
    }

    #[test]
    fn wrong_length_for_known_opcode_is_skipped() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[OP_ALLOC, 0]);
        encode(&Frame::Shutdown, &mut bytes);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            DecodeError::BadLength {
                opcode: OP_ALLOC,
                len: 2
            }
        );
        assert_eq!(dec.next_frame().unwrap(), Some(Frame::Shutdown));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BufferFull,
            ErrorCode::AtCapacity,
            ErrorCode::Shed,
            ErrorCode::Closed,
            ErrorCode::TimedOut,
            ErrorCode::Broken,
            ErrorCode::RateLimited,
            ErrorCode::Faulted,
            ErrorCode::Malformed,
            ErrorCode::UnknownOpcode,
            ErrorCode::BadHello,
            ErrorCode::ShuttingDown,
            ErrorCode::StaleEpoch,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(99), None);
    }

    #[test]
    fn serve_errors_map_onto_wire_codes() {
        assert_eq!(ErrorCode::from(ServeError::Shed), ErrorCode::Shed);
        assert_eq!(
            ErrorCode::from(ServeError::RateLimited),
            ErrorCode::RateLimited
        );
        assert_eq!(
            ErrorCode::from(ServeError::AtCapacity),
            ErrorCode::AtCapacity
        );
    }

    #[test]
    fn compaction_keeps_the_stream_intact() {
        let mut dec = FrameDecoder::new();
        // Push enough frames one byte at a time to force compaction.
        let mut bytes = Vec::new();
        for i in 0..2_000u64 {
            encode(
                &Frame::RespBin {
                    req_id: i,
                    bin: i % 64,
                    epoch: 2,
                },
                &mut bytes,
            );
        }
        let mut seen = 0u64;
        for chunk in bytes.chunks(7) {
            dec.extend(chunk);
            while let Some(frame) = dec.next_frame().unwrap() {
                assert_eq!(
                    frame,
                    Frame::RespBin {
                        req_id: seen,
                        bin: seen % 64,
                        epoch: 2,
                    }
                );
                seen += 1;
            }
        }
        assert_eq!(seen, 2_000);
    }
}
