//! The campaign-server wire protocol.
//!
//! Frames are self-delimiting and checksummed so a client can stream a
//! job's events over a plain byte pipe with no external serialization
//! dependency:
//!
//! ```text
//! +-----+----------------+-----------+-------------------+
//! | tag | varint payload | payload   | fnv1a64(payload)  |
//! | u8  | length (LEB128)| bytes     | 8 bytes LE        |
//! +-----+----------------+-----------+-------------------+
//! ```
//!
//! The varint encoding is the same LEB128 used by the `.xft` trace codec
//! ([`xftrace::varint`]). Payloads are themselves concatenations of varint
//! integers and length-prefixed byte strings (see [`Enc`]/[`Dec`]).
//!
//! Request tags (client to server) occupy `0x01..=0x7f`; response tags set
//! the high bit. A connection carries exactly one request followed by its
//! response stream; `DONE` terminates a job stream.

use std::io::{self, Read, Write};

use xftrace::fnv::fnv1a;
use xftrace::varint::{read_varint, write_varint};

/// Client request: submit a job (spec JSON + optional artifact upload).
pub const TAG_SUBMIT: u8 = 0x01;
/// Client request: re-attach to a job's event stream by id.
pub const TAG_WATCH: u8 = 0x03;
/// Client request: server status as JSON.
pub const TAG_STATUS: u8 = 0x04;
/// Client request: drain the queue and shut the server down.
pub const TAG_SHUTDOWN: u8 = 0x05;

/// Server response: job accepted, payload carries the job id.
pub const TAG_ACCEPTED: u8 = 0x81;
/// Server response: job rejected, payload carries error code + message.
pub const TAG_REJECTED: u8 = 0x82;
/// Server event: progress snapshot as JSON.
pub const TAG_PROGRESS: u8 = 0x83;
/// Server event: the detection report, as bare report JSON. This payload
/// is byte-identical to a local `Session::run` report serialization — CI
/// compares them directly.
pub const TAG_REPORT: u8 = 0x84;
/// Server event: run metrics as JSON (the `run_metrics.json` schema).
pub const TAG_METRICS: u8 = 0x85;
/// Server event: job finished, payload carries the CLI-equivalent exit code.
pub const TAG_DONE: u8 = 0x86;
/// Server response: status JSON.
pub const TAG_STATUS_REPLY: u8 = 0x87;
/// Server event: the job failed at runtime; payload carries the message.
pub const TAG_ERR: u8 = 0x88;

/// Refuse to allocate for frames beyond this size (64 MiB): a corrupt
/// length prefix must not look like an allocation request.
const MAX_FRAME: u64 = 64 << 20;

/// Writes one frame: tag, varint length, payload, checksum.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[tag])?;
    write_varint(w, payload.len() as u64)?;
    w.write_all(payload)?;
    w.write_all(&fnv1a(payload).to_le_bytes())?;
    w.flush()
}

/// Reads one frame. Returns `None` on clean EOF at a frame boundary (the
/// peer closed the connection); errors on a truncated or corrupt frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut tag = [0u8; 1];
    if r.read(&mut tag)? == 0 {
        return Ok(None);
    }
    let len = read_varint(r)?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // The buffer grows only as payload bytes arrive: a header that claims
    // `MAX_FRAME` and then hangs up costs nothing.
    let mut payload = Vec::new();
    r.by_ref().take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame payload ends after {} of {len} bytes", payload.len()),
        ));
    }
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)?;
    if u64::from_le_bytes(sum) != fnv1a(&payload) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some((tag[0], payload)))
}

/// Payload encoder: varint integers and length-prefixed byte strings.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a varint integer.
    #[must_use]
    pub fn u64(mut self, v: u64) -> Self {
        write_varint(&mut self.buf, v).expect("Vec writes are infallible");
        self
    }

    /// Appends a length-prefixed byte string.
    #[must_use]
    pub fn bytes(mut self, b: &[u8]) -> Self {
        write_varint(&mut self.buf, b.len() as u64).expect("Vec writes are infallible");
        self.buf.extend_from_slice(b);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    #[must_use]
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// The finished payload.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Payload decoder matching [`Enc`].
pub struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    /// Starts decoding `payload`.
    #[must_use]
    pub fn new(payload: &'a [u8]) -> Self {
        Self { rest: payload }
    }

    /// Reads a varint integer.
    pub fn u64(&mut self) -> io::Result<u64> {
        read_varint(&mut self.rest)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = usize::try_from(self.u64()?).expect("length fits usize");
        if len > self.rest.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "payload string overruns the frame",
            ));
        }
        let (head, tail) = self.rest.split_at(len);
        self.rest = tail;
        Ok(head.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// What an uploaded artifact contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A recorded `.xft` trace: the job replays it offline.
    Xft,
    /// A `.fuzz` repro program: the job runs it through the detector.
    Fuzz,
}

impl ArtifactKind {
    fn to_u8(self) -> u8 {
        match self {
            ArtifactKind::Xft => 1,
            ArtifactKind::Fuzz => 2,
        }
    }

    fn from_u8(v: u8) -> io::Result<Option<Self>> {
        match v {
            0 => Ok(None),
            1 => Ok(Some(ArtifactKind::Xft)),
            2 => Ok(Some(ArtifactKind::Fuzz)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown artifact kind {other}"),
            )),
        }
    }
}

/// Encodes a SUBMIT payload: spec JSON, artifact kind, artifact bytes.
#[must_use]
pub fn encode_submit(spec_json: &str, artifact: Option<(ArtifactKind, &[u8])>) -> Vec<u8> {
    let (kind, bytes) = match artifact {
        Some((k, b)) => (k.to_u8(), b),
        None => (0, &[][..]),
    };
    Enc::new()
        .str(spec_json)
        .u64(u64::from(kind))
        .bytes(bytes)
        .finish()
}

/// An uploaded job artifact: its kind and raw bytes.
pub type Upload = (ArtifactKind, Vec<u8>);

/// Decodes a SUBMIT payload.
pub fn decode_submit(payload: &[u8]) -> io::Result<(String, Option<Upload>)> {
    let mut d = Dec::new(payload);
    let spec_json = d.str()?;
    let kind =
        ArtifactKind::from_u8(u8::try_from(d.u64()?).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "artifact kind out of range")
        })?)?;
    let bytes = d.bytes()?;
    Ok((spec_json, kind.map(|k| (k, bytes))))
}

/// One decoded server-to-client event, as consumed by `xfd submit`/`watch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// The job was accepted and assigned an id.
    Accepted {
        /// The server-assigned job id.
        id: u64,
    },
    /// A progress snapshot (JSON: `elapsed_ms` + observable counters).
    Progress {
        /// The snapshot JSON.
        json: String,
    },
    /// The finished detection report (bare report JSON).
    Report {
        /// The report JSON — byte-identical to a local run's serialization.
        json: String,
    },
    /// Run metrics in the `run_metrics.json` schema.
    Metrics {
        /// The metrics JSON.
        json: String,
    },
    /// The job finished with a CLI-equivalent exit code.
    Done {
        /// 0 clean, 3 findings/budget overrun.
        exit_code: u8,
    },
    /// The job failed at runtime.
    Error {
        /// The failure message.
        message: String,
    },
}

impl JobEvent {
    /// Encodes the event as a `(tag, payload)` frame.
    #[must_use]
    pub fn to_frame(&self) -> (u8, Vec<u8>) {
        match self {
            JobEvent::Accepted { id } => (TAG_ACCEPTED, Enc::new().u64(*id).finish()),
            JobEvent::Progress { json } => (TAG_PROGRESS, Enc::new().str(json).finish()),
            JobEvent::Report { json } => (TAG_REPORT, json.as_bytes().to_vec()),
            JobEvent::Metrics { json } => (TAG_METRICS, Enc::new().str(json).finish()),
            JobEvent::Done { exit_code } => {
                (TAG_DONE, Enc::new().u64(u64::from(*exit_code)).finish())
            }
            JobEvent::Error { message } => (TAG_ERR, Enc::new().str(message).finish()),
        }
    }

    /// Decodes a server frame into an event, or `None` for non-event tags
    /// (`REJECTED`, `STATUS_REPLY`).
    pub fn from_frame(tag: u8, payload: &[u8]) -> io::Result<Option<Self>> {
        let mut d = Dec::new(payload);
        Ok(match tag {
            TAG_ACCEPTED => Some(JobEvent::Accepted { id: d.u64()? }),
            TAG_PROGRESS => Some(JobEvent::Progress { json: d.str()? }),
            TAG_REPORT => Some(JobEvent::Report {
                json: String::from_utf8(payload.to_vec())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            }),
            TAG_METRICS => Some(JobEvent::Metrics { json: d.str()? }),
            TAG_DONE => Some(JobEvent::Done {
                exit_code: u8::try_from(d.u64()?).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "exit code out of range")
                })?,
            }),
            TAG_ERR => Some(JobEvent::Error { message: d.str()? }),
            _ => None,
        })
    }
}

/// Encodes a REJECTED payload: stable error code + rendered message.
#[must_use]
pub fn encode_rejected(code: u32, message: &str) -> Vec<u8> {
    Enc::new().u64(u64::from(code)).str(message).finish()
}

/// Decodes a REJECTED payload.
pub fn decode_rejected(payload: &[u8]) -> io::Result<(u32, String)> {
    let mut d = Dec::new(payload);
    let code = u32::try_from(d.u64()?)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "error code out of range"))?;
    let message = d.str()?;
    Ok((code, message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_SUBMIT, b"hello").unwrap();
        write_frame(&mut buf, TAG_DONE, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((TAG_SUBMIT, b"hello".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((TAG_DONE, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn corrupt_payloads_fail_the_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_REPORT, b"{\"findings\":[]}").unwrap();
        buf[3] ^= 0x40;
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_are_errors_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_PROGRESS, b"xyz").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn absurd_lengths_are_rejected_before_allocation() {
        let mut buf = vec![TAG_SUBMIT];
        write_varint(&mut buf, u64::MAX).unwrap();
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn submit_payloads_round_trip() {
        let p = encode_submit("{\"workload\":\"btree\"}", None);
        let (json, art) = decode_submit(&p).unwrap();
        assert_eq!(json, "{\"workload\":\"btree\"}");
        assert!(art.is_none());

        let p = encode_submit("{}", Some((ArtifactKind::Fuzz, b"xffuzz v1\n")));
        let (json, art) = decode_submit(&p).unwrap();
        assert_eq!(json, "{}");
        assert_eq!(art, Some((ArtifactKind::Fuzz, b"xffuzz v1\n".to_vec())));
    }

    #[test]
    fn events_round_trip_through_frames() {
        let events = [
            JobEvent::Accepted { id: 42 },
            JobEvent::Progress {
                json: "{\"elapsed_ms\":10}".into(),
            },
            JobEvent::Report {
                json: "{\"findings\":[]}".into(),
            },
            JobEvent::Metrics {
                json: "{\"schema_version\":1}".into(),
            },
            JobEvent::Done { exit_code: 3 },
            JobEvent::Error {
                message: "boom".into(),
            },
        ];
        for ev in &events {
            let (tag, payload) = ev.to_frame();
            let back = JobEvent::from_frame(tag, &payload).unwrap().unwrap();
            assert_eq!(&back, ev);
        }
    }

    #[test]
    fn report_frames_carry_the_bare_json() {
        // The REPORT payload is the raw report serialization, not a
        // length-prefixed wrapper: CI byte-compares it against local runs.
        let (tag, payload) = JobEvent::Report {
            json: "{\"findings\":[]}".into(),
        }
        .to_frame();
        assert_eq!(tag, TAG_REPORT);
        assert_eq!(payload, b"{\"findings\":[]}");
    }

    #[test]
    fn rejections_round_trip() {
        let p = encode_rejected(14, "a job needs a source");
        assert_eq!(
            decode_rejected(&p).unwrap(),
            (14, "a job needs a source".into())
        );
    }
}
