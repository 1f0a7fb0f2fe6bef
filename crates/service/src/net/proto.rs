//! The wire protocol: typed requests, responses, stable error codes, and
//! the frame-capped line decoder.
//!
//! One request and one response per line, newline-delimited JSON:
//!
//! ```text
//! → {"id":7,"token":"tok-a","cmd":{"op":"estimate","name":"sessions"}}
//! ← {"id":7,"seq":42,"ok":{"estimate":128.0}}
//! ← {"id":8,"seq":null,"err":{"code":"auth_failed","message":"…"}}
//! ```
//!
//! * `id` is a caller-chosen correlation number echoed back verbatim
//!   (`null` when the request was too broken to read one).
//! * `seq` is the server's global acknowledged-order counter: every command
//!   that reached the service — including typed service rejections — gets
//!   the position at which it was applied. Protocol-level rejections (bad
//!   frames, auth, quotas) never reach the service and carry `seq: null`.
//!   Replaying the commands of a multi-client run in `seq` order against
//!   [`crate::ReferenceService`] reproduces every reply byte for byte —
//!   the socket differential harness pins exactly that.
//! * `cmd` is the ordinary [`ServiceCommand`] serde the write-ahead log
//!   already uses; the wire adds nothing to the command surface. A
//!   canonical compact ingest line decodes through a typed scanner with no
//!   `Value` tree; every other line, and every error, is the generic parse.
//!
//! Every length on this path is untrusted: lines are read through
//! [`LineReader`], which enforces [`MAX_FRAME_BYTES`] *while buffering* —
//! a gigabyte line yields a typed [`ErrorCode::FrameTooLarge`] response
//! (and the connection stays usable; the line's remainder is discarded),
//! never an unbounded allocation.

use crate::command::{CommandReply, Scan, ServiceCommand};
use crate::error::ServiceError;
use crate::session::member;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::io::Read;

/// Hard cap on one wire line (request or response), in bytes excluding the
/// newline. Far above any realistic command batch, far below an allocation
/// attack. Commands that fit a wire frame always fit a log frame
/// ([`crate::wal::MAX_WAL_FRAME_BYTES`] is larger).
pub const MAX_FRAME_BYTES: usize = 1024 * 1024;

/// Stable machine-readable error codes of the wire protocol. The string
/// forms are the API contract — clients match on them, and they never
/// change meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a readable frame (invalid UTF-8).
    BadFrame,
    /// The frame was readable but not a well-formed request (malformed
    /// JSON, missing members, unknown command op), or the service rejected
    /// its contents: [`ServiceError::InvalidSpec`] and
    /// [`ServiceError::ItemOutsideUniverse`].
    BadRequest,
    /// A frame (or a logged command) exceeded the layer's byte cap.
    FrameTooLarge,
    /// The auth token is not registered.
    AuthFailed,
    /// The tenant exhausted its request-count or space quota.
    QuotaExceeded,
    /// The server's connection cap is reached; retry later.
    ServerBusy,
    /// [`ServiceError::UnknownSession`].
    UnknownSession,
    /// [`ServiceError::DuplicateSession`].
    DuplicateSession,
    /// [`ServiceError::WrongItemType`].
    WrongItemType,
    /// [`ServiceError::MergeIncompatible`].
    MergeIncompatible,
    /// [`ServiceError::MergeSelf`].
    MergeSelf,
    /// [`ServiceError::InvalidWindow`].
    InvalidWindow,
    /// [`ServiceError::NotWindowed`].
    NotWindowed,
    /// [`ServiceError::EpochRegressed`].
    EpochRegressed,
    /// [`ServiceError::WindowEpochMismatch`].
    WindowEpochMismatch,
    /// [`ServiceError::SpecMismatch`].
    SpecMismatch,
    /// [`ServiceError::SetAlgebraUnsupported`].
    SetAlgebraUnsupported,
    /// [`ServiceError::Snapshot`].
    BadSnapshot,
    /// [`ServiceError::Storage`].
    Storage,
    /// [`ServiceError::WalRecord`].
    WalRecord,
    /// [`ServiceError::ShardPanicked`].
    ShardPanicked,
    /// [`ServiceError::Degraded`].
    Degraded,
}

impl ErrorCode {
    /// The stable wire string of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::AuthFailed => "auth_failed",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::DuplicateSession => "duplicate_session",
            ErrorCode::WrongItemType => "wrong_item_type",
            ErrorCode::MergeIncompatible => "merge_incompatible",
            ErrorCode::MergeSelf => "merge_self",
            ErrorCode::InvalidWindow => "invalid_window",
            ErrorCode::NotWindowed => "not_windowed",
            ErrorCode::EpochRegressed => "epoch_regressed",
            ErrorCode::WindowEpochMismatch => "window_epoch_mismatch",
            ErrorCode::SpecMismatch => "spec_mismatch",
            ErrorCode::SetAlgebraUnsupported => "set_algebra_unsupported",
            ErrorCode::BadSnapshot => "bad_snapshot",
            ErrorCode::Storage => "storage",
            ErrorCode::WalRecord => "wal_record",
            ErrorCode::ShardPanicked => "shard_panicked",
            ErrorCode::Degraded => "degraded",
        }
    }

    /// Inverse of [`ErrorCode::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_frame" => ErrorCode::BadFrame,
            "bad_request" => ErrorCode::BadRequest,
            "frame_too_large" => ErrorCode::FrameTooLarge,
            "auth_failed" => ErrorCode::AuthFailed,
            "quota_exceeded" => ErrorCode::QuotaExceeded,
            "server_busy" => ErrorCode::ServerBusy,
            "unknown_session" => ErrorCode::UnknownSession,
            "duplicate_session" => ErrorCode::DuplicateSession,
            "wrong_item_type" => ErrorCode::WrongItemType,
            "merge_incompatible" => ErrorCode::MergeIncompatible,
            "merge_self" => ErrorCode::MergeSelf,
            "invalid_window" => ErrorCode::InvalidWindow,
            "not_windowed" => ErrorCode::NotWindowed,
            "epoch_regressed" => ErrorCode::EpochRegressed,
            "window_epoch_mismatch" => ErrorCode::WindowEpochMismatch,
            "spec_mismatch" => ErrorCode::SpecMismatch,
            "set_algebra_unsupported" => ErrorCode::SetAlgebraUnsupported,
            "bad_snapshot" => ErrorCode::BadSnapshot,
            "storage" => ErrorCode::Storage,
            "wal_record" => ErrorCode::WalRecord,
            "shard_panicked" => ErrorCode::ShardPanicked,
            "degraded" => ErrorCode::Degraded,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed wire-level error: stable code + human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The stable code clients dispatch on.
    pub code: ErrorCode,
    /// The diagnostic message (deterministic for service rejections — the
    /// differential harness compares it byte for byte).
    pub message: String,
}

impl WireError {
    /// A protocol-level error (one the service itself never saw).
    pub fn protocol(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Maps a service rejection onto its wire form. The message is the
    /// error's `Display` rendering — deterministic, so replies stay
    /// byte-identical between the socket server and the in-process
    /// reference interpreter.
    pub fn from_service(err: &ServiceError) -> Self {
        let code = match err {
            ServiceError::UnknownSession(_) => ErrorCode::UnknownSession,
            ServiceError::DuplicateSession(_) => ErrorCode::DuplicateSession,
            ServiceError::WrongItemType { .. } => ErrorCode::WrongItemType,
            ServiceError::MergeIncompatible { .. } => ErrorCode::MergeIncompatible,
            ServiceError::MergeSelf(_) => ErrorCode::MergeSelf,
            ServiceError::InvalidWindow { .. } => ErrorCode::InvalidWindow,
            ServiceError::InvalidSpec { .. } | ServiceError::ItemOutsideUniverse { .. } => {
                ErrorCode::BadRequest
            }
            ServiceError::NotWindowed(_) => ErrorCode::NotWindowed,
            ServiceError::EpochRegressed { .. } => ErrorCode::EpochRegressed,
            ServiceError::WindowEpochMismatch { .. } => ErrorCode::WindowEpochMismatch,
            ServiceError::SpecMismatch { .. } => ErrorCode::SpecMismatch,
            ServiceError::SetAlgebraUnsupported { .. } => ErrorCode::SetAlgebraUnsupported,
            ServiceError::Snapshot(_) => ErrorCode::BadSnapshot,
            ServiceError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
            ServiceError::Storage(_) => ErrorCode::Storage,
            ServiceError::WalRecord { .. } => ErrorCode::WalRecord,
            ServiceError::ShardPanicked { .. } => ErrorCode::ShardPanicked,
            ServiceError::Degraded { .. } => ErrorCode::Degraded,
        };
        WireError {
            code,
            message: err.to_string(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// One request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The tenant's auth token.
    pub token: String,
    /// The command to run (the ordinary service command surface).
    pub command: ServiceCommand,
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id (`None`: the request was too broken to
    /// read one).
    pub id: Option<u64>,
    /// Global acknowledged-order position (`None`: the command never
    /// reached the service — see the module docs).
    pub seq: Option<u64>,
    /// The command's reply, or the typed error.
    pub body: Result<CommandReply, WireError>,
}

impl Serialize for Request {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"id\":");
        self.id.serialize_json(out);
        out.push_str(",\"token\":");
        serde::write_json_string(&self.token, out);
        out.push_str(",\"cmd\":");
        self.command.serialize_json(out);
        out.push('}');
    }
}

impl Deserialize for Request {
    fn deserialize_json(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "Request";
        Ok(Request {
            id: u64::deserialize_json(member(v, TY, "id")?)?,
            token: String::deserialize_json(member(v, TY, "token")?)?,
            command: ServiceCommand::deserialize_json(member(v, TY, "cmd")?)?,
        })
    }
}

fn write_opt_u64(value: Option<u64>, out: &mut String) {
    match value {
        Some(n) => n.serialize_json(out),
        None => out.push_str("null"),
    }
}

impl Serialize for Response {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"id\":");
        write_opt_u64(self.id, out);
        out.push_str(",\"seq\":");
        write_opt_u64(self.seq, out);
        match &self.body {
            Ok(reply) => {
                out.push_str(",\"ok\":");
                reply.serialize_json(out);
            }
            Err(err) => {
                out.push_str(",\"err\":{\"code\":");
                serde::write_json_string(err.code.as_str(), out);
                out.push_str(",\"message\":");
                serde::write_json_string(&err.message, out);
                out.push('}');
            }
        }
        out.push('}');
    }
}

impl Deserialize for Response {
    fn deserialize_json(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "Response";
        let id = Option::<u64>::deserialize_json(member(v, TY, "id")?)?;
        let seq = Option::<u64>::deserialize_json(member(v, TY, "seq")?)?;
        let body = if let Some(ok) = v.get("ok") {
            Ok(CommandReply::deserialize_json(ok)?)
        } else if let Some(err) = v.get("err") {
            let code_str = String::deserialize_json(member(err, TY, "code")?)?;
            let code = ErrorCode::parse(&code_str)
                .ok_or_else(|| DeError::new(format!("unknown error code `{code_str}`")))?;
            let message = String::deserialize_json(member(err, TY, "message")?)?;
            Err(WireError { code, message })
        } else {
            return Err(DeError::new("Response has neither `ok` nor `err`"));
        };
        Ok(Response { id, seq, body })
    }
}

// The reply's wire serde lives here rather than in `command.rs`: replies
// only cross a serialization boundary on the network path (the log records
// commands, not replies).
impl Serialize for CommandReply {
    fn serialize_json(&self, out: &mut String) {
        match self {
            CommandReply::Done => out.push_str("{\"done\":true}"),
            CommandReply::Estimate(x) => {
                out.push_str("{\"estimate\":");
                x.serialize_json(out);
                out.push('}');
            }
            CommandReply::MaybeEstimate(x) => {
                out.push_str("{\"maybe_estimate\":");
                x.serialize_json(out);
                out.push('}');
            }
            CommandReply::SpaceBits(n) => {
                out.push_str("{\"space_bits\":");
                n.serialize_json(out);
                out.push('}');
            }
            CommandReply::Snapshot(doc) => {
                out.push_str("{\"snapshot\":");
                serde::write_json_string(doc, out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for CommandReply {
    fn deserialize_json(v: &Value) -> Result<Self, DeError> {
        Ok(if v.get("done").is_some() {
            CommandReply::Done
        } else if let Some(x) = v.get("estimate") {
            CommandReply::Estimate(f64::deserialize_json(x)?)
        } else if let Some(x) = v.get("maybe_estimate") {
            CommandReply::MaybeEstimate(Option::<f64>::deserialize_json(x)?)
        } else if let Some(n) = v.get("space_bits") {
            CommandReply::SpaceBits(usize::deserialize_json(n)?)
        } else if let Some(doc) = v.get("snapshot") {
            CommandReply::Snapshot(String::deserialize_json(doc)?)
        } else {
            return Err(DeError::new("unknown CommandReply shape"));
        })
    }
}

/// Renders any wire value as one newline-terminated line.
pub fn encode_line<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize_json(&mut out);
    out.push('\n');
    out
}

/// Decodes one request line (newline already stripped). Invalid UTF-8 is
/// [`ErrorCode::BadFrame`]; well-encoded junk (malformed JSON, wrong shape,
/// unknown op) is [`ErrorCode::BadRequest`]. Both leave the connection in a
/// sane state — the next line is read normally.
pub fn decode_request(line: &[u8]) -> Result<Request, WireError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| WireError::protocol(ErrorCode::BadFrame, "request line is not valid UTF-8"))?;
    if let Some(request) = scan_ingest_request(text) {
        return Ok(request);
    }
    serde_json::from_str::<Request>(text)
        .map_err(|e| WireError::protocol(ErrorCode::BadRequest, format!("malformed request: {e}")))
}

/// The typed fast path: `{"id":N,"token":"…","cmd":<canonical ingest>}`
/// exactly as [`encode_line`] renders it, or `None` (see [`Scan`]).
fn scan_ingest_request(text: &str) -> Option<Request> {
    let mut scan = Scan::new(text);
    scan.lit(r#"{"id":"#)?;
    let id = scan.u64()?;
    scan.lit(r#","token":"#)?;
    let token = scan.string()?.to_string();
    scan.lit(r#","cmd":"#)?;
    let command = scan.ingest()?;
    scan.lit("}")?;
    scan.finish().then_some(Request { id, token, command })
}

/// One item produced by [`LineReader::next_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Line {
    /// A complete line, newline (and any trailing `\r`) stripped.
    Frame(Vec<u8>),
    /// The line under accumulation exceeded [`MAX_FRAME_BYTES`]. Reported
    /// once per oversized line; its remaining bytes are discarded up to the
    /// next newline and reading then resumes normally.
    Oversized,
}

/// A newline-splitting reader that enforces [`MAX_FRAME_BYTES`] while
/// buffering — the decoder-side half of the frame cap. `WouldBlock` from a
/// non-blocking stream surfaces as an error for the caller to treat as "no
/// data yet"; buffered partial lines survive it.
pub struct LineReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` already known newline-free (scan resume point).
    scanned: usize,
    /// Discarding the tail of an oversized line (until its newline).
    discarding: bool,
}

impl<R: Read> LineReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: Vec::new(),
            scanned: 0,
            discarding: false,
        }
    }

    /// The wrapped stream — the event loop writes to and registers the same
    /// socket it reads from, so a connection costs one descriptor.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The next complete line, [`Line::Oversized`] when the cap tripped, or
    /// `Ok(None)` at end of stream. A torn trailing line (bytes then EOF
    /// with no newline) is dropped silently — there is no frame to answer.
    pub fn next_line(&mut self) -> std::io::Result<Option<Line>> {
        loop {
            if let Some(rel) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let nl = self.scanned + rel;
                let mut line: Vec<u8> = self.buf.drain(..=nl).collect();
                self.scanned = 0;
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if self.discarding {
                    // The tail of a line already reported as oversized.
                    self.discarding = false;
                    continue;
                }
                if line.len() > MAX_FRAME_BYTES {
                    // The whole line arrived before the mid-accumulation
                    // check could trip (reads land in chunks): same typed
                    // rejection, already fully consumed.
                    return Ok(Some(Line::Oversized));
                }
                return Ok(Some(Line::Frame(line)));
            }
            self.scanned = self.buf.len();
            if self.discarding {
                // No need to keep the bytes we are throwing away.
                self.buf.clear();
                self.scanned = 0;
            } else if self.buf.len() > MAX_FRAME_BYTES {
                self.buf.clear();
                self.scanned = 0;
                self.discarding = true;
                return Ok(Some(Line::Oversized));
            }
            let mut chunk = [0u8; 8192];
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                return Ok(None);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
