//! Wire-codec coverage: proptest round trips of the `Request` / `Response`
//! line codec, plus adversarial decoder cases — torn lines, oversized
//! frames, invalid UTF-8, junk before the newline — all of which must come
//! back as *typed* protocol errors with the reader left in a sane state.
//!
//! The socket differential suite (`socket_differential.rs`) pins the same
//! codec end to end over a real connection; this file pins it in isolation,
//! where every hostile byte sequence is cheap to construct.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_bench::service_support::random_trace;
use mcf0_service::net::proto::{decode_request, encode_line, Line, LineReader, MAX_FRAME_BYTES};
use mcf0_service::{CommandReply, ErrorCode, Request, Response, ServiceCommand, WireError};
use proptest::prelude::*;
use std::io::Cursor;

const BITS: usize = 8;

/// All error codes, for exhaustive string round trips.
const ALL_CODES: [ErrorCode; 22] = [
    ErrorCode::InvalidWindow,
    ErrorCode::NotWindowed,
    ErrorCode::EpochRegressed,
    ErrorCode::WindowEpochMismatch,
    ErrorCode::SpecMismatch,
    ErrorCode::SetAlgebraUnsupported,
    ErrorCode::BadFrame,
    ErrorCode::BadRequest,
    ErrorCode::FrameTooLarge,
    ErrorCode::AuthFailed,
    ErrorCode::QuotaExceeded,
    ErrorCode::ServerBusy,
    ErrorCode::UnknownSession,
    ErrorCode::DuplicateSession,
    ErrorCode::WrongItemType,
    ErrorCode::MergeIncompatible,
    ErrorCode::MergeSelf,
    ErrorCode::BadSnapshot,
    ErrorCode::Storage,
    ErrorCode::WalRecord,
    ErrorCode::ShardPanicked,
    ErrorCode::Degraded,
];

/// A deterministic finite f64 derived from a seed (bit reinterpretation,
/// with a fallback for the non-finite patterns JSON cannot carry).
fn finite_f64(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        (bits >> 11) as f64 * 0.0625
    }
}

fn decode_response(line: &str) -> Response {
    serde_json::from_str::<Response>(line.trim_end()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every command the trace generator can produce survives the request
    /// line codec byte-for-byte, even with hostile token contents.
    #[test]
    fn request_lines_round_trip(seed in any::<u64>()) {
        let tokens = [
            "tok-plain",
            "tok \"quoted\\slash\"",
            "tok-unicode-é-\u{1F600}",
            "tok\twith\ncontrol",
        ];
        for (i, command) in random_trace(seed, BITS, 30).into_iter().enumerate() {
            let request = Request {
                id: seed.wrapping_add(i as u64),
                token: tokens[i % tokens.len()].to_string(),
                command,
            };
            let line = encode_line(&request);
            prop_assert!(line.ends_with('\n'));
            let decoded = decode_request(line.trim_end().as_bytes()).unwrap();
            prop_assert_eq!(&decoded, &request);
            // Re-encoding is byte-stable — the differential harness depends
            // on one canonical rendering per value.
            prop_assert_eq!(encode_line(&decoded), line);
        }
    }

    /// Every reply and error shape survives the response line codec.
    #[test]
    fn response_lines_round_trip(seed in any::<u64>()) {
        let snapshot = format!("{{\"doc\":\"s-{seed}\",\n \"n\":[1,2]}} é");
        let bodies: Vec<Result<CommandReply, WireError>> = vec![
            Ok(CommandReply::Done),
            Ok(CommandReply::Estimate(finite_f64(seed))),
            Ok(CommandReply::Estimate(-0.0)),
            Ok(CommandReply::MaybeEstimate(None)),
            Ok(CommandReply::MaybeEstimate(Some(finite_f64(!seed)))),
            Ok(CommandReply::SpaceBits(seed as usize >> 16)),
            Ok(CommandReply::Snapshot(snapshot)),
            Err(WireError::protocol(
                ErrorCode::QuotaExceeded,
                format!("tenant `t{seed}` \"done\"\n"),
            )),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let response = Response {
                id: if i % 3 == 0 { None } else { Some(seed.wrapping_mul(i as u64)) },
                seq: if i % 2 == 0 { None } else { Some(i as u64) },
                body,
            };
            let line = encode_line(&response);
            let decoded = decode_response(&line);
            prop_assert_eq!(&decoded, &response);
            prop_assert_eq!(encode_line(&decoded), line);
        }
    }

    /// Splitting a request stream at arbitrary chunk sizes never changes
    /// what `LineReader` yields — framing is independent of read batching.
    #[test]
    fn line_reader_is_chunking_invariant(seed in any::<u64>(), chunk in 1usize..97) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for (i, command) in random_trace(seed, BITS, 12).into_iter().enumerate() {
            let request = Request { id: i as u64, token: "tok".to_string(), command };
            let line = encode_line(&request);
            expected.push(line.trim_end().as_bytes().to_vec());
            stream.extend_from_slice(line.as_bytes());
        }
        // A chunk-limited reader: hands out at most `chunk` bytes per read.
        struct Dribble<'a>(&'a [u8], usize);
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(self.1).min(out.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut reader = LineReader::new(Dribble(&stream, chunk));
        for want in &expected {
            prop_assert_eq!(reader.next_line().unwrap(), Some(Line::Frame(want.clone())));
        }
        prop_assert_eq!(reader.next_line().unwrap(), None);
    }
}

#[test]
fn error_code_strings_round_trip() {
    for code in ALL_CODES {
        assert_eq!(ErrorCode::parse(code.as_str()), Some(code), "{code:?}");
        // Display and the wire string agree.
        assert_eq!(code.to_string(), code.as_str());
    }
    assert_eq!(ErrorCode::parse("no_such_code"), None);
}

#[test]
fn junk_decodes_to_typed_protocol_errors() {
    // Invalid UTF-8: not even a readable frame.
    let err = decode_request(&[0xFF, 0xFE, b'{', b'}']).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadFrame);
    // Readable junk in escalating shapes: all `bad_request`, never a panic.
    for junk in [
        "",
        "hello",
        "{",
        "[1,2,3]",
        "{\"id\":1}",
        "{\"id\":\"seven\",\"token\":\"t\",\"cmd\":{\"op\":\"estimate\",\"name\":\"s\"}}",
        "{\"id\":1,\"token\":\"t\",\"cmd\":{\"op\":\"fire_missiles\"}}",
        "{\"id\":1,\"token\":\"t\",\"cmd\":{\"op\":\"create\",\"name\":\"s\"}}",
        "{\"id\":-3,\"token\":\"t\",\"cmd\":{\"op\":\"estimate\",\"name\":\"s\"}}",
        "{\"id\":1e999,\"token\":\"t\",\"cmd\":{\"op\":\"estimate\",\"name\":\"s\"}}",
    ] {
        let err = decode_request(junk.as_bytes()).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest, "junk = {junk:?}");
    }
}

/// Ingest lines at the edges of the typed scanner: the canonical ones it
/// takes, and the near misses it hands to the generic parser. Every row
/// pins the decode (value or exact error) the generic parser alone gives.
#[test]
fn ingest_lines_at_the_scanner_edges_decode_as_the_generic_parser_does() {
    let ok = |id: u64, name: &str, items: &[u64]| {
        Ok(Request {
            id,
            token: "t".to_string(),
            command: ServiceCommand::Ingest {
                name: name.to_string(),
                items: items.to_vec(),
            },
        })
    };
    let bad = |message: &str| {
        Err(WireError::protocol(
            ErrorCode::BadRequest,
            format!("malformed request: JSON error: {message}"),
        ))
    };
    let line = |items: &str| {
        format!(r#"{{"id":1,"token":"t","cmd":{{"op":"ingest","name":"s","items":{items}}}}}"#)
    };
    let rows: Vec<(String, Result<Request, WireError>)> = vec![
        (line("[01]"), ok(1, "s", &[1])),
        (line("[1.0]"), bad("number `1.0` out of range for u64")),
        (line("[1e2]"), bad("number `1e2` out of range for u64")),
        (line("[-0]"), bad("number `-0` out of range for u64")),
        (line("[18446744073709551615]"), ok(1, "s", &[u64::MAX])),
        (
            line("[18446744073709551616]"),
            bad("number `18446744073709551616` out of range for u64"),
        ),
        (line("[]"), ok(1, "s", &[])),
        (line("[1,]"), bad("expected a JSON value at byte 63")),
        (
            r#"{"id": 1,"token":"t","cmd":{"op":"ingest","name":"s","items":[2]}}"#.to_string(),
            ok(1, "s", &[2]),
        ),
        (
            r#"{"token":"t","cmd":{"items":[3],"name":"s","op":"ingest"},"id":1}"#.to_string(),
            ok(1, "s", &[3]),
        ),
        (
            r#"{"id":1,"token":"t","cmd":{"op":"ingest","name":"s","items":[4],"items":[5]}}"#
                .to_string(),
            ok(1, "s", &[5]),
        ),
        (
            r#"{"id":1,"token":"t","cmd":{"op":"ingest","name":"s","items":[6],"x":0}}"#
                .to_string(),
            ok(1, "s", &[6]),
        ),
        (
            r#"{"id":1,"token":"t","cmd":{"op":"ingest","name":"a\"b","items":[7]}}"#.to_string(),
            ok(1, "a\"b", &[7]),
        ),
        (
            r#"{"id":1,"token":"t","cmd":{"op":"ingest","name":"é€😀","items":[8]}}"#.to_string(),
            ok(1, "é€😀", &[8]),
        ),
        (
            r#"{"id":007,"token":"t","cmd":{"op":"ingest","name":"s","items":[9]}}"#.to_string(),
            ok(7, "s", &[9]),
        ),
        (
            format!("{}x", line("[10]")),
            bad("trailing characters at byte 66"),
        ),
    ];
    for (line, want) in rows {
        assert_eq!(decode_request(line.as_bytes()), want, "line = {line}");
    }
}

#[test]
fn torn_trailing_lines_are_dropped_silently() {
    // Bytes then EOF with no newline: no frame to answer.
    let mut reader = LineReader::new(Cursor::new(b"first\ntorn tail with no newline".to_vec()));
    assert_eq!(
        reader.next_line().unwrap(),
        Some(Line::Frame(b"first".to_vec()))
    );
    assert_eq!(reader.next_line().unwrap(), None);
    // And the reader stays at EOF rather than re-reporting the tail.
    assert_eq!(reader.next_line().unwrap(), None);
}

#[test]
fn oversized_lines_are_reported_once_and_reading_resumes() {
    let mut stream = vec![b'x'; MAX_FRAME_BYTES + 4096];
    stream.push(b'\n');
    stream.extend_from_slice(b"after\n");
    let mut reader = LineReader::new(Cursor::new(stream));
    // One typed report for the oversized line…
    assert_eq!(reader.next_line().unwrap(), Some(Line::Oversized));
    // …its remainder is discarded, and the next line reads normally.
    assert_eq!(
        reader.next_line().unwrap(),
        Some(Line::Frame(b"after".to_vec()))
    );
    assert_eq!(reader.next_line().unwrap(), None);
}

#[test]
fn oversized_line_at_eof_never_yields_a_frame() {
    // The hostile case: a gigabyte-line writer that hangs up mid-line.
    // The cap trips once; EOF follows without a frame.
    let stream = vec![b'y'; MAX_FRAME_BYTES + 1];
    let mut reader = LineReader::new(Cursor::new(stream));
    assert_eq!(reader.next_line().unwrap(), Some(Line::Oversized));
    assert_eq!(reader.next_line().unwrap(), None);
}

#[test]
fn exactly_max_frame_bytes_is_still_a_frame() {
    // The cap is exclusive: a line of exactly MAX_FRAME_BYTES decodes.
    let mut stream = vec![b'z'; MAX_FRAME_BYTES];
    stream.push(b'\n');
    let mut reader = LineReader::new(Cursor::new(stream));
    assert_eq!(
        reader.next_line().unwrap(),
        Some(Line::Frame(vec![b'z'; MAX_FRAME_BYTES]))
    );
}

#[test]
fn crlf_and_blank_lines_are_tolerated() {
    let mut reader = LineReader::new(Cursor::new(b"a\r\n\nb\n\r\n".to_vec()));
    assert_eq!(
        reader.next_line().unwrap(),
        Some(Line::Frame(b"a".to_vec()))
    );
    assert_eq!(reader.next_line().unwrap(), Some(Line::Frame(Vec::new())));
    assert_eq!(
        reader.next_line().unwrap(),
        Some(Line::Frame(b"b".to_vec()))
    );
    assert_eq!(reader.next_line().unwrap(), Some(Line::Frame(Vec::new())));
    assert_eq!(reader.next_line().unwrap(), None);
}
