//! Hostile bytes for the request-head parser: a mutation battery over
//! `HeadParser::feed`, which reads every byte a client sends before a
//! route sees it.
//!
//! Seeds are three valid heads of the shapes the server serves: a
//! conditional schema `GET` with an escaped query, a keep-alive ingest
//! `POST` with a body behind it, and an HTTP/1.0 `DELETE` with bare `\n`
//! line ends. Mutations delete, insert and replace bytes (line ends,
//! separators, escape and sign characters, invalid UTF-8), duplicate and
//! swap lines, add framing headers (`Content-Length`, `Transfer-Encoding`
//! in legal and illegal spellings), truncate, and pad a line past the
//! size limits.
//!
//! Contract: never a panic; every mutant, fed whole, one byte at a time
//! and split at every byte, gives the same outcome, either a typed
//! `HttpError` or a head that agrees with the bytes it was read from
//! (see `check_head`); a parse allocates in proportion to its input.

use pg_serve::http::{HeadParser, HttpError, RequestHead, MAX_HEADER_BYTES, MAX_REQUEST_LINE};
use proptest::prelude::*;

#[path = "../../core/tests/mutation/mod.rs"]
mod mutation;
use mutation::{allocation_bound, metered};

const SEEDS: [&[u8]; 3] = [
    b"GET /sessions/s%20t/schema?format=json&q=a%2Bb+c&flag HTTP/1.1\r\n\
      Host: localhost:8080\r\n\
      Accept: */*\r\n\
      If-None-Match: \"json-v3-0123456789abcdef\"\r\n\
      \r\n",
    b"POST /sessions/s/ingest?on_error=skip HTTP/1.1\r\n\
      Host: h\r\n\
      Content-Type: application/x-ndjson\r\n\
      Content-Length: 12\r\n\
      Connection: keep-alive\r\n\
      \r\n\
      {\"kind\":1}\n",
    b"DELETE /sessions/old HTTP/1.0\n\
      Connection: close\n\
      Transfer-Encoding: identity\n\
      X-Empty:\n\
      \n",
];

/// What a mutation inserts or writes over: line structure, separators,
/// escapes and signs, bytes that are not UTF-8.
const PIECES: &[&[u8]] = &[
    b"\r",
    b"\n",
    b"\r\n",
    b"\r\n\r\n",
    b" ",
    b"\t",
    b":",
    b"%",
    b"%zz",
    b"%+1",
    b"%4",
    b"+",
    b"-",
    b"0",
    b"9",
    b"?",
    b"&",
    b"=",
    b"\xff",
    b"\x00",
    b"\xc3",
    b"HTTP/1.1",
    b"\xc3\xa9",
];

/// Header lines a mutation adds: framing headers in legal, duplicated,
/// signed, padded and folded spellings.
const HEADERS: &[&[u8]] = &[
    b"Content-Length: 7",
    b"Content-Length: +7",
    b"Content-Length: 007",
    b"Content-Length: 12",
    b"content-length:12",
    b"Content-Length: 7, 7",
    b"Content-Length: -1",
    b"Content-Length: 18446744073709551616",
    b"Content-Length\t: 9",
    b"Content-Length : 9",
    b"Transfer-Encoding: chunked",
    b"Transfer-Encoding: identity",
    b"TRANSFER-ENCODING: Identity",
    b"Transfer-Encoding: identity, chunked",
    b"Connection: close",
    b"Connection: Keep-Alive",
    b" folded continuation",
    b"\tfolded",
    b"No-Colon",
    b": empty-name",
    b"X-Empty:",
];

fn lines(input: &[u8]) -> Vec<&[u8]> {
    input.split_inclusive(|&b| b == b'\n').collect()
}

/// Apply mutation `kind` to `input`; `a` and `b` choose where and what.
fn mutate(input: &mut Vec<u8>, kind: u8, a: u64, b: u64) {
    let at = |n: usize| (a % (n as u64 + 1)) as usize;
    match kind % 8 {
        0 => {
            let from = at(input.len());
            let to = (from + 1 + (b % 4) as usize).min(input.len());
            input.drain(from..to);
        }
        1 => {
            let piece = PIECES[(b % PIECES.len() as u64) as usize];
            let pos = at(input.len());
            input.splice(pos..pos, piece.iter().copied());
        }
        2 if !input.is_empty() => {
            let piece = PIECES[(b % PIECES.len() as u64) as usize];
            let pos = at(input.len() - 1);
            input[pos] = piece[0];
        }
        3 | 4 => {
            let mut ls: Vec<Vec<u8>> = lines(input).into_iter().map(<[u8]>::to_vec).collect();
            if ls.is_empty() {
                return;
            }
            let i = (a % ls.len() as u64) as usize;
            let j = (b % ls.len() as u64) as usize;
            if kind % 8 == 3 {
                let copy = ls[i].clone();
                ls.insert(j, copy);
            } else {
                ls.swap(i, j);
            }
            *input = ls.concat();
        }
        5 => {
            // After the request line, before the blank one.
            let line_end = input.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
            let mut line = HEADERS[(b % HEADERS.len() as u64) as usize].to_vec();
            line.extend_from_slice(if b >> 32 & 1 == 0 { b"\r\n" } else { b"\n" });
            input.splice(line_end..line_end, line);
        }
        6 => input.truncate(at(input.len())),
        _ => {
            // Pad one line past a size limit (or just under it).
            let limit = if b & 1 == 0 {
                MAX_REQUEST_LINE
            } else {
                MAX_HEADER_BYTES
            };
            let len = limit - 8 + (b >> 1) as usize % 16;
            let pos = at(input.len());
            input.splice(pos..pos, vec![b'x'; len]);
        }
    }
}

type Outcome = Result<(usize, RequestHead), HttpError>;

/// Feed `input` as the reactor does, in the pieces `cuts` (ascending
/// offsets) make of it: a piece that does not finish the head is
/// consumed whole, and the end of input is the parser's EOF.
fn feed(input: &[u8], cuts: &[usize]) -> Outcome {
    let mut parser = HeadParser::new();
    let mut start = 0;
    for &end in cuts.iter().chain([&input.len()]) {
        let piece = &input[start..end];
        let (used, head) = parser.feed(piece)?;
        if let Some(head) = head {
            return Ok((start + used, head));
        }
        assert_eq!(used, piece.len(), "an unfinished head leaves bytes unread");
        start = end;
    }
    Err(parser.eof_error())
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// `%XX` with two hex digits and `+` as a space; anything else as it is.
fn decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let hex = |b: u8| (b as char).to_digit(16);
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                (Some(h), Some(l)) => {
                    out.push((h * 16 + l) as u8);
                    i += 3;
                    continue;
                }
                _ => out.push(b'%'),
            },
            b'+' => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A head must agree with the bytes it was read from: it ends at the
/// first blank line; the method and target are the request line's;
/// header names are tokens; every `Content-Length` is digits and all of
/// them agree with the framing the head reports; no `Transfer-Encoding`
/// other than `identity` got through.
fn check_head(input: &[u8], consumed: usize, head: &RequestHead) -> Result<(), String> {
    let text = std::str::from_utf8(&input[..consumed]).map_err(|e| e.to_string())?;
    let ls: Vec<&str> = text
        .split_inclusive('\n')
        .map(|l| l.trim_end_matches(['\r', '\n']))
        .collect();
    let blank = ls.iter().position(|l| l.is_empty());
    if blank != Some(ls.len() - 1) || !text.ends_with('\n') {
        return Err(format!(
            "head does not end at its first blank line: {text:?}"
        ));
    }
    let request: Vec<&str> = ls[0].split(' ').collect();
    let [method, target, version] = request[..] else {
        return Err(format!("request line {:?}", ls[0]));
    };
    if head.method != method.to_ascii_uppercase() {
        return Err(format!("method {:?} from {method:?}", head.method));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    if head.path != decode(path) {
        return Err(format!("path {:?} from {path:?}", head.path));
    }
    let want: Vec<(String, String)> = (query.split('&').filter(|kv| !kv.is_empty()))
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (decode(k), decode(v))
        })
        .collect();
    if head.query != want {
        return Err(format!("query {:?} from {query:?}", head.query));
    }
    if head.headers.len() != ls.len() - 2 {
        return Err(format!(
            "{} headers from {} lines",
            head.headers.len(),
            ls.len() - 2
        ));
    }
    let values = |name: &str| -> Vec<&str> {
        (head.headers.iter())
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    };
    for (name, value) in &head.headers {
        if !is_token(name) || *name != name.to_ascii_lowercase() || value.trim() != value {
            return Err(format!("header {name:?}: {value:?}"));
        }
    }
    let lengths = values("content-length");
    let declared = lengths.first().map_or(Ok(0), |v| v.parse::<usize>());
    let framed = lengths
        .iter()
        .all(|v| v.bytes().all(|b| b.is_ascii_digit()) && v.parse::<usize>() == declared);
    if !framed || declared != Ok(head.content_length) {
        return Err(format!(
            "content_length {} from {lengths:?}",
            head.content_length
        ));
    }
    let encodings = values("transfer-encoding");
    if !encodings
        .iter()
        .all(|te| te.eq_ignore_ascii_case("identity"))
    {
        return Err(format!("transfer-encoding {encodings:?} accepted"));
    }
    let connection = values("connection").first().map(|c| c.to_ascii_lowercase());
    let keep_alive = match &connection {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    if head.keep_alive != keep_alive {
        return Err(format!(
            "keep_alive {} from {connection:?} {version}",
            head.keep_alive
        ));
    }
    Ok(())
}

/// Every partition of `input` the battery tries: byte at a time, and one
/// cut at every byte. A cut costs a pass over the input, so a padded
/// mutant (tens of KiB) gets 16 evenly spaced cuts instead.
fn partitions(input: &[u8]) -> impl Iterator<Item = Vec<usize>> + '_ {
    let stride = if input.len() > 2048 {
        input.len() / 16
    } else {
        1
    };
    std::iter::once((1..input.len()).collect())
        .chain((1..input.len()).step_by(stride).map(|k| vec![k]))
}

fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok((n, x)), Ok((m, y))) => {
            (n, &x.method, &x.path, &x.query, &x.headers)
                == (m, &y.method, &y.path, &y.query, &y.headers)
                && (x.content_length, x.keep_alive) == (y.content_length, y.keep_alive)
        }
        (Err(x), Err(y)) => format!("{x:?}") == format!("{y:?}"),
        _ => false,
    }
}

fn run(input: &[u8]) -> Result<(), String> {
    let (whole, requested, elapsed) = metered(|| feed(input, &[]));
    if requested > allocation_bound(input.len()) {
        return Err(format!(
            "{requested} bytes allocated on {} input bytes",
            input.len()
        ));
    }
    if elapsed > std::time::Duration::from_secs(2) {
        return Err(format!("parse took {elapsed:?}"));
    }
    for cuts in partitions(input) {
        let got = feed(input, &cuts);
        if !same(&got, &whole) {
            return Err(format!(
                "cut at {:?}: {got:?} where whole gave {whole:?}",
                &cuts[..cuts.len().min(4)]
            ));
        }
    }
    match &whole {
        Ok((consumed, head)) => check_head(input, *consumed, head),
        Err(HttpError::Eof) if !input.is_empty() => Err("Eof after bytes".into()),
        Err(_) => Ok(()),
    }
}

#[test]
fn every_seed_parses_to_a_consistent_head() {
    for seed in SEEDS {
        run(seed).unwrap_or_else(|e| panic!("{}: {e}", String::from_utf8_lossy(seed)));
        assert!(feed(seed, &[]).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn mutants_give_a_typed_error_or_a_consistent_head(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4)
    ) {
        for seed in SEEDS {
            let mut input = seed.to_vec();
            for &(kind, a, b) in &ops {
                mutate(&mut input, kind, a, b);
            }
            let verdict = run(&input);
            prop_assert!(
                verdict.is_ok(),
                "{}\n  on {:?}",
                verdict.unwrap_err(),
                String::from_utf8_lossy(&input[..input.len().min(400)])
            );
        }
    }
}
