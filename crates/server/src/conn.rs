//! Per-connection state machines for the epoll reactor.
//!
//! Each accepted socket owns a [`Conn`]: unconsumed read bytes, a FIFO
//! write buffer, and a [`ConnState`] that resumes exactly where the
//! last readable event left off. Nothing here blocks — the reactor
//! feeds bytes in, the state machine emits queued response bytes and
//! CPU-pool jobs out. Every request body, ingest included, is buffered
//! whole (up to the server's body limit) and dispatched once, so one
//! `POST /sessions/{id}/ingest` is one batch under every error policy.

use crate::http::{HeadParser, RequestHead, Response};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::Instant;

/// Where a connection is in its request/response lifecycle.
pub(crate) enum ConnState {
    /// Parsing the request head incrementally.
    Head(HeadParser),
    /// Accumulating a Content-Length body for a one-shot dispatch.
    BufferedBody {
        head: Box<RequestHead>,
        body: Vec<u8>,
    },
    /// Discarding `remaining` declared body bytes after an early
    /// response (413 with a drainable body) so keep-alive can resume at
    /// a clean request boundary.
    Draining { remaining: usize },
    /// A fully-buffered request is on the CPU pool; its serialized
    /// response arrives as a completion.
    InFlight,
    /// Response queued with `Connection: close` — flush, then close.
    Closing,
}

/// One nonblocking connection owned by the reactor slab.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub state: ConnState,
    /// Raw bytes read off the socket, not yet consumed by the parser.
    pub buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    pub pos: usize,
    /// Serialized responses awaiting write, FIFO so pipelined responses
    /// leave in request order.
    pub out: VecDeque<u8>,
    /// Peer half-closed its write side (EOF seen).
    pub read_closed: bool,
    /// Last moment bytes moved in either direction (timeout anchor).
    pub last_progress: Instant,
    /// epoll interest currently registered for this fd.
    pub interest: u32,
    /// Whether a timer-wheel entry for this connection is queued (the
    /// wheel keeps at most one per connection; lazy revalidation does
    /// the rest).
    pub timer_queued: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            state: ConnState::Head(HeadParser::new()),
            buf: Vec::new(),
            pos: 0,
            out: VecDeque::new(),
            read_closed: false,
            last_progress: now,
            interest: 0,
            timer_queued: false,
        }
    }

    /// Unconsumed input bytes.
    pub fn pending_input(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the state machine wants more bytes from the peer right
    /// now. `InFlight`/`Closing` pause reads, which (with
    /// level-triggered epoll) bounds per-connection buffering and gives
    /// pipelining for free: pipelined bytes sit in the kernel buffer
    /// until the response is queued.
    pub fn wants_read(&self) -> bool {
        !self.read_closed && !matches!(self.state, ConnState::InFlight | ConnState::Closing)
    }

    /// Whether all queued response bytes have been written out.
    pub fn out_done(&self) -> bool {
        self.out.is_empty()
    }

    /// Queue a serialized response; `keep_alive` decides the follow-on
    /// state (back to parsing, or flush-and-close).
    pub fn queue_response(&mut self, resp: &Response, keep_alive: bool) {
        self.out.extend(resp.to_bytes(keep_alive));
        self.state = if keep_alive {
            ConnState::Head(HeadParser::new())
        } else {
            ConnState::Closing
        };
    }

    /// Drop consumed input; called after each drive so a long-lived
    /// keep-alive connection doesn't accrete its whole history.
    pub fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 32 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_pauses_reads_while_dispatched() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut conn = Conn::new(stream, Instant::now());
        assert!(conn.wants_read(), "fresh connection reads");
        conn.state = ConnState::InFlight;
        assert!(!conn.wants_read(), "dispatched request pauses reads");
        conn.state = ConnState::Closing;
        assert!(!conn.wants_read(), "closing connection reads nothing more");
    }
}
