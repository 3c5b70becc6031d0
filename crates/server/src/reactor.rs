//! The connection loop: one reactor thread multiplexing every
//! connection over raw epoll, with CPU-bound work (routing, parsing,
//! incremental discovery) on the bounded worker pool.
//!
//! ## Shape
//!
//! The reactor owns a slab of [`Conn`] state machines keyed by
//! generation-tagged tokens (`idx | gen << 32`), so a completion for a
//! connection that died and whose slot was reused is discarded instead
//! of corrupting its successor. Level-triggered epoll with interest
//! toggling does the flow control: `EPOLLIN` is dropped while a request
//! is dispatched (pipelined bytes wait in the kernel buffer — bounded
//! memory per connection) and `EPOLLOUT` is armed only while response
//! bytes are queued.
//!
//! Workers never touch sockets. They run the routed handler, then push
//! a [`Completion`] down an mpsc channel and poke the wake pipe — a
//! nonblocking `UnixStream` pair the reactor polls like any other fd.
//! The same pipe is registered with the signal handler so SIGINT
//! interrupts `epoll_wait` immediately (glibc's `signal()` means
//! SA_RESTART, so without it shutdown would wait for the next tick).
//!
//! Timeouts ride a coarse timer wheel (lazy deletion: entries are
//! re-validated against the connection's *actual* deadline when their
//! slot comes up, and rescheduled if the connection made progress).
//! Mid-request stalls get [`ServerConfig::read_timeout`] (slowloris
//! cutoff); idle keep-alive connections get the much longer
//! [`ServerConfig::idle_timeout`].
//!
//! [`ServerConfig::read_timeout`]: crate::ServerConfig::read_timeout
//! [`ServerConfig::idle_timeout`]: crate::ServerConfig::idle_timeout

use crate::conn::{Conn, ConnState};
use crate::http::{self, HeadParser, HttpError, RequestHead, Response};
use crate::pool::Pool;
use crate::router::{self, Ctx};
use crate::shutdown;
use crate::{Server, ServerConfig};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod sys {
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Matches the kernel ABI: packed on x86-64, natural elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// epoll_wait timeout: bounds timer-wheel latency and (as a backstop)
/// shutdown-flag latency if the wake pipe is somehow full.
const TICK_MS: i32 = 50;
/// Timer wheel slot width.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(100);
/// Timer wheel slots (horizon = slots × granularity; longer deadlines
/// hop: they re-validate and reschedule when their slot comes up).
const WHEEL_SLOTS: usize = 64;
/// Per-drive read budget, so one firehose connection cannot starve the
/// rest of the event loop.
const READ_BUDGET: usize = 256 * 1024;

const DATA_LISTENER: u64 = u64::MAX;
const DATA_WAKER: u64 = u64::MAX - 1;

fn token(idx: usize, gen: u32) -> u64 {
    idx as u64 | (u64::from(gen) << 32)
}

fn untoken(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// Thin RAII epoll handle.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events, data };
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    fn add(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, data)
    }

    fn modify(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, data)
    }

    fn del(&self, fd: i32) -> io::Result<()> {
        // A dummy event keeps pre-2.6.9 kernel semantics happy.
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let rc = unsafe {
            sys::epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.fd);
        }
    }
}

/// Wake-pipe write half, cloned into every worker job. A full pipe is
/// fine — one pending byte is enough to wake the reactor, which drains
/// the completion channel exhaustively.
pub(crate) struct Waker(UnixStream);

impl Waker {
    fn wake(&self) {
        let _ = (&self.0).write(&[1u8]);
    }
}

/// What a worker hands back to the reactor: a fully-buffered request
/// was routed, and here is its serialized response (metrics were
/// recorded on the worker).
pub(crate) struct Completion {
    token: u64,
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// Generation-tagged connection slab. Slot reuse bumps the generation,
/// so tokens baked into in-flight pool jobs and timer entries can never
/// resolve to a different connection.
struct Slab {
    entries: Vec<Entry>,
    free: Vec<usize>,
    live: usize,
}

struct Entry {
    gen: u32,
    conn: Option<Conn>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u32) {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                let entry = &mut self.entries[idx];
                entry.conn = Some(conn);
                (idx, entry.gen)
            }
            None => {
                self.entries.push(Entry {
                    gen: 0,
                    conn: Some(conn),
                });
                (self.entries.len() - 1, 0)
            }
        }
    }

    fn get_mut(&mut self, idx: usize, gen: u32) -> Option<&mut Conn> {
        let entry = self.entries.get_mut(idx)?;
        if entry.gen != gen {
            return None;
        }
        entry.conn.as_mut()
    }

    fn remove(&mut self, idx: usize, gen: u32) -> Option<Conn> {
        let entry = self.entries.get_mut(idx)?;
        if entry.gen != gen {
            return None;
        }
        let conn = entry.conn.take()?;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        Some(conn)
    }

    fn tokens(&self) -> Vec<u64> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.conn.is_some())
            .map(|(i, e)| token(i, e.gen))
            .collect()
    }
}

/// Coarse hashed timer wheel with lazy deletion: at most one queued
/// entry per connection (`Conn::timer_queued`); when an entry's slot
/// comes up the connection's *current* deadline decides kill vs
/// reschedule.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); WHEEL_SLOTS],
            cursor: 0,
            last_tick: now,
        }
    }

    fn schedule(&mut self, token: u64, deadline: Instant, now: Instant) {
        let delta = deadline.saturating_duration_since(now);
        let ticks = (delta.as_millis() / WHEEL_GRANULARITY.as_millis()) as usize + 1;
        let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(token);
    }

    fn advance(&mut self, now: Instant, due: &mut Vec<u64>) {
        while now.duration_since(self.last_tick) >= WHEEL_GRANULARITY {
            self.last_tick += WHEEL_GRANULARITY;
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            due.append(&mut self.slots[self.cursor]);
        }
    }
}

/// Everything the per-connection state transitions need besides the
/// connection itself. Split from the slab/wheel so a borrowed `Conn`
/// and the services can coexist.
struct Services {
    epoll: Epoll,
    ctx: Arc<Ctx>,
    shutdown: Arc<AtomicBool>,
    /// The server's configuration, counts clamped to at least 1.
    cfg: ServerConfig,
    pool: Pool,
    tx: Sender<Completion>,
    waker: Arc<Waker>,
}

/// Serve the bound listener until shutdown;
/// returns total connections accepted. Called from [`Server::run`].
pub(crate) fn serve(server: &Server) -> io::Result<u64> {
    let epoll = Epoll::new()?;
    epoll.add(server.listener.as_raw_fd(), sys::EPOLLIN, DATA_LISTENER)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, DATA_WAKER)?;
    shutdown::register_signal_wake_fd(wake_tx.as_raw_fd());
    let (tx, rx) = std::sync::mpsc::channel();
    let mut cfg = server.config.clone();
    cfg.max_connections = cfg.max_connections.max(1);
    cfg.queue = cfg.queue.max(1);
    let mut reactor = Reactor {
        svc: Services {
            epoll,
            ctx: Arc::clone(&server.ctx),
            shutdown: Arc::clone(&server.shutdown),
            pool: Pool::new(cfg.workers, cfg.queue),
            cfg,
            tx,
            waker: Arc::new(Waker(wake_tx)),
        },
        slab: Slab::new(),
        wheel: TimerWheel::new(Instant::now()),
        rx,
        wake_rx,
        connections: 0,
        draining: false,
    };
    let result = reactor.event_loop(&server.listener);
    shutdown::clear_signal_wake_fd();
    // Count every surviving connection closed so the gauge returns to
    // zero, then drain the pool (drops any now-orphaned completions).
    for t in reactor.slab.tokens() {
        let (idx, gen) = untoken(t);
        reactor.close(idx, gen);
    }
    let Reactor { svc, .. } = reactor;
    svc.pool.shutdown();
    result
}

struct Reactor {
    svc: Services,
    slab: Slab,
    wheel: TimerWheel,
    rx: Receiver<Completion>,
    wake_rx: UnixStream,
    connections: u64,
    draining: bool,
}

impl Reactor {
    fn event_loop(&mut self, listener: &TcpListener) -> io::Result<u64> {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        let mut drain_deadline = Instant::now();
        loop {
            let now = Instant::now();
            if !self.draining && self.svc.shutdown.load(Ordering::SeqCst) {
                self.draining = true;
                drain_deadline = now + self.svc.cfg.read_timeout + Duration::from_secs(3);
                let _ = self.svc.epoll.del(listener.as_raw_fd());
                self.begin_drain();
            }
            if self.draining && (self.slab.live == 0 || now >= drain_deadline) {
                break;
            }
            let n = self.svc.epoll.wait(&mut events, TICK_MS)?;
            let mut accept_ready = false;
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) kernel struct.
                let data = ev.data;
                let bits = ev.events;
                match data {
                    DATA_LISTENER => accept_ready = true,
                    DATA_WAKER => self.drain_waker(),
                    t => {
                        let (idx, gen) = untoken(t);
                        let readable = bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                        let fatal = bits & sys::EPOLLERR != 0;
                        self.drive(idx, gen, readable, fatal);
                    }
                }
            }
            while let Ok(completion) = self.rx.try_recv() {
                self.handle_completion(completion);
            }
            if accept_ready && !self.draining {
                self.accept_loop(listener);
            }
            self.expire_timers();
        }
        Ok(self.connections)
    }

    fn accept_loop(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.connections += 1;
                    self.svc.ctx.metrics.connection_opened();
                    if self.slab.live >= self.svc.cfg.max_connections {
                        self.svc.ctx.metrics.connection_limit_rejection();
                        self.reject(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.svc.ctx.metrics.connection_closed();
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let (idx, gen) = self.slab.insert(Conn::new(stream, now));
                    let t = token(idx, gen);
                    let fd = {
                        let conn = self.slab.get_mut(idx, gen).expect("just inserted");
                        conn.interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                        conn.timer_queued = true;
                        conn.stream.as_raw_fd()
                    };
                    if self
                        .svc
                        .epoll
                        .add(fd, sys::EPOLLIN | sys::EPOLLRDHUP, t)
                        .is_err()
                    {
                        self.slab.remove(idx, gen);
                        self.svc.ctx.metrics.connection_closed();
                        continue;
                    }
                    self.wheel.schedule(t, now + self.svc.cfg.idle_timeout, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept errors (ECONNABORTED,
                // EMFILE, ...) must not kill the server.
                Err(_) => break,
            }
        }
    }

    /// Over the connection limit: best-effort 503 and drop. The socket
    /// is still blocking here; the response fits any socket buffer.
    fn reject(&self, mut stream: TcpStream) {
        let resp = Response::error(
            503,
            "too_many_connections",
            "connection limit reached; retry with backoff",
        )
        .with_header("Retry-After", "1");
        let _ = stream.set_nodelay(true);
        let _ = stream.write_all(&resp.to_bytes(false));
        self.svc.ctx.metrics.connection_closed();
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Run one connection's state machine: read what's there, process
    /// until blocked, flush, resync epoll interest and its timer.
    fn drive(&mut self, idx: usize, gen: u32, readable: bool, fatal: bool) {
        let now = Instant::now();
        let svc = &self.svc;
        let Some(conn) = self.slab.get_mut(idx, gen) else {
            return;
        };
        let verdict = step(conn, svc, token(idx, gen), now, readable, fatal);
        match verdict {
            Verdict::Close => self.close(idx, gen),
            Verdict::Keep => {
                conn.compact();
                let interest = desired_interest(conn);
                if interest != conn.interest {
                    conn.interest = interest;
                    let fd = conn.stream.as_raw_fd();
                    let _ = svc.epoll.modify(fd, interest, token(idx, gen));
                }
                if !conn.timer_queued {
                    conn.timer_queued = true;
                    let deadline = deadline_of(conn, &svc.cfg);
                    self.wheel.schedule(token(idx, gen), deadline, now);
                }
            }
        }
    }

    fn handle_completion(&mut self, completion: Completion) {
        let (idx, gen) = untoken(completion.token);
        let Some(conn) = self.slab.get_mut(idx, gen) else {
            return;
        };
        conn.out.extend(completion.bytes);
        conn.state = if completion.keep_alive {
            ConnState::Head(HeadParser::new())
        } else {
            ConnState::Closing
        };
        conn.last_progress = Instant::now();
        self.drive(idx, gen, false, false);
    }

    fn expire_timers(&mut self) {
        let now = Instant::now();
        let mut due = Vec::new();
        self.wheel.advance(now, &mut due);
        for t in due {
            let (idx, gen) = untoken(t);
            let mut kill = false;
            {
                let Some(conn) = self.slab.get_mut(idx, gen) else {
                    continue;
                };
                conn.timer_queued = false;
                let deadline = deadline_of(conn, &self.svc.cfg);
                if now >= deadline {
                    kill = true;
                } else {
                    conn.timer_queued = true;
                    self.wheel.schedule(t, deadline, now);
                }
            }
            if kill {
                self.svc.ctx.metrics.idle_timeout();
                self.close(idx, gen);
            }
        }
    }

    /// Shutdown began: close idle keep-alive connections immediately.
    /// Busy ones answer their in-flight request with `Connection:
    /// close` (workers consult the shutdown flag) and mid-parse ones
    /// run into `read_timeout`, all inside the drain grace window.
    fn begin_drain(&mut self) {
        for t in self.slab.tokens() {
            let (idx, gen) = untoken(t);
            let idle = match self.slab.get_mut(idx, gen) {
                Some(conn) => {
                    conn.out_done()
                        && conn.pending_input() == 0
                        && matches!(&conn.state, ConnState::Head(p) if !p.started())
                }
                None => false,
            };
            if idle {
                self.close(idx, gen);
            }
        }
    }

    fn close(&mut self, idx: usize, gen: u32) {
        if let Some(conn) = self.slab.remove(idx, gen) {
            let _ = self.svc.epoll.del(conn.stream.as_raw_fd());
            self.svc.ctx.metrics.connection_closed();
            // Dropping the Conn closes the fd and releases any held
            // ingest permit.
        }
    }
}

enum Verdict {
    Keep,
    Close,
}

enum Flow {
    Continue,
    Blocked,
    Close,
}

fn step(
    conn: &mut Conn,
    svc: &Services,
    t: u64,
    now: Instant,
    readable: bool,
    fatal: bool,
) -> Verdict {
    if fatal {
        return Verdict::Close;
    }
    if readable && read_into(conn, now).is_err() {
        return Verdict::Close;
    }
    loop {
        match process_once(conn, svc, t) {
            Flow::Continue => {}
            Flow::Blocked => break,
            Flow::Close => return Verdict::Close,
        }
    }
    if flush(conn, now).is_err() {
        return Verdict::Close;
    }
    if conn.out_done() {
        if matches!(conn.state, ConnState::Closing) {
            return Verdict::Close;
        }
        // Peer half-closed at a clean request boundary and the last
        // response just flushed: nothing more can happen on this
        // connection, so close it now rather than at the idle timeout.
        if conn.read_closed && conn.pending_input() == 0 {
            if let ConnState::Head(parser) = &conn.state {
                if !parser.started() {
                    return Verdict::Close;
                }
            }
        }
    }
    Verdict::Keep
}

/// Pull whatever the socket has (bounded by [`READ_BUDGET`]) into the
/// connection buffer.
fn read_into(conn: &mut Conn, now: Instant) -> io::Result<()> {
    let mut scratch = [0u8; 16 * 1024];
    let mut total = 0usize;
    while conn.wants_read() && total < READ_BUDGET {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.read_closed = true;
                conn.last_progress = now;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                conn.last_progress = now;
                total += n;
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Even with reads paused we must notice EOF/RST promptly, or a
    // client that hung up on a dispatched request would linger to its
    // timeout.
    if total == 0 && !conn.wants_read() && !conn.read_closed {
        match conn.stream.read(&mut scratch[..1]) {
            Ok(0) => {
                conn.read_closed = true;
                conn.last_progress = now;
            }
            Ok(_) => conn.buf.extend_from_slice(&scratch[..1]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write queued response bytes until the socket pushes back.
fn flush(conn: &mut Conn, now: Instant) -> io::Result<()> {
    while !conn.out.is_empty() {
        let (front, _) = conn.out.as_slices();
        match conn.stream.write(front) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.out.drain(..n);
                conn.last_progress = now;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One state transition. Returns `Continue` when it advanced (call
/// again: there may be pipelined input behind it), `Blocked` when it
/// needs more input or an outstanding completion.
fn process_once(conn: &mut Conn, svc: &Services, t: u64) -> Flow {
    // Take the state out so transitions can consume it; every arm
    // reassigns before returning (InFlight is the placeholder).
    let state = std::mem::replace(&mut conn.state, ConnState::InFlight);
    match state {
        ConnState::Head(mut parser) => {
            if conn.pending_input() == 0 {
                if conn.read_closed {
                    match parser.eof_error() {
                        // Clean close at a request boundary.
                        HttpError::Eof => {
                            conn.state = ConnState::Head(parser);
                            if conn.out_done() {
                                Flow::Close
                            } else {
                                Flow::Blocked
                            }
                        }
                        e => error_response(conn, svc, &e),
                    }
                } else {
                    conn.state = ConnState::Head(parser);
                    Flow::Blocked
                }
            } else {
                let feed = parser.feed(&conn.buf[conn.pos..]);
                match feed {
                    Ok((used, Some(head))) => {
                        conn.pos += used;
                        admit(conn, svc, head)
                    }
                    Ok((used, None)) => {
                        conn.pos += used;
                        if conn.read_closed {
                            let e = parser.eof_error();
                            error_response(conn, svc, &e)
                        } else {
                            conn.state = ConnState::Head(parser);
                            Flow::Blocked
                        }
                    }
                    Err(e) => error_response(conn, svc, &e),
                }
            }
        }
        ConnState::BufferedBody { head, mut body } => {
            let avail = conn.pending_input();
            let need = head.content_length - body.len();
            let take = need.min(avail);
            body.extend_from_slice(&conn.buf[conn.pos..conn.pos + take]);
            conn.pos += take;
            if body.len() == head.content_length {
                dispatch_buffered(conn, svc, *head, body, t)
            } else if conn.read_closed {
                error_response(
                    conn,
                    svc,
                    &HttpError::BadRequest("unexpected end of stream".into()),
                )
            } else {
                conn.state = ConnState::BufferedBody { head, body };
                Flow::Blocked
            }
        }
        ConnState::Draining { mut remaining } => {
            let take = remaining.min(conn.pending_input());
            conn.pos += take;
            remaining -= take;
            if remaining == 0 {
                conn.state = ConnState::Head(HeadParser::new());
                Flow::Continue
            } else if conn.read_closed {
                Flow::Close
            } else {
                conn.state = ConnState::Draining { remaining };
                Flow::Blocked
            }
        }
        ConnState::InFlight => {
            conn.state = ConnState::InFlight;
            Flow::Blocked
        }
        ConnState::Closing => {
            conn.state = ConnState::Closing;
            Flow::Blocked
        }
    }
}

/// A head is parsed: enforce the body limit, then buffer the body.
fn admit(conn: &mut Conn, svc: &Services, head: RequestHead) -> Flow {
    if head.content_length > svc.cfg.max_body {
        let e = HttpError::PayloadTooLarge {
            limit: svc.cfg.max_body,
            declared: head.content_length,
        };
        let resp = e.to_response().expect("413 always has a response");
        svc.ctx
            .metrics
            .record("<parse-error>", resp.status, Duration::ZERO);
        if head.content_length <= http::DRAIN_CAP && head.keep_alive {
            // Answer first (the client may never send the body), then
            // swallow the declared bytes so keep-alive resumes at a
            // clean request boundary.
            conn.queue_response(&resp, true);
            conn.state = ConnState::Draining {
                remaining: head.content_length,
            };
        } else {
            conn.queue_response(&resp, false);
        }
        return Flow::Continue;
    }
    conn.state = ConnState::BufferedBody {
        head: Box::new(head),
        body: Vec::new(),
    };
    Flow::Continue
}

/// Ship a fully-buffered request to the worker pool. The worker routes
/// it, records metrics, serializes the response, and wakes the reactor
/// with a [`Completion`].
fn dispatch_buffered(
    conn: &mut Conn,
    svc: &Services,
    head: RequestHead,
    body: Vec<u8>,
    t: u64,
) -> Flow {
    // Single-enqueuer invariant: only the reactor thread submits jobs,
    // so between this check and try_execute the queue can only shrink.
    if svc.pool.queued() >= svc.cfg.queue {
        svc.ctx.metrics.busy_rejection();
        let resp = server_busy_response();
        // The body is fully consumed, so keep-alive stays safe.
        conn.queue_response(&resp, head.keep_alive);
        return Flow::Continue;
    }
    let req = head.into_request(body);
    let ctx = Arc::clone(&svc.ctx);
    let tx = svc.tx.clone();
    let waker = Arc::clone(&svc.waker);
    let submitted = svc.pool.try_execute(Box::new(move || {
        let started = Instant::now();
        let (route, resp) = router::dispatch(&req, &ctx);
        ctx.metrics.record(route, resp.status, started.elapsed());
        let keep = req.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
        let _ = tx.send(Completion {
            token: t,
            bytes: resp.to_bytes(keep),
            keep_alive: keep,
        });
        waker.wake();
    }));
    match submitted {
        Ok(()) => {
            conn.state = ConnState::InFlight;
            Flow::Blocked
        }
        Err(_busy) => {
            // Unreachable given the single-enqueuer check; degrade the
            // same way the accept path does.
            svc.ctx.metrics.busy_rejection();
            let resp = server_busy_response();
            conn.queue_response(&resp, false);
            Flow::Continue
        }
    }
}

fn server_busy_response() -> Response {
    Response::error(
        503,
        "server_busy",
        "worker pool saturated; retry with backoff",
    )
    .with_header("Retry-After", "1")
}

fn error_response(conn: &mut Conn, svc: &Services, e: &HttpError) -> Flow {
    match e.to_response() {
        Some(resp) => {
            svc.ctx
                .metrics
                .record("<parse-error>", resp.status, Duration::ZERO);
            conn.queue_response(&resp, false);
            Flow::Continue
        }
        None => Flow::Close,
    }
}

fn desired_interest(conn: &Conn) -> u32 {
    let mut bits = sys::EPOLLRDHUP;
    if conn.wants_read() {
        bits |= sys::EPOLLIN;
    }
    if !conn.out_done() {
        bits |= sys::EPOLLOUT;
    }
    bits
}

/// Mid-request stalls answer to the short read timeout (slowloris
/// cutoff); idle keep-alive connections and server-side work answer to
/// the long idle timeout.
fn deadline_of(conn: &Conn, cfg: &ServerConfig) -> Instant {
    let mid_request = match &conn.state {
        ConnState::Head(p) => p.started(),
        ConnState::BufferedBody { .. } | ConnState::Draining { .. } | ConnState::Closing => true,
        ConnState::InFlight => false,
    };
    conn.last_progress
        + if mid_request {
            cfg.read_timeout
        } else {
            cfg.idle_timeout
        }
}
