//! Readiness-driven connection I/O: one thread `poll(2)`s the listener
//! and every connection, so idle connections cost a few hundred bytes
//! of buffer instead of a parked thread each.
//!
//! The reactor owns the **read** side only: it accepts, buffers bytes
//! per connection, splits complete lines, and dispatches them through
//! the same [`handle_line`] the threaded model uses. Bytes are read
//! straight into the connection's buffer, each byte is searched for a
//! newline once, and a complete line is decoded where it lies in the
//! buffer; the consumed prefix is dropped once per read. Responses are
//! written by whichever thread completes them (control replies by the
//! reactor itself, job results by workers) through the shared
//! per-connection writer; the non-blocking flag lives on the file
//! description, so those writers park in `poll(2)` on `WouldBlock`
//! (see `write_all_stream`).
//!
//! ## Drain and exit
//!
//! The listener is dropped as soon as the draining flag is observed —
//! *before* accepting — so the drain poke (or a client racing the
//! shutdown) never becomes a connection and never emits lifecycle
//! events. The thread exits when `Shared::stop` is set (the workers
//! are gone), sweeping every remaining connection through
//! [`disconnect_cleanup`] so each one still gets its `disconnected`
//! event.

use std::io::{self, BufRead, Read};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minipoll::{PollFd, POLLIN};

use super::{disconnect_cleanup, handle_line, EventBuilder, Shared, SharedWriter};
use crate::net::{Listener, Stream};

/// Poll timeout: the upper bound on how stale the draining/stop flags
/// can get when no I/O happens.
const POLL_TIMEOUT_MS: i32 = 25;

/// Bytes read per `read(2)` call on a ready connection.
const READ_CHUNK: usize = 16 * 1024;

/// A connection that accumulates this much without a newline is not
/// speaking the protocol (or is trying to exhaust memory) and is
/// dropped. Generous: inline formulas and batches are one line each.
const MAX_LINE_BYTES: usize = 256 * 1024 * 1024;

struct Conn {
    id: u64,
    /// The read half. Same file description as the writer clones.
    stream: Stream,
    writer: SharedWriter,
    /// Bytes received but not yet dispatched: at most one partial line
    /// between reads.
    buf: Vec<u8>,
    /// How much of `buf` is known to hold no newline.
    scanned: usize,
}

/// The reactor thread body. Exits when `shared.stop` is set.
pub(super) fn run(listener: Listener, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        // a listener that cannot be polled gets the threaded model
        super::accept_loop(&listener, shared);
        return;
    }
    let loop_us = obs::metrics::histogram("satverifyd.reactor.loop_us");
    let connections = obs::metrics::gauge("satverifyd.reactor.connections");
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            for conn in conns.drain(..) {
                connections.add(-1);
                disconnect_cleanup(shared, conn.id);
            }
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            listener = None;
        }
        fds.clear();
        if let Some(listener) = &listener {
            fds.push(PollFd::new(listener.raw_fd(), POLLIN));
        }
        for conn in &conns {
            fds.push(PollFd::new(conn.stream.raw_fd(), POLLIN));
        }
        let ready = match minipoll::poll(&mut fds, POLL_TIMEOUT_MS) {
            Ok(n) => n,
            // EINTR is retried inside the shim; anything else here is
            // transient fd churn — re-derive the set and try again
            Err(_) => continue,
        };
        if ready == 0 {
            continue;
        }
        let woke = Instant::now();
        // connections accepted below land at the end of `conns` with no
        // pollfd this round; only the first `polled` slots pair with fds
        let polled = conns.len();
        let mut base = 0;
        if let Some(listener) = &listener {
            if fds[0].readable() {
                accept_ready(shared, listener, &mut conns, &mut next_conn, &connections);
            }
            base = 1;
        }
        let mut closed = Vec::new();
        for slot in 0..polled {
            if fds[base + slot].readable() && !service_conn(shared, &mut conns[slot]) {
                closed.push(slot);
            }
        }
        for slot in closed.into_iter().rev() {
            let conn = conns.remove(slot);
            connections.add(-1);
            disconnect_cleanup(shared, conn.id);
        }
        loop_us.record(woke.elapsed().as_micros() as u64);
    }
}

/// Accepts until the listener would block. Connections that land after
/// the drain began (the poke, or a client racing shutdown) are dropped
/// unregistered, exactly like the threaded accept loop.
fn accept_ready(
    shared: &Arc<Shared>,
    listener: &Listener,
    conns: &mut Vec<Conn>,
    next_conn: &mut u64,
    connections: &obs::metrics::Gauge,
) {
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock, or transient accept failure
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let Ok(write_half) = stream.try_clone() else { continue };
        let id = *next_conn;
        *next_conn += 1;
        if let Ok(registry_half) = stream.try_clone() {
            shared.conns.lock().expect("conn registry").insert(id, registry_half);
        }
        shared.emit(EventBuilder::new(shared, "connected", id));
        connections.add(1);
        conns.push(Conn {
            id,
            stream,
            writer: Arc::new(Mutex::new(write_half)),
            buf: Vec::new(),
            scanned: 0,
        });
    }
}

/// Drains a readable connection: reads until `WouldBlock` or EOF,
/// dispatching every complete line. Returns whether the connection
/// stays open.
fn service_conn(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    loop {
        let filled = conn.buf.len();
        conn.buf.resize(filled + READ_CHUNK, 0);
        let read = conn.stream.read(&mut conn.buf[filled..]);
        // every line this read completes was received now
        let received = Instant::now();
        conn.buf.truncate(filled + *read.as_ref().unwrap_or(&0));
        match read {
            Ok(0) => {
                // EOF. A final unterminated line is still served, to
                // match the threaded model's reader.
                if !conn.buf.is_empty() {
                    let _ = handle_line(shared, conn.id, &conn.buf, received, &conn.writer);
                }
                return false;
            }
            Ok(_) => {
                if !dispatch_lines(shared, conn, received) {
                    return false;
                }
                if conn.buf.len() > MAX_LINE_BYTES {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // going idle: a connection whose lines fit one read keeps
                // no buffer; one that carried longer lines keeps the
                // capacity for the next
                if conn.buf.is_empty() && conn.buf.capacity() <= READ_CHUNK {
                    conn.buf = Vec::new();
                }
                return true;
            }
            Err(_) => return false,
        }
    }
}

/// Handles every complete line in the buffer, searching only the bytes
/// that arrived since the last search, then drops the handled prefix.
/// Returns whether the connection stays open (a failed response write
/// closes it).
fn dispatch_lines(shared: &Arc<Shared>, conn: &mut Conn, received: Instant) -> bool {
    let mut start = 0;
    let mut from = conn.scanned;
    let mut open = true;
    while let Some(offset) = find_newline(&conn.buf[from..]) {
        let end = from + offset;
        let line = &conn.buf[start..end];
        if handle_line(shared, conn.id, line, received, &conn.writer).is_err() {
            open = false;
            break;
        }
        start = end + 1;
        from = start;
    }
    conn.buf.drain(..start);
    conn.scanned = conn.buf.len();
    open
}

/// The offset of the first newline in `bytes`. `BufRead::skip_until` on
/// a slice is the standard library's `memchr`, which compares a word or
/// more per step, where an iterator would compare a byte.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    let skipped = rest.skip_until(b'\n').unwrap_or(0);
    (skipped > 0 && bytes[skipped - 1] == b'\n').then(|| skipped - 1)
}

#[cfg(test)]
mod tests {
    use super::find_newline;

    #[test]
    fn find_newline_names_the_first_one() {
        assert_eq!(find_newline(b""), None);
        assert_eq!(find_newline(b"abc"), None);
        assert_eq!(find_newline(b"\n"), Some(0));
        assert_eq!(find_newline(b"ab\ncd\n"), Some(2));
        let long = [vec![b'x'; 100_000], b"\r\n".to_vec()].concat();
        assert_eq!(find_newline(&long), Some(100_001));
    }
}
