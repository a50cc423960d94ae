//! The NDJSON line-protocol TCP server (`algrec serve`).
//!
//! One [`Session`] shared across connections via
//! [`crate::shared::SharedSession`]: each connection gets a thread
//! reading newline-delimited JSON requests and writing one reply line
//! per request (see [`crate::protocol`]). Mutating requests serialize
//! through the single-writer path; read-only requests resolve against
//! the epoch-versioned snapshot without blocking writers. A `shutdown`
//! request answers, then stops the accept loop, so a scripted client can
//! drive a complete session and tear the server down from the outside —
//! which is exactly what the CI smoke test does.
//!
//! **Shutdown drain.** Once `shutdown` is acknowledged, the server does
//! not silently drop the connections that raced it: already-connected
//! clients get a structured `shutting-down` error for every further
//! request line, and connections still queued in the accept backlog are
//! accepted once, drained the same way, and closed — then every client
//! thread is joined before [`serve`] returns, so no reply is cut off
//! mid-write. Idle connections cannot wedge that join: every client
//! read is armed with a `DRAIN_TIMEOUT` poll timeout from the moment
//! the connection is accepted (a timeout before shutdown just re-reads;
//! partial lines survive across polls), because a timeout armed *after*
//! a thread has blocked in `recv` would not wake it.
//!
//! Transport hygiene: request lines are capped at [`MAX_LINE_BYTES`].
//! An over-long line is *not* buffered — the excess is discarded as it
//! streams in and the client gets a structured `line_too_long` error
//! reply; likewise a non-UTF-8 line gets a `bad-request` reply. Both
//! keep the connection open, so one bad request never tears down a
//! client session.

use crate::protocol::{handle_line, shutting_down_reply, transport_error, Handled};
use crate::session::Session;
use crate::shared::SharedSession;
use algrec_value::Trace;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Maximum accepted request-line length (bytes, newline excluded): 1 MiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Poll interval for client reads: every blocking read wakes at least
/// this often so the connection thread can notice the stop flag, and the
/// shutdown drain waits at most this long per read for a silent client.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(500);

/// Bound on a single reply write. Loopback and LAN writes only stall
/// when the peer has stopped reading and its receive window is full; a
/// client that stays wedged this long is treated as gone (the write
/// errors and the connection closes) rather than allowed to pin the
/// server — or its shutdown join — indefinitely.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One transport-level read: a complete line, an over-long line (already
/// drained from the stream, never buffered), or end of stream.
enum ReadLine {
    Line(Vec<u8>),
    TooLong,
    Eof,
}

/// Line reader whose state survives read timeouts: a poll that times out
/// mid-line leaves the partial line (or the drain-to-newline position of
/// an over-long line) intact, so the caller can simply check the stop
/// flag and call [`LineReader::next_line`] again.
struct LineReader<R> {
    reader: R,
    /// Bytes of the line accumulated so far across polls.
    line: Vec<u8>,
    /// Inside an over-long line: discard (bounded memory) to the newline.
    draining: bool,
}

impl<R: BufRead> LineReader<R> {
    fn new(reader: R) -> LineReader<R> {
        LineReader {
            reader,
            line: Vec::new(),
            draining: false,
        }
    }

    /// Read one `\n`-terminated line of at most `cap` bytes. The moment
    /// the accumulated length would exceed `cap`, switches to draining —
    /// discarding bytes until the newline — then reports
    /// [`ReadLine::TooLong`]. A final unterminated line is returned
    /// as-is at EOF. Errors (including timeouts) leave the accumulated
    /// state in place for the next call.
    fn next_line(&mut self, cap: usize) -> std::io::Result<ReadLine> {
        loop {
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF. An unterminated over-long line still reports
                // TooLong; an unterminated short line is delivered.
                return Ok(if self.draining {
                    self.draining = false;
                    ReadLine::TooLong
                } else if self.line.is_empty() {
                    ReadLine::Eof
                } else {
                    ReadLine::Line(std::mem::take(&mut self.line))
                });
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            if self.draining {
                match newline {
                    Some(i) => {
                        self.reader.consume(i + 1);
                        self.draining = false;
                        return Ok(ReadLine::TooLong);
                    }
                    None => {
                        let n = chunk.len();
                        self.reader.consume(n);
                        continue;
                    }
                }
            }
            let take = newline.unwrap_or(chunk.len());
            if self.line.len() + take > cap {
                // Over the cap: stop buffering, drain from this same
                // chunk on the next loop iteration.
                self.line.clear();
                self.draining = true;
                continue;
            }
            self.line.extend_from_slice(&chunk[..take]);
            match newline {
                Some(i) => {
                    self.reader.consume(i + 1);
                    return Ok(ReadLine::Line(std::mem::take(&mut self.line)));
                }
                None => {
                    let n = chunk.len();
                    self.reader.consume(n);
                }
            }
        }
    }
}

/// Send one reply: the line and its newline leave in a single
/// (vectored) write on a socket with `TCP_NODELAY` set, so no part of a
/// reply sits in the kernel waiting for the peer's delayed ACK of the
/// part before it — and the line is not copied to append the newline.
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let line = line.as_bytes();
    let mut sent = 0;
    while sent <= line.len() {
        let rest = [IoSlice::new(&line[sent..]), IoSlice::new(b"\n")];
        match stream.write_vectored(&rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Is this the error a timed-out socket read surfaces? (Unix reports
/// `WouldBlock`, Windows `TimedOut`.)
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn client_loop(
    stream: TcpStream,
    shared: &SharedSession,
    stop: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    // Every read polls: a timeout armed after a thread has already
    // blocked in `recv` would not wake it, so the bound goes on *before*
    // the first read and the loop re-checks the stop flag each wake.
    stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = stream;
    loop {
        let read = match reader.next_line(MAX_LINE_BYTES) {
            Ok(read) => read,
            // An idle poll: before shutdown, just keep listening (any
            // partial line survives inside `reader`); once the stop flag
            // is up, an idle client is simply done — the drain has
            // nothing to answer.
            Err(e) if is_timeout(&e) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let reply = match read {
            ReadLine::Eof => break,
            ReadLine::TooLong => Handled::Reply(transport_error(
                "line_too_long",
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            )),
            ReadLine::Line(bytes) => match String::from_utf8(bytes) {
                Err(_) => Handled::Reply(transport_error(
                    "bad-request",
                    "request line is not valid UTF-8",
                )),
                Ok(line) if line.trim().is_empty() => continue,
                // Requests racing a shutdown are answered, not processed.
                Ok(line) if stop.load(Ordering::SeqCst) => {
                    Handled::Reply(shutting_down_reply(&line))
                }
                Ok(line) => handle_line(shared, &line),
            },
        };
        // Raise the stop flag *before* the shutdown reply is written, so
        // a client that has read the acknowledgement can rely on every
        // later request (from any connection) being refused, not applied.
        if matches!(reply, Handled::Shutdown(_)) {
            stop.store(true, Ordering::SeqCst);
        }
        send_line(&mut writer, reply.line())?;
        if matches!(reply, Handled::Shutdown(_)) {
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
    Ok(())
}

/// Answer every pending request line on an accepted-but-never-served
/// connection with a structured `shutting-down` error, then close it.
/// Each read is bounded by `DRAIN_TIMEOUT` so a silent peer cannot
/// stall the server's exit. Used for connections that were still in the
/// accept backlog when `shutdown` arrived.
fn drain_stream(stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    stream.set_write_timeout(Some(DRAIN_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut reader = LineReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = stream;
    loop {
        let reply = match reader.next_line(MAX_LINE_BYTES) {
            Ok(ReadLine::Eof) => break,
            Ok(ReadLine::TooLong) => transport_error(
                "line_too_long",
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ),
            Ok(ReadLine::Line(bytes)) => {
                let line = String::from_utf8_lossy(&bytes);
                if line.trim().is_empty() {
                    continue;
                }
                shutting_down_reply(&line)
            }
            Err(e) if is_timeout(&e) => break,
            Err(e) => return Err(e),
        };
        send_line(&mut writer, &reply)?;
    }
    Ok(())
}

/// Accept and [`drain_stream`] every connection still queued in the
/// listener's backlog, without blocking: clients that connected before
/// `shutdown` was acknowledged get explicit refusals instead of a
/// silently dropped connection.
fn drain_backlog(listener: &TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // The stream inherits non-blocking from some platforms'
                // accept; force blocking so the drain timeouts apply.
                let _ = stream.set_nonblocking(false);
                let _ = drain_stream(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Serve the session on `listener` until a client sends `shutdown`.
/// Blocks the calling thread; connections are handled concurrently.
pub fn serve(listener: TcpListener, session: Session) -> std::io::Result<()> {
    serve_traced(listener, session, Trace::Null)
}

/// [`serve`] with a trace handle that receives operational events (lock
/// poisoning); pass the `--trace` sink so incidents surface on stderr.
pub fn serve_traced(listener: TcpListener, session: Session, trace: Trace) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let shared = Arc::new(SharedSession::with_trace(session, trace));
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        if stop.load(Ordering::SeqCst) {
            // Accepted after shutdown (includes the throwaway wake-up
            // connection): refuse its requests explicitly.
            let _ = drain_stream(stream);
            break;
        }
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let _ = client_loop(stream, &shared, &stop, addr);
        }));
    }
    drain_backlog(&listener)?;
    // Join every client thread so no reply is cut off mid-write. The
    // per-connection read polls bound this: every live client notices
    // the stop flag within one DRAIN_TIMEOUT and exits.
    for client in clients {
        let _ = client.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algrec_value::Budget;
    use std::io::BufWriter;

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let reader = BufReader::new(stream);
        let mut replies = Vec::new();
        let mut incoming = reader.lines();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            replies.push(incoming.next().unwrap().unwrap());
        }
        replies
    }

    #[test]
    fn scripted_tcp_session_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        let replies = send_lines(
            addr,
            &[
                r#"{"id": 1, "op": "ping"}"#,
                r#"{"id": 2, "op": "load", "facts": "e(1, 2). e(2, 3)."}"#,
                r#"{"id": 3, "op": "register", "view": "paths", "program": "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z)."}"#,
                r#"{"id": 4, "op": "assert", "fact": "e(3, 4)"}"#,
                r#"{"id": 5, "op": "query", "view": "paths", "pred": "tc"}"#,
                r#"{"id": 6, "op": "shutdown"}"#,
            ],
        );
        assert!(replies[0].contains(r#""pong":true"#), "{}", replies[0]);
        assert!(replies[1].contains(r#""applied":2"#), "{}", replies[1]);
        assert!(
            replies[2].contains(r#""strategy":"stratified-incremental""#),
            "{}",
            replies[2]
        );
        assert!(
            replies[3].contains(r#""status":"maintained""#),
            "{}",
            replies[3]
        );
        assert!(replies[4].contains("tc(1, 4)."), "{}", replies[4]);
        assert!(replies[5].contains(r#""bye":true"#), "{}", replies[5]);

        server.join().unwrap();
    }

    #[test]
    fn mid_sized_reply_does_not_wait_out_a_delayed_ack() {
        // A reply between the old 8 KiB write buffer and one loopback
        // segment used to leave as two writes on a socket without
        // TCP_NODELAY: the newline sat behind the client's delayed ACK
        // for a steady ~43 ms. The client sets no socket option, as a
        // plain line-protocol caller would not.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut incoming = BufReader::new(stream).lines();
        let mut ask = |line: &str| {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            incoming.next().unwrap().unwrap()
        };
        let facts: String = (0..1000)
            .map(|k| format!("e({k}, {}). ", k + 1000))
            .collect();
        ask(&format!(r#"{{"id": 1, "op": "load", "facts": "{facts}"}}"#));
        ask(r#"{"id": 2, "op": "register", "view": "v", "program": "p(X, Y) :- e(X, Y)."}"#);
        let mut times = Vec::new();
        for _ in 0..5 {
            let started = std::time::Instant::now();
            let reply = ask(r#"{"id": 3, "op": "query", "view": "v", "pred": "p"}"#);
            times.push(started.elapsed());
            assert!((12_000..40_000).contains(&reply.len()), "{}", reply.len());
        }
        times.sort();
        assert!(times[2] < Duration::from_millis(20), "{times:?}");
        ask(r#"{"id": 4, "op": "shutdown"}"#);
        server.join().unwrap();
    }

    #[test]
    fn overlong_line_gets_structured_error_and_connection_survives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut incoming = BufReader::new(stream).lines();

        // A line one byte over the cap: error reply, bounded memory.
        let huge = format!(
            r#"{{"id": 1, "op": "load", "facts": "{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        writeln!(writer, "{huge}").unwrap();
        writer.flush().unwrap();
        let reply = incoming.next().unwrap().unwrap();
        assert!(reply.contains(r#""code":"line_too_long""#), "{reply}");
        assert!(reply.contains(r#""id":null"#), "{reply}");

        // The same connection still serves ordinary requests afterwards.
        writeln!(writer, r#"{{"id": 2, "op": "ping"}}"#).unwrap();
        writer.flush().unwrap();
        let reply = incoming.next().unwrap().unwrap();
        assert!(reply.contains(r#""pong":true"#), "{reply}");
        writeln!(writer, r#"{{"id": 3, "op": "shutdown"}}"#).unwrap();
        writer.flush().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn non_utf8_line_gets_error_reply_instead_of_disconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut incoming = BufReader::new(stream).lines();

        writer.write_all(b"{\"id\": 1, \xff\xfe}\n").unwrap();
        writer.flush().unwrap();
        let reply = incoming.next().unwrap().unwrap();
        assert!(reply.contains(r#""code":"bad-request""#), "{reply}");
        assert!(reply.contains("not valid UTF-8"), "{reply}");

        writeln!(writer, r#"{{"id": 2, "op": "ping"}}"#).unwrap();
        writer.flush().unwrap();
        let reply = incoming.next().unwrap().unwrap();
        assert!(reply.contains(r#""pong":true"#), "{reply}");
        writeln!(writer, r#"{{"id": 3, "op": "shutdown"}}"#).unwrap();
        writer.flush().unwrap();
        server.join().unwrap();
    }

    #[test]
    fn session_state_is_shared_across_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        let first = send_lines(addr, &[r#"{"id": 1, "op": "load", "facts": "e(1, 2)."}"#]);
        assert!(first[0].contains(r#""applied":1"#), "{}", first[0]);

        let second = send_lines(
            addr,
            &[r#"{"id": 2, "op": "db"}"#, r#"{"id": 3, "op": "shutdown"}"#],
        );
        assert!(
            second[0].contains(r#""members":1,"name":"e""#),
            "{}",
            second[0]
        );
        server.join().unwrap();
    }

    #[test]
    fn drain_stream_refuses_pending_requests_with_structured_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let stream = TcpStream::connect(addr).unwrap();
        let half_close = stream.try_clone().unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut incoming = BufReader::new(stream).lines();
        // Two requests already in flight before the server ever looks at
        // this connection.
        writeln!(writer, r#"{{"id": 7, "op": "assert", "fact": "e(1, 2)"}}"#).unwrap();
        writeln!(writer, r#"{{"id": 8, "op": "query", "view": "paths"}}"#).unwrap();
        writer.flush().unwrap();

        let (accepted, _) = listener.accept().unwrap();
        let drainer = std::thread::spawn(move || drain_stream(accepted).unwrap());

        let first = incoming.next().unwrap().unwrap();
        assert!(first.contains(r#""id":7"#), "{first}");
        assert!(first.contains(r#""code":"shutting-down""#), "{first}");
        let second = incoming.next().unwrap().unwrap();
        assert!(second.contains(r#""id":8"#), "{second}");
        assert!(second.contains(r#""code":"shutting-down""#), "{second}");

        // Half-close our write side: the drain sees EOF and finishes.
        half_close.shutdown(std::net::Shutdown::Write).unwrap();
        drainer.join().unwrap();
        // The connection is closed, not left dangling.
        assert!(incoming.next().is_none());
    }

    #[test]
    fn clients_in_flight_at_shutdown_get_shutting_down_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        // Client A connects and is actively served.
        let a = TcpStream::connect(addr).unwrap();
        let a_half_close = a.try_clone().unwrap();
        let mut a_writer = BufWriter::new(a.try_clone().unwrap());
        let mut a_incoming = BufReader::new(a).lines();
        writeln!(a_writer, r#"{{"id": 1, "op": "ping"}}"#).unwrap();
        a_writer.flush().unwrap();
        let reply = a_incoming.next().unwrap().unwrap();
        assert!(reply.contains(r#""pong":true"#), "{reply}");

        // Client B shuts the server down. Once B has read the
        // acknowledgement, the stop flag is guaranteed set.
        let b_replies = send_lines(addr, &[r#"{"id": 2, "op": "shutdown"}"#]);
        assert!(b_replies[0].contains(r#""bye":true"#), "{}", b_replies[0]);

        // A's next request is refused with a structured error that still
        // echoes its id — not a dropped connection.
        writeln!(
            a_writer,
            r#"{{"id": 3, "op": "assert", "fact": "e(9, 9)"}}"#
        )
        .unwrap();
        a_writer.flush().unwrap();
        let reply = a_incoming.next().unwrap().unwrap();
        assert!(reply.contains(r#""id":3"#), "{reply}");
        assert!(reply.contains(r#""code":"shutting-down""#), "{reply}");

        drop(a_writer);
        a_half_close.shutdown(std::net::Shutdown::Write).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn replies_carry_monotone_epochs_across_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || serve(listener, Session::new(Budget::LARGE)).unwrap());

        let first = send_lines(addr, &[r#"{"id": 1, "op": "load", "facts": "e(1, 2)."}"#]);
        assert!(first[0].contains(r#""epoch":1"#), "{}", first[0]);
        let second = send_lines(
            addr,
            &[
                r#"{"id": 2, "op": "assert", "fact": "e(2, 3)"}"#,
                r#"{"id": 3, "op": "db"}"#,
                r#"{"id": 4, "op": "shutdown"}"#,
            ],
        );
        assert!(second[0].contains(r#""epoch":2"#), "{}", second[0]);
        assert!(second[1].contains(r#""epoch":2"#), "{}", second[1]);
        assert!(second[2].contains(r#""bye":true"#), "{}", second[2]);
        server.join().unwrap();
    }
}
