//! Deadline-bounded socket reads, shared by every TCP surface in the
//! workspace: the admin endpoint here and the wire-protocol server in
//! `dyndex-serve`.
//!
//! `TcpStream::set_read_timeout` bounds one `read` *call*, not one
//! logical unit of work. A slow-loris client that trickles a byte just
//! before each per-call timeout expires therefore keeps a connection
//! thread alive indefinitely — every successful read resets the clock.
//! [`DeadlineReader`] fixes the class: it pins an **absolute** deadline
//! when the unit of work (an HTTP head, a wire-protocol frame) starts
//! and clamps every subsequent read timeout to the time remaining, so
//! the whole unit either arrives by the deadline or the read fails with
//! [`std::io::ErrorKind::TimedOut`].

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Reads from a [`TcpStream`] under an absolute deadline.
///
/// Construction records the deadline and touches nothing; every read
/// call re-derives the remaining budget and sets the socket's read
/// timeout to it (one `setsockopt` per `read`), so no
/// sequence of partial reads can extend a connection's welcome past the
/// deadline. The socket's read-timeout option is left at the last
/// remaining-budget value when the reader is dropped — callers that keep
/// using the stream afterwards should reset it.
///
/// # Examples
///
/// ```
/// use dyndex_obs::DeadlineReader;
/// use std::io::Write;
/// use std::net::{TcpListener, TcpStream};
/// use std::time::Duration;
///
/// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
/// let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
/// let (conn, _) = listener.accept().unwrap();
///
/// sender.write_all(b"hello").unwrap();
/// let mut reader = DeadlineReader::new(&conn, Duration::from_secs(2));
/// let mut buf = [0u8; 5];
/// reader.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
///
/// // The peer sends nothing more: the read fails at the deadline
/// // instead of blocking forever.
/// drop(reader);
/// let mut reader = DeadlineReader::new(&conn, Duration::from_millis(50));
/// let err = reader.read_exact(&mut buf).unwrap_err();
/// assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
/// ```
#[derive(Debug)]
pub struct DeadlineReader<'a> {
    conn: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    /// Pins the deadline `budget` from now. A zero budget fails the
    /// first read without touching the socket.
    pub fn new(conn: &'a TcpStream, budget: Duration) -> Self {
        Self::until(conn, Instant::now() + budget)
    }

    /// Pins an explicit absolute `deadline` (e.g. one shared across the
    /// header and payload of a single frame).
    pub fn until(conn: &'a TcpStream, deadline: Instant) -> Self {
        DeadlineReader { conn, deadline }
    }

    /// Installs the remaining budget as the socket read timeout.
    /// `set_read_timeout(Some(ZERO))` is an error by contract, so the
    /// remaining budget is floored at one millisecond; the deadline check
    /// in [`DeadlineReader::read_some`] still fires exactly.
    fn arm(&self) -> io::Result<()> {
        let remaining = self
            .deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        self.conn.set_read_timeout(Some(remaining))
    }

    /// One bounded read: up to `buf.len()` bytes, `Ok(0)` on clean EOF.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::TimedOut`] once the deadline has passed
    /// (spurious early wakeups re-arm and retry); any other socket error,
    /// `set_read_timeout`'s included, is passed through.
    pub fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if Instant::now() >= self.deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read deadline exceeded",
                ));
            }
            self.arm()?;
            match (&mut &*self.conn as &mut dyn Read).read(buf) {
                Ok(n) => return Ok(n),
                // WouldBlock/TimedOut: the per-call timeout fired — loop
                // to re-check the absolute deadline (platforms differ on
                // which kind a socket timeout reports).
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Fills `buf` completely or fails: [`std::io::ErrorKind::TimedOut`]
    /// at the deadline, [`std::io::ErrorKind::UnexpectedEof`] if the peer
    /// hangs up mid-buffer.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.read_some(&mut buf[filled..])? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-read",
                    ))
                }
                n => filled += n,
            }
        }
        Ok(())
    }

    /// Time left until the deadline (zero once it has passed).
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }
}

/// [`Read`] under the deadline, so deadline-bounded sockets slot into
/// generic frame decoders. Each call maps to [`DeadlineReader::read_some`];
/// the deadline surfaces as [`std::io::ErrorKind::TimedOut`].
impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read_some(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (receiver, _) = listener.accept().unwrap();
        (sender, receiver)
    }

    #[test]
    fn reads_complete_data_within_deadline() {
        let (mut sender, receiver) = pair();
        sender.write_all(b"abcdef").unwrap();
        let mut reader = DeadlineReader::new(&receiver, Duration::from_secs(5));
        let mut buf = [0u8; 6];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn trickled_bytes_do_not_extend_the_deadline() {
        // The slow-loris shape: a byte arrives well within each per-call
        // timeout, but the *total* transfer can never finish in budget.
        let (mut sender, receiver) = pair();
        let feeder = std::thread::spawn(move || {
            for _ in 0..20 {
                if sender.write_all(b"x").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        });
        let start = Instant::now();
        let mut reader = DeadlineReader::new(&receiver, Duration::from_millis(200));
        let mut buf = [0u8; 64];
        let err = reader.read_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must bound the whole read, took {elapsed:?}"
        );
        drop(receiver);
        feeder.join().unwrap();
    }

    #[test]
    fn eof_mid_buffer_is_unexpected_eof() {
        let (mut sender, receiver) = pair();
        sender.write_all(b"ab").unwrap();
        drop(sender);
        let mut reader = DeadlineReader::new(&receiver, Duration::from_secs(5));
        let mut buf = [0u8; 8];
        let err = reader.read_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn clean_eof_reads_zero() {
        let (sender, receiver) = pair();
        drop(sender);
        let mut reader = DeadlineReader::new(&receiver, Duration::from_secs(5));
        let mut buf = [0u8; 8];
        assert_eq!(reader.read_some(&mut buf).unwrap(), 0);
    }
}
