//! The fleet's sockets: one stream and listener type over TCP and Unix sockets,
//! connection targets, and reading and writing control frames.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use super::protocol::protocol_error;
use super::FaultAction;
use crate::wire::{self, Control, WireRecord};

/// Bound on each TCP connection attempt: without one, a black-holed address
/// hangs the first delivery for the OS default (minutes).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A connected socket of either family.
#[derive(Debug)]
pub(crate) enum WireStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Evaluates `$body` with `$s` bound to the socket inside a [`WireStream`].
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            WireStream::Tcp($s) => $body,
            #[cfg(unix)]
            WireStream::Unix($s) => $body,
        }
    };
}

impl WireStream {
    pub(crate) fn try_clone(&self) -> io::Result<WireStream> {
        Ok(match self {
            WireStream::Tcp(s) => WireStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            WireStream::Unix(s) => WireStream::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn shutdown(&self) -> io::Result<()> {
        on_socket!(self, s => s.shutdown(Shutdown::Both))
    }

    /// Arms one deadline on the socket's reads and writes. A read past the
    /// deadline fails with [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`];
    /// the producer link treats that as a transport failure — the frame stays
    /// buffered, the connection is dropped, and the drainer moves on.
    pub(crate) fn set_io_timeouts(&self, deadline: Duration) -> io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(Some(deadline)).and(s.set_write_timeout(Some(deadline))))
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}

/// A bound listener of either family.
#[derive(Debug)]
pub(crate) enum WireListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl WireListener {
    /// Accepts one connection. An error ends only this attempt: a stream whose
    /// `set_nodelay` fails is dropped here, and the listener stays usable.
    pub(crate) fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => {
                // Frames are small and acknowledged synchronously; never batch them.
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true).map(|()| WireStream::Tcp(stream))
            }
            #[cfg(unix)]
            WireListener::Unix(l) => l.accept().map(|(stream, _)| WireStream::Unix(stream)),
        }
    }
}

/// Where a producer sink or query client connects (reconnection re-resolves it).
#[derive(Debug, Clone)]
pub(crate) enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Target {
    /// Connects. TCP resolves the address and tries each candidate under
    /// [`TcpStream::connect_timeout`] with [`CONNECT_TIMEOUT`]; Unix-socket
    /// connects are local rendezvous with no std timeout — they cannot black-hole
    /// the way a routed TCP address can.
    pub(crate) fn connect(&self) -> io::Result<WireStream> {
        match self {
            Target::Tcp(addr) => {
                let mut last_error = None;
                for candidate in addr.as_str().to_socket_addrs()? {
                    match TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
                        Ok(stream) => {
                            stream.set_nodelay(true)?;
                            return Ok(WireStream::Tcp(stream));
                        }
                        Err(e) => last_error = Some(e),
                    }
                }
                Err(last_error.unwrap_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("address {addr:?} resolved to no candidates"),
                    )
                }))
            }
            #[cfg(unix)]
            Target::Unix(path) => Ok(WireStream::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// Writes one control record as a frame.
pub(crate) fn send(writer: &mut impl Write, control: &Control) -> io::Result<()> {
    writer.write_all(&control.to_frame()?)
}

/// Reads the aggregator's next reply frame. Transport failures (a tripped
/// deadline, a closed connection) keep their [`io::ErrorKind`]; anything the
/// frame parser refuses — a bad checksum included — is
/// [`io::ErrorKind::InvalidData`].
pub(crate) fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Control> {
    if wire::at_end(reader)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "aggregator closed the connection",
        ));
    }
    match wire::read_binary_frame(reader, &mut Vec::new()) {
        Ok(WireRecord::Control(control)) => Ok(control),
        Ok(WireRecord::Log(_)) => Err(protocol_error("aggregator replied with an epoch frame")),
        Err(e) => Err(protocol_error(format!("malformed aggregator reply: {}", e.message))),
    }
}

/// Writes `frame` under an injected fault: the connection fails before it
/// ([`FaultAction::Drop`]), it is swallowed (a hung peer), delayed, or sent with
/// a flipped byte inside its checksum, so the receiver rejects it.
pub(crate) fn write_faulted(
    writer: &mut impl Write,
    frame: &[u8],
    fault: Option<FaultAction>,
) -> io::Result<()> {
    match fault {
        Some(FaultAction::Drop) => Err(io::ErrorKind::ConnectionReset.into()),
        Some(FaultAction::BlackHole) => Ok(()),
        Some(FaultAction::Delay(delay)) => {
            thread::sleep(delay);
            writer.write_all(frame)
        }
        Some(FaultAction::Corrupt) => {
            let mut corrupted = frame.to_vec();
            if let Some(i) = corrupted.len().checked_sub(2) {
                corrupted[i] ^= 0xFF;
            }
            writer.write_all(&corrupted)
        }
        None => writer.write_all(frame),
    }
}

/// A connection to an aggregator with a deadline on every read and write, so a
/// silent peer fails the call instead of blocking it. Dropping it shuts it down.
#[derive(Debug)]
pub(crate) struct Conn {
    writer: WireStream,
    reader: BufReader<WireStream>,
}

impl Conn {
    pub(crate) fn open(target: &Target, deadline: Duration) -> io::Result<Conn> {
        let writer = target.connect()?;
        writer.set_io_timeouts(deadline)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Writes one frame (under `fault`, see [`write_faulted`]) and reads the reply.
    pub(crate) fn round_trip(
        &mut self,
        frame: &[u8],
        fault: Option<FaultAction>,
    ) -> io::Result<Control> {
        write_faulted(&mut self.writer, frame, fault)?;
        self.writer.flush()?;
        read_reply(&mut self.reader)
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.writer.shutdown();
    }
}
