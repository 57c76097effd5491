//! The fleet's sockets: connecting and accepting over TCP, and reading and
//! writing control frames.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use super::protocol::protocol_error;
use super::FaultAction;
use crate::wire::{self, Control, WireRecord};

/// Bound on each TCP connection attempt: without one, a black-holed address
/// hangs the first delivery for the OS default (minutes).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Accepts one connection. An error ends only this attempt: a stream whose
/// `set_nodelay` fails is dropped here, and the listener stays usable.
pub(crate) fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    // Frames are small and acknowledged synchronously; never batch them.
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true).map(|()| stream)
}

/// Connects to `addr` (reconnection re-resolves it), trying each candidate under
/// [`TcpStream::connect_timeout`] with [`CONNECT_TIMEOUT`].
fn connect(addr: &str) -> io::Result<TcpStream> {
    let mut last_error = None;
    for candidate in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&candidate, CONNECT_TIMEOUT) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
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
///
/// A read past the deadline fails with
/// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`]; the producer link
/// treats that as a transport failure — the frame stays buffered, the connection
/// is dropped, and the drainer moves on.
#[derive(Debug)]
pub(crate) struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub(crate) fn open(addr: &str, deadline: Duration) -> io::Result<Conn> {
        let writer = connect(addr)?;
        writer.set_read_timeout(Some(deadline))?;
        writer.set_write_timeout(Some(deadline))?;
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
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}
