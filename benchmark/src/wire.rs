//! The load generator's connection. It speaks the wire through the public
//! `pargrid_net::{frame, proto}` functions — exactly what `net::Client` does
//! inside — so that sending, waiting and decoding can be timed apart.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use pargrid_net::frame::{read_frame, write_frame};
use pargrid_net::{Request, Response};

/// Instants inside one round trip. The caller checks the answer and takes
/// the final instant itself, so the check is inside the measured latency.
#[derive(Clone, Copy, Debug)]
pub struct CallTimes {
    /// Before the request was encoded.
    pub start: Instant,
    /// Request encoded, written and flushed.
    pub sent: Instant,
    /// Reply frame read and CRC-checked.
    pub received: Instant,
}

/// One synchronous connection: a single request in flight.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, as `net::Client` does.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `request` and decodes the reply. Any transport or protocol
    /// failure is an error string; a typed `Response::Error` is returned as
    /// the response it is.
    pub fn call(&mut self, request: &Request) -> Result<(Response, CallTimes), String> {
        let start = Instant::now();
        let (msg_type, payload) = request.encode();
        write_frame(&mut self.writer, msg_type, &payload).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let sent = Instant::now();
        let frame = read_frame(&mut self.reader).map_err(|e| e.to_string())?;
        let received = Instant::now();
        let response =
            Response::decode(frame.msg_type, &frame.payload).map_err(|e| e.to_string())?;
        let times = CallTimes {
            start,
            sent,
            received,
        };
        Ok((response, times))
    }
}
