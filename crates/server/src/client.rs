//! The blocking, pipelined client: the one place outside `benchmark/`
//! that opens a socket to the server. Responses arrive in request order,
//! so pipelining is "[`send`](Client::send) many, [`recv`](Client::recv)
//! as many":
//!
//! ```
//! use optiql_server::{start, Client, Request, Response, ServerConfig};
//!
//! let server = start(&ServerConfig::default())?; // 127.0.0.1, a free port
//! let mut c = Client::connect(server.addr())?;
//! assert_eq!(c.call(&Request::Set { key: 7, value: 70 })?, Response::Old(None));
//! c.send(&[Request::Get { key: 7 }, Request::Get { key: 8 }])?;
//! assert_eq!(c.recv()?, Some(Response::Value(Some(70))));
//! assert_eq!(c.recv()?, Some(Response::Value(None)));
//! assert_eq!(c.call(&Request::Shutdown)?, Response::Ok);
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{FrameDecoder, Request, Response};

/// One connection to an `optiql-server`.
pub struct Client {
    stream: TcpStream,
    dec: FrameDecoder,
    wire: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to `addr` with `TCP_NODELAY` set.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            dec: FrameDecoder::new(),
            wire: Vec::new(),
            buf: vec![0u8; 16 * 1024],
        })
    }

    /// Encode `reqs` and write them as one burst.
    pub fn send(&mut self, reqs: &[Request]) -> io::Result<()> {
        self.wire.clear();
        for r in reqs {
            r.encode(&mut self.wire);
        }
        self.stream.write_all(&self.wire)
    }

    /// Write bytes as they are (for malformed-frame tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// The next response frame; `None` once the server has closed the
    /// connection. A frame that does not decode is `InvalidData`.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        loop {
            let next = self.dec.next_response();
            if let Some(resp) = next.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))? {
                return Ok(Some(resp));
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.dec.feed(&self.buf[..n]);
        }
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(std::slice::from_ref(req))?;
        self.recv()?
            .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }

    /// The socket underneath, for timeouts and `try_clone`.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}
