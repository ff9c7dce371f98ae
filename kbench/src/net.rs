//! A blocking client connection that speaks the service's two wire modes
//! directly on the socket: the text grammar and `KGW1` binary frames.

use kecss_server::wire;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// No reply in a benchmark run takes this long; a stalled server fails the
/// run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

/// One server reply.
#[derive(Debug)]
pub enum Msg {
    Ok(String),
    Busy,
    Err(String),
    Result {
        id: u64,
        payload: Vec<u8>,
    },
    /// A `METRICS` or `FLEET` body.
    Text(String),
    /// `WAIT` or `GONE`: never expected by the benchmark's request patterns.
    Other(String),
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(addr: &str, binary: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut writer = stream.try_clone()?;
        if binary {
            writer.write_all(&wire::PREAMBLE)?;
        }
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            binary,
        })
    }

    pub fn is_binary(&self) -> bool {
        self.binary
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one reply in the connection's wire mode.
    pub fn recv(&mut self) -> io::Result<Msg> {
        if self.binary {
            self.recv_frame()
        } else {
            self.recv_line()
        }
    }

    /// Sends a bodiless text request (`METRICS`, `FLEET`, `SHUTDOWN`) and
    /// returns the reply body (or the `OK` words).
    pub fn text_request(&mut self, verb: &str) -> io::Result<String> {
        debug_assert!(!self.binary, "text requests need a text connection");
        self.send(format!("{verb}\n").as_bytes())?;
        match self.recv()? {
            Msg::Text(text) | Msg::Ok(text) => Ok(text),
            other => Err(bad(format!("{verb}: unexpected reply {other:?}"))),
        }
    }

    fn body(&mut self, len: usize) -> io::Result<Vec<u8>> {
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(body)
    }

    fn recv_line(&mut self) -> io::Result<Msg> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let line = line.trim_end();
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let number = |word: Option<&str>| -> io::Result<u64> {
            word.and_then(|w| w.parse().ok())
                .ok_or_else(|| bad(format!("malformed reply '{line}'")))
        };
        Ok(match verb {
            "OK" => Msg::Ok(rest.to_string()),
            "BUSY" => Msg::Busy,
            "ERR" => Msg::Err(rest.to_string()),
            "RESULT" => {
                let mut words = rest.split_whitespace();
                let id = number(words.next())?;
                let len = number(words.next())? as usize;
                Msg::Result {
                    id,
                    payload: self.body(len)?,
                }
            }
            "METRICS" | "FLEET" => {
                let len = number(Some(rest.trim()))? as usize;
                Msg::Text(String::from_utf8_lossy(&self.body(len)?).into_owned())
            }
            _ => Msg::Other(line.to_string()),
        })
    }

    fn recv_frame(&mut self) -> io::Result<Msg> {
        let mut header = [0u8; wire::FRAME_HEADER_BYTES];
        self.reader.read_exact(&mut header)?;
        let (opcode, _flags, len) = wire::parse_frame_header(&header).map_err(bad)?;
        let body = self.body(len)?;
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        Ok(match opcode {
            wire::resp::OK => Msg::Ok(text(&body)),
            wire::resp::BUSY => Msg::Busy,
            wire::resp::ERR => Msg::Err(text(&body)),
            wire::resp::RESULT if body.len() >= 8 => {
                let mut id = [0u8; 8];
                id.copy_from_slice(&body[..8]);
                let mut payload = body;
                payload.drain(..8);
                Msg::Result {
                    id: u64::from_le_bytes(id),
                    payload,
                }
            }
            wire::resp::METRICS | wire::resp::FLEET => Msg::Text(text(&body)),
            other => Msg::Other(format!("opcode {other}")),
        })
    }
}
