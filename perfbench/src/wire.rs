//! Minimal `sh-server` client that also counts response bytes.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sh_server::protocol::{parse_header, read_payload, Header};

/// How the server answered one request line.
pub enum Reply {
    Rows(Vec<String>),
    Err(String),
    Busy,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects and consumes the banner.
    pub fn connect(addr: &SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut banner = String::new();
        reader.read_line(&mut banner)?;
        if !banner.starts_with("SHADOOP ") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected banner {banner:?}"),
            ));
        }
        Ok(Conn { reader, writer })
    }

    /// Sends one request line and reads the whole response; returns it
    /// with the number of response bytes received (headers included).
    pub fn request(&mut self, line: &str) -> io::Result<(Reply, u64)> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut rows = Vec::new();
        let mut bytes = 0u64;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            bytes += header.len() as u64;
            let parsed =
                parse_header(&header).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match parsed {
                Header::Data(n) => {
                    let payload = read_payload(&mut self.reader, n)?;
                    bytes += n as u64;
                    rows.extend(payload.lines().map(str::to_string));
                }
                Header::Ok(_) => return Ok((Reply::Rows(rows), bytes)),
                Header::Err(n) => {
                    let msg = read_payload(&mut self.reader, n)?;
                    bytes += n as u64;
                    return Ok((Reply::Err(msg), bytes));
                }
                Header::Busy(_) => return Ok((Reply::Busy, bytes)),
                Header::Bye => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected BYE mid-request",
                    ))
                }
            }
        }
    }

    /// Sends `QUIT` and waits for `BYE`.
    pub fn quit(mut self) {
        if self.writer.write_all(b"QUIT\n").is_ok() {
            let mut line = String::new();
            let _ = self.reader.read_line(&mut line);
        }
    }
}
