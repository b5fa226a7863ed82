//! The closed-loop client: one blocking TCP connection per thread, one
//! request in flight per connection.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a connection waits for a reply before the run is aborted. The
/// slowest single solve of any workload takes well under a second; a reply
/// this late means the daemon is wedged.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A newline-JSON connection to the daemon.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    /// Connects with [`REPLY_TIMEOUT`] on reads and writes.
    ///
    /// # Errors
    ///
    /// A message naming the address when the connection cannot be made.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)
            .map_err(|e| format!("cannot connect to the daemon at {addr}: {e}"))?;
        let setup = |s: &TcpStream| -> std::io::Result<()> {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            s.set_write_timeout(Some(REPLY_TIMEOUT))
        };
        setup(&stream).map_err(|e| format!("cannot configure the socket: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the socket: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader: BufReader::with_capacity(1 << 16, reader),
            reply: String::with_capacity(1 << 12),
        })
    }

    /// Sends one newline-terminated request and returns the reply line
    /// without its newline.
    ///
    /// # Errors
    ///
    /// A message when the daemon closes the connection or does not answer
    /// within [`REPLY_TIMEOUT`].
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        debug_assert!(line.ends_with('\n'));
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("request write failed: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(self.reply.trim_end_matches('\n')),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(format!(
                    "no reply within {} s: the daemon is wedged",
                    REPLY_TIMEOUT.as_secs()
                ))
            }
            Err(e) => Err(format!("reply read failed: {e}")),
        }
    }
}

/// Whether a reply line reports success. Response keys are sorted, so
/// `status` is the last one.
pub fn is_ok(reply: &str) -> bool {
    reply.ends_with("\"status\":\"ok\"}")
}

/// The cache rung of a reply: `h`it, `s`ets_hit, `c`oalesced, `m`iss, or
/// `-` for replies without one. `cache` is the first key when present.
pub fn rung(reply: &str) -> u8 {
    reply
        .strip_prefix("{\"cache\":\"")
        .and_then(|r| r.bytes().next())
        .unwrap_or(b'-')
}

/// The server's own `elapsed_us` (engine time) of a reply.
pub fn server_us(reply: &str) -> u64 {
    field_after(reply, "\"elapsed_us\":")
        .map(|r| {
            r.bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'))
        })
        .unwrap_or(0)
}

/// The `admitted` flag of an `admit` reply.
pub fn admitted(reply: &str) -> Option<bool> {
    field_after(reply, "\"admitted\":").map(|r| r.starts_with('t'))
}

/// The rendered `result` object of a success reply (byte-exact).
pub fn result_json(reply: &str) -> Option<&str> {
    let start = reply.find("\"result\":")? + "\"result\":".len();
    let end = reply.len().checked_sub(",\"status\":\"ok\"}".len())?;
    reply.get(start..end)
}

fn field_after<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply.find(key).map(|i| &reply[i + key.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = "{\"cache\":\"sets_hit\",\"elapsed_us\":417,\"id\":3,\"query\":\"admit\",\
        \"result\":{\"admitted\":true,\"available_mbps\":4.5,\"demand_mbps\":2},\"status\":\"ok\"}";

    #[test]
    fn reply_fields() {
        assert!(is_ok(REPLY));
        assert_eq!(rung(REPLY), b's');
        assert_eq!(server_us(REPLY), 417);
        assert_eq!(admitted(REPLY), Some(true));
        assert_eq!(
            result_json(REPLY),
            Some("{\"admitted\":true,\"available_mbps\":4.5,\"demand_mbps\":2}")
        );
        assert!(!is_ok("{\"error\":{},\"id\":1,\"status\":\"error\"}"));
    }
}
