//! What the two socket workloads share: the in-process server, the tenant,
//! a line-at-a-time client, and the reference interpreter's view of a
//! reply line.

use mcf0::service::net::proto::encode_line;
use mcf0::service::{
    serve, ReferenceService, Request, Response, ServerConfig, ServerHandle, ServiceCommand,
    SketchService, TenantDirectory, TenantQuota, WireError,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub const TENANT: &str = "bench";
pub const TOKEN: &str = "bench-token";
pub const SHARDS: usize = 2;
/// Client threads and connections (the box has two cores; the server runs
/// in the same process).
pub const CONNECTIONS: usize = 2;

/// A socket that stays silent this long has lost a request.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The default `ServerConfig` over a two-shard in-memory service with the
/// benchmark's one unlimited tenant, on an ephemeral loopback port.
pub fn start_server() -> ServerHandle {
    let mut directory = TenantDirectory::new();
    directory
        .register(TENANT, TOKEN, TenantQuota::unlimited())
        .expect("a fresh directory takes the tenant");
    serve(
        "127.0.0.1:0",
        SketchService::new(SHARDS),
        directory,
        ServerConfig::default(),
    )
    .expect("the loopback server binds")
}

/// One request as the bytes of its wire line.
pub fn request_line(id: u64, command: &ServiceCommand) -> Vec<u8> {
    encode_line(&Request {
        id,
        token: TOKEN.to_string(),
        command: command.clone(),
    })
    .into_bytes()
}

/// The reply line the reference interpreter predicts for `command` sent as
/// request `id` and applied at position `seq`: the tenant rewrite applied,
/// errors mapped as the server maps them, rendered by the server's encoder.
pub fn expected_reply(
    reference: &mut ReferenceService,
    id: u64,
    seq: u64,
    command: &ServiceCommand,
) -> String {
    let scoped = TenantDirectory::scope_command(TENANT, command);
    let body = reference
        .apply(&scoped)
        .map_err(|e| WireError::from_service(&e));
    encode_line(&Response {
        id: Some(id),
        seq: Some(seq),
        body,
    })
}

/// The `seq` a reply line carries (`None`: not a reply the service gave).
pub fn reply_seq(line: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(line).ok()?;
    serde_json::from_str::<Response>(text.trim_end()).ok()?.seq
}

/// One connection, written and read a line at a time.
pub struct Client {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(IO_TIMEOUT))?;
        writer.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    pub fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(line)
    }

    /// Reads one reply line (newline included) into `reply`.
    pub fn recv(&mut self, reply: &mut Vec<u8>) -> std::io::Result<()> {
        recv_line(&mut self.reader, reply)
    }

    pub fn round_trip(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        self.send(line)?;
        let mut reply = Vec::new();
        self.recv(&mut reply)?;
        Ok(reply)
    }
}

pub fn recv_line(reader: &mut BufReader<TcpStream>, reply: &mut Vec<u8>) -> std::io::Result<()> {
    reply.clear();
    if reader.read_until(b'\n', reply)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// Whether `reply` is the `done` acknowledgement of request `id` (its
/// `seq` is whatever the core lock handed out).
pub fn is_done_ack(reply: &[u8], id: u64) -> bool {
    const TAIL: &[u8] = b",\"ok\":{\"done\":true}}\n";
    let head = format!("{{\"id\":{id},\"seq\":");
    reply.len() > head.len() + TAIL.len()
        && reply.starts_with(head.as_bytes())
        && reply.ends_with(TAIL)
        && reply[head.len()..reply.len() - TAIL.len()]
            .iter()
            .all(u8::is_ascii_digit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0::service::CommandReply;

    #[test]
    fn done_acks_are_recognised_byte_for_byte() {
        let ack = encode_line(&Response {
            id: Some(17),
            seq: Some(40321),
            body: Ok(CommandReply::Done),
        });
        assert!(is_done_ack(ack.as_bytes(), 17));
        assert!(!is_done_ack(ack.as_bytes(), 18));
        let refused = encode_line(&Response {
            id: Some(17),
            seq: None,
            body: Ok(CommandReply::Done),
        });
        assert!(!is_done_ack(refused.as_bytes(), 17));
        assert_eq!(reply_seq(ack.as_bytes()), Some(40321));
        assert_eq!(reply_seq(refused.as_bytes()), None);
    }
}
