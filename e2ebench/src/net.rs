//! The server under test, run in a child process, and the loopback client.
//!
//! The server runs in its own process so its peak resident memory excludes
//! the generator's inputs and the client's buffers. The child is this same
//! binary started with `--serve`: it binds `127.0.0.1:0` with
//! `ServerConfig::default()`, prints `addr <ip:port>`, and then answers one
//! line per command on stdin — `stats` (the `Service::stats` document) and
//! `rss` (peak and current resident kB) — until `stop` or end of input.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mani_serve::{Server, ServerConfig};
use mani_service::render;

use crate::json::{self, Json};

/// The child side: serves until told to stop.
pub fn serve_child() -> Result<(), String> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())?;
    let handle = server.spawn().map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "addr {}", handle.addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let reply = match line.trim() {
            "stats" => {
                let state = handle.state();
                render(
                    &state
                        .service()
                        .stats(&state.connections().snapshot().into()),
                )
            }
            "rss" => {
                let (peak, current) = resident_kb();
                format!("{peak} {current}")
            }
            _ => break,
        };
        writeln!(out, "{reply}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    handle.stop();
    Ok(())
}

/// `(VmHWM, VmRSS)` of this process in kB, from `/proc/self/status`.
fn resident_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// A running server child. Dropping it stops the child and waits for it.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let addr = line
            .trim()
            .strip_prefix("addr ")
            .and_then(|a| a.parse().ok());
        let mut proc = Self {
            child,
            stdin,
            stdout,
            addr: "127.0.0.1:0".parse().expect("static address"),
        };
        proc.addr =
            addr.ok_or_else(|| format!("server child did not report an address: {line:?}"))?;
        Ok(proc)
    }

    fn command(&mut self, command: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("server child stdin closed")?;
        writeln!(stdin, "{command}").map_err(|e| e.to_string())?;
        stdin.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        if line.is_empty() {
            return Err(format!("server child exited during `{command}`"));
        }
        Ok(line)
    }

    /// The server's `Service::stats` document.
    pub fn stats(&mut self) -> Result<Json, String> {
        json::parse(self.command("stats")?.trim().as_bytes())
    }

    /// The server's resident memory in MB: `(peak so far, current)`.
    pub fn resident_mb(&mut self) -> Result<(f64, f64), String> {
        let line = self.command("rss")?;
        let mut fields = line.split_whitespace().map(|kb| kb.parse::<f64>());
        match (fields.next(), fields.next()) {
            (Some(Ok(peak)), Some(Ok(current))) => Ok((peak / 1024.0, current / 1024.0)),
            _ => Err(format!("bad rss reply {line:?}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "stop");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One parsed reply.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    pub body: Vec<u8>,
}

/// One keep-alive client connection: `TCP_NODELAY`, one write per request.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    /// Sends `request` in one write and reads the whole reply.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("reply without Content-Length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            close,
            body,
        })
    }
}
