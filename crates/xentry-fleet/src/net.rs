//! Socket/HTTP plumbing for the fleet's std-only telemetry scrape server
//! ([`crate::telemetry`]) on a plain `TcpListener`/`TcpStream`: stream
//! timeout setup, a request-line router, a one-shot HTTP response writer,
//! a minimal GET client, and a stoppable accept loop.
//!
//! Nothing in this module knows about metrics or the service; it is
//! transport only.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default per-connection timeouts for request/response surfaces: a
/// scraper that stalls longer than this is treated as gone
/// rather than allowed to wedge a server thread.
pub const READ_TIMEOUT: Duration = Duration::from_millis(500);
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Put `stream` into blocking mode with the given timeouts — the setup
/// every accepted connection performs before its first
/// read. `None` disables the respective timeout.
pub(crate) fn configure_stream(
    stream: &TcpStream,
    read: Option<Duration>,
    write: Option<Duration>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(read)?;
    stream.set_write_timeout(write)?;
    Ok(())
}

/// Read one HTTP request head from `stream` and return the GET path
/// (query string stripped), or `None` for anything that is not a GET.
/// One read is enough for any real scraper's header block; routing needs
/// nothing past the request line.
pub fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = [0u8; 2048];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    Ok(request.lines().next().and_then(|line| {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("GET"), Some(path)) => {
                Some(path.split('?').next().unwrap_or_default().to_string())
            }
            _ => None,
        }
    }))
}

/// Write a complete `Connection: close` HTTP/1.1 response.
pub fn write_http_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// An HTTP response as a route handler produces it:
/// `(status line, content type, body)`.
pub type HttpResponse = (&'static str, &'static str, String);

/// The standard 404 for these servers.
pub(crate) fn not_found(hint: &str) -> HttpResponse {
    (
        "404 Not Found",
        "text/plain; charset=utf-8",
        format!("not found; try {hint}\n"),
    )
}

/// A minimal stoppable HTTP/1.1 GET server: one accept loop on a
/// nonblocking listener, requests served inline on the server thread (a
/// scrape endpoint serves one scraper, not the internet). Dropping the
/// handle (or [`HttpServer::shutdown`]) stops the loop and joins the
/// thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (port 0 picks a free port) and serve: `handler` maps a
    /// GET path to a response; non-GET requests get the 404 with `hint`.
    pub fn start(
        addr: impl ToSocketAddrs,
        thread_name: &str,
        handler: impl Fn(&str) -> Option<HttpResponse> + Send + Sync + 'static,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || accept_loop(listener, stop2, handler))?;
        Ok(HttpServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    handler: impl Fn(&str) -> Option<HttpResponse>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = serve_connection(&mut stream, &handler);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn serve_connection(
    stream: &mut TcpStream,
    handler: &impl Fn(&str) -> Option<HttpResponse>,
) -> std::io::Result<()> {
    configure_stream(stream, Some(READ_TIMEOUT), Some(WRITE_TIMEOUT))?;
    let path = read_request_path(stream)?.unwrap_or_default();
    let (status, content_type, body) = handler(&path).unwrap_or_else(|| not_found("/"));
    write_http_response(stream, status, content_type, &body)
}

/// Minimal HTTP/1.1 GET against an [`HttpServer`] (or anything speaking
/// close-delimited HTTP). Returns `(status_code, body)`.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed HTTP status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_routes_and_404s() {
        let server = HttpServer::start("127.0.0.1:0", "net-test", |path| match path {
            "/ok" => Some(("200 OK", "text/plain; charset=utf-8", "hello\n".to_string())),
            _ => None,
        })
        .unwrap();
        let addr = server.addr();
        let (status, body) = http_get(addr, "/ok").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello\n");
        // Query strings are stripped before routing.
        let (status, _) = http_get(addr, "/ok?verbose=1").unwrap();
        assert_eq!(status, 200);
        let (status, body) = http_get(addr, "/missing").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("not found"));
        server.shutdown();
    }

    #[test]
    fn server_survives_a_garbage_request() {
        let server = HttpServer::start("127.0.0.1:0", "net-test-garbage", |_| {
            Some(("200 OK", "text/plain; charset=utf-8", "up\n".to_string()))
        })
        .unwrap();
        let addr = server.addr();
        // Not HTTP at all: the server must answer (404 via the non-GET
        // path → handler still sees "" here, so 200) and keep serving.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"\x00\x01\x02 nonsense\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        drop(s);
        let (status, _) = http_get(addr, "/anything").unwrap();
        assert_eq!(status, 200, "server must survive garbage");
        server.shutdown();
    }
}
