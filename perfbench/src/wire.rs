//! The timed side: `case_tool serve` processes, line-oriented TCP
//! clients, and the closed-loop load generator.

use crate::workload::{mix, Req, Workload, CLIENTS};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// One NDJSON connection: write a line, read the answer line.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(1 << 12),
            line: String::with_capacity(1 << 12),
        })
    }

    /// Sends `request` and returns the answer line (newline stripped).
    pub fn round_trip(&mut self, request: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if self.line.ends_with('\n') {
            self.line.pop();
        }
        Ok(&self.line)
    }

    /// A round trip whose answer is parsed as JSON and must be `ok`.
    pub fn call(&mut self, request: &str) -> Result<serde::Value, String> {
        let line = self.round_trip(request).map_err(|e| format!("{request}: {e}"))?;
        let serde_json_value = parse(line)?;
        if serde_json_value.get("ok").and_then(serde::Value::as_bool) != Some(true) {
            return Err(format!("{request} answered {line}"));
        }
        Ok(serde_json_value.get("result").cloned().unwrap_or(serde::Value::Null))
    }
}

pub fn parse(line: &str) -> Result<serde::Value, String> {
    crate::json::parse(line)
        .map_err(|e| format!("unparseable answer ({e}): {}", &line[..line.len().min(200)]))
}

/// A running `case_tool serve` child. Dropping it kills and reaps the
/// process, so no server outlives the benchmark.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
    /// When `spawn` started the process: the zero of `setup_s` and
    /// `restart_s`.
    pub spawned: Instant,
}

impl Server {
    /// Starts `case_tool serve --addr 127.0.0.1:0` at its shipped
    /// defaults (plus `--data-dir` when given) and waits for the port it
    /// prints on stderr.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>, log: &Path) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let stderr = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(stderr);
        let child = cmd.spawn().map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut server = Server { child: Some(child), addr: ([127, 0, 0, 1], 0).into(), spawned };
        let give_up = spawned + Duration::from_secs(120);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(addr) = rest.split_whitespace().next().and_then(|a| a.parse().ok()) {
                    server.addr = addr;
                    return Ok(server);
                }
            }
            let exited = server.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || Instant::now() > give_up {
                return Err(format!("case_tool serve did not come up: {text}"));
            }
            thread::sleep(Duration::from_micros(50));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// A `Vm*` line of the server's `/proc/<pid>/status`, in KiB.
    pub fn vm_kib(&self, key: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Asks the server to shut down over the wire and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| c.round_trip(r#"{"id":0,"op":"shutdown"}"#).map(|_| ()));
        let mut child = self.child.take().expect("server still running");
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < give_up && asked.is_ok() => {
                    thread::sleep(Duration::from_millis(1));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server did not shut down ({asked:?})"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Loads every set-up case over `CLIENTS` connections; returns once
/// each load is acked, with the number of error answers.
pub fn setup(w: &Workload, addr: SocketAddr) -> Result<u64, String> {
    let results: Vec<Result<u64, String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || -> Result<u64, String> {
                    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
                    let mut line = String::new();
                    let mut errors = 0;
                    for t in w.setup_share(client) {
                        w.render(&Req::Load { t }, 1 << 40 | t as u64, &mut line);
                        let answer = conn.round_trip(&line).map_err(|e| e.to_string())?;
                        errors += u64::from(!setup_answer_ok(w, t, answer));
                    }
                    Ok(errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("set-up client panicked")).collect()
    });
    results.into_iter().sum()
}

/// A set-up `load` answer must name version 1 and the case's own hash.
fn setup_answer_ok(w: &Workload, t: usize, answer: &str) -> bool {
    let Ok(value) = parse(answer) else { return false };
    let result = value.get("result");
    let field = |k: &str| result.and_then(|r| r.get(k));
    value.get("ok").and_then(serde::Value::as_bool) == Some(true)
        && field("version").and_then(serde::Value::as_u64) == Some(1)
        && field("hash").and_then(serde::Value::as_str)
            == Some(
                depcase_service::protocol::format_hash(w.tenants[t].base.content_hash()).as_str(),
            )
}

/// What one client sent and saw during the timed phase.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every request sent after set-up, warm-up included, in order.
    pub reqs: Vec<Req>,
    /// Index of the first request of the measured window.
    pub measured_from: usize,
    /// Round-trip nanoseconds of each measured request.
    pub lat_ns: Vec<u64>,
    /// Completion instant of the last measured request.
    pub last_done: Option<Instant>,
    /// Answers with `"ok":false` anywhere (batch items included).
    pub errors: u64,
    pub error_notes: Vec<String>,
    /// Sampled answers kept for the oracle, by request index.
    pub sampled: Vec<(usize, String)>,
}

/// Request id on the wire: unique per run and client.
pub fn request_id(client: usize, index: usize) -> u64 {
    (index as u64) * CLIENTS as u64 + client as u64 + 1
}

/// Whether the oracle re-checks request `index` of `client`.
pub fn sampled(w: &Workload, client: usize, index: usize, every: u64) -> bool {
    mix(&[w.seed, 0x5a3f, client as u64, index as u64]).is_multiple_of(every)
}

/// The closed loop: each client sends its next request only once the
/// previous answer arrived, through `warm` and then `measure`.
pub fn drive(
    w: &Workload,
    addr: SocketAddr,
    warm: Duration,
    measure: Duration,
    sample_every: u64,
) -> Result<(Vec<ClientLog>, Instant), String> {
    let start = Instant::now();
    let measure_from = start + warm;
    let end = measure_from + measure;
    let logs: Vec<Result<ClientLog, String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || -> Result<ClientLog, String> {
                    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
                    let mut stream = w.stream(client);
                    let mut log = ClientLog::default();
                    let mut line = String::new();
                    while Instant::now() < end {
                        let req = stream.next().expect("streams are endless");
                        let index = log.reqs.len();
                        let id = request_id(client, index);
                        w.render(&req, id, &mut line);
                        let t0 = Instant::now();
                        let answer = conn.round_trip(&line).map_err(|e| e.to_string())?;
                        let t1 = Instant::now();
                        if t0 >= measure_from {
                            if log.lat_ns.is_empty() {
                                log.measured_from = index;
                            }
                            log.lat_ns
                                .push(u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX));
                            log.last_done = Some(t1);
                        }
                        if !echoes_id(answer, id) || answer.contains(r#""ok":false"#) {
                            log.errors += 1;
                            if log.error_notes.len() < 4 {
                                log.error_notes.push(answer.chars().take(300).collect());
                            }
                        } else if sampled(w, client, index, sample_every) {
                            log.sampled.push((index, answer.to_string()));
                        }
                        log.reqs.push(req);
                    }
                    if log.lat_ns.is_empty() {
                        log.measured_from = log.reqs.len();
                    }
                    Ok(log)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });
    Ok((logs.into_iter().collect::<Result<Vec<_>, _>>()?, measure_from))
}

fn echoes_id(answer: &str, id: u64) -> bool {
    answer
        .strip_prefix(r#"{"id":"#)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse::<u64>().ok())
        == Some(id)
}

/// Bytes under `dir`, recursively (0 when absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path)
}
