//! Open-loop load generator over one TCP connection: a sender thread
//! that emits each request at its due time, fixed in advance by the
//! caller, and a receiver thread that stamps each response. Latency runs from the
//! request's *due* time, not from when it was actually sent, so a
//! stalled sender (or a server that stops reading and blocks the
//! write) shows up in every request it delays instead of dropping out
//! of the figures (coordinated omission). How late the sender itself
//! ran is reported separately as the generator lag.

use crate::spans::Tracer;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one open-loop run saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Due-time latency (ms) of every answered request, in id order.
    pub latency_ms: Vec<f64>,
    /// Per request: how late (ms) the sender started writing it.
    pub lag_ms: Vec<f64>,
    /// Requests answered with a response that passed `check`.
    pub ok: usize,
    /// Requests answered with an error or a response that failed
    /// `check`, plus requests never answered.
    pub failed: usize,
    /// The first few failure reasons.
    pub errors: Vec<String>,
    /// From the first due time to the last response.
    pub wall_s: f64,
}

/// Id of a response line (`{"id":N,...}`), without a full parse.
pub fn response_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Send `count` requests with ids `first_id..first_id + count` over
/// `stream`, request `id` at `due_s(id)` seconds after the start (a
/// non-decreasing schedule). `line_for(id)` renders request
/// `id` (without the newline); `check(id, response)` judges each
/// response. After the last send the receiver waits up to `drain` for
/// outstanding responses. `stall` injects a sender pause of the given
/// length before the given request id (for tests).
#[allow(clippy::too_many_arguments)]
pub fn run(
    stream: &TcpStream,
    first_id: u64,
    count: usize,
    due_s: &(dyn Fn(u64) -> f64 + Sync),
    line_for: &(dyn Fn(u64) -> String + Sync),
    check: &(dyn Fn(u64, &str) -> Result<(), String> + Sync),
    drain: Duration,
    stall: Option<(u64, Duration)>,
    tr: &Tracer,
) -> Outcome {
    let reader = stream.try_clone().expect("clone stream");
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let sent_all = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |id: u64| start + Duration::from_secs_f64(due_s(id));

    let (answers, lag_ms) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut answers: Vec<Option<(f64, Result<(), String>)>> = vec![None; count];
            let mut got = 0;
            let mut buf = BufReader::new(reader);
            let mut line = String::new();
            let mut deadline: Option<Instant> = None;
            while got < count {
                if deadline.is_none() && sent_all.load(Ordering::Acquire) {
                    deadline = Some(Instant::now() + drain);
                }
                if deadline.is_some_and(|d| Instant::now() > d) {
                    break;
                }
                match buf.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        let now = Instant::now();
                        let slot = response_id(&line)
                            .filter(|id| (first_id..first_id + count as u64).contains(id));
                        if let Some(id) = slot {
                            let i = (id - first_id) as usize;
                            if answers[i].is_none() {
                                let ms = now.saturating_duration_since(due(id)).as_secs_f64() * 1e3;
                                let verdict = tr
                                    .span("driver.check", None, id, || check(id, line.trim_end()));
                                answers[i] = Some((ms, verdict));
                                got += 1;
                            }
                        }
                        line.clear();
                    }
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            answers
        });

        let mut lag_ms = Vec::with_capacity(count);
        for id in first_id..first_id + count as u64 {
            let line = line_for(id);
            if let Some((at, pause)) = stall {
                if at == id {
                    std::thread::sleep(pause);
                }
            }
            let d = due(id);
            let now = Instant::now();
            if now < d {
                std::thread::sleep(d - now);
            }
            let sent = Instant::now();
            lag_ms.push(sent.saturating_duration_since(d).as_secs_f64() * 1e3);
            let span = tr.open("driver.send", None, id);
            let ok = writer
                .write_all(line.as_bytes())
                .and_then(|_| writer.write_all(b"\n"))
                .is_ok();
            tr.close(span);
            if !ok {
                break;
            }
        }
        sent_all.store(true, Ordering::Release);
        (receiver.join().expect("receiver thread"), lag_ms)
    });

    let mut out = Outcome {
        lag_ms,
        wall_s: start.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for (i, a) in answers.into_iter().enumerate() {
        match a {
            Some((ms, Ok(()))) => {
                out.latency_ms.push(ms);
                out.ok += 1;
            }
            Some((ms, Err(e))) => {
                out.latency_ms.push(ms);
                out.failed += 1;
                if out.errors.len() < 8 {
                    out.errors
                        .push(format!("request {}: {e}", first_id + i as u64));
                }
            }
            None => {
                out.failed += 1;
                if out.errors.len() < 8 {
                    out.errors
                        .push(format!("request {}: unanswered", first_id + i as u64));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback server answering every line at once with its id.
    fn echo_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut w = conn.try_clone().unwrap();
            for line in BufReader::new(conn).lines() {
                let Ok(line) = line else { break };
                let id = response_id(&line).unwrap();
                if writeln!(w, "{{\"id\":{id},\"ok\":true}}").is_err() {
                    break;
                }
            }
        });
        (addr, h)
    }

    fn drive(stall: Option<(u64, Duration)>) -> Outcome {
        let (addr, server) = echo_server();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let out = run(
            &stream,
            1,
            100,
            &|id| (id - 1) as f64 / 200.0,
            &|id| format!("{{\"id\":{id}}}"),
            &|_, _| Ok(()),
            Duration::from_secs(2),
            stall,
            &Tracer::new(false),
        );
        drop(stream);
        server.join().unwrap();
        out
    }

    #[test]
    fn response_ids_are_read_from_the_line() {
        assert_eq!(response_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(response_id("{\"ok\":false}"), None);
    }

    #[test]
    fn prompt_server_gives_small_due_time_latency() {
        let out = drive(None);
        assert_eq!((out.ok, out.failed), (100, 0));
        assert!(
            out.latency_ms.iter().all(|&ms| ms < 100.0),
            "{:?}",
            out.latency_ms
        );
    }

    #[test]
    fn injected_stall_is_charged_to_every_request_it_delays() {
        // Requests are due every 5 ms; the sender stalls 300 ms before
        // request 20. The server answers at once, so send-to-response
        // time stays near zero, yet requests 20..~80 were all due
        // before the sender got to them.
        let out = drive(Some((20, Duration::from_millis(300))));
        assert_eq!((out.ok, out.failed), (100, 0));
        // `latency_ms[i]` belongs to request id i + 1.
        let lat = &out.latency_ms;
        assert!(lat[18] < 100.0, "request before the stall: {}", lat[18]);
        assert!(lat[19] >= 290.0, "stalled request: {}", lat[19]);
        // The sender then catches up in a burst, so later requests are
        // still late, by less.
        assert!(lat[39] >= 150.0, "request 40: {}", lat[39]);
        assert!(lat[99] < 100.0, "request after catching up: {}", lat[99]);
        assert!(out.lag_ms[19] >= 290.0, "generator lag: {}", out.lag_ms[19]);
    }
}
