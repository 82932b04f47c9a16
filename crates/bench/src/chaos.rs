//! A seeded in-process TCP fault proxy for chaos-testing the daemon.
//!
//! [`ChaosProxy`] sits between a client and a running
//! [`Server`](tcms_serve::Server)
//! (`client → proxy → daemon`), forwards bytes chunk by chunk, and asks
//! a [`NetFaultPlan`] (the pure, seed-deterministic decision module
//! [`netfault`](crate::netfault)) what to do with each chunk: forward,
//! delay, truncate then cut, reset before forwarding, or forward then
//! cut. Each
//! connection gets two independent decision streams (one per
//! direction), so a chaos run's faults are reproducible per connection
//! regardless of thread scheduling.
//!
//! The proxy exists to prove the failure model end to end: under
//! injected resets, latency spikes, truncations and mid-write kills, a
//! retrying client ([`ServeClient`](tcms_serve::ServeClient)) must observe
//! only typed errors or retried successes — never a wrong answer, never
//! a hung daemon. The `repro_chaos` bench drives exactly that argument
//! at several seeds.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::netfault::{ChunkFault, NetFaultPlan, NetFaultStream};

/// Counters of everything a [`ChaosProxy`] did (point-in-time snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Connections accepted and proxied.
    pub connections: u64,
    /// Chunks forwarded (or faulted) across all connections.
    pub chunks: u64,
    /// Latency spikes injected.
    pub delays: u64,
    /// Chunks truncated mid-write (connection cut after the partial
    /// forward).
    pub truncations: u64,
    /// Connections reset before a chunk was forwarded.
    pub resets: u64,
    /// Connections cut immediately after a complete forward.
    pub kills: u64,
}

impl ChaosStats {
    /// Total faults injected (everything except clean forwards).
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.delays + self.truncations + self.resets + self.kills
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    chunks: AtomicU64,
    delays: AtomicU64,
    truncations: AtomicU64,
    resets: AtomicU64,
    kills: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ChaosStats {
        ChaosStats {
            connections: self.connections.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            truncations: self.truncations.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            kills: self.kills.load(Ordering::Relaxed),
        }
    }
}

/// The fault-injecting TCP proxy. See the module docs.
pub struct ChaosProxy {
    addr: SocketAddr,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a local proxy port in front of `upstream` and starts
    /// accepting. Faults follow `plan`; a quiet plan makes the proxy a
    /// transparent byte pipe.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> std::io::Result<ChaosProxy> {
        plan.validate();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("tcms-chaos-accept".into())
                .spawn(move || {
                    let mut conn_id = 0u64;
                    loop {
                        let accepted = listener.accept();
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        match accepted {
                            Ok((client, _)) => {
                                counters.connections.fetch_add(1, Ordering::Relaxed);
                                let id = conn_id;
                                conn_id += 1;
                                spawn_connection(client, upstream, &plan, id, &counters, &stop);
                            }
                            // A real accept error: back off rather than spin.
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                })
                .map_err(|e| std::io::Error::other(format!("spawn chaos accept: {e}")))?
        };
        Ok(ChaosProxy {
            addr,
            counters,
            stop,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point clients here.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault counters.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        self.counters.snapshot()
    }

    /// Stops accepting and joins the accept thread, waking its blocked
    /// `accept()` with a connection it drops. Live pump threads notice
    /// the flag within their poll interval and tear down.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_connection(
    client: TcpStream,
    upstream: SocketAddr,
    plan: &NetFaultPlan,
    id: u64,
    counters: &Arc<Counters>,
    stop: &Arc<AtomicBool>,
) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    // One kill flag per connection: either direction's fault cuts both.
    let kill = Arc::new(AtomicBool::new(false));
    // Two decision streams per connection, one per direction, so fault
    // sequences do not depend on how the two pump threads interleave.
    for (from, to, faults, label) in [
        (
            client.try_clone(),
            server.try_clone(),
            plan.stream(id * 2),
            "tcms-chaos-up",
        ),
        (
            server.try_clone(),
            client.try_clone(),
            plan.stream(id * 2 + 1),
            "tcms-chaos-down",
        ),
    ] {
        let (Ok(from), Ok(to)) = (from, to) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let counters = Arc::clone(counters);
        let kill = Arc::clone(&kill);
        let stop = Arc::clone(stop);
        let _ = std::thread::Builder::new()
            .name(label.into())
            .spawn(move || pump(&from, &to, faults, &counters, &kill, &stop));
    }
}

/// Forwards `from → to` chunk by chunk, applying one fault decision per
/// chunk, until EOF, a cut fault, or shutdown.
fn pump(
    from: &TcpStream,
    to: &TcpStream,
    mut faults: NetFaultStream,
    counters: &Counters,
    kill: &AtomicBool,
    stop: &AtomicBool,
) {
    // The read timeout is the kill/stop poll interval.
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = to.set_nodelay(true);
    let mut from = from;
    let mut buf = [0u8; 1024];
    loop {
        if kill.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        counters.chunks.fetch_add(1, Ordering::Relaxed);
        let mut to = to;
        match faults.next_fault() {
            ChunkFault::None => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            ChunkFault::Delay(ms) => {
                counters.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(ms));
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            ChunkFault::Truncate { keep_permille } => {
                counters.truncations.fetch_add(1, Ordering::Relaxed);
                let keep = n * usize::from(keep_permille) / 1000;
                let _ = to.write_all(&buf[..keep]);
                let _ = to.flush();
                kill.store(true, Ordering::SeqCst);
                break;
            }
            ChunkFault::Reset => {
                counters.resets.fetch_add(1, Ordering::Relaxed);
                kill.store(true, Ordering::SeqCst);
                break;
            }
            ChunkFault::KillAfter => {
                counters.kills.fetch_add(1, Ordering::Relaxed);
                let _ = to.write_all(&buf[..n]);
                let _ = to.flush();
                kill.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    // Tear down both halves: a cut in one direction must not leave the
    // other half-open and wedged.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcms_serve::client::schedule_request_line;
    use tcms_serve::{Client, RetryPolicy, ScheduleOptions, ServeClient, ServeConfig, Server};

    const SAMPLE: &str = "resource add delay=1 area=1\nresource mul delay=2 area=4 pipelined\n\
        process A\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n\
        process B\nblock body time=8\nop m0 mul\nop a0 add\nedge m0 a0\n";

    fn schedule_line(id: &str) -> String {
        let opts = ScheduleOptions {
            all_global: Some(4),
            ..ScheduleOptions::default()
        };
        schedule_request_line(id, SAMPLE, &opts, None)
    }

    #[test]
    fn quiet_proxy_is_transparent() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut proxy = ChaosProxy::start(server.local_addr(), NetFaultPlan::quiet(0)).unwrap();

        let mut direct = Client::connect(server.local_addr()).unwrap();
        let want = direct.request(&schedule_line("direct")).unwrap();
        assert!(want.is_ok());

        let mut through = Client::connect(proxy.local_addr()).unwrap();
        let got = through.request(&schedule_line("proxied")).unwrap();
        assert!(got.is_ok());
        assert_eq!(
            got.output(),
            want.output(),
            "byte-identical through the pipe"
        );
        assert_eq!(proxy.stats().faults(), 0);
        assert!(proxy.stats().chunks > 0);

        proxy.stop();
        server.shutdown();
        server.wait().unwrap();
    }

    #[test]
    fn retrying_client_survives_a_faulty_proxy_with_correct_answers() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut direct = Client::connect(server.local_addr()).unwrap();
        let want = direct.request(&schedule_line("truth")).unwrap();
        let want_output = want.output().unwrap().to_owned();

        let mut proxy = ChaosProxy::start(server.local_addr(), NetFaultPlan::moderate(3)).unwrap();
        let mut client = ServeClient::new(
            proxy.local_addr().to_string(),
            RetryPolicy {
                max_retries: 10,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(50),
                seed: 3,
                ..RetryPolicy::default()
            },
        );
        let mut completed = 0;
        for i in 0..12 {
            if let Ok(resp) = client.request(&schedule_line(&format!("r{i}"))) {
                if resp.is_ok() {
                    assert_eq!(
                        resp.output(),
                        Some(want_output.as_str()),
                        "a completed answer is never wrong"
                    );
                    completed += 1;
                }
            }
        }
        assert!(completed > 0, "some requests complete under chaos");
        assert!(
            proxy.stats().faults() > 0,
            "the plan actually injected faults: {:?}",
            proxy.stats()
        );
        proxy.stop();
        server.shutdown();
        server.wait().unwrap();
    }
}
