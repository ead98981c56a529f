//! The serving side every workload publishes into: a `dds_serve`
//! publisher and server on an ephemeral local port, and one client
//! connection that sends a fixed query mix after each publish and
//! validates every answer.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use dds_graph::DiGraph;
use dds_serve::{
    respond, EpochFacts, PublishOptions, Publisher, ServeMetrics, Server, SnapshotCell,
};

use crate::probe::{fnv1a, Checks, Probe, FNV_OFFSET};
use crate::reference::Echo;

pub struct Rig {
    publisher: Publisher,
    cell: Arc<SnapshotCell>,
    server: Server,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    echo: Echo,
    opts: PublishOptions,
    target_offset: u64,
    next_query: u64,
    last_epoch: u64,
    /// FNV-1a over every response line received.
    pub response_hash: u64,
    pub queries: u64,
}

impl Rig {
    /// Starts a one-reader server and connects the single client, whose
    /// MEMBER and CORE queries target vertices shifted by `seed`, and the
    /// loopback echo each query is paired with.
    pub fn start(opts: PublishOptions, seed: u64) -> Rig {
        let cell = Arc::new(SnapshotCell::new());
        let metrics = Arc::new(ServeMetrics::new());
        let publisher = Publisher::new(Arc::clone(&cell), opts, Arc::clone(&metrics));
        let server = Server::start("127.0.0.1:0", Arc::clone(&cell), 1, metrics)
            .expect("bind an ephemeral local port");
        let writer = TcpStream::connect(server.addr()).expect("connect to the local server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Rig {
            publisher,
            cell,
            server,
            writer,
            reader,
            echo: Echo::start(),
            opts,
            target_offset: seed % 512,
            next_query: 0,
            last_epoch: 0,
            response_hash: FNV_OFFSET,
            queries: 0,
        }
    }

    pub fn publish(
        &mut self,
        probe: &Probe,
        facts: EpochFacts<'_>,
        materialize: impl FnOnce() -> DiGraph,
    ) {
        probe.time("serve.publish", || {
            self.publisher.publish(facts, materialize)
        });
    }

    /// Sends `count` queries of the `serve_load` rotation
    /// (DENSITY / MEMBER / CORE / TOPK, falling back to DENSITY for
    /// derived answers this rig does not publish) and checks that the
    /// first one reports `epoch`, that none is an error, goes back in
    /// epochs, or serves an inverted bracket. Each query is preceded by
    /// one timed echo round trip (`host.echo`), the reference its round
    /// trip is scaled by. With `in_process`, the same
    /// lines are then answered by `dds_serve::respond` on the loaded
    /// snapshot, timed as `serve.answer`.
    pub fn query_round(
        &mut self,
        probe: &Probe,
        count: usize,
        epoch: u64,
        checks: &mut Checks,
        in_process: bool,
    ) {
        let mut lines = Vec::with_capacity(count);
        for j in 0..count {
            let line = self.next_line();
            probe.record("host.echo", self.echo.round_trip());
            let response = probe.time("serve.query", || {
                self.writer
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("send a query");
                let mut response = String::new();
                self.reader
                    .read_line(&mut response)
                    .expect("read a response");
                response
            });
            self.queries += 1;
            self.response_hash = fnv1a(self.response_hash, response.as_bytes());
            let response = response.trim_end();
            let seen = field::<u64>(response, "epoch=");
            if j == 0 {
                checks.check(seen == Some(epoch), || {
                    format!("first query after publishing epoch {epoch} answered {response:?}")
                });
            }
            checks.check(self.valid(response, seen), || {
                format!("query {line:?} at epoch {epoch} answered {response:?}")
            });
            if let Some(seen) = seen {
                self.last_epoch = self.last_epoch.max(seen);
            }
            lines.push(line);
        }
        if in_process {
            let snap = self.cell.load();
            for line in &lines {
                let answered = probe.time("serve.answer", || respond(&snap, line));
                checks.check(answered.is_some_and(|(_, err)| !err), || {
                    format!("in-process answer to {line:?} failed")
                });
            }
        }
    }

    fn next_line(&mut self) -> String {
        let i = self.next_query;
        self.next_query += 1;
        let offset = self.target_offset;
        match i % 4 {
            0 => "DENSITY".to_string(),
            1 => format!("MEMBER {}", (i * 7 + offset) % 512),
            2 => match self.opts.core {
                Some((x, y)) => format!("CORE {x} {y} {}", (i * 11 + offset) % 512),
                None => "DENSITY".to_string(),
            },
            _ if self.opts.top_k > 0 => format!("TOPK {}", self.opts.top_k),
            _ => "DENSITY".to_string(),
        }
    }

    fn valid(&self, response: &str, seen: Option<u64>) -> bool {
        let Some(seen) = seen else { return false };
        if !response.starts_with("OK ") || seen < self.last_epoch {
            return false;
        }
        if response.starts_with("OK DENSITY") {
            // Fields render at 6 decimals, so allow rounding slack.
            let get = |key| field::<f64>(response, key).unwrap_or(f64::NAN);
            let (density, lower, upper) = (get("density="), get("lower="), get("upper="));
            return lower - 1e-4 <= density && density <= upper + 1e-4;
        }
        true
    }

    /// Closes the client, then stops and joins the server's and the
    /// echo's threads.
    pub fn shutdown(mut self) {
        self.echo.shutdown();
        // The reader thread serves our connection until it closes.
        let _ = self.writer.write_all(b"QUIT\n");
        drop(self.writer);
        drop(self.reader);
        self.server.shutdown();
    }
}

fn field<T: std::str::FromStr>(response: &str, key: &str) -> Option<T> {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}
