//! Host-speed references: fixed work the benchmark times beside the
//! workload, so that its timings can be reported at a fixed host speed.
//!
//! The host is shared. Other tenants move it between a fast and a slower
//! state, up to 1.5 times apart for the engines' graph code, 2.5 times for
//! an L3-resident pointer chase and 1.8 times for a loopback round trip,
//! and a slow state can last longer than a whole run. Taking the fastest
//! sample of a run cannot see past a run that is slow throughout;
//! dividing by references measured in the same moments can. Each
//! repetition therefore times two references that no crate of the
//! workspace touches:
//!
//! * [`cpu`]: a bucket-queue core peel of a fixed random digraph, written
//!   here, so that its mix of indirect loads and branches is close to the
//!   engines' core sweeps and flow search;
//! * the loopback echo of [`Echo`]: one line sent over a local TCP
//!   connection to a thread that writes it back, which pays the kernel
//!   entries and the thread wake-up a query pays.
//!
//! Query round trips are scaled by `ECHO_NOMINAL ÷ median(echo round
//! trips)` of their repetition. Every other time is scaled by the
//! geometric mean of that factor and `nominal ÷ median(cpu samples)`:
//! the engines' short steps (a publish, an apply handed to the lanes)
//! follow the echo, their long solves the peel, and on six seeds of each
//! workload the mean spread less than either factor alone.
//!
//! A change to the engines moves the workload's time and not the
//! references, so it shows in full; what the scaling removes is the
//! host's state. The nominal values are the references' times in the
//! fast state of a 2-vCPU Xeon VM at 2.0 GHz, so the scaled times read as
//! that host's fast state.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The echo round trip's time on the nominal host.
pub const ECHO_NOMINAL: Duration = Duration::from_nanos(8_500);

/// A fixed random digraph in CSR form, out- and in-lists.
struct Peel {
    n: usize,
    nominal: Duration,
    out_off: Vec<u32>,
    out: Vec<u32>,
    in_off: Vec<u32>,
    inn: Vec<u32>,
}

impl Peel {
    fn new(n: usize, m: usize, nominal: Duration) -> Peel {
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as u32 % n as u32
        };
        let edges: Vec<(u32, u32)> = (0..m).map(|_| (next(), next())).collect();
        let csr = |key: fn(&(u32, u32)) -> (u32, u32)| {
            let mut sorted: Vec<(u32, u32)> = edges.iter().map(key).collect();
            sorted.sort_unstable();
            let mut off = vec![0u32; n + 1];
            for &(a, _) in &sorted {
                off[a as usize + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            (
                off,
                sorted.into_iter().map(|(_, b)| b).collect::<Vec<u32>>(),
            )
        };
        let (out_off, out) = csr(|&(u, v)| (u, v));
        let (in_off, inn) = csr(|&(u, v)| (v, u));
        Peel {
            n,
            nominal,
            out_off,
            out,
            in_off,
            inn,
        }
    }

    /// The largest k whose k-core (by total degree) is non-empty.
    fn degeneracy(&self) -> u32 {
        let degree =
            |v: usize| self.out_off[v + 1] - self.out_off[v] + self.in_off[v + 1] - self.in_off[v];
        let mut deg: Vec<u32> = (0..self.n).map(degree).collect();
        let max = deg.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max + 1];
        for (v, &d) in deg.iter().enumerate() {
            buckets[d as usize].push(v as u32);
        }
        let mut removed = vec![false; self.n];
        let (mut k, mut d) = (0u32, 0usize);
        while d <= max {
            let Some(v) = buckets[d].pop() else {
                d += 1;
                continue;
            };
            let v = v as usize;
            if removed[v] || deg[v] as usize != d {
                continue;
            }
            removed[v] = true;
            k = k.max(d as u32);
            let outs = &self.out[self.out_off[v] as usize..self.out_off[v + 1] as usize];
            let ins = &self.inn[self.in_off[v] as usize..self.in_off[v + 1] as usize];
            for &u in outs.iter().chain(ins) {
                let u = u as usize;
                if !removed[u] && deg[u] as usize > d {
                    deg[u] -= 1;
                    buckets[deg[u] as usize].push(u as u32);
                    d = d.min(deg[u] as usize);
                }
            }
        }
        k
    }
}

static PEEL: OnceLock<Peel> = OnceLock::new();

/// Builds the CPU reference's digraph, with `n` vertices and `m` random
/// edges (not timed). A workload sizes it like its own graphs, so that
/// the reference and the workload compete alike for the caches the
/// other tenants share; `nominal` is its time on the nominal host.
pub fn prepare(n: usize, m: usize, nominal: Duration) {
    PEEL.get_or_init(|| Peel::new(n, m, nominal));
}

/// The CPU reference's time on the nominal host.
pub fn cpu_nominal() -> Duration {
    PEEL.get().expect("reference::prepare ran first").nominal
}

/// One timed run of the CPU reference.
pub fn cpu() -> Duration {
    let peel = PEEL.get().expect("reference::prepare ran first");
    let start = Instant::now();
    black_box(peel.degeneracy());
    start.elapsed()
}

/// A line-echo thread on an ephemeral loopback port and one connection
/// to it.
pub struct Echo {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    thread: JoinHandle<()>,
    line: String,
}

impl Echo {
    pub fn start() -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral local port");
        let addr = listener.local_addr().expect("the echo port");
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the echo client");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let mut writer = stream.try_clone().expect("clone the echo socket");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                line.clear();
            }
        });
        let writer = TcpStream::connect(addr).expect("connect to the echo thread");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the echo socket"));
        Echo {
            writer,
            reader,
            thread,
            line: String::new(),
        }
    }

    /// One timed round trip of a query-sized line.
    pub fn round_trip(&mut self) -> Duration {
        let start = Instant::now();
        self.writer
            .write_all(b"DENSITY\n")
            .expect("send an echo line");
        self.line.clear();
        self.reader
            .read_line(&mut self.line)
            .expect("read the echo");
        start.elapsed()
    }

    /// Closes the connection and joins the echo thread.
    pub fn shutdown(self) {
        drop(self.writer);
        drop(self.reader);
        self.thread.join().expect("the echo thread exits cleanly");
    }
}
