//! `serve_mixed`: a closed loop of two persistent line-JSON TCP clients,
//! one tenant each, against a real `Server` on an ephemeral port with two
//! slots, a fresh cache directory and no journal.
//!
//! An op is one job: `submit` → `wait` → `result`. In a pass each client
//! runs one group of seven jobs in seeded order: three kernel jobs that
//! hit the cache (warmed in set-up), three that miss (a small kernel with
//! a `deadlock-cycles` knob no job has used before — a new fingerprint but
//! an identical simulated result, so the golden still applies) and one
//! `replay: true` sweep of three kernels × eight points. Both clients run
//! their groups concurrently and meet at the end of the pass.
//!
//! Why it exists: it is the only workload where queueing, admission (the
//! `verify` and `flow` gates), the scheduler, coalescing, the cache and
//! the wire all sit on the blocking path, and the only one with ops in
//! flight concurrently. The clients set `TCP_NODELAY` on their own socket
//! and nothing else, so what the server's framing costs stays measured.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use machsuite::Bench;
use salam::standalone::{run_kernel, StandaloneConfig};
use salam_dse::fnv::fnv1a64;
use salam_obs::json::{self, Value};
use salam_obs::SplitMix64;
use salam_serve::wire::job_json;
use salam_serve::{JobRequest, JobState, ServeConfig, ServeCore, Server, WireAxis};

use crate::golden::{Entry, Golden};
use crate::harness::{ms_since, Metrics, Tally, Workload};
use crate::stats;
use crate::trace::{chrome_json, Recorder};
use crate::workloads::kernel_id;

/// Concurrent clients (= tenants = server slots).
const CLIENTS: usize = 2;
/// Kernel jobs whose result is in the cache after set-up.
const HIT: [Bench; 3] = [Bench::GemmNcubed, Bench::MdKnn, Bench::Stencil3d];
/// Small kernels the miss jobs draw from.
const MISS: [Bench; 5] = [
    Bench::Bfs,
    Bench::SpmvCrs,
    Bench::FftStrided,
    Bench::Nw,
    Bench::Stencil2d,
];
/// Miss jobs per group.
const MISSES_PER_GROUP: usize = 3;
/// Kernels of the sweep job.
const SWEEP: [Bench; 3] = [Bench::Bfs, Bench::SpmvCrs, Bench::FftStrided];
/// First `deadlock-cycles` value the miss jobs use: the engine default, so
/// larger values only ever loosen a watchdog that never fires here.
const DEADLOCK_BASE: u64 = 1_000_000;

/// One job of a group, before a miss job's unique knob is filled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPlan {
    /// Kernel job answered from the cache.
    Hit(Bench),
    /// Kernel job that has to simulate.
    Miss(Bench),
    /// Replayed sweep.
    Sweep,
}

impl JobPlan {
    /// Class label used in span and metric names.
    fn class(self) -> &'static str {
        match self {
            JobPlan::Hit(_) => "hit",
            JobPlan::Miss(_) => "miss",
            JobPlan::Sweep => "sweep",
        }
    }

    fn golden_key(self) -> String {
        match self {
            JobPlan::Hit(b) | JobPlan::Miss(b) => format!("serve_mixed/{}", kernel_id(b)),
            JobPlan::Sweep => "serve_mixed/sweep".to_string(),
        }
    }

    /// The request; `unique` makes a miss job's fingerprint new.
    fn request(self, unique: u64) -> JobRequest {
        match self {
            JobPlan::Hit(b) => kernel_request(b, None),
            JobPlan::Miss(b) => kernel_request(b, Some(unique)),
            JobPlan::Sweep => sweep_request(),
        }
    }
}

fn kernel_request(bench: Bench, deadlock_cycles: Option<u64>) -> JobRequest {
    JobRequest::Kernel {
        bench: kernel_id(bench),
        knobs: deadlock_cycles
            .map(|v| ("deadlock-cycles".to_string(), v))
            .into_iter()
            .collect(),
        trace: false,
    }
}

fn sweep_request() -> JobRequest {
    JobRequest::Sweep {
        name: "bench-sweep".into(),
        kernels: SWEEP.into_iter().map(kernel_id).collect(),
        axes: vec![
            WireAxis {
                knob: "ports".into(),
                values: vec![1, 2, 4, 8],
            },
            WireAxis {
                knob: "spm-latency".into(),
                values: vec![2, 3],
            },
        ],
        replay: true,
    }
}

/// The seven jobs of `client`'s group in pass `pass`: order and the choice
/// of miss kernels are fixed by the seed.
pub fn group(seed: u64, client: usize, pass: u64) -> Vec<JobPlan> {
    // One decorrelated stream per (client, pass).
    let mut rng = SplitMix64::new(seed).split(client as u64).split(pass);
    let mut jobs: Vec<JobPlan> = HIT.into_iter().map(JobPlan::Hit).collect();
    for _ in 0..MISSES_PER_GROUP {
        jobs.push(JobPlan::Miss(*rng.choose(&MISS)));
    }
    jobs.push(JobPlan::Sweep);
    rng.shuffle(&mut jobs);
    jobs
}

/// A line-JSON connection to the server.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One request line out, one response line back, parsed.
    fn call(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v = json::parse(&line)?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("server refused: {}", line.trim()));
        }
        Ok(v)
    }
}

/// Runs one job over the wire and returns the digest of its artifact.
fn wire_job(
    conn: &mut Conn,
    tenant: &str,
    job: &JobRequest,
    rec: &mut Recorder,
    op: u64,
) -> Result<u64, String> {
    let submit = format!(
        "{{\"op\": \"submit\", \"tenant\": \"{tenant}\", \"job\": {}}}",
        job_json(job)
    );
    let open = rec.begin("serve.submit", op);
    let reply = conn.call(&submit);
    rec.end(open);
    let id = reply?
        .get("id")
        .and_then(Value::as_f64)
        .ok_or("submit reply without an id")? as u64;

    let open = rec.begin("serve.wait", op);
    let reply = conn.call(&format!("{{\"op\": \"wait\", \"id\": {id}}}"));
    rec.end(open);
    let state = reply?
        .get("status")
        .and_then(|s| s.get("state"))
        .and_then(Value::as_str)
        .map(str::to_string);
    if state.as_deref() != Some(JobState::Done.name()) {
        return Err(format!("job {id} ended {state:?}"));
    }

    let artifact = if matches!(job, JobRequest::Sweep { .. }) {
        "csv"
    } else {
        "report"
    };
    let open = rec.begin("serve.result", op);
    let reply = conn.call(&format!(
        "{{\"op\": \"result\", \"id\": {id}, \"artifact\": \"{artifact}\"}}"
    ));
    rec.end(open);
    let reply = reply?;
    let text = reply
        .get("artifact")
        .and_then(Value::as_str)
        .ok_or("result reply without an artifact")?;
    Ok(fnv1a64(text.as_bytes()))
}

/// Runs one job in process, without a socket.
fn core_job(core: &ServeCore, tenant: &str, job: &JobRequest) -> Result<u64, String> {
    let id = core
        .submit_with(tenant, job.clone(), Default::default())
        .map_err(|r| r.to_string())?;
    let status = core.wait(id).map_err(|e| e.message(id))?;
    if status.state != JobState::Done {
        return Err(format!("job {id} ended {}", status.state.name()));
    }
    let artifact = if matches!(job, JobRequest::Sweep { .. }) {
        "csv"
    } else {
        "report"
    };
    Ok(fnv1a64(core.artifact(id, artifact)?.as_bytes()))
}

/// Main thread → client.
enum Cmd {
    Pass { index: u64, traced: bool },
    Stop,
}

/// Client → main thread: one result per job of the group, and the spans.
struct Reply {
    jobs: Vec<(bool, f64)>,
    rec: Recorder,
}

fn client_loop(
    client: usize,
    seed: u64,
    addr: SocketAddr,
    golden: Golden,
    epoch: Instant,
    cmds: Receiver<Cmd>,
    replies: Sender<Result<Reply, String>>,
) {
    let tenant = format!("tenant-{client}");
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            let _ = replies.send(Err(format!("client {client}: connect: {e}")));
            return;
        }
    };
    let mut misses = 0u64;
    while let Ok(Cmd::Pass { index, traced }) = cmds.recv() {
        let mut rec = Recorder::new(epoch, client as u32 + 1);
        rec.set_enabled(traced);
        let plans = group(seed, client, index);
        let mut jobs = Vec::with_capacity(plans.len());
        for (j, plan) in plans.iter().enumerate() {
            let op = (index * CLIENTS as u64 + client as u64) * plans.len() as u64 + j as u64;
            // Unique across clients and passes of this server instance.
            let unique = DEADLOCK_BASE + misses * CLIENTS as u64 + client as u64;
            misses += u64::from(matches!(plan, JobPlan::Miss(_)));
            let request = plan.request(unique);
            let t = Instant::now();
            let open = rec.begin(&format!("serve.job.{}", plan.class()), op);
            let got = wire_job(&mut conn, &tenant, &request, &mut rec, op);
            rec.end(open);
            let ms = ms_since(t);
            let ok = match got {
                Ok(digest) => golden
                    .entries
                    .get(&plan.golden_key())
                    .is_some_and(|e| e.digest == digest),
                Err(_) => false,
            };
            jobs.push((ok, ms));
        }
        rec.set_enabled(false);
        if replies.send(Ok(Reply { jobs, rec })).is_err() {
            return;
        }
    }
}

struct Client {
    cmds: Sender<Cmd>,
    replies: Receiver<Result<Reply, String>>,
    thread: Option<JoinHandle<()>>,
    rec: Recorder,
}

/// The `serve_mixed` workload.
pub struct ServeMixed {
    server: Option<Server>,
    addr: SocketAddr,
    clients: Vec<Client>,
    next_pass: u64,
    probe_dir: std::path::PathBuf,
    seed: u64,
    setup_phases_ms: Vec<f64>,
}

fn serve_config(cache_dir: &Path) -> ServeConfig {
    ServeConfig {
        slots: CLIENTS,
        cache_dir: Some(cache_dir.to_path_buf()),
        journal: None,
        ..ServeConfig::default()
    }
}

/// Fills the cache with what the hit jobs and the sweep will ask for;
/// returns the wall time of each warming job, milliseconds.
fn warm(core: &ServeCore) -> Result<Vec<f64>, String> {
    let mut jobs: Vec<JobRequest> = HIT.into_iter().map(|b| kernel_request(b, None)).collect();
    jobs.push(sweep_request());
    jobs.iter()
        .map(|job| {
            let t = Instant::now();
            core_job(core, "warm", job)?;
            Ok(ms_since(t))
        })
        .collect()
}

impl ServeMixed {
    /// Set-up: golden load, server boot on an ephemeral port, cache
    /// warming, client connections.
    pub fn setup(seed: u64, dir: &Path) -> Result<ServeMixed, String> {
        let t = Instant::now();
        let golden = Golden::load()?;
        let server = Server::bind("127.0.0.1:0", serve_config(&dir.join("cache")))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let mut this = ServeMixed {
            server: Some(server),
            addr,
            clients: Vec::new(),
            next_pass: 0,
            probe_dir: dir.join("probe"),
            seed,
            setup_phases_ms: vec![ms_since(t)],
        };
        let warmed = warm(this.server.as_ref().expect("just bound").core())?;
        this.setup_phases_ms.extend(warmed);
        let epoch = Instant::now();
        for client in 0..CLIENTS {
            let (cmd_tx, cmd_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let golden = golden.clone();
            let thread = std::thread::spawn(move || {
                client_loop(client, seed, addr, golden, epoch, cmd_rx, reply_tx)
            });
            this.clients.push(Client {
                cmds: cmd_tx,
                replies: reply_rx,
                thread: Some(thread),
                rec: Recorder::new(epoch, client as u32 + 1),
            });
        }
        Ok(this)
    }

    /// Golden digests of every job's artifact, from an in-process core
    /// with the cache off (`--bless`). Kernel reports are also checked to
    /// equal a direct library call.
    pub fn bless(golden: &mut Golden) -> Result<(), String> {
        let core = ServeCore::start(ServeConfig {
            slots: 1,
            no_cache: true,
            ..ServeConfig::default()
        });
        let result = (|| {
            for bench in HIT.into_iter().chain(MISS) {
                let digest = core_job(&core, "bless", &kernel_request(bench, None))?;
                let report = run_kernel(&bench.build_standard(), &StandaloneConfig::default());
                let entry = Entry::of_report(&report, &report.to_json());
                if entry.digest != digest {
                    return Err(format!(
                        "{}: served report differs from a direct run",
                        kernel_id(bench)
                    ));
                }
                golden
                    .entries
                    .insert(format!("serve_mixed/{}", kernel_id(bench)), entry);
            }
            let digest = core_job(&core, "bless", &sweep_request())?;
            golden.entries.insert(
                "serve_mixed/sweep".into(),
                Entry {
                    cycles: 0,
                    dyn_insts: 0,
                    verified: true,
                    digest,
                },
            );
            Ok(())
        })();
        core.shutdown();
        result
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        for c in &mut self.clients {
            let _ = c.cmds.send(Cmd::Stop);
            if let Some(t) = c.thread.take() {
                let _ = t.join();
            }
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for ServeMixed {
    fn ops_per_pass(&self) -> u64 {
        (CLIENTS * (HIT.len() + MISSES_PER_GROUP + 1)) as u64
    }

    fn ops_overlap(&self) -> bool {
        true
    }

    fn setup_phases_ms(&self) -> &[f64] {
        &self.setup_phases_ms
    }

    fn pass(&mut self, traced: bool, tally: &mut Tally) -> Vec<f64> {
        let index = self.next_pass;
        self.next_pass += 1;
        let start = Instant::now();
        for c in &self.clients {
            let _ = c.cmds.send(Cmd::Pass { index, traced });
        }
        let expected = self.ops_per_pass() / CLIENTS as u64;
        for c in &mut self.clients {
            match c.replies.recv() {
                Ok(Ok(reply)) => {
                    for (ok, ms) in reply.jobs {
                        tally.op(ok, ms);
                    }
                    c.rec.absorb(reply.rec);
                }
                // A client that lost its connection: its whole group failed.
                Ok(Err(_)) | Err(_) => tally.batch(0, expected, 0.0),
            }
        }
        // The clients' jobs overlap, so the pass is one step.
        vec![ms_since(start)]
    }

    fn layer_metrics(&mut self, _budget: Duration, out: &mut Metrics) {
        let all = |name: &str| -> Vec<f64> {
            self.clients
                .iter()
                .flat_map(|c| c.rec.durations_us(name))
                .collect()
        };
        out.insert(
            "serve.submit_us".into(),
            stats::median(&all("serve.submit")),
        );
        out.insert("serve.wait_us".into(), stats::median(&all("serve.wait")));
        out.insert(
            "serve.result_us".into(),
            stats::median(&all("serve.result")),
        );
        for class in ["hit", "miss", "sweep"] {
            out.insert(
                format!("serve.job_{class}_ms_p50"),
                stats::median(&all(&format!("serve.job.{class}"))) / 1e3,
            );
        }

        // The wire alone: `stats` round trips on the now idle server.
        if let Ok(mut conn) = Conn::open(self.addr) {
            let mut rtt = Vec::new();
            for _ in 0..25 {
                let t = Instant::now();
                if conn.call("{\"op\": \"stats\"}").is_ok() {
                    rtt.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            out.insert("serve.wire_rtt_us".into(), stats::median(&rtt));

            // The server's own view of the same jobs.
            if let Ok(reply) = conn.call("{\"op\": \"metrics\"}") {
                let get = |key: &str| {
                    reply
                        .get("metrics")
                        .and_then(|m| m.get(key))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                };
                out.insert(
                    "serve.queue_us_p50".into(),
                    get("serve.latency.queue_us.p50"),
                );
                out.insert("serve.run_us_p50".into(), get("serve.latency.run_us.p50"));
                out.insert("serve.e2e_us_p99".into(), get("serve.latency.e2e_us.p99"));
                out.insert("serve.coalesced".into(), get("serve.jobs.coalesced"));
                out.insert("serve.rejected".into(), get("serve.jobs.rejected"));
                let hits = get("serve.cache_hits");
                out.insert(
                    "serve.cache_hit_ratio".into(),
                    stats::ratio(hits, hits + get("serve.sim_runs")),
                );
            }
        }

        // The core alone: the same job mix through `ServeCore`, no socket.
        let core = ServeCore::start(serve_config(&self.probe_dir.join("core-cache")));
        if warm(&core).is_ok() {
            let mut job_ms = Vec::new();
            for pass in 0..4u64 {
                for (j, plan) in group(self.seed, 0, pass).iter().enumerate() {
                    let unique = DEADLOCK_BASE + pass * 16 + j as u64;
                    let t = Instant::now();
                    if core_job(&core, "probe", &plan.request(unique)).is_ok() {
                        job_ms.push(ms_since(t));
                    }
                }
            }
            out.insert("serve.core_job_ms_p50".into(), stats::median(&job_ms));
        }
        core.shutdown();

        // Admission is all the core work a hit job does: the IR verifier
        // and the dataflow gate, per job.
        let (mut gate_us, mut flow_us) = (Vec::new(), Vec::new());
        for bench in HIT {
            let kernel = bench.build_standard();
            let t = Instant::now();
            std::hint::black_box(salam_verify::verify_ir(&kernel.func));
            gate_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            std::hint::black_box(salam_flow::analyze(&kernel.func, &kernel.args));
            flow_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.insert("verify.gate_us".into(), stats::mean(&gate_us));
        out.insert("flow.analyze_us".into(), stats::mean(&flow_us));
    }

    fn chrome_trace(&self) -> String {
        let recs: Vec<&Recorder> = self.clients.iter().map(|c| &c.rec).collect();
        chrome_json(&recs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_fixed_by_the_seed_and_differ_between_seeds() {
        for client in 0..CLIENTS {
            for pass in 0..3 {
                let g = group(7, client, pass);
                assert_eq!(g, group(7, client, pass), "same seed, same op list");
                let count = |class: &str| g.iter().filter(|j| j.class() == class).count();
                assert_eq!(
                    (count("hit"), count("miss"), count("sweep")),
                    (HIT.len(), MISSES_PER_GROUP, 1)
                );
            }
        }
        let orders =
            |seed: u64| -> Vec<Vec<JobPlan>> { (0..4).map(|p| group(seed, 0, p)).collect() };
        assert_ne!(orders(1), orders(2), "another seed, another order");
        assert_ne!(
            (0..4).map(|p| group(1, 0, p)).collect::<Vec<_>>(),
            (0..4).map(|p| group(1, 1, p)).collect::<Vec<_>>(),
            "clients do not mirror each other"
        );
    }

    #[test]
    fn miss_jobs_get_a_new_fingerprint_and_hit_jobs_do_not() {
        let knob = |j: &JobRequest| match j {
            JobRequest::Kernel { knobs, .. } => knobs.clone(),
            _ => panic!("kernel job expected"),
        };
        let miss = JobPlan::Miss(Bench::Bfs);
        assert_ne!(
            knob(&miss.request(DEADLOCK_BASE)),
            knob(&miss.request(DEADLOCK_BASE + 1))
        );
        let hit = JobPlan::Hit(Bench::GemmNcubed);
        assert!(knob(&hit.request(5)).is_empty());
        assert_eq!(hit.golden_key(), "serve_mixed/gemm");
        assert_eq!(miss.golden_key(), "serve_mixed/bfs");
        // The wire form is what the server's own parser accepts.
        let line = format!(
            "{{\"op\": \"submit\", \"tenant\": \"t\", \"job\": {}}}",
            job_json(&JobPlan::Sweep.request(0))
        );
        assert!(salam_serve::wire::parse_request(&line).is_ok());
    }
}
