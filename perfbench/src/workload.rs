//! The workloads and their phases.
//!
//! Every phase provisions fresh pilots, starts a pipeline whose produce and
//! process functions are wrapped by the benchmark, runs it to its sentinels,
//! and checks what came out. The wrappers only timestamp and fingerprint
//! each message; everything else is read from handles the benchmark holds
//! (link clones, the broker, the compute pool, the gateway socket).

use crate::trace::{Span, Tracer};
use pilot_broker::RetentionPolicy;
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::{Block, DataGenConfig};
use pilot_edge::faas::{CloudFactory, Context, ProduceFactory};
use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
use pilot_edge::EdgeToCloudPipeline;
use pilot_gateway::HttpClient;
use pilot_metrics::MetricsRegistry;
use pilot_ml::ModelKind;
use pilot_netsim::{profiles, Link};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Gateway load of a paced phase, per connection (requests/second): light
/// next to the pipeline, yet enough that the run's pooled gateway latency
/// series has well over 1000 samples, so its p99 has ten samples beyond it.
pub const GATEWAY_RATE: f64 = 100.0;
/// Body of each `POST /produce`.
pub const INGEST_BYTES: usize = 1024;
/// Topic the gateway ingests into (a second topic on the pipeline broker).
pub const INGEST_TOPIC: &str = "ingest";
/// Traced runs record the per-message wrapper spans of one message in this
/// many (chosen by payload fingerprint), which keeps the trace file and the
/// tracing overhead bounded at fan-in scale.
const TRACE_ONE_IN: u64 = 8;
/// A phase that has not drained its sentinels by then has failed.
const PHASE_DEADLINE: Duration = Duration::from_secs(30);

#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub devices: usize,
    pub points: usize,
    pub model: ModelKind,
    /// Pipelined transport: 64 KB batches, 2 ms linger.
    pub pipelined: bool,
    pub producer_threads: Option<usize>,
    /// Thread-backed consumer members (default: one per device).
    pub processors: Option<usize>,
    pub compute_threads: Option<usize>,
    /// Broker→cloud over a zero-cost loopback link instead of a
    /// `cloud_local` one.
    pub loopback_cloud: bool,
    /// Paced-phase rate per device, messages/second.
    pub rate_per_device: f64,
    /// Burst-phase message budget per device.
    pub burst_per_device: usize,
}

impl Shape {
    /// The workload named `name`, with every thread-count knob at most
    /// `nproc`.
    pub fn named(name: &str, nproc: usize) -> Option<Shape> {
        let width = nproc.clamp(1, 2);
        let base = Shape {
            name: "",
            devices: 4,
            points: 100,
            model: ModelKind::Baseline,
            pipelined: false,
            producer_threads: None,
            processors: None,
            compute_threads: None,
            loopback_cloud: false,
            rate_per_device: 0.0,
            burst_per_device: 0,
        };
        Some(match name {
            "fanin" => Shape {
                name: "fanin",
                devices: 1024,
                points: 25,
                pipelined: true,
                producer_threads: Some(width),
                // Thread-backed consumer members, not `reactor_threads`:
                // the reactor consumer marks a partition done when it
                // fetches the sentinel, so `wait()` can stop it with
                // fetched records still unprocessed (see README). These
                // members pay the broker→cloud hop per partition in turn,
                // which over a `cloud_local` link would make 1024-partition
                // fan-in consumer-bound, so that hop is loopback.
                processors: Some(width),
                loopback_cloud: true,
                rate_per_device: 8.0,
                burst_per_device: 16,
                ..base
            },
            "model" => Shape {
                name: "model",
                points: 100,
                model: ModelKind::AutoEncoder,
                compute_threads: Some(width),
                rate_per_device: 40.0,
                burst_per_device: 100,
                ..base
            },
            _ => return None,
        })
    }

    /// The generator config of a phase; the benchmark seed fixes every
    /// phase's inputs.
    pub fn datagen(&self, seed: u64) -> DataGenConfig {
        DataGenConfig::paper(self.points).with_seed(seed)
    }
}

/// Seed of phase `index` of a run seeded `seed`.
pub fn phase_seed(seed: u64, index: u64) -> u64 {
    mix(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Payload fingerprint. The untraced run hashes the shape and three data
/// words (cheap, and unique per device stream because every device's
/// generator is seeded apart); the traced run hashes every word.
pub fn fingerprint(b: &Block, full: bool) -> u64 {
    let mut h = mix((b.points as u64) ^ ((b.features as u64) << 32));
    let n = b.data.len();
    if full {
        for v in &b.data {
            h = mix(h ^ v.to_bits());
        }
    } else if n > 0 {
        for i in [0, n / 2, n - 1] {
            h = mix(h ^ b.data[i].to_bits());
        }
    }
    h
}

#[derive(Clone, Copy)]
struct Produced {
    device: u32,
    msg_id: u64,
    fp: u64,
    due_ns: u64,
    call_ns: u64,
}

#[derive(Clone, Copy)]
struct Processed {
    msg_id: u64,
    fp: u64,
    ret_ns: u64,
    ok: bool,
}

/// What the wrappers write to: one shared log per phase.
struct MsgLog {
    epoch: Instant,
    full_hash: bool,
    tracer: Option<Arc<Tracer>>,
    parent: u64,
    produced: Mutex<Vec<Produced>>,
    processed: Mutex<Vec<Processed>>,
}

impl MsgLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

fn wrap_produce(inner: ProduceFactory, log: Arc<MsgLog>, rate: f64) -> ProduceFactory {
    Arc::new(move |ctx: &Context, device: usize| {
        let mut f = inner(ctx, device);
        let log = Arc::clone(&log);
        let mut first: Option<u64> = None;
        let mut n: u64 = 0;
        Box::new(move |ctx: &Context| {
            let call = log.now_ns();
            let t_first = *first.get_or_insert(call);
            let out = f(ctx);
            let ret = log.now_ns();
            if let Some(b) = &out {
                let due = if rate > 0.0 {
                    t_first + (n as f64 * 1e9 / rate) as u64
                } else {
                    call
                };
                let fp = fingerprint(b, log.full_hash);
                if let Some(t) = log
                    .tracer
                    .as_ref()
                    .filter(|_| fp.is_multiple_of(TRACE_ONE_IN))
                {
                    t.span("datagen.generate", log.parent, fp, call, ret);
                }
                log.produced.lock().expect("log poisoned").push(Produced {
                    device: device as u32,
                    msg_id: n,
                    fp,
                    due_ns: due,
                    call_ns: call,
                });
                n += 1;
            }
            out
        })
    })
}

fn wrap_process(inner: CloudFactory, log: Arc<MsgLog>, expect_scores: bool) -> CloudFactory {
    Arc::new(move |ctx: &Context| {
        let mut f = inner(ctx);
        let log = Arc::clone(&log);
        Box::new(move |ctx: &Context, block: &Block| {
            let call = log.now_ns();
            let out = f(ctx, block);
            let ret = log.now_ns();
            let ok = match &out {
                Ok(o) if expect_scores => o
                    .scores
                    .as_ref()
                    .is_some_and(|s| s.len() == block.points && s.iter().all(|v| v.is_finite())),
                Ok(_) => true,
                Err(_) => false,
            };
            let fp = fingerprint(block, log.full_hash);
            if let Some(t) = log
                .tracer
                .as_ref()
                .filter(|_| fp.is_multiple_of(TRACE_ONE_IN))
            {
                t.span("edge.process", log.parent, fp, call, ret);
            }
            log.processed.lock().expect("log poisoned").push(Processed {
                msg_id: block.msg_id,
                fp,
                ret_ns: ret,
                ok,
            });
            out
        })
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Paced,
    Burst,
}

/// Everything one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    pub label: String,
    pub provision_ms: f64,
    pub start_ms: f64,
    pub setup_s: f64,
    pub messages: u64,
    pub wall_s: f64,
    pub cpu_us: f64,
    /// Peak `VmRSS` during the phase minus `VmRSS` before it, MiB.
    pub rss_growth_mb: f64,
    pub latency_ms: Vec<f64>,
    pub gen_lag_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub reservations_eb: u64,
    pub busy_eb_us: u64,
    pub busy_bc_us: u64,
    pub jobs_started: u64,
    pub params_ops: u64,
    pub spans: u64,
    pub backlog_max: u64,
    pub roundtrip_us: Vec<f64>,
    pub compute_width: usize,
    pub registry: Option<MetricsRegistry>,
}

impl PhaseOut {
    pub fn throughput(&self) -> f64 {
        self.messages as f64 / self.wall_s
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.failures.push(format!("{}: {why}", self.label));
    }
}

pub struct PhaseSpec<'a> {
    pub shape: &'a Shape,
    pub kind: Kind,
    pub seed: u64,
    /// Paced phases: how long devices and gateway clients send.
    pub paced_secs: f64,
    pub tracer: Option<Arc<Tracer>>,
    pub epoch: Instant,
}

fn sleep_until(epoch: Instant, t_ns: u64) {
    let now = epoch.elapsed().as_nanos() as u64;
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

struct GatewayLoad {
    ingest: Vec<(f64, Option<u64>)>,
    scrape: Vec<f64>,
    errors: Vec<String>,
}

/// One request of an open-loop connection: latency from its due time and
/// from its send time, and what the reply check made of it.
struct Sent {
    from_due_ms: f64,
    from_send_ms: f64,
    outcome: Result<Option<u64>, String>,
}

/// One open-loop connection: request `k` is due at `due(k)` and sent then,
/// whether or not earlier ones were slow. `send` issues request `k` and
/// checks its reply.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    addr: std::net::SocketAddr,
    epoch: Instant,
    n: u64,
    due: impl Fn(u64) -> u64 + Send + 'static,
    span: &'static str,
    tracer: Option<Arc<Tracer>>,
    parent: u64,
    mut send: impl FnMut(&mut HttpClient, u64) -> Result<Option<u64>, String> + Send + 'static,
) -> std::thread::JoinHandle<Vec<Sent>> {
    std::thread::spawn(move || {
        let mut c = match HttpClient::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                return (0..n)
                    .map(|_| Sent {
                        from_due_ms: 0.0,
                        from_send_ms: 0.0,
                        outcome: Err(format!("{span}: connect: {e}")),
                    })
                    .collect()
            }
        };
        (0..n)
            .map(|k| {
                sleep_until(epoch, due(k));
                let sent = epoch.elapsed().as_nanos() as u64;
                let outcome = send(&mut c, k);
                let ret = epoch.elapsed().as_nanos() as u64;
                if let Some(t) = &tracer {
                    t.span(span, parent, k, sent, ret);
                }
                Sent {
                    from_due_ms: ret.saturating_sub(due(k)) as f64 / 1e6,
                    from_send_ms: (ret - sent) as f64 / 1e6,
                    outcome,
                }
            })
            .collect()
    })
}

/// The gateway load of a paced phase: one connection POSTs `/produce` on a
/// fixed schedule (latency from each request's due time), one GETs
/// `/metrics` on the same schedule (latency from send).
fn gateway_load(
    addr: std::net::SocketAddr,
    epoch: Instant,
    secs: f64,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    parent: u64,
) -> GatewayLoad {
    let t0 = epoch.elapsed().as_nanos() as u64;
    let n = (GATEWAY_RATE * secs).round() as u64;
    let due = move |k: u64| t0 + (k as f64 * 1e9 / GATEWAY_RATE) as u64;
    let bodies: Vec<Vec<u8>> = (0..n).map(|k| ingest_body(seed, k)).collect();
    let path = format!("/produce?topic={INGEST_TOPIC}&partition=0");
    let ingest = open_loop(
        addr,
        epoch,
        n,
        due,
        "gateway.produce",
        tracer.clone(),
        parent,
        move |c, k| match c.post(&path, &bodies[k as usize]) {
            Ok(rep) if rep.status == 200 => Ok(parse_offset(&rep.body)),
            Ok(rep) => Err(format!("POST /produce -> {}", rep.status)),
            Err(e) => Err(format!("POST /produce: {e}")),
        },
    );
    let scrape = open_loop(
        addr,
        epoch,
        n,
        due,
        "gateway.scrape",
        tracer,
        parent,
        |c, _| match c.get("/metrics") {
            Ok(rep) if rep.status == 200 => std::str::from_utf8(&rep.body)
                .map_err(|e| e.to_string())
                .and_then(pilot_metrics::validate_prometheus)
                .map(|_| None)
                .map_err(|e| format!("GET /metrics: invalid exposition: {e}")),
            Ok(rep) => Err(format!("GET /metrics -> {}", rep.status)),
            Err(e) => Err(format!("GET /metrics: {e}")),
        },
    );
    let mut load = GatewayLoad {
        ingest: Vec::new(),
        scrape: Vec::new(),
        errors: Vec::new(),
    };
    for s in ingest.join().expect("ingest client panicked") {
        if let Err(e) = &s.outcome {
            load.errors.push(e.clone());
        }
        load.ingest.push((s.from_due_ms, s.outcome.ok().flatten()));
    }
    for s in scrape.join().expect("scrape client panicked") {
        match s.outcome {
            Ok(_) => load.scrape.push(s.from_send_ms),
            Err(e) => load.errors.push(e),
        }
    }
    load
}

pub fn ingest_body(seed: u64, k: u64) -> Vec<u8> {
    let mut s = mix(seed ^ k);
    (0..INGEST_BYTES)
        .map(|_| {
            s = mix(s);
            s as u8
        })
        .collect()
}

fn parse_offset(body: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(body).ok()?;
    let rest = &s[s.find("\"offset\":")? + 9..];
    rest.trim_end_matches('}').trim().parse().ok()
}

/// Fixed-interval sampler of the traced run: peak consumer backlog.
fn sampler(
    broker: pilot_broker::Broker,
    group: String,
    topic: String,
    stop: Arc<AtomicBool>,
    backlog_max: Arc<AtomicU64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if let Ok(lags) = broker.partition_lags(&group, &topic) {
                let backlog: u64 = lags.iter().map(|l| l.lag()).sum();
                backlog_max.fetch_max(backlog, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    })
}

/// Peak resident memory while a phase runs: samples `VmRSS` every 5 ms
/// until `stop` is raised and returns the largest reading, in MiB.
fn rss_sampler(stop: Arc<AtomicBool>) -> std::thread::JoinHandle<f64> {
    std::thread::spawn(move || {
        let mut peak = crate::sys::rss_mb();
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
            peak = peak.max(crate::sys::rss_mb());
        }
        peak
    })
}

fn links(seed: u64, loopback_cloud: bool) -> (Link, Link) {
    let broker_cloud = if loopback_cloud {
        profiles::loopback("broker->cloud")
    } else {
        profiles::cloud_local("broker->cloud", seed ^ 1)
    };
    (
        profiles::cloud_local("edge->broker", seed).build(),
        broker_cloud.build(),
    )
}

/// Run one phase to completion and check its outputs.
pub fn run_phase(spec: &PhaseSpec<'_>) -> PhaseOut {
    let shape = spec.shape;
    let mut out = PhaseOut {
        label: format!("{:?} phase {:x}", spec.kind, spec.seed),
        ..PhaseOut::default()
    };
    let parent = spec.tracer.as_ref().map(|t| t.next_id()).unwrap_or(0);
    let phase_start = spec.epoch.elapsed().as_nanos() as u64;
    let per_device = match spec.kind {
        Kind::Paced => (shape.rate_per_device * spec.paced_secs).round().max(1.0) as usize,
        Kind::Burst => shape.burst_per_device,
    };
    let rate = match spec.kind {
        Kind::Paced => shape.rate_per_device,
        Kind::Burst => 0.0,
    };

    let rss_stop = Arc::new(AtomicBool::new(false));
    let rss_start = crate::sys::rss_mb();
    let rss = rss_sampler(Arc::clone(&rss_stop));

    // Set-up: provisioning plus start() until the pipeline runs.
    let t0 = Instant::now();
    let svc = PilotComputeService::new();
    let edge_cores = shape.producer_threads.unwrap_or(shape.devices);
    let cloud_cores = shape.processors.unwrap_or(shape.devices);
    let edge = svc
        .submit_and_wait(
            PilotDescription::local(edge_cores, 4.0 * edge_cores as f64).with_site("lrz"),
            Duration::from_secs(10),
        )
        .expect("edge pilot");
    let cloud = svc
        .submit_and_wait(
            PilotDescription::local(cloud_cores, 44.0).with_site("lrz"),
            Duration::from_secs(10),
        )
        .expect("cloud pilot");
    out.provision_ms = t0.elapsed().as_secs_f64() * 1e3;

    let log = Arc::new(MsgLog {
        epoch: spec.epoch,
        full_hash: spec.tracer.is_some(),
        tracer: spec.tracer.clone(),
        parent,
        produced: Mutex::new(Vec::with_capacity(per_device * shape.devices)),
        processed: Mutex::new(Vec::with_capacity(per_device * shape.devices)),
    });
    let (link_eb, link_bc) = links(spec.seed, shape.loopback_cloud);
    let mut b = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(wrap_produce(
            datagen_produce_factory(shape.datagen(spec.seed), per_device),
            Arc::clone(&log),
            rate,
        ))
        .process_cloud_function(wrap_process(
            paper_model_factory(shape.model, 32),
            Arc::clone(&log),
            shape.model != ModelKind::Baseline,
        ))
        // One consumer member per partition (the paper's 1:1 ratio) unless
        // the shape sets `processors`.
        .devices(shape.devices)
        .rate_per_device(rate)
        .link_edge_to_broker(link_eb.clone())
        .link_broker_to_cloud(link_bc.clone())
        .gateway(pilot_gateway::GatewayConfig::default());
    if shape.pipelined {
        b = b
            .batch_max_bytes(64 * 1024)
            .linger(Duration::from_millis(2));
    }
    if let Some(n) = shape.producer_threads {
        b = b.producer_threads(n);
    }
    if let Some(n) = shape.processors {
        b = b.processors(n);
    }
    if let Some(n) = shape.compute_threads {
        b = b.compute_threads(n);
    }
    let t_start = Instant::now();
    let running = b.start().expect("pipeline start");
    out.start_ms = t_start.elapsed().as_secs_f64() * 1e3;
    out.setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = crate::sys::process_cpu_us();

    let broker = running.broker();
    let topic = running.topic().to_string();
    let group = format!("pilot-edge-{}", running.job_id());
    let ctx = running.context().clone();
    let jobs0 = ctx.compute.jobs_started();
    let stop = Arc::new(AtomicBool::new(false));
    let backlog_max = Arc::new(AtomicU64::new(0));
    let sampler = spec.tracer.as_ref().map(|_| {
        sampler(
            broker.clone(),
            group.clone(),
            topic.clone(),
            Arc::clone(&stop),
            Arc::clone(&backlog_max),
        )
    });

    let mut ingest_offsets: Vec<Option<u64>> = Vec::new();
    if spec.kind == Kind::Paced {
        broker
            .create_topic(INGEST_TOPIC, 1, RetentionPolicy::unbounded())
            .expect("ingest topic");
        let addr = running.gateway_addr().expect("gateway address");
        let load = gateway_load(
            addr,
            spec.epoch,
            spec.paced_secs,
            spec.seed,
            spec.tracer.clone(),
            parent,
        );
        // Both connections ran the same schedule.
        out.attempted += 2 * load.ingest.len() as u64;
        out.ingest_ms = load.ingest.iter().map(|(l, _)| *l).collect();
        ingest_offsets = load.ingest.iter().map(|(_, o)| *o).collect();
        out.scrape_ms = load.scrape;
        let n_err = load.errors.len() as u64;
        if n_err > 0 {
            out.fail(n_err, format!("gateway: {}", load.errors[0]));
        }
        if spec.tracer.is_some() {
            // An idle keep-alive request to a trivial route: the gateway's
            // fixed cost per request.
            if let Ok(mut c) = HttpClient::connect(addr) {
                for _ in 0..400 {
                    let s = Instant::now();
                    if c.get("/control/journal").is_ok() {
                        out.roundtrip_us.push(s.elapsed().as_secs_f64() * 1e6);
                    }
                }
            }
        }
    }

    let summary = running.wait(PHASE_DEADLINE);
    let cpu1 = crate::sys::process_cpu_us();
    rss_stop.store(true, Ordering::Relaxed);
    out.rss_growth_mb = rss.join().expect("rss sampler panicked") - rss_start;
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = sampler {
        h.join().expect("sampler panicked");
    }
    out.cpu_us = cpu1 - cpu0;
    out.backlog_max = backlog_max.load(Ordering::Relaxed);
    out.jobs_started = ctx.compute.jobs_started() - jobs0;
    out.compute_width = ctx.compute.threads();
    let ps = ctx.params.stats();
    out.params_ops = ps.gets.load(Ordering::Relaxed) + ps.puts.load(Ordering::Relaxed);
    out.spans = ctx.metrics.span_count() as u64;
    out.reservations_eb = link_eb.reservations();
    out.busy_eb_us = link_eb.busy_us();
    out.busy_bc_us = link_bc.busy_us();

    // Oracle: every partition reached its sentinel within the deadline.
    match &summary {
        Ok(s) if s.errors > 0 => out.fail(s.errors, format!("{} processing errors", s.errors)),
        Ok(_) => {}
        Err(e) => out.fail(1, format!("pipeline did not drain: {e}")),
    }
    if let Ok(lags) = broker.partition_lags(&group, &topic) {
        // One failed check; the records themselves count as missing below.
        let open = lags.iter().filter(|l| l.lag() > 0).count();
        if open > 0 {
            out.fail(1, format!("{open} partitions left uncommitted records"));
        }
    }

    check_delivery(&log, rate > 0.0, &mut out, shape.devices, per_device);
    if spec.kind == Kind::Paced {
        check_ingest(&broker, &ingest_offsets, spec.seed, &mut out);
    }
    if spec.kind == Kind::Paced && spec.tracer.is_some() {
        out.registry = Some(ctx.metrics.clone());
    }
    drop(ctx);
    drop(broker);
    drop(svc);
    if let Some(t) = &spec.tracer {
        t.record(Span {
            name: match spec.kind {
                Kind::Paced => "phase.paced",
                Kind::Burst => "phase.burst",
            },
            id: parent,
            parent: 0,
            msg: 0,
            start_ns: phase_start,
            end_ns: spec.epoch.elapsed().as_nanos() as u64,
        });
    }
    out
}

/// Oracle: the produced and processed `(device, msg_id, fingerprint)` sets
/// are equal, every processed message returned a valid outcome, and (paced)
/// every message's latency from its due time.
fn check_delivery(
    log: &MsgLog,
    paced: bool,
    out: &mut PhaseOut,
    devices: usize,
    per_device: usize,
) {
    let produced = std::mem::take(&mut *log.produced.lock().expect("log poisoned"));
    let processed = std::mem::take(&mut *log.processed.lock().expect("log poisoned"));
    out.attempted += (devices * per_device) as u64;
    out.messages = produced.len() as u64;
    // Every device produced its whole stream.
    let mut per_dev = vec![0usize; devices];
    let (mut first, mut last) = (u64::MAX, 0u64);
    for p in &produced {
        per_dev[p.device as usize] += 1;
        first = first.min(p.call_ns);
    }
    let short: usize = per_dev.iter().map(|&c| per_device.saturating_sub(c)).sum();
    if short > 0 {
        out.fail(
            short as u64,
            format!("{short} messages were never produced"),
        );
    }
    let mut by_key: HashMap<(u64, u64), (Produced, u32)> = HashMap::with_capacity(produced.len());
    for p in &produced {
        if by_key.insert((p.msg_id, p.fp), (*p, 0)).is_some() {
            out.fail(1, format!("duplicate produced message {}", p.msg_id));
        }
    }
    let (mut bad, mut unknown) = (0u64, 0u64);
    for q in &processed {
        last = last.max(q.ret_ns);
        if !q.ok {
            bad += 1;
        }
        match by_key.get_mut(&(q.msg_id, q.fp)) {
            Some((p, seen)) => {
                *seen += 1;
                let base = if paced { p.due_ns } else { p.call_ns };
                out.latency_ms
                    .push(q.ret_ns.saturating_sub(base) as f64 / 1e6);
                if paced {
                    out.gen_lag_ms
                        .push(p.call_ns.saturating_sub(p.due_ns) as f64 / 1e6);
                }
            }
            None => unknown += 1,
        }
    }
    let missing = by_key.values().filter(|(_, s)| *s == 0).count() as u64;
    let dup = by_key
        .values()
        .map(|(_, s)| s.saturating_sub(1) as u64)
        .sum::<u64>();
    if bad > 0 {
        out.fail(
            bad,
            format!("{bad} process calls returned an invalid outcome"),
        );
    }
    if missing + unknown + dup > 0 {
        out.fail(
            missing + unknown + dup,
            format!("delivery sets differ: {missing} missing, {unknown} unknown, {dup} duplicated"),
        );
    }
    out.wall_s = last.saturating_sub(first) as f64 / 1e9;
}

/// Oracle: accepted `POST /produce` offsets are contiguous from 0, and the
/// ingest topic holds exactly those payloads.
fn check_ingest(
    broker: &pilot_broker::Broker,
    offsets: &[Option<u64>],
    seed: u64,
    out: &mut PhaseOut,
) {
    let accepted: Vec<(u64, u64)> = offsets
        .iter()
        .enumerate()
        .filter_map(|(k, o)| o.map(|o| (k as u64, o)))
        .collect();
    if accepted
        .iter()
        .enumerate()
        .any(|(i, &(_, o))| o != i as u64)
    {
        out.fail(1, "ingest offsets are not contiguous".into());
        return;
    }
    let head = broker.high_watermark(INGEST_TOPIC, 0).unwrap_or(0);
    if head != accepted.len() as u64 {
        out.fail(
            1,
            format!("ingest head {head} != {} accepted", accepted.len()),
        );
        return;
    }
    let mut at = 0u64;
    while at < head {
        match broker.fetch(INGEST_TOPIC, 0, at, 256, Duration::from_millis(100)) {
            Ok(recs) if !recs.is_empty() => {
                for r in recs {
                    let k = accepted[at as usize].0;
                    if r.value.as_ref() != ingest_body(seed, k).as_slice() {
                        out.fail(1, format!("ingest record {at} differs from POST {k}"));
                        return;
                    }
                    at += 1;
                }
            }
            Ok(_) => {
                out.fail(1, format!("ingest read stalled at {at}"));
                return;
            }
            Err(e) => {
                out.fail(1, format!("ingest read at {at}: {e}"));
                return;
            }
        }
    }
}
