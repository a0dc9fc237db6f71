//! Layer replays: direct, single-threaded calls into each crate's public
//! functions on the workload's own generated inputs. Each replay reports
//! wall time per operation (the per-layer metric) and process CPU per
//! operation (what the ledger adds up). They are also the single-threaded
//! baseline of the same job.

use crate::sys::process_cpu_us;
use crate::trace::Tracer;
use crate::workload::{PhaseOut, Shape};
use pilot_broker::{Broker, DurabilityConfig, Record, RetentionPolicy, SyncPolicy};
use pilot_dataflow::ComputePool;
use pilot_datagen::{Block, Codec, DataGenConfig, DataGenerator};
use pilot_metrics::{Component, MetricsRegistry};
use pilot_ml::federated::FedAvgAccumulator;
use pilot_ml::{AutoEncoder, AutoEncoderConfig, Dataset, OutlierModel};
use pilot_params::{MergePolicy, ParameterServer};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cost of one operation of a replay.
#[derive(Clone, Copy, Default)]
pub struct Cost {
    pub wall_us: f64,
    pub cpu_us: f64,
}

/// Records one span per replay under the traced run's `replays` span.
struct Spans<'a> {
    tracer: &'a Tracer,
    parent: u64,
}

impl Spans<'_> {
    fn around<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.tracer.now_ns();
        let out = f();
        self.tracer
            .span(name, self.parent, 0, start, self.tracer.now_ns());
        out
    }
}

/// Repeat `batch` (which performs and returns some number of operations)
/// until `budget` has passed and at least three batches ran; report the
/// median per-operation cost over batches.
fn timed(sp: &Spans, name: &'static str, budget: Duration, batch: impl FnMut() -> usize) -> Cost {
    sp.around(name, || timed_batches(budget, batch))
}

fn timed_batches(budget: Duration, mut batch: impl FnMut() -> usize) -> Cost {
    let start = Instant::now();
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    while wall.len() < 3 || start.elapsed() < budget {
        let c0 = process_cpu_us();
        let w0 = Instant::now();
        let ops = batch().max(1) as f64;
        wall.push(w0.elapsed().as_secs_f64() * 1e6 / ops);
        cpu.push((process_cpu_us() - c0) / ops);
    }
    Cost {
        wall_us: crate::stats::median(&wall),
        cpu_us: crate::stats::median(&cpu),
    }
}

pub struct Replays {
    pub generate: Cost,
    pub encode: Cost,
    pub decode: Cost,
    pub append: Cost,
    pub fetch: Cost,
    pub commit: Cost,
    pub append_group: Cost,
    pub append_osonly: Cost,
    pub sync_ms: f64,
    pub partial_fit: Cost,
    pub score: Cost,
    pub params_update: Cost,
    pub get_many: Cost,
    pub put_many: Cost,
    pub fedavg_fold: Cost,
    pub span: Cost,
    pub render: Cost,
}

/// The first `n` blocks `device` produces under `cfg` (the per-device
/// seeding of `datagen_produce_factory`).
fn device_blocks(cfg: &DataGenConfig, device: usize, n: usize) -> Vec<Block> {
    let cfg = cfg.clone().with_seed(cfg.seed ^ ((device as u64) << 32));
    DataGenerator::new(cfg).blocks(n)
}

pub fn run(
    shape: &Shape,
    seed: u64,
    paced: &PhaseOut,
    dir: &Path,
    budget: Duration,
    tracer: &Tracer,
    parent: u64,
) -> Replays {
    let sp = Spans { tracer, parent };
    let cfg = shape.datagen(seed);
    // A working set of 8 messages from each of (up to) 8 devices.
    let blocks: Vec<Block> = (0..shape.devices.min(8))
        .flat_map(|d| device_blocks(&cfg, d, 8))
        .collect();
    let encoded: Vec<bytes::Bytes> = blocks
        .iter()
        .map(|b| pilot_datagen::encode_with(Codec::F64, b, 1))
        .collect();
    let record_bytes = encoded[0].len();

    let mut gen = DataGenerator::new(cfg.clone());
    let generate = timed(&sp, "replay.datagen.generate", budget, || {
        for _ in 0..16 {
            black_box(gen.next_block());
        }
        16
    });
    let encode = timed(&sp, "replay.datagen.encode", budget, || {
        for b in &blocks {
            black_box(pilot_datagen::encode_with(Codec::F64, b, 1));
        }
        blocks.len()
    });
    let decode = timed(&sp, "replay.datagen.decode", budget, || {
        for e in &encoded {
            black_box(pilot_datagen::codec::decode_any(e).expect("decode"));
        }
        encoded.len()
    });

    let (append, fetch, commit) = sp.around("replay.broker", || {
        broker_replay(shape.devices, &encoded, budget)
    });
    let (append_group, sync_ms) = sp.around("replay.broker.storage.group", || {
        storage_replay(
            &dir.join("replay-group"),
            SyncPolicy::group_commit_default(),
            &encoded,
            budget,
        )
    });
    let (append_osonly, _) = sp.around("replay.broker.storage.osonly", || {
        storage_replay(
            &dir.join("replay-osonly"),
            SyncPolicy::OsOnly,
            &encoded,
            budget,
        )
    });

    // The autoencoder replays at the width the pipeline's pool ran with.
    let pool = Arc::new(if paced.compute_width > 1 {
        ComputePool::new(paced.compute_width)
    } else {
        ComputePool::sequential()
    });
    let mut ae = AutoEncoder::new(AutoEncoderConfig::paper());
    ae.set_compute_pool(Arc::clone(&pool));
    let partial_fit = timed(&sp, "replay.ml.partial_fit", budget, || {
        for b in &blocks {
            ae.partial_fit(&Dataset::new(&b.data, b.points, b.features));
        }
        blocks.len()
    });
    let score = timed(&sp, "replay.ml.score", budget, || {
        for b in &blocks {
            black_box(ae.score(&Dataset::new(&b.data, b.points, b.features)));
        }
        blocks.len()
    });
    let weights = ae.weights();
    let ps = ParameterServer::new();
    let params_update = timed(&sp, "replay.params.update", budget, || {
        for _ in 0..32 {
            black_box(ps.update("model:1", MergePolicy::Assign, &weights));
        }
        32
    });

    // Federation-style replays over one streaming-mean update per device.
    let updates: Vec<(String, Vec<f64>, u64)> = (0..shape.devices)
        .map(|d| {
            let b = &blocks[d % blocks.len()];
            let mut m = vec![0.0; b.features];
            for pt in b.data.chunks_exact(b.features) {
                for (s, v) in m.iter_mut().zip(pt) {
                    *s += v / b.points as f64;
                }
            }
            (format!("cell:{d}"), m, b.points as u64)
        })
        .collect();
    let keys: Vec<&str> = updates.iter().map(|(k, _, _)| k.as_str()).collect();
    let put_many = timed(&sp, "replay.params.put_many", budget, || {
        let entries = updates
            .iter()
            .map(|(k, m, n)| {
                let mut v = Vec::with_capacity(m.len() + 1);
                v.push(*n as f64);
                v.extend_from_slice(m);
                (k.clone(), v)
            })
            .collect();
        black_box(ps.put_many(entries));
        1
    });
    let get_many = timed(&sp, "replay.params.get_many", budget, || {
        black_box(ps.get_many(&keys));
        1
    });
    let mut acc = FedAvgAccumulator::new();
    let mut global = Vec::new();
    let fedavg_fold = timed(&sp, "replay.ml.fedavg_fold", budget, || {
        for (_, m, n) in &updates {
            acc.push(m, *n);
        }
        assert!(acc.finish_into(&mut global), "FedAvg fold failed");
        1
    });

    let spans = MetricsRegistry::new();
    let mut msg = 0u64;
    let span = timed(&sp, "replay.metrics.span", budget, || {
        for _ in 0..256 {
            let s = spans
                .start_span(1, msg, Component::Broker)
                .bytes(record_bytes as u64);
            spans.finish(s);
            msg += 1;
        }
        spans.clear();
        256
    });
    let registry = paced
        .registry
        .as_ref()
        .expect("a traced paced phase keeps its registry");
    let render = timed(&sp, "replay.gateway.render", budget, || {
        black_box(pilot_metrics::prometheus_exposition(registry));
        1
    });

    Replays {
        generate,
        encode,
        decode,
        append,
        fetch,
        commit,
        append_group,
        append_osonly,
        sync_ms,
        partial_fit,
        score,
        params_update,
        get_many,
        put_many,
        fedavg_fold,
        span,
        render,
    }
}

/// In-memory broker at the workload's record size and partition count:
/// append every record round-robin, fetch them back four at a time (the
/// pipeline's default fetch budget), and commit after each fetch.
fn broker_replay(
    partitions: usize,
    encoded: &[bytes::Bytes],
    budget: Duration,
) -> (Cost, Cost, Cost) {
    let per_round = partitions.max(encoded.len()).min(4096);
    let mut round = 0;
    let mut append = Vec::new();
    let mut fetch = Vec::new();
    let mut commit = Vec::new();
    let start = Instant::now();
    while append.len() < 3 || start.elapsed() < budget * 3 {
        let broker = Broker::new();
        let topic = format!("replay-{round}");
        round += 1;
        broker
            .create_topic(&topic, partitions, RetentionPolicy::unbounded())
            .expect("replay topic");
        let t = broker.topic(&topic).expect("replay topic");
        let c0 = process_cpu_us();
        let w0 = Instant::now();
        for i in 0..per_round {
            t.append(
                i % partitions,
                Record::new(encoded[i % encoded.len()].clone()).with_timestamp(i as u64),
            )
            .expect("append");
        }
        append.push((w0.elapsed().as_secs_f64() * 1e6, process_cpu_us() - c0));
        let mut batches = Vec::new();
        let c0 = process_cpu_us();
        let w0 = Instant::now();
        for p in 0..partitions {
            let mut at = 0;
            loop {
                let recs = broker
                    .fetch(&topic, p, at, 4, Duration::ZERO)
                    .expect("fetch");
                if recs.is_empty() {
                    break;
                }
                at += recs.len() as u64;
                batches.push((p, at));
                black_box(recs);
            }
        }
        fetch.push((w0.elapsed().as_secs_f64() * 1e6, process_cpu_us() - c0));
        let c0 = process_cpu_us();
        let w0 = Instant::now();
        for &(p, at) in &batches {
            broker.commit_offset("replay", &topic, p, at);
        }
        commit.push((w0.elapsed().as_secs_f64() * 1e6, process_cpu_us() - c0));
    }
    let per = |v: &[(f64, f64)]| Cost {
        wall_us: crate::stats::median(
            &v.iter().map(|x| x.0 / per_round as f64).collect::<Vec<_>>(),
        ),
        cpu_us: crate::stats::median(&v.iter().map(|x| x.1 / per_round as f64).collect::<Vec<_>>()),
    };
    (per(&append), per(&fetch), per(&commit))
}

/// One durable partition under `policy`: append ~4 MiB of the workload's
/// records and sync, with the sync inside the clock (topic creation and
/// directory removal outside it). Returns the cost per append and the mean
/// fsync time in ms.
fn storage_replay(
    dir: &Path,
    policy: SyncPolicy,
    encoded: &[bytes::Bytes],
    budget: Duration,
) -> (Cost, f64) {
    let n = ((4usize << 20) / encoded[0].len()).clamp(8, 4096);
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let (mut fsync_us, mut fsyncs) = (0, 0);
    let start = Instant::now();
    while wall.len() < 3 || start.elapsed() < budget {
        let d = dir.join(format!("r{}", wall.len()));
        std::fs::remove_dir_all(&d).ok();
        let broker = Broker::new();
        broker
            .create_topic_durable(
                "replay",
                1,
                RetentionPolicy::unbounded(),
                &DurabilityConfig::new(&d).with_policy(policy),
            )
            .expect("durable replay topic");
        let t = broker.topic("replay").expect("replay topic");
        let c0 = process_cpu_us();
        let w0 = Instant::now();
        for i in 0..n {
            t.append(
                0,
                Record::new(encoded[i % encoded.len()].clone()).with_timestamp(i as u64),
            )
            .expect("append");
        }
        t.sync();
        wall.push(w0.elapsed().as_secs_f64() * 1e6 / n as f64);
        cpu.push((process_cpu_us() - c0) / n as f64);
        let stats = t.log_stats();
        fsync_us += stats.fsync_us;
        fsyncs += stats.fsync_count;
        drop(t);
        drop(broker);
        std::fs::remove_dir_all(&d).ok();
    }
    std::fs::remove_dir_all(dir).ok();
    let cost = Cost {
        wall_us: crate::stats::median(&wall),
        cpu_us: crate::stats::median(&cpu),
    };
    (cost, fsync_us as f64 / fsyncs.max(1) as f64 / 1e3)
}
