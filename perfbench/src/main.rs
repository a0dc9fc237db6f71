//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fanin|model> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) in six rounds, each a
//! paced phase followed by as many burst phases as fit the round's share of
//! the run, every phase on freshly provisioned pilots.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records
//! benchmark-side spans, runs the samplers and layer replays, writes
//! `.bench_run/trace-<workload>-<seed>.json`, and prints the per-layer
//! metrics. The last stdout line is the result object; the line before it
//! holds the run metadata, sample counts and findings.

mod replay;
mod stats;
mod sys;
mod trace;
mod workload;

use stats::{median, percentile, supported_percentile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{phase_seed, run_phase, Kind, PhaseOut, PhaseSpec, Shape};

/// Rounds per run. Spreading each phase kind over the whole run, and taking
/// the median over rounds, keeps a slow stretch of the host from setting a
/// run's figure.
const ROUNDS: u64 = 6;
/// Share of `--seconds` given to the paced phases (split over the rounds);
/// bursts repeat for `BURST_SHARE`, and the traced run's replays get
/// `REPLAY_SHARE`.
const PACED_SHARE: f64 = 0.45;
const BURST_SHARE: f64 = 0.35;
const REPLAY_SHARE: f64 = 0.2;
/// Slices of the replay budget: one per replay, three for the broker's
/// append/fetch/commit replay.
const REPLAY_SLICES: u32 = 17;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be >= 1".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    pilot_metrics::push_json_string(&mut out, s);
    out
}

/// Metrics in output order: `(name, value, unit)`.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, v, unit)) in self.0.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number ({v})"));
            }
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        out.push('}');
        Ok(out)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <fanin|model> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(shape) = Shape::named(&args.workload, sys::nproc()) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let run_dir = PathBuf::from(BENCH_DIR).join(format!(
        "{}-{}-{}",
        shape.name,
        args.seed,
        std::process::id()
    ));
    let result = run(&shape, &args, &run_dir);
    std::fs::remove_dir_all(&run_dir).ok();
    match result {
        Ok((meta, result)) => {
            println!("{meta}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Where runs keep their scratch logs and traced runs their trace file,
/// relative to the checkout root.
const BENCH_DIR: &str = ".bench_run";

/// Median over phases of a per-phase figure.
fn median_of<'a>(
    phases: impl IntoIterator<Item = &'a PhaseOut>,
    f: impl Fn(&PhaseOut) -> f64,
) -> f64 {
    median(&phases.into_iter().map(f).collect::<Vec<_>>())
}

/// Selects one latency series of a phase.
type Series = fn(&PhaseOut) -> &Vec<f64>;

/// Median over the paced phases of each phase's `q`-th percentile of
/// `series`, warning when a phase has fewer than ten samples beyond it.
fn paced_percentile(paced: &[PhaseOut], name: &str, series: Series, q: f64) -> f64 {
    median_of(paced, |p| supported_percentile(name, series(p), q))
}

/// Runs the workload; returns the metadata line and the result line.
fn run(shape: &Shape, args: &Args, run_dir: &std::path::Path) -> Result<(String, String), String> {
    let epoch = Instant::now();
    std::fs::create_dir_all(run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let tracer = args.trace.then(|| Arc::new(Tracer::new(epoch)));
    let secs = args.seconds as f64;
    let spec = |kind, index, traced: bool| PhaseSpec {
        shape,
        kind,
        seed: phase_seed(args.seed, index),
        paced_secs: PACED_SHARE * secs / ROUNDS as f64,
        tracer: if traced { tracer.clone() } else { None },
        epoch,
    };

    // A traced run alternates untraced and traced bursts, so the tracing
    // overhead is measured within one process.
    let mut paced: Vec<PhaseOut> = Vec::new();
    let mut bursts: Vec<(bool, PhaseOut)> = Vec::new();
    let mut index = 0;
    for _ in 0..ROUNDS {
        paced.push(run_phase(&spec(Kind::Paced, index, args.trace)));
        index += 1;
        let t_round = Instant::now();
        let mut in_round = 0;
        while in_round < 2 || t_round.elapsed().as_secs_f64() < BURST_SHARE * secs / ROUNDS as f64 {
            let traced = args.trace && bursts.len() % 2 == 1;
            bursts.push((traced, run_phase(&spec(Kind::Burst, index, traced))));
            index += 1;
            in_round += 1;
        }
    }

    let phases: Vec<&PhaseOut> = paced.iter().chain(bursts.iter().map(|(_, b)| b)).collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let failures: Vec<String> = phases.iter().flat_map(|p| p.failures.clone()).collect();
    let untraced: Vec<&PhaseOut> = bursts.iter().filter(|(t, _)| !t).map(|(_, b)| b).collect();
    let traced: Vec<&PhaseOut> = bursts.iter().filter(|(t, _)| *t).map(|(_, b)| b).collect();
    let throughput = median_of(untraced.iter().copied(), PhaseOut::throughput);
    let all_bursts = || bursts.iter().map(|(_, b)| b);
    let burst_msgs: u64 = all_bursts().map(|b| b.messages).sum::<u64>().max(1);
    let per_burst_msg =
        |f: fn(&PhaseOut) -> u64| all_bursts().map(f).sum::<u64>() as f64 / burst_msgs as f64;
    let latency_p50 = paced_percentile(&paced, "latency", |p| &p.latency_ms, 50.0);

    let mut m = Metrics(Vec::new());
    let mut findings: Vec<(&str, f64)> = Vec::new();
    if !args.trace {
        m.put(
            "setup_s",
            median_of(phases.iter().copied(), |p| p.setup_s),
            "s",
        );
        m.put("throughput_msgs", throughput, "msg/s");
        m.put("latency_p50_ms", latency_p50, "ms");
        m.put(
            "ingest_p50_ms",
            paced_percentile(&paced, "ingest", |p| &p.ingest_ms, 50.0),
            "ms",
        );
        m.put(
            "scrape_p50_ms",
            paced_percentile(&paced, "scrape", |p| &p.scrape_ms, 50.0),
            "ms",
        );
        m.put(
            "rss_growth_mb",
            paced.iter().map(|p| p.rss_growth_mb).fold(0.0, f64::max),
            "MiB",
        );
    } else {
        let tracer = tracer.as_ref().expect("traced run has a tracer");
        let budget = Duration::from_secs_f64(REPLAY_SHARE * secs / REPLAY_SLICES as f64);
        let last = paced.last().expect("at least one paced phase");
        let replays_id = tracer.next_id();
        let replay_start = tracer.now_ns();
        let r = replay::run(
            shape,
            phase_seed(args.seed, 0),
            last,
            run_dir,
            budget,
            tracer,
            replays_id,
        );
        tracer.record(trace::Span {
            name: "replays",
            id: replays_id,
            parent: 0,
            msg: 0,
            start_ns: replay_start,
            end_ns: tracer.now_ns(),
        });
        let self_t = trace::self_times(&tracer.spans());
        let mean_self = |name: &str| {
            self_t
                .get(name)
                .map(|(n, total)| total / (*n).max(1) as f64)
                .unwrap_or(f64::NAN)
        };
        let sum = |f: fn(&PhaseOut) -> f64| paced.iter().map(f).sum::<f64>();
        let paced_msgs = sum(|p| p.messages as f64);
        let paced_wall_us = sum(|p| p.wall_s) * 1e6;
        let roundtrip: Vec<f64> = paced.iter().flat_map(|p| p.roundtrip_us.clone()).collect();
        let params_per_msg = per_burst_msg(|b| b.params_ops);
        let spans_per_msg = per_burst_msg(|b| b.spans);
        let jobs_per_msg = per_burst_msg(|b| b.jobs_started);
        let burst_p50 = median_of(all_bursts(), |b| percentile(&b.latency_ms, 50.0));
        let cpu_per_msg = median_of(untraced.iter().copied(), |b| {
            b.cpu_us / b.messages.max(1) as f64
        });
        // What the replays account for, per message: one generate, encode,
        // decode, append, fetch and commit each; a model fit and score when
        // there is a model; and the parameter-server and span operations the
        // bursts counted.
        let model_ops = if shape.model == pilot_ml::ModelKind::Baseline {
            0.0
        } else {
            1.0
        };
        let explained = r.generate.cpu_us
            + r.encode.cpu_us
            + r.decode.cpu_us
            + r.append.cpu_us
            + r.fetch.cpu_us
            + r.commit.cpu_us
            + model_ops * (r.partial_fit.cpu_us + r.score.cpu_us)
            + params_per_msg * r.params_update.cpu_us
            + spans_per_msg * r.span.cpu_us;

        m.put(
            "core.provision_ms",
            median_of(phases.iter().copied(), |p| p.provision_ms),
            "ms",
        );
        m.put(
            "edge.start_ms",
            median_of(phases.iter().copied(), |p| p.start_ms),
            "ms",
        );
        m.put("datagen.generate_us", mean_self("datagen.generate"), "us");
        m.put("datagen.encode_us", r.encode.wall_us, "us");
        m.put("datagen.decode_us", r.decode.wall_us, "us");
        m.put(
            "netsim.edge_broker.reservations_per_msg",
            sum(|p| p.reservations_eb as f64) / paced_msgs,
            "ratio",
        );
        m.put(
            "netsim.edge_broker.busy_share",
            sum(|p| p.busy_eb_us as f64) / paced_wall_us,
            "ratio",
        );
        m.put(
            "netsim.broker_cloud.busy_share",
            sum(|p| p.busy_bc_us as f64) / paced_wall_us,
            "ratio",
        );
        m.put("broker.append_us", r.append.wall_us, "us");
        m.put("broker.fetch_us", r.fetch.wall_us, "us");
        m.put("broker.commit_us", r.commit.wall_us, "us");
        m.put(
            "broker.backlog_max",
            paced.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
            "count",
        );
        m.put(
            "broker.storage.append_group_us",
            r.append_group.wall_us,
            "us",
        );
        m.put(
            "broker.storage.append_osonly_us",
            r.append_osonly.wall_us,
            "us",
        );
        m.put("broker.storage.sync_ms", r.sync_ms, "ms");
        // Tails pool every paced phase of the run (each phase alone has too
        // few samples beyond its p99).
        let pooled = |f: Series| {
            paced
                .iter()
                .flat_map(|p| f(p).iter().copied())
                .collect::<Vec<f64>>()
        };
        m.put(
            "tail.latency_p99_ms",
            supported_percentile("latency", &pooled(|p| &p.latency_ms), 99.0),
            "ms",
        );
        m.put(
            "tail.ingest_p99_ms",
            supported_percentile("ingest", &pooled(|p| &p.ingest_ms), 99.0),
            "ms",
        );
        m.put(
            "tail.scrape_p99_ms",
            supported_percentile("scrape", &pooled(|p| &p.scrape_ms), 99.0),
            "ms",
        );
        m.put("edge.process_us", mean_self("edge.process"), "us");
        m.put(
            "edge.gen_lag_p99_ms",
            median_of(&paced, |p| percentile(&p.gen_lag_ms, 99.0)),
            "ms",
        );
        m.put("edge.burst_latency_p50_ms", burst_p50, "ms");
        m.put("ml.partial_fit_us", r.partial_fit.wall_us, "us");
        m.put("ml.score_us", r.score.wall_us, "us");
        m.put("ml.fedavg_fold_us", r.fedavg_fold.wall_us, "us");
        m.put("dataflow.compute.jobs_per_msg", jobs_per_msg, "ratio");
        m.put("dataflow.compute.width", last.compute_width as f64, "count");
        m.put("params.update_us", r.params_update.wall_us, "us");
        m.put("params.get_many_us", r.get_many.wall_us, "us");
        m.put("params.put_many_us", r.put_many.wall_us, "us");
        m.put("params.ops_per_msg", params_per_msg, "ratio");
        m.put("metrics.span_us", r.span.wall_us, "us");
        m.put("metrics.spans_per_msg", spans_per_msg, "ratio");
        m.put("gateway.render_us", r.render.wall_us, "us");
        m.put("gateway.roundtrip_us", median(&roundtrip), "us");
        m.put("ledger.cpu_us_per_msg", cpu_per_msg, "us");
        m.put(
            "ledger.unexplained_us_per_msg",
            cpu_per_msg - explained,
            "us",
        );
        m.put(
            "trace.overhead_x",
            throughput / median_of(traced.iter().copied(), PhaseOut::throughput),
            "ratio",
        );

        findings.push(("paced_vs_burst_p50_x", latency_p50 / burst_p50));
        findings.push((
            "osonly_vs_group_append_x",
            r.append_osonly.wall_us / r.append_group.wall_us,
        ));
        findings.push(("compute_jobs_per_msg_at_width", jobs_per_msg));
        findings.push((
            "render_vs_roundtrip_x",
            r.render.wall_us / median(&roundtrip),
        ));

        let trace_path =
            PathBuf::from(BENCH_DIR).join(format!("trace-{}-{}.json", shape.name, args.seed));
        tracer
            .write(&trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }

    // Metadata: machine, run length, sample counts, findings, failures.
    let mut meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},\
         \"wall_s\":{:.3},\"vm_hwm_mb\":{:.1},\"paced_phases\":{},\"bursts\":{}",
        shape.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::machine_json(run_dir),
        epoch.elapsed().as_secs_f64(),
        sys::peak_rss_mb(),
        paced.len(),
        bursts.len(),
    );
    let series: [(&str, Series); 3] = [
        ("latency", |p| &p.latency_ms),
        ("ingest", |p| &p.ingest_ms),
        ("scrape", |p| &p.scrape_ms),
    ];
    for (name, f) in series {
        let pooled: Vec<f64> = paced.iter().flat_map(|p| f(p).iter().copied()).collect();
        meta.push_str(&format!(
            ",\"{name}_samples\":{},\"{name}_beyond_p99\":{},\"{name}_p99\":{}",
            pooled.len(),
            stats::beyond(&pooled, 99.0),
            percentile(&pooled, 99.0)
        ));
    }
    let thr: Vec<String> = untraced
        .iter()
        .map(|b| format!("{:.1}", b.throughput()))
        .collect();
    meta.push_str(&format!(",\"burst_throughputs\":[{}]", thr.join(",")));
    let growth: Vec<String> = paced
        .iter()
        .map(|p| format!("{:.1}", p.rss_growth_mb))
        .collect();
    meta.push_str(&format!(",\"paced_rss_growth_mb\":[{}]", growth.join(",")));
    meta.push_str(",\"findings\":{");
    for (i, (k, v)) in findings.iter().enumerate() {
        meta.push_str(&format!("{}\"{k}\":{v}", if i > 0 { "," } else { "" }));
    }
    meta.push_str("},\"failures\":[");
    for (i, f) in failures.iter().take(20).enumerate() {
        meta.push_str(&format!("{}{}", if i > 0 { "," } else { "" }, json_str(f)));
    }
    meta.push_str("]}");

    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        failed == 0,
        attempted.max(1),
        failed,
        m.json()?
    );
    Ok((meta, result))
}
