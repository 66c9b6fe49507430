//! The benchmark workloads and what they share: run parameters, seeds, the
//! model zoo configuration, and the per-layer metric set.

use std::collections::BTreeMap;
use std::time::Instant;

use eden_dnn::zoo::ModelZoo;
use eden_dnn::Dataset as _;
use eden_dnn::Network;
use eden_sysim::WorkloadProfile;
use eden_tensor::Precision;

use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;

pub mod pipeline;
pub mod serve;
pub mod sweep;

/// Training epochs of every zoo model the benchmark uses (the eden-serve
/// default, so the daemon's zoo and the benchmark's match).
pub const ZOO_EPOCHS: usize = 2;
/// Training seed of the zoo. Fixed, so that every workload seed trains the
/// same networks and the seed varies only the measured work's inputs.
pub const ZOO_SEED: u64 = 3;

/// Parameters of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub tracer: Tracer,
}

impl Run {
    /// A seed for item `parts` of this run, independent across items.
    pub fn seed_for(&self, parts: &[u64]) -> u64 {
        eden_dram::util::seed_mix(self.seed, parts)
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations found by the checks.
    pub errors: Vec<String>,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics the workload computes itself (the rest come from
    /// the tracer's spans and counters).
    pub per_layer: BTreeMap<&'static str, f64>,
}

/// Unit of each end-to-end metric, in report order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, in report order. A metric whose
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("dnn.train.s", "s"),
    ("dnn.train.samples_per_s", "1/s"),
    ("dram.characterize.s", "s"),
    ("dram.fit.s", "s"),
    ("core.curricular.s", "s"),
    ("core.characterize.coarse_s", "s"),
    ("core.characterize.fine_s", "s"),
    ("core.characterize.probes", "count"),
    ("core.mapping.s", "s"),
    ("sysim.s", "s"),
    ("core.session.checkpoint_hits", "count"),
    ("core.session.checkpoint_misses", "count"),
    ("core.session.checkpoint_evictions", "count"),
    ("core.session.checkpoint_hit_ratio", "ratio"),
    ("core.session.batch_groups", "count"),
    ("core.session.batched_samples", "count"),
    ("core.session.fallback_samples", "count"),
    ("core.session.batched_share", "ratio"),
    ("core.faults.weak_map_hits", "count"),
    ("core.faults.weak_map_misses", "count"),
    ("core.faults.weak_map_hit_ratio", "ratio"),
    ("core.session.eval_s", "s"),
    ("core.session.samples", "count"),
    ("dnn.gmacs", "GMAC"),
    ("dnn.gbytes_moved", "GB"),
    ("dnn.gmac_per_s", "GMAC/s"),
    ("dram.bit_flips", "count"),
    ("par.cpu_util", "ratio"),
    ("serve.eval.rtt_p50_ms", "ms"),
    ("serve.eval-batch.rtt_p50_ms", "ms"),
    ("serve.sweep.rtt_p50_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.late_p99_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.shard_hits", "count"),
    ("serve.shard_misses", "count"),
    ("serve.shard_evictions", "count"),
    ("serve.requests", "count"),
    ("serve.evals", "count"),
    ("serve.sweep_points", "count"),
    ("host.calibration_ms", "ms"),
    ("host.steal_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("serve.rtt_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.boot_s", "s"),
];

/// Span names whose summed self time is reported under a per-layer metric.
pub const SPAN_METRICS: [(&str, &str); 10] = [
    ("dnn.train", "dnn.train.s"),
    ("dram.characterize", "dram.characterize.s"),
    ("dram.fit", "dram.fit.s"),
    ("core.curricular", "core.curricular.s"),
    ("core.characterize.coarse", "core.characterize.coarse_s"),
    ("core.characterize.fine", "core.characterize.fine_s"),
    ("core.mapping", "core.mapping.s"),
    ("sysim", "sysim.s"),
    ("core.session.eval", "core.session.eval_s"),
    ("serve.boot", "serve.boot_s"),
];

/// Durations of a run's complete, cold set-ups. A workload sets up three
/// times: before the timed work (that one is used), in its middle and
/// after it, so that one slow stretch of the machine moves at most one of
/// them; `setup_s` is their median.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs one complete set-up and records its duration.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = build();
        self.0.push(start.elapsed().as_secs_f64());
        out
    }

    /// Whether the extra set-up is due before work unit `i` of `n`.
    pub fn due_at(i: u64, n: u64) -> bool {
        i == n / 2
    }

    pub fn median(&self) -> f64 {
        eprintln!("set-up times (s): {:?}", self.0);
        median(&self.0)
    }
}

/// Trains `models` of a fresh zoo concurrently (one thread each), tracing
/// each model's training as `dnn.train`.
pub fn trained_zoo(tracer: &Tracer, models: &[eden_dnn::ModelId]) -> ModelZoo {
    let zoo = ModelZoo::new(ZOO_EPOCHS, ZOO_SEED);
    std::thread::scope(|scope| {
        for &id in models {
            let zoo = &zoo;
            scope.spawn(move || {
                let _span = tracer.span("dnn.train");
                let entry = zoo.get(id);
                tracer.add(
                    "dnn.train.samples",
                    (entry.dataset.train().len() * ZOO_EPOCHS) as f64,
                );
            });
        }
    });
    zoo
}

/// Analytic work of `samples` inferences of `net` at `precision`: MACs and
/// DRAM bytes from the system simulator's workload profile.
pub fn add_analytic_work(tracer: &Tracer, net: &Network, precision: Precision, samples: u64) {
    let profile = WorkloadProfile::from_network(net, precision, 0.0);
    tracer.add("dnn.macs", profile.total_macs() as f64 * samples as f64);
    tracer.add(
        "dnn.bytes",
        profile.total_dram_bytes() as f64 * samples as f64,
    );
    tracer.add("core.session.samples", samples as f64);
}

/// Records a session's cumulative cache and batching counters.
pub fn add_session_counters(tracer: &Tracer, session: &eden_core::EvalSession<'_>) {
    let ckpt = session.checkpoint_counters();
    tracer.add("core.session.checkpoint_hits", ckpt.hits as f64);
    tracer.add("core.session.checkpoint_misses", ckpt.misses as f64);
    tracer.add("core.session.checkpoint_evictions", ckpt.evictions as f64);
    let batch = session.batch_counters();
    tracer.add("core.session.batch_groups", batch.groups as f64);
    tracer.add("core.session.batched_samples", batch.batched_samples as f64);
    tracer.add(
        "core.session.fallback_samples",
        batch.fallback_samples as f64,
    );
    let weak = session.weak_map_cache().counters();
    tracer.add("core.faults.weak_map_hits", weak.hits as f64);
    tracer.add("core.faults.weak_map_misses", weak.misses as f64);
}

/// Per-layer metrics derived from the tracer: span self times, counters,
/// ratios, and the analytic work rates.
pub fn per_layer_from_trace(run: &Run, outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let t = &run.tracer;
    let mut out: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    let selfs = t.self_seconds();
    for (span, metric) in SPAN_METRICS {
        out.insert(metric, selfs.get(span).copied().unwrap_or(0.0));
    }
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    for name in [
        "core.characterize.probes",
        "core.session.checkpoint_hits",
        "core.session.checkpoint_misses",
        "core.session.checkpoint_evictions",
        "core.session.batch_groups",
        "core.session.batched_samples",
        "core.session.fallback_samples",
        "core.faults.weak_map_hits",
        "core.faults.weak_map_misses",
        "core.session.samples",
        "dram.bit_flips",
    ] {
        out.insert(name, t.counter(name));
    }
    out.insert(
        "core.session.checkpoint_hit_ratio",
        ratio(
            t.counter("core.session.checkpoint_hits"),
            t.counter("core.session.checkpoint_misses"),
        ),
    );
    out.insert(
        "core.session.batched_share",
        ratio(
            t.counter("core.session.batched_samples"),
            t.counter("core.session.fallback_samples"),
        ),
    );
    out.insert(
        "core.faults.weak_map_hit_ratio",
        ratio(
            t.counter("core.faults.weak_map_hits"),
            t.counter("core.faults.weak_map_misses"),
        ),
    );
    let train_s = out["dnn.train.s"];
    if train_s > 0.0 {
        out.insert(
            "dnn.train.samples_per_s",
            t.counter("dnn.train.samples") / train_s,
        );
    }
    out.insert("dnn.gmacs", t.counter("dnn.macs") * 1e-9);
    out.insert("dnn.gbytes_moved", t.counter("dnn.bytes") * 1e-9);
    // Every span inside which sessions evaluate samples.
    let eval_s: f64 = [
        "core.session.eval",
        "core.characterize.coarse",
        "core.characterize.fine",
    ]
    .iter()
    .map(|span| selfs.get(span).copied().unwrap_or(0.0))
    .sum();
    out.insert("core.session.eval_s", eval_s);
    if eval_s > 0.0 {
        out.insert("dnn.gmac_per_s", out["dnn.gmacs"] / eval_s);
    }
    out.insert("trace.spans", t.spans().len() as f64);
    for (&name, &value) in &outcome.per_layer {
        out.insert(name, value);
    }
    out
}

/// Wall-clock and process-CPU stopwatch for the timed part of a workload.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: sys::cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            sys::cpu_seconds() - self.cpu,
        )
    }
}
