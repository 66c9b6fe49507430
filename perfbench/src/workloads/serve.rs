//! `serve`: an eden-serve daemon on a Unix socket under an open-loop,
//! fixed-rate load over at most two connections.
//!
//! Traffic: small `eval` requests on LeNet (8 samples) spread over four
//! shards, `eval-batch` requests on ResNet, and streamed `sweep` requests
//! on LeNet, mixed in fixed blocks. A fixed-rate phase measures latency; a
//! ladder of rates, climbing coarse and then fine with no fixed top, then
//! finds the highest rate whose tail latency meets the limit without a
//! growing backlog. Every response is compared bit for
//! bit with a standalone session evaluating the same spec.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::ModelId;
use eden_dnn::Dataset as _;
use eden_dram::ErrorModel;
use eden_serve::{serve, Client, Json, ServeConfig, ServerHandle};
use eden_tensor::Precision;

use super::{
    add_analytic_work, trained_zoo, Outcome, Run, SetupTimes, Stopwatch, ZOO_EPOCHS, ZOO_SEED,
};
use crate::openloop::{self, Record};
use crate::stats::{median, percentile, supported_tail};
use crate::sys;

/// Request rate of the fixed-rate phase, per second.
const FIXED_RATE: f64 = 150.0;
/// Share of `--seconds` spent at the fixed rate.
const FIXED_SHARE: f64 = 0.6;
/// Requests at the fixed rate are never fewer than this, so their p99 has
/// ten samples beyond it.
const FIXED_MIN_REQUESTS: usize = 1000;
/// First rung of the rate ladder, per second.
const LADDER_START: f64 = FIXED_RATE;
/// Rate step of the ladder's coarse climb. It ends when a rate misses the
/// limit twice in a row (the rung that missed is run once more).
const COARSE_STEP: f64 = 1.25;
/// Rate step of the fine climb that follows, from the last coarse rung
/// that met the limit. It has no fixed top and ends after two consecutive
/// rungs miss.
const FINE_STEP: f64 = 1.04;
/// Rungs the ladder may run before it counts as saturated. A run whose
/// climb has not ended by then fails its checks rather than report a
/// capped rate. (The reference box ends its climb after about 16 rungs.)
const MAX_RUNGS: usize = 48;
/// The rate ladder's climb: which rate the next rung runs at, and when the
/// climb ends.
#[derive(Debug)]
struct Ladder {
    /// Rate of the next rung, per second.
    rate: f64,
    /// Whether the climb is still coarse.
    coarse: bool,
    last_met: Option<f64>,
    misses: u32,
}

impl Ladder {
    fn new() -> Ladder {
        Ladder {
            rate: LADDER_START,
            coarse: true,
            last_met: None,
            misses: 0,
        }
    }

    /// Records whether the rung at `self.rate` met the limit and moves to
    /// the next rung. Returns false once the climb has ended.
    fn record(&mut self, meets: bool) -> bool {
        if meets {
            self.misses = 0;
            self.last_met = Some(self.rate);
            self.rate *= if self.coarse { COARSE_STEP } else { FINE_STEP };
            return true;
        }
        self.misses += 1;
        match (self.coarse, self.misses) {
            // Run the coarse rung once more.
            (true, 1) => {}
            (true, _) => {
                self.coarse = false;
                self.misses = 0;
                self.rate = self.last_met.unwrap_or(LADDER_START / FINE_STEP) * FINE_STEP;
            }
            (false, 1) => self.rate *= FINE_STEP,
            (false, _) => return false,
        }
        true
    }
}

/// Share of `--seconds` each coarse ladder rung runs for; a fine rung runs
/// twice as long, so that near capacity its tail and backlog rest on more
/// requests.
const RUNG_SHARE: f64 = 0.05;
/// Tail-latency limit of a ladder rung, in milliseconds.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// One block of the traffic mix: `eval`, `eval-batch` and `sweep` requests.
const BLOCK: [Kind; 20] = {
    use Kind::{Batch as B, Eval as E, Sweep as S};
    [E, E, E, E, E, E, E, E, E, B, E, E, E, E, E, E, E, E, E, S]
};
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Eval,
    Batch,
    Sweep,
}

impl Kind {
    fn op(self) -> &'static str {
        match self {
            Kind::Eval => "eval",
            Kind::Batch => "eval-batch",
            Kind::Sweep => "sweep",
        }
    }
}

/// One request spec: which shard it lands on and what it evaluates.
#[derive(Debug, Clone)]
struct Spec {
    kind: Kind,
    model: ModelId,
    precision: Precision,
    error: &'static str,
    bers: Vec<f64>,
    start: usize,
    count: usize,
    seed: u64,
}

/// The LeNet tenants of `eval`: four shards by precision and error model.
const TENANTS: [(Precision, &str); 4] = [
    (Precision::Int8, "uniform"),
    (Precision::Int4, "uniform"),
    (Precision::Int16, "wordline"),
    (Precision::Int8, "bitline"),
];

fn template(error: &str) -> ErrorModel {
    // The protocol's default template parameters.
    match error {
        "uniform" => ErrorModel::uniform(0.02, 0.5, 5),
        "bitline" => ErrorModel::bitline(0.02, 0.5, 0.9, 5),
        "wordline" => ErrorModel::wordline(0.02, 0.5, 0.9, 5),
        "data-dependent" => ErrorModel::data_dependent(0.02, 0.7, 0.3, 5),
        other => unreachable!("unknown error model {other}"),
    }
}

/// BERs of the `eval` tenants' requests.
const EVAL_BERS: [f64; 3] = [1e-3, 3e-3, 1e-2];
/// BERs of the `eval-batch` requests.
const BATCH_BERS: [f64; 2] = [1e-4, 1e-3];
/// BER points of every `sweep` request.
const SWEEP_BERS: [f64; 3] = [1e-4, 1e-3, 1e-2];

/// The request pool. Its make-up is fixed: every `eval` tenant at every
/// BER twice (24 specs), every batch BER three times (6) and four sweeps.
/// The run's seed draws each spec's sample window and memory seed.
fn pool(run: &Run) -> Vec<Spec> {
    let mut specs = Vec::new();
    for &(precision, error) in &TENANTS {
        for &ber in &EVAL_BERS {
            for _ in 0..2 {
                specs.push(Spec {
                    kind: Kind::Eval,
                    model: ModelId::LeNet,
                    precision,
                    error,
                    bers: vec![ber],
                    start: 0,
                    count: 8,
                    seed: 0,
                });
            }
        }
    }
    for &ber in &BATCH_BERS {
        for _ in 0..3 {
            specs.push(Spec {
                kind: Kind::Batch,
                model: ModelId::ResNet,
                precision: Precision::Int8,
                error: "data-dependent",
                bers: vec![ber],
                start: 0,
                count: 16,
                seed: 0,
            });
        }
    }
    for _ in 0..4 {
        specs.push(Spec {
            kind: Kind::Sweep,
            model: ModelId::LeNet,
            precision: Precision::Int8,
            error: "uniform",
            bers: SWEEP_BERS.to_vec(),
            start: 0,
            count: 16,
            seed: 0,
        });
    }
    for (i, spec) in specs.iter_mut().enumerate() {
        let test_len = spec.model.dataset(0).test().len();
        spec.start =
            (run.seed_for(&[5, i as u64, 0]) % (test_len - spec.count + 1) as u64) as usize;
        spec.seed = run.seed_for(&[5, i as u64, 1]) % 1000;
    }
    specs
}

fn request(spec: &Spec) -> Json {
    let mut fields = vec![
        ("op", Json::str(spec.kind.op())),
        ("model", Json::str(spec.model.key())),
        ("precision", Json::str(spec.precision.to_string())),
        ("error_model", Json::obj([("kind", Json::str(spec.error))])),
        ("start", Json::num(spec.start as f64)),
        ("count", Json::num(spec.count as f64)),
        ("seed", Json::num(spec.seed as f64)),
    ];
    match spec.kind {
        Kind::Sweep => fields.push((
            "bers",
            Json::Arr(spec.bers.iter().map(|&b| Json::num(b)).collect()),
        )),
        _ => fields.push(("ber", Json::num(spec.bers[0]))),
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The accuracy bits a request returned, one per BER point.
type Reply = Result<Vec<u32>, String>;

fn send(client: &mut Client, spec: &Spec) -> Reply {
    let accuracy = |frame: &Json| {
        frame
            .get("accuracy")
            .and_then(Json::as_f64)
            .map(|a| (a as f32).to_bits())
    };
    match spec.kind {
        Kind::Sweep => {
            let mut points = Vec::new();
            let done = client
                .sweep(&request(spec), |point| points.push(accuracy(point)))
                .map_err(|e| format!("sweep: {e}"))?;
            if done.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("sweep ended with {done}"));
            }
            points
                .into_iter()
                .collect::<Option<Vec<u32>>>()
                .ok_or_else(|| "sweep point without an accuracy".to_string())
        }
        _ => {
            let response = client
                .request(&request(spec))
                .map_err(|e| format!("request: {e}"))?;
            match (
                response.get("ok").and_then(Json::as_bool),
                accuracy(&response),
            ) {
                (Some(true), Some(bits)) => Ok(vec![bits]),
                _ => Err(format!("error response: {response}")),
            }
        }
    }
}

/// Socket of this process's daemon number `tag`, relative to the checkout
/// root.
fn socket_path(tag: usize) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/out/serve-{}-{tag}.sock",
        std::process::id()
    ))
}

fn connect(socket: &PathBuf) -> Client {
    Client::connect_with_retry(socket, Duration::from_secs(10)).expect("connect to the daemon")
}

/// Boots the daemon and sends every pool spec once over two connections
/// (training the daemon's zoo, building its shards and filling its caches).
fn boot(run: &Run, specs: &[Spec], tag: usize) -> ServerHandle {
    let socket = socket_path(tag);
    std::fs::create_dir_all(socket.parent().expect("the socket path has a directory"))
        .expect("create the socket directory");
    let config = ServeConfig {
        socket,
        workers: run.threads,
        max_inflight: (run.threads * 2).max(4),
        zoo_epochs: ZOO_EPOCHS,
        zoo_seed: ZOO_SEED,
        ..ServeConfig::default()
    };
    let handle = serve(config).expect("start the daemon");
    let _span = run.tracer.span("serve.boot");
    // Connection 0 warms LeNet first and connection 1 ResNet first, so the
    // daemon trains both models at once.
    let lenet: Vec<&Spec> = specs.iter().filter(|s| s.model == ModelId::LeNet).collect();
    let resnet: Vec<&Spec> = specs.iter().filter(|s| s.model != ModelId::LeNet).collect();
    std::thread::scope(|scope| {
        for list in [lenet, resnet] {
            let socket = handle.socket().clone();
            scope.spawn(move || {
                let mut client = connect(&socket);
                for spec in list {
                    send(&mut client, spec).expect("warm-up request");
                }
            });
        }
    });
    handle
}

/// Spec index of each request of a phase of `blocks` whole mix blocks.
/// Each kind's slots cycle through a seeded permutation of that kind's
/// specs, so every phase holds each spec equally often (up to one).
fn traffic(run: &Run, specs: &[Spec], phase: u64, blocks: usize) -> Vec<usize> {
    let mut cycles: BTreeMap<Kind, (Vec<usize>, usize)> = BTreeMap::new();
    for kind in [Kind::Eval, Kind::Batch, Kind::Sweep] {
        let mut order: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].kind == kind)
            .collect();
        // Fisher-Yates with seed-derived draws.
        for i in (1..order.len()).rev() {
            let j = (run.seed_for(&[6, phase, kind as u64, i as u64]) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        cycles.insert(kind, (order, 0));
    }
    (0..blocks * BLOCK.len())
        .map(|i| {
            let (order, next) = cycles
                .get_mut(&BLOCK[i % BLOCK.len()])
                .expect("every kind has specs");
            *next += 1;
            order[(*next - 1) % order.len()]
        })
        .collect()
}

/// One open-loop phase at `rate`.
fn phase(
    run: &Run,
    socket: &PathBuf,
    specs: &[Spec],
    requests: &[usize],
    rate: f64,
    request_base: u64,
) -> Vec<(Record, Reply)> {
    let due = openloop::schedule(rate, requests.len());
    let connections = run.threads.min(2);
    openloop::run(
        &due,
        connections,
        |_| connect(socket),
        |client, i| {
            run.tracer.in_request(request_base + i as u64, || {
                let _span = run.tracer.span("serve.client");
                send(client, &specs[requests[i]])
            })
        },
    )
}

fn blocks_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds / BLOCK.len() as f64).round() as usize).max(1)
}

pub fn run(run: &Run) -> Outcome {
    let t = &run.tracer;
    let specs = pool(run);
    let mut setups = SetupTimes::default();
    let handle = setups.time(|| boot(run, &specs, 0));
    let socket = handle.socket().clone();
    let mut out = Outcome::default();
    let mut replies: Vec<(usize, Reply)> = Vec::new();

    // Fixed-rate phase.
    let fixed_blocks = blocks_for(FIXED_RATE, FIXED_SHARE * run.seconds)
        .max(FIXED_MIN_REQUESTS.div_ceil(BLOCK.len()));
    let fixed_requests = traffic(run, &specs, 0, fixed_blocks);
    let clock = Stopwatch::start();
    let fixed = phase(run, &socket, &specs, &fixed_requests, FIXED_RATE, 0);
    let (fixed_wall, fixed_cpu) = clock.read();
    // The serving daemon's footprint: boot, warm-up and the fixed-rate
    // phase. The later set-ups and the checks' own zoo would add retained
    // heap of daemons that are gone, which varies from run to run.
    out.end_to_end.insert("peak_rss_mb", sys::peak_rss_mb());
    let records: Vec<Record> = fixed.iter().map(|(r, _)| *r).collect();
    let summary = openloop::summarize(&records);
    replies.extend(
        fixed_requests
            .iter()
            .copied()
            .zip(fixed.into_iter().map(|(_, reply)| reply)),
    );
    let mut rtt_by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut samples = 0u64;
    for (&spec, record) in fixed_requests.iter().zip(&records) {
        rtt_by_kind
            .entry(specs[spec].kind)
            .or_default()
            .push((record.done - record.sent) * 1e3);
        samples += (specs[spec].count * specs[spec].bers.len()) as u64;
    }

    // The second set-up, between the phases, on a daemon of its own.
    setups.time(|| boot(run, &specs, 1)).join();

    // Rate ladder: a coarse climb until a rate misses twice, then a fine
    // climb from the last coarse rung that met the limit until two
    // consecutive rungs miss. So one slow stretch does not end either early.
    let mut max_rate = None;
    let mut ladder = Ladder::new();
    let mut saturated = true;
    for r in 0..MAX_RUNGS {
        let rate = ladder.rate;
        let rung_seconds = RUNG_SHARE * run.seconds * if ladder.coarse { 1.0 } else { 2.0 };
        let requests = traffic(run, &specs, 1 + r as u64, blocks_for(rate, rung_seconds));
        let results = phase(
            run,
            &socket,
            &specs,
            &requests,
            rate,
            1_000_000 * (r as u64 + 1),
        );
        let rung = openloop::summarize(&results.iter().map(|(rec, _)| *rec).collect::<Vec<_>>());
        let failed = results.iter().any(|(_, reply)| reply.is_err());
        let tail = supported_tail(&rung.latency_ms);
        let meets = !failed && !rung.backlog_growing && tail <= LATENCY_LIMIT_MS;
        eprintln!(
            "serve: rung {rate:.0} rps: achieved {:.1} rps, tail {tail:.1} ms, backlog max {}{}{}",
            rung.achieved_rps,
            rung.backlog_max,
            if rung.backlog_growing {
                " (growing)"
            } else {
                ""
            },
            if meets { "" } else { ", misses the limit" }
        );
        replies.extend(
            requests
                .iter()
                .copied()
                .zip(results.into_iter().map(|(_, reply)| reply)),
        );
        if meets {
            max_rate = Some(rung.achieved_rps);
        }
        if !ladder.record(meets) {
            saturated = false;
            break;
        }
    }

    // Daemon counters, then shut it down.
    let stats = connect(&socket).stats().expect("stats request");
    handle.join();
    setups.time(|| boot(run, &specs, 2)).join();
    let setup_s = setups.median();
    let counter = |path: &[&str]| -> f64 {
        let mut value = &stats;
        for key in path {
            match value.get(key) {
                Some(v) => value = v,
                None => return 0.0,
            }
        }
        value.as_f64().unwrap_or(0.0)
    };
    for (metric, path) in [
        ("serve.shard_hits", &["shards", "hits"][..]),
        ("serve.shard_misses", &["shards", "misses"]),
        ("serve.shard_evictions", &["shards", "evictions"]),
        ("serve.requests", &["requests"]),
        ("serve.evals", &["evals"]),
        ("serve.sweep_points", &["sweep_points"]),
    ] {
        out.per_layer.insert(metric, counter(path));
    }
    for (name, path) in [
        ("core.session.checkpoint_hits", &["checkpoints", "hits"][..]),
        ("core.session.checkpoint_misses", &["checkpoints", "misses"]),
        (
            "core.session.checkpoint_evictions",
            &["checkpoints", "evictions"],
        ),
        ("core.session.batch_groups", &["batches", "groups"]),
        (
            "core.session.batched_samples",
            &["batches", "samples_batched"],
        ),
        (
            "core.session.fallback_samples",
            &["batches", "fallback_samples"],
        ),
        ("core.faults.weak_map_hits", &["weak_maps", "hits"]),
        ("core.faults.weak_map_misses", &["weak_maps", "misses"]),
    ] {
        t.add(name, counter(path));
    }

    // Verification: every reply against a standalone session on a zoo of
    // the same configuration, built here apart from the daemon's.
    let exec_ms = verify(run, &specs, &replies, &mut out);
    out.attempted = replies.len() as u64;
    out.failed = replies.iter().filter(|(_, r)| r.is_err()).count() as u64;
    for (_, reply) in &replies {
        if let Err(e) = reply {
            eprintln!("serve: failed request: {e}");
        }
    }

    // Per-request server overhead: round trip minus standalone execution.
    let fixed_exec: Vec<f64> = fixed_requests.iter().map(|&s| exec_ms[s]).collect();
    let rtts: Vec<f64> = records.iter().map(|r| (r.done - r.sent) * 1e3).collect();
    let overhead: Vec<f64> = rtts
        .iter()
        .zip(&fixed_exec)
        .map(|(rtt, exec)| rtt - exec)
        .collect();
    for (kind, metric) in [
        (Kind::Eval, "serve.eval.rtt_p50_ms"),
        (Kind::Batch, "serve.eval-batch.rtt_p50_ms"),
        (Kind::Sweep, "serve.sweep.rtt_p50_ms"),
    ] {
        out.per_layer
            .insert(metric, rtt_by_kind.get(&kind).map_or(0.0, |v| median(v)));
    }
    out.per_layer.insert("serve.rtt_p50_ms", median(&rtts));
    out.per_layer
        .insert("serve.exec_p50_ms", median(&fixed_exec));
    out.per_layer
        .insert("serve.overhead_p50_ms", median(&overhead));
    out.per_layer
        .insert("serve.late_p99_ms", percentile(&summary.late_ms, 99.0));
    out.per_layer
        .insert("serve.backlog_max", summary.backlog_max as f64);
    out.per_layer.insert(
        "par.cpu_util",
        fixed_cpu / (fixed_wall * run.threads as f64),
    );
    out.per_layer.insert("trace.wall_s", fixed_wall);

    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("wall_s", fixed_wall);
    out.end_to_end
        .insert("latency_p50_ms", median(&summary.latency_ms));
    out.per_layer
        .insert("trace.latency_p50_ms", median(&summary.latency_ms));
    out.per_layer.insert(
        "serve.latency_p99_ms",
        percentile(&summary.latency_ms, 99.0),
    );
    out.end_to_end
        .insert("samples_per_s", samples as f64 / fixed_wall);
    out.end_to_end
        .insert("max_rate_rps", max_rate.unwrap_or(f64::NAN));
    if max_rate.is_none() {
        out.errors.push(format!(
            "no ladder rung met the {LATENCY_LIMIT_MS} ms limit"
        ));
    }
    if saturated {
        out.errors.push(format!(
            "the rate ladder was still climbing after {MAX_RUNGS} rungs; raise MAX_RUNGS"
        ));
    }
    out
}

/// Compares every reply with a standalone evaluation of its spec and
/// returns each spec's standalone execution time in milliseconds.
fn verify(run: &Run, specs: &[Spec], replies: &[(usize, Reply)], out: &mut Outcome) -> Vec<f64> {
    let zoo = trained_zoo(&run.tracer, &[ModelId::LeNet, ModelId::ResNet]);
    let mut sessions: BTreeMap<(usize, usize, &str), EvalSession<'static>> = BTreeMap::new();
    let mut expected = Vec::with_capacity(specs.len());
    let mut exec_ms = Vec::with_capacity(specs.len());
    for spec in specs {
        let entry = zoo.get(spec.model);
        let key = (
            spec.model as usize,
            spec.precision.bits() as usize,
            spec.error,
        );
        let session = sessions.entry(key).or_insert_with(|| {
            EvalSession::new_shared(
                entry.net.clone(),
                spec.precision,
                InferenceBackend::default(),
            )
        });
        let samples = &entry.dataset.test()[spec.start..spec.start + spec.count];
        let evaluate = |session: &mut EvalSession<'static>| -> Vec<u32> {
            spec.bers
                .iter()
                .map(|&ber| {
                    let mut memory = ApproximateMemory::from_model(
                        template(spec.error).with_ber(ber),
                        spec.seed,
                    );
                    let accuracy = session.evaluate_with_faults(samples, &mut memory);
                    run.tracer
                        .add("dram.bit_flips", memory.stats().bit_flips as f64);
                    accuracy.to_bits()
                })
                .collect()
        };
        // The first evaluation warms the session's caches, as the daemon's
        // warm-up did its shards'; the second is timed and must agree.
        let bits = evaluate(session);
        let started = Instant::now();
        let again = {
            let _span = run.tracer.span("core.session.eval");
            evaluate(session)
        };
        exec_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if again != bits {
            out.errors.push(format!(
                "standalone evaluation of spec {spec:?} is not repeatable"
            ));
        }
        add_analytic_work(
            &run.tracer,
            &entry.net,
            spec.precision,
            (spec.count * spec.bers.len()) as u64,
        );
        expected.push(bits);
    }
    let mut mismatched = vec![0usize; specs.len()];
    for (spec, reply) in replies {
        if let Ok(bits) = reply {
            if *bits != expected[*spec] {
                mismatched[*spec] += 1;
            }
        }
    }
    for (i, &n) in mismatched.iter().enumerate() {
        if n > 0 {
            out.errors.push(format!(
                "{n} replies for spec {i} ({:?}) differ from a standalone session",
                specs[i]
            ));
        }
    }
    exec_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the ladder over rungs that meet the limit below `capacity`
    /// (and, if given, miss at one rate below it), returning the rates run.
    fn climb(capacity: f64, unlucky: Option<f64>) -> (Vec<f64>, bool) {
        let mut ladder = Ladder::new();
        let mut rates = Vec::new();
        for _ in 0..MAX_RUNGS {
            let rate = ladder.rate;
            rates.push(rate);
            let meets = rate <= capacity && unlucky.is_none_or(|u| (rate - u).abs() > 1e-9);
            if !ladder.record(meets) {
                return (rates, true);
            }
        }
        (rates, false)
    }

    #[test]
    fn ladder_climbs_coarse_then_fine_until_two_misses() {
        let (rates, ended) = climb(1000.0, None);
        assert!(ended);
        let r = |k: i32| FIXED_RATE * COARSE_STEP.powi(k);
        // Coarse up to 894 (met) and 1118 twice (missed), then fine from 894:
        // 930 and 967 meet, 1006 and 1046 miss.
        let mut expected: Vec<f64> = (0..=9).map(r).collect();
        expected.push(r(9));
        expected.extend((1..=4).map(|k| r(8) * FINE_STEP.powi(k)));
        assert_eq!(rates.len(), expected.len());
        for (a, b) in rates.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9, "{rates:?} != {expected:?}");
        }
        // The last two rungs missed, the one before met.
        let n = rates.len();
        assert!(rates[n - 3] <= 1000.0 && rates[n - 2] > 1000.0);
    }

    #[test]
    fn ladder_survives_one_unlucky_rung() {
        // A single miss far below capacity ends neither climb.
        let coarse_miss = FIXED_RATE * COARSE_STEP.powi(3);
        let (rates, ended) = climb(1000.0, Some(coarse_miss));
        assert!(ended);
        assert!(rates.iter().any(|&r| r > 1000.0 / FINE_STEP && r <= 1000.0));
    }

    #[test]
    fn ladder_has_no_fixed_top() {
        // Far beyond the reference capacity the climb still runs; it only
        // stops at the rung cap, which the workload reports as a failure.
        let (rates, ended) = climb(f64::INFINITY, None);
        assert!(rates.iter().any(|&r| r > 1e5));
        assert!(!ended);
    }
}
