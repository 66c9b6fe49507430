//! `sweep`: Figure 8-style accuracy-vs-BER curves over many samples.
//!
//! Every curve runs one session's `accuracy_vs_ber` over a fixed BER list.
//! A round covers VGG-mini and ResNet-mini, at int4/int8/int16 on the
//! native integer backend plus int8 on the simulated-f32 backend, under all
//! four error models: 32 curves. Every layer is dirty at every point, so
//! clean-activation checkpoints are bypassed; low-BER points let batch
//! groups form, high-BER points stress injection.

use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::session::EvalSession;
use eden_dnn::zoo::{ModelId, ZooEntry};
use eden_dnn::Dataset as _;
use eden_dram::{ErrorModel, ErrorModelKind};
use eden_tensor::Precision;

use super::{
    add_analytic_work, add_session_counters, trained_zoo, Outcome, Run, SetupTimes, Stopwatch,
};
use crate::checks::{is_whole_accuracy, uniform_flip_interval, LoadGroup};
use crate::stats::median;

const MODELS: [ModelId; 2] = [ModelId::Vgg16, ModelId::ResNet];
const CONFIGS: [(Precision, InferenceBackend); 4] = [
    (Precision::Int4, InferenceBackend::NativeInt),
    (Precision::Int8, InferenceBackend::NativeInt),
    (Precision::Int16, InferenceBackend::NativeInt),
    (Precision::Int8, InferenceBackend::SimulatedF32),
];
/// The curve's BER points: three low enough for batch groups to form, three
/// high enough to corrupt most refetches.
const BERS: [f64; 6] = [1e-5, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2];
/// Samples per curve point.
const SAMPLES: usize = 64;
/// Weak-cell failure probability of every template (the fig08 value).
const FLIP_PROB: f64 = 0.5;
/// Seconds one round takes on the reference machine: rounds per run are
/// `--seconds / ROUND_REF_S`.
const ROUND_REF_S: f64 = 5.0;

fn template(kind: ErrorModelKind) -> ErrorModel {
    match kind {
        ErrorModelKind::Uniform => ErrorModel::uniform(0.02, FLIP_PROB, 5),
        ErrorModelKind::Bitline => ErrorModel::bitline(0.02, FLIP_PROB, 0.9, 5),
        ErrorModelKind::Wordline => ErrorModel::wordline(0.02, FLIP_PROB, 0.9, 5),
        ErrorModelKind::DataDependent => ErrorModel::data_dependent(0.02, 0.7, 0.3, 5),
    }
}

struct Curve {
    model: usize,
    config: usize,
    kind: ErrorModelKind,
}

fn curves() -> Vec<Curve> {
    let mut out = Vec::new();
    for model in 0..MODELS.len() {
        for config in 0..CONFIGS.len() {
            for kind in ErrorModelKind::all() {
                out.push(Curve {
                    model,
                    config,
                    kind,
                });
            }
        }
    }
    out
}

/// The load groups one evaluation of `n` samples read: every layer's IFM
/// once per sample, and every weight tensor once per refetch. The refetch
/// count is solved from the memory's load counter and must be whole.
fn load_groups(
    entry: &ZooEntry,
    precision: Precision,
    n: usize,
    loads: u64,
) -> Result<Vec<LoadGroup>, String> {
    let bits = precision.bits() as u64;
    let mut shape = entry.net.input_shape().to_vec();
    let mut groups = Vec::new();
    for layer in entry.net.layers() {
        groups.push(LoadGroup {
            bits: shape.iter().product::<usize>() as u64 * bits,
            loads: n as u64,
        });
        shape = layer.output_shape(&shape);
    }
    let images = entry.net.weight_images(precision);
    let ifm_loads = (groups.len() * n) as u64;
    let weight_loads = loads
        .checked_sub(ifm_loads)
        .ok_or("fewer loads than IFM reads")?;
    if images.is_empty() || weight_loads % images.len() as u64 != 0 {
        return Err(format!(
            "{loads} loads do not split into {ifm_loads} IFM reads and whole weight refetches"
        ));
    }
    let refetches = weight_loads / images.len() as u64;
    if !(1..=n as u64).contains(&refetches) {
        return Err(format!("{refetches} weight refetches for {n} samples"));
    }
    for image in &images {
        groups.push(LoadGroup {
            bits: image.clean.len() as u64 * bits,
            loads: refetches,
        });
    }
    Ok(groups)
}

/// Re-evaluates one curve point on a memory the benchmark builds and checks
/// it matches the curve bit for bit; on a uniform model, also checks the
/// flip count against its statistical interval.
/// The direct evaluation runs on a fresh session, so nothing the curve's
/// session cached can leak into the reference.
#[allow(clippy::too_many_arguments)]
fn spot_check(
    run: &Run,
    entry: &ZooEntry,
    (precision, backend): (Precision, InferenceBackend),
    samples: &[(eden_tensor::Tensor, usize)],
    kind: ErrorModelKind,
    ber: f64,
    seed: u64,
    expected: f32,
) -> Result<(), String> {
    let mut session = EvalSession::new(&entry.net, precision, backend);
    let mut memory = ApproximateMemory::from_model(template(kind).with_ber(ber), seed);
    let accuracy = session.evaluate_with_faults(samples, &mut memory);
    let stats = memory.stats();
    run.tracer.add("dram.bit_flips", stats.bit_flips as f64);
    if accuracy.to_bits() != expected.to_bits() {
        return Err(format!(
            "curve point {expected} differs from a direct evaluation ({accuracy})"
        ));
    }
    if kind == ErrorModelKind::Uniform {
        let groups = load_groups(entry, session.precision(), samples.len(), stats.loads)?;
        let (lo, hi) = uniform_flip_interval(&groups, ber, FLIP_PROB);
        let flips = stats.bit_flips as f64;
        if !(lo..=hi).contains(&flips) {
            return Err(format!(
                "{flips} bit flips outside the expected [{lo:.0}, {hi:.0}] at BER {ber:e}"
            ));
        }
    }
    Ok(())
}

pub fn run(run: &Run) -> Outcome {
    let t = &run.tracer;
    let setup = || {
        let zoo = trained_zoo(t, &MODELS);
        let sessions: Vec<Vec<EvalSession<'static>>> = MODELS
            .iter()
            .map(|&id| {
                let entry = zoo.get(id);
                CONFIGS
                    .iter()
                    .map(|&(p, b)| EvalSession::new_shared(entry.net.clone(), p, b))
                    .collect()
            })
            .collect();
        (zoo, sessions)
    };
    let mut setups = SetupTimes::default();
    let (zoo, mut sessions) = setups.time(setup);
    let entries: Vec<ZooEntry> = MODELS.iter().map(|&id| zoo.get(id)).collect();

    let curves = curves();
    let rounds = ((run.seconds / ROUND_REF_S).round() as u64).max(1);
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut wall = 0.0;
    let mut cpu = 0.0;
    let mut requested = 0u64;
    for round in 0..rounds {
        if SetupTimes::due_at(round, rounds) {
            drop(setups.time(setup));
        }
        // Each round draws its sample window and injection seeds afresh.
        let window = run.seed_for(&[2, round]);
        let clock = Stopwatch::start();
        let mut results = Vec::with_capacity(curves.len());
        for (c, curve) in curves.iter().enumerate() {
            let entry = &entries[curve.model];
            let test = entry.dataset.test();
            let start = (window % (test.len() - SAMPLES + 1) as u64) as usize;
            let samples = &test[start..start + SAMPLES];
            let seed = run.seed_for(&[3, round, c as u64]);
            let session = &mut sessions[curve.model][curve.config];
            let started = std::time::Instant::now();
            let points = {
                let _span = t.span("core.session.eval");
                session.accuracy_vs_ber(samples, &template(curve.kind), &BERS, None, seed)
            };
            latencies.push(started.elapsed().as_secs_f64() * 1e3);
            results.push((start, seed, points));
        }
        let (round_wall, round_cpu) = clock.read();
        wall += round_wall;
        cpu += round_cpu;

        // Checks, untimed.
        let spot = (run.seed_for(&[4, round]) % BERS.len() as u64) as usize;
        for (c, (curve, (start, seed, points))) in curves.iter().zip(&results).enumerate() {
            out.attempted += 1;
            requested += (SAMPLES * BERS.len()) as u64;
            let entry = &entries[curve.model];
            let (precision, _) = CONFIGS[curve.config];
            add_analytic_work(t, &entry.net, precision, (SAMPLES * BERS.len()) as u64);
            for &(ber, accuracy) in points {
                if !is_whole_accuracy(accuracy, SAMPLES) {
                    out.errors.push(format!("curve {c}: accuracy {accuracy} at BER {ber:e} is not a count over {SAMPLES}"));
                }
            }
            // Spot-check one point of every uniform curve, and of every
            // curve of one other error model (rotating by round).
            let other = ErrorModelKind::all()[1 + round as usize % 3];
            if curve.kind == ErrorModelKind::Uniform || curve.kind == other {
                let samples = &entry.dataset.test()[*start..*start + SAMPLES];
                let (ber, expected) = points[spot];
                if let Err(e) = spot_check(
                    run,
                    entry,
                    CONFIGS[curve.config],
                    samples,
                    curve.kind,
                    ber,
                    *seed,
                    expected,
                ) {
                    out.errors.push(format!(
                        "round {round} curve {c} ({:?} {:?} {:?}): {e}",
                        MODELS[curve.model], CONFIGS[curve.config], curve.kind
                    ));
                }
            }
        }
    }
    for session in sessions.iter().flatten() {
        add_session_counters(t, session);
    }
    drop(setups.time(setup));
    let setup_s = setups.median();

    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("wall_s", wall);
    out.end_to_end.insert("latency_p50_ms", median(&latencies));
    out.end_to_end
        .insert("samples_per_s", requested as f64 / wall);
    out.end_to_end
        .insert("max_rate_rps", latencies.len() as f64 / wall);
    out.per_layer
        .insert("par.cpu_util", cpu / (wall * run.threads as f64));
    out.per_layer.insert("trace.wall_s", wall);
    out.per_layer
        .insert("trace.latency_p50_ms", median(&latencies));
    out
}
