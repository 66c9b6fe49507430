//! `pipeline`: repeated EDEN passes (the paper's Figure 4 loop) on the
//! trained ResNet-mini at int8, each on a fresh session with its own seed.
//!
//! One pass: characterize a DRAM bank and fit an error model; a short
//! curricular retrain; coarse then fine characterization of the retrained
//! network; a multi-module mapping over a characterized memory system; a
//! system-simulator energy/speed estimate of the plan; and the plan's
//! accuracy with its data served from the mapped partitions.

use eden_core::bounding::{BoundingLogic, CorrectionPolicy};
use eden_core::characterize::{
    coarse_characterize_session, fine_characterize_session, CoarseConfig, FineCharacterization,
    FineConfig,
};
use eden_core::curricular::{CurricularConfig, CurricularTrainer};
use eden_core::faults::ApproximateMemory;
use eden_core::inference::InferenceBackend;
use eden_core::mapping::{
    benefit_traffic_score, multi_module_map, MultiModuleConfig, PlacementPlan,
};
use eden_core::session::EvalSession;
use eden_dnn::data::{Dataset, DatasetSpec};
use eden_dnn::zoo::ModelId;
use eden_dnn::Network;
use eden_dram::characterize::{characterize_bank, CharacterizeConfig};
use eden_dram::fit::select_model;
use eden_dram::geometry::Partition;
use eden_dram::system::{DramModule, MemorySystem};
use eden_dram::{ApproxDramDevice, ErrorModel, OperatingPoint, Vendor};
use eden_sysim::{CpuSim, SystemSim, TrafficShare, WorkloadProfile};
use eden_tensor::{Precision, Tensor};

use super::{
    add_analytic_work, add_session_counters, trained_zoo, Outcome, Run, SetupTimes, Stopwatch,
};
use crate::checks::check_plan;
use crate::stats::median;

const MODEL: ModelId = ModelId::ResNet;
const PRECISION: Precision = Precision::Int8;
const BACKEND: InferenceBackend = InferenceBackend::NativeInt;
/// Seconds one pass takes on the reference machine: the pass count is
/// `--seconds / PASS_REF_S`, a fixed amount of work per run length.
const PASS_REF_S: f64 = 1.0;
/// Training and test samples of the short retrain.
const RETRAIN_TRAIN: usize = 64;
const RETRAIN_TEST: usize = 32;
/// Samples the mapped plan's accuracy is measured on.
const PLAN_SAMPLES: usize = 32;
/// Accuracy drop both characterizations allow.
const ACCURACY_DROP: f32 = 0.05;

/// A dataset view with the first `train`/`test` samples of another.
struct Subset<'a> {
    inner: &'a dyn Dataset,
    train: usize,
    test: usize,
}

impl Dataset for Subset<'_> {
    fn spec(&self) -> DatasetSpec {
        self.inner.spec()
    }
    fn train(&self) -> &[(Tensor, usize)] {
        &self.inner.train()[..self.train]
    }
    fn test(&self) -> &[(Tensor, usize)] {
        &self.inner.test()[..self.test]
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Two modules from different vendors with small partitions, so plans
/// spread and split sites (the Figure 12 set-up).
fn memory_system(seed: u64) -> MemorySystem {
    let cfg = CharacterizeConfig {
        rows_per_pattern: 1,
        bitlines_per_row: 1024,
        reads_per_row: 3,
        seed,
    };
    let module = |vendor: Vendor, device_seed: u64, rows: u64, ops: &[OperatingPoint]| {
        let device = ApproxDramDevice::new(vendor, device_seed);
        let parts: Vec<Partition> = (0..2)
            .map(|i| Partition {
                index: i,
                bank: i,
                first_subarray: 0,
                subarrays: 1,
                capacity_bytes: rows * device.geometry().row_bytes as u64,
            })
            .collect();
        DramModule::characterize(device, &parts, ops, &cfg)
    };
    MemorySystem::new(vec![
        module(
            Vendor::A,
            31,
            4,
            &[
                OperatingPoint::nominal(),
                OperatingPoint::with_vdd_reduction(0.05),
                OperatingPoint::with_vdd_reduction(0.10),
                OperatingPoint::with_vdd_reduction(0.25),
            ],
        ),
        module(
            Vendor::B,
            32,
            8,
            &[
                OperatingPoint::nominal(),
                OperatingPoint::with_trcd_reduction(1.0),
                OperatingPoint::with_trcd_reduction(2.5),
            ],
        ),
    ])
}

/// Fine-characterization probes implied by its result: a site that
/// accepted `k` steps was probed `k + 1` times, or `k` times if it never
/// failed within the round limit.
fn fine_probes(fine: &FineCharacterization, cfg: &FineConfig) -> u64 {
    fine.tolerances
        .iter()
        .map(|(_, tol)| {
            let k = ((tol / cfg.bootstrap_ber).ln() / cfg.step_factor.ln()).round() as usize;
            (k + 1).min(cfg.max_rounds) as u64
        })
        .sum()
}

/// What one pass leaves for the checks.
struct Pass {
    net: Network,
    template: ErrorModel,
    bounding: BoundingLogic,
    coarse_cfg: CoarseConfig,
    max_tolerable_ber: f64,
    floor: f32,
    plan: PlacementPlan,
    system: MemorySystem,
    plan_accuracy: f32,
}

fn pass(run: &Run, base: &Network, dataset: &dyn Dataset, index: u64) -> Pass {
    let t = &run.tracer;
    let seed = run.seed_for(&[1, index]);

    let (system, template) = {
        let _span = t.span("dram.characterize");
        let device = ApproxDramDevice::new(Vendor::A, seed);
        let cfg = CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 1024,
            reads_per_row: 3,
            seed,
        };
        let observations =
            characterize_bank(&device, 0, &OperatingPoint::with_vdd_reduction(0.30), &cfg);
        let system = memory_system(seed);
        drop(_span);
        let _span = t.span("dram.fit");
        (system, select_model(&observations, seed).model)
    };

    let mut net = base.clone();
    {
        let _span = t.span("core.curricular");
        let subset = Subset {
            inner: dataset,
            train: RETRAIN_TRAIN,
            test: RETRAIN_TEST,
        };
        CurricularTrainer::new(CurricularConfig {
            epochs: 1,
            target_ber: 1e-3,
            precision: PRECISION,
            backend: BACKEND,
            learning_rate: 2e-3,
            seed,
            ..CurricularConfig::default()
        })
        .retrain(&mut net, &subset, &template);
    }

    let bounding =
        BoundingLogic::calibrated(&net, &dataset.train()[..16], 1.5, CorrectionPolicy::Zero);
    let mut session = EvalSession::new(&net, PRECISION, BACKEND);
    let coarse_cfg = CoarseConfig {
        accuracy_drop: ACCURACY_DROP,
        seed,
        ..CoarseConfig::default()
    };
    let coarse = {
        let _span = t.span("core.characterize.coarse");
        coarse_characterize_session(
            &mut session,
            dataset,
            &template,
            Some(bounding),
            &coarse_cfg,
        )
    };
    t.add("core.characterize.probes", coarse.probes.len() as f64);
    add_analytic_work(
        t,
        &net,
        PRECISION,
        ((coarse.probes.len() + 1) * coarse_cfg.eval_samples) as u64,
    );

    let fine_cfg = FineConfig {
        accuracy_drop: ACCURACY_DROP,
        bootstrap_ber: coarse.max_tolerable_ber.clamp(1e-5, 1e-2) / 4.0,
        step_factor: 2.0,
        seed,
        ..FineConfig::default()
    };
    let fine = {
        let _span = t.span("core.characterize.fine");
        fine_characterize_session(&mut session, dataset, &template, Some(bounding), &fine_cfg)
    };
    let probes = fine_probes(&fine, &fine_cfg);
    t.add("core.characterize.probes", probes as f64);
    add_analytic_work(
        t,
        &net,
        PRECISION,
        (probes + 1) * fine_cfg.eval_samples as u64,
    );

    let plan = {
        let _span = t.span("core.mapping");
        multi_module_map(
            &fine,
            &system,
            PRECISION,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        )
    };

    {
        let _span = t.span("sysim");
        let sim = CpuSim::table4();
        let workload = WorkloadProfile::from_network(&net, PRECISION, 0.02);
        let mut shares: Vec<TrafficShare> = plan
            .traffic_shares(&system, PRECISION)
            .iter()
            .map(|s| TrafficShare {
                bytes: s.bytes,
                vdd_reduction: s.vdd_reduction,
                trcd_reduction_ns: s.trcd_reduction_ns,
            })
            .collect();
        shares.push(TrafficShare {
            bytes: plan.unmapped.iter().map(|d| d.bytes(PRECISION)).sum(),
            vdd_reduction: 0.0,
            trcd_reduction_ns: 0.0,
        });
        let energy = sim.mixed_energy_saving(&workload, &shares);
        let speedup = sim.mixed_trcd_speedup(&workload, &shares);
        std::hint::black_box((energy, speedup));
    }

    let plan_accuracy = {
        let _span = t.span("core.session.eval");
        let mut memory = ApproximateMemory::reliable(seed).with_bounding(bounding);
        plan.apply_to(&mut memory, &system);
        let accuracy = session.evaluate_with_faults(&dataset.test()[..PLAN_SAMPLES], &mut memory);
        t.add("dram.bit_flips", memory.stats().bit_flips as f64);
        accuracy
    };
    add_analytic_work(t, &net, PRECISION, PLAN_SAMPLES as u64);
    add_session_counters(t, &session);
    drop(session);

    Pass {
        net,
        template,
        bounding,
        coarse_cfg,
        max_tolerable_ber: coarse.max_tolerable_ber,
        floor: coarse.accuracy_floor,
        plan,
        system,
        plan_accuracy,
    }
}

/// The checks of one pass, none of them timed.
fn check(pass: &Pass, dataset: &dyn Dataset, errors: &mut Vec<String>, index: u64) {
    let cfg = &pass.coarse_cfg;
    let ber = pass.max_tolerable_ber;
    // Accuracy of a fresh session at `ber` and the pass's seed.
    let fresh_accuracy = |ber: f64| {
        let mut session = EvalSession::new(&pass.net, PRECISION, BACKEND);
        let mut memory = ApproximateMemory::from_model(pass.template.with_ber(ber), cfg.seed)
            .with_bounding(pass.bounding);
        session.evaluate_with_faults(&dataset.test()[..cfg.eval_samples], &mut memory)
    };
    if ber == 0.0 {
        // The method reports 0 when even the lowest BER misses the floor
        // (seen in one pass of several hundred); that must hold.
        let accuracy = fresh_accuracy(cfg.ber_min);
        if accuracy.is_nan() || accuracy >= pass.floor {
            errors.push(format!(
                "pass {index}: no tolerable BER reported, but accuracy {accuracy} at the \
                 lowest BER {:e} meets the floor {}",
                cfg.ber_min, pass.floor
            ));
        }
    } else if !(cfg.ber_min..=cfg.ber_max).contains(&ber) {
        errors.push(format!(
            "pass {index}: max tolerable BER {ber:e} outside [{:e}, {:e}]",
            cfg.ber_min, cfg.ber_max
        ));
    } else {
        // A fresh session at the reported BER and seed must meet the floor.
        let accuracy = fresh_accuracy(ber);
        if accuracy.is_nan() || accuracy < pass.floor {
            errors.push(format!(
                "pass {index}: accuracy {accuracy} at the tolerable BER is below the floor {}",
                pass.floor
            ));
        }
    }
    for e in check_plan(&pass.plan, &pass.system, PRECISION) {
        errors.push(format!("pass {index}: plan: {e}"));
    }
    if !crate::checks::is_whole_accuracy(pass.plan_accuracy, PLAN_SAMPLES) {
        errors.push(format!(
            "pass {index}: plan accuracy {} is not a count over {PLAN_SAMPLES}",
            pass.plan_accuracy
        ));
    }
}

pub fn run(run: &Run) -> Outcome {
    let t = &run.tracer;
    let mut setups = SetupTimes::default();
    let zoo = setups.time(|| trained_zoo(t, &[MODEL]));
    let entry = zoo.get(MODEL);
    let dataset: &dyn Dataset = &*entry.dataset;

    let passes = ((run.seconds / PASS_REF_S).round() as u64).max(2);
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut wall = 0.0;
    let mut cpu = 0.0;
    for i in 0..passes {
        if SetupTimes::due_at(i, passes) {
            drop(setups.time(|| trained_zoo(t, &[MODEL])));
        }
        let clock = Stopwatch::start();
        let result = {
            let _span = t.span("pipeline.pass");
            pass(run, &entry.net, dataset, i)
        };
        let (elapsed, pass_cpu) = clock.read();
        latencies.push(elapsed * 1e3);
        wall += elapsed;
        cpu += pass_cpu;
        out.attempted += 1;
        check(&result, dataset, &mut out.errors, i);
    }
    drop(setups.time(|| trained_zoo(t, &[MODEL])));
    let setup_s = setups.median();
    let samples_per_pass = (CoarseConfig::default().eval_samples
        + FineConfig::default().eval_samples
        + PLAN_SAMPLES) as f64;
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("wall_s", wall);
    out.end_to_end.insert("latency_p50_ms", median(&latencies));
    out.end_to_end
        .insert("samples_per_s", passes as f64 * samples_per_pass / wall);
    out.end_to_end.insert("max_rate_rps", passes as f64 / wall);
    out.per_layer
        .insert("par.cpu_util", cpu / (wall * run.threads as f64));
    out.per_layer.insert("trace.wall_s", wall);
    out.per_layer
        .insert("trace.latency_p50_ms", median(&latencies));
    out
}
