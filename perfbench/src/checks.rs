//! Correctness checks the workloads apply to the program's outputs. Each
//! one recomputes a property from first principles in the benchmark's own
//! code; none compares against stored output.

use eden_core::mapping::PlacementPlan;
use eden_dram::system::MemorySystem;
use eden_tensor::Precision;

/// Checks a placement plan against the system it was made for:
///
/// - every site's spans tile `[0, elements)` in order, without gaps or
///   overlaps;
/// - every span lies in a partition that has an operating point;
/// - no used partition runs at a measured BER above the lowest tolerance
///   among the sites resident in it;
/// - no partition holds more rows than its capacity, and no span reaches
///   past it.
///
/// Returns every violation found.
pub fn check_plan(
    plan: &PlacementPlan,
    system: &MemorySystem,
    precision: Precision,
) -> Vec<String> {
    let mut errors = Vec::new();
    let bits = precision.bits() as u64;
    let slots: Vec<(usize, usize)> = system.slots().collect();
    let slot_index = |m: usize, p: usize| slots.iter().position(|&s| s == (m, p));
    let mut used_rows = vec![0u64; slots.len()];
    let mut min_tol = vec![f64::INFINITY; slots.len()];
    for placement in &plan.placements {
        let name = format!("{:?}", placement.data.site);
        let mut cursor = 0usize;
        for span in &placement.spans {
            if span.start_value != cursor || span.values == 0 {
                errors.push(format!(
                    "{name}: span at value {} (len {}) where {cursor} was expected",
                    span.start_value, span.values
                ));
            }
            cursor = span.start_value + span.values;
            let Some(s) = slot_index(span.module, span.partition) else {
                errors.push(format!(
                    "{name}: span in unknown slot ({}, {})",
                    span.module, span.partition
                ));
                continue;
            };
            let module = system.module(span.module);
            let row_bits = module.device().geometry().row_bits() as u64;
            let rows = (span.values as u64 * bits).div_ceil(row_bits).max(1);
            let cap_rows = module.partitions()[span.partition].capacity_bytes * 8 / row_bits;
            if span.base_row as u64 + rows > cap_rows {
                errors.push(format!(
                    "{name}: span rows {}..{} exceed partition capacity {cap_rows}",
                    span.base_row,
                    span.base_row as u64 + rows
                ));
            }
            used_rows[s] += rows;
            min_tol[s] = min_tol[s].min(placement.tolerable_ber);
        }
        if cursor != placement.data.elements {
            errors.push(format!(
                "{name}: spans cover {cursor} of {} values",
                placement.data.elements
            ));
        }
    }
    for (s, &(m, p)) in slots.iter().enumerate() {
        let module = system.module(m);
        let row_bits = module.device().geometry().row_bits() as u64;
        let cap_rows = module.partitions()[p].capacity_bytes * 8 / row_bits;
        if used_rows[s] > cap_rows {
            errors.push(format!(
                "slot ({m}, {p}) holds {} rows, capacity {cap_rows}",
                used_rows[s]
            ));
        }
        let op = plan
            .partition_ops
            .get(m)
            .and_then(|ops| ops.get(p))
            .copied()
            .flatten();
        match op {
            None if used_rows[s] > 0 => {
                errors.push(format!(
                    "slot ({m}, {p}) holds data but has no operating point"
                ));
            }
            Some(o) if used_rows[s] > 0 && module.ber(p, o) > min_tol[s] => {
                errors.push(format!(
                    "slot ({m}, {p}) runs at BER {:.3e} above its residents' tolerance {:.3e}",
                    module.ber(p, o),
                    min_tol[s]
                ));
            }
            _ => {}
        }
    }
    errors
}

/// Whether `accuracy` over `n` samples is a whole count of correct samples
/// in `[0, n]` (as an `f32` ratio, up to its rounding).
pub fn is_whole_accuracy(accuracy: f32, n: usize) -> bool {
    let correct = accuracy as f64 * n as f64;
    accuracy.is_finite()
        && (correct - correct.round()).abs() < 1e-3
        && (0.0..=n as f64).contains(&correct.round())
}

/// Sigmas the flip-count check allows on either side of its expectation.
pub const FLIP_SIGMAS: f64 = 6.0;

/// One group of loads that read the same cells: `loads` reads of `bits`
/// bits each at one placement.
#[derive(Debug, Clone, Copy)]
pub struct LoadGroup {
    pub bits: u64,
    pub loads: u64,
}

/// The interval in which the flip count of a uniform error model at `ber`
/// must fall, over the given load groups. Error Model 0 makes a cell weak
/// with probability `p` (fixed per address, so repeated loads of one group
/// share their weak cells) and flips a weak cell with probability `f` per
/// read, `p * f = ber`. The expectation is `ber` times the bits loaded;
/// the variance of a group of `k` reads of `b` bits is at most
/// `k b p f + k^2 b p f^2` (per-read noise plus the shared weak-cell
/// count). The interval is the expectation plus or minus [`FLIP_SIGMAS`]
/// standard deviations and one flip of slack.
pub fn uniform_flip_interval(groups: &[LoadGroup], ber: f64, f: f64) -> (f64, f64) {
    let p = ber / f;
    let mut mean = 0.0;
    let mut variance = 0.0;
    for g in groups {
        let (b, k) = (g.bits as f64, g.loads as f64);
        mean += ber * b * k;
        variance += k * b * p * f + k * k * b * p * f * f;
    }
    let half = FLIP_SIGMAS * variance.sqrt() + 1.0;
    ((mean - half).max(0.0), mean + half)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_core::characterize::FineCharacterization;
    use eden_core::mapping::{
        benefit_traffic_score, multi_module_map, MultiModuleConfig, PlanSpan,
    };
    use eden_dnn::{zoo, Dataset, SyntheticVision};
    use eden_dram::characterize::CharacterizeConfig;
    use eden_dram::geometry::Partition;
    use eden_dram::system::DramModule;
    use eden_dram::{ApproxDramDevice, OperatingPoint, Vendor};

    fn system() -> MemorySystem {
        let device = ApproxDramDevice::new(Vendor::A, 31);
        let parts: Vec<Partition> = (0..2)
            .map(|i| Partition {
                index: i,
                bank: i,
                first_subarray: 0,
                subarrays: 1,
                capacity_bytes: 4 * device.geometry().row_bytes as u64,
            })
            .collect();
        let cfg = CharacterizeConfig {
            rows_per_pattern: 1,
            bitlines_per_row: 1024,
            reads_per_row: 3,
            seed: 3,
        };
        let ops = [
            OperatingPoint::nominal(),
            OperatingPoint::with_vdd_reduction(0.25),
        ];
        MemorySystem::new(vec![DramModule::characterize(device, &parts, &ops, &cfg)])
    }

    fn plan(system: &MemorySystem) -> PlacementPlan {
        let dataset = SyntheticVision::tiny(1);
        let net = zoo::lenet(&dataset.spec(), 1);
        let tolerances = net.data_sites().into_iter().map(|d| (d, 1e-2)).collect();
        let fine = FineCharacterization {
            baseline_accuracy: 1.0,
            accuracy_floor: 0.9,
            tolerances,
        };
        multi_module_map(
            &fine,
            system,
            Precision::Int8,
            &MultiModuleConfig::default(),
            &benefit_traffic_score,
        )
    }

    #[test]
    fn the_search_output_passes_the_plan_check() {
        let system = system();
        let plan = plan(&system);
        assert!(!plan.placements.is_empty());
        assert_eq!(
            check_plan(&plan, &system, Precision::Int8),
            Vec::<String>::new()
        );
    }

    #[test]
    fn hand_built_infeasible_plans_are_rejected() {
        let system = system();
        let good = plan(&system);

        // A gap: the first span of a site starts one value late.
        let mut gap = good.clone();
        gap.placements[0].spans[0].start_value += 1;
        assert!(check_plan(&gap, &system, Precision::Int8)
            .iter()
            .any(|e| e.contains("expected")));

        // A resident less tolerant than its partition's BER.
        let mut strict = good.clone();
        strict.placements[0].tolerable_ber = 0.0;
        let module = system.module(0);
        let span = &strict.placements[0].spans[0];
        if module.ber(
            span.partition,
            strict.partition_ops[0][span.partition].unwrap(),
        ) > 0.0
        {
            assert!(check_plan(&strict, &system, Precision::Int8)
                .iter()
                .any(|e| e.contains("tolerance")));
        }

        // More rows than the partition has: one site stretched over 5 rows
        // of a 4-row partition.
        let mut over = good.clone();
        let values = 5 * module.device().geometry().row_bits() / 8;
        over.placements[0].data.elements = values;
        over.placements[0].spans = vec![PlanSpan {
            module: 0,
            partition: 0,
            base_row: 0,
            start_value: 0,
            values,
        }];
        over.partition_ops[0][0] = Some(0);
        let errors = check_plan(&over, &system, Precision::Int8);
        assert!(errors.iter().any(|e| e.contains("capacity")), "{errors:?}");

        // Data in a partition with no operating point.
        let mut unpowered = good;
        let p = unpowered.placements[0].spans[0].partition;
        unpowered.partition_ops[0][p] = None;
        assert!(check_plan(&unpowered, &system, Precision::Int8)
            .iter()
            .any(|e| e.contains("no operating point")));
    }

    #[test]
    fn accuracy_must_be_a_whole_count() {
        assert!(is_whole_accuracy(27.0 / 64.0, 64));
        assert!(is_whole_accuracy(0.0, 64) && is_whole_accuracy(1.0, 64));
        assert!(!is_whole_accuracy(0.4, 64));
        assert!(!is_whole_accuracy(f32::NAN, 64));
        assert!(!is_whole_accuracy(1.5, 2));
    }

    #[test]
    fn out_of_bound_flip_counts_are_rejected() {
        let groups = [
            LoadGroup {
                bits: 8 * 10_000,
                loads: 64,
            },
            LoadGroup {
                bits: 8 * 50_000,
                loads: 4,
            },
        ];
        let (lo, hi) = uniform_flip_interval(&groups, 1e-3, 0.5);
        let mean = 1e-3 * (8.0 * 10_000.0 * 64.0 + 8.0 * 50_000.0 * 4.0);
        assert!(lo < mean && mean < hi);
        assert!(lo > 0.0);
        // Twice or half the expected count is far outside.
        assert!(2.0 * mean > hi && 0.5 * mean < lo);
        // At BER 0 nothing may flip.
        let (lo0, hi0) = uniform_flip_interval(&groups, 0.0, 0.5);
        assert_eq!((lo0, hi0), (0.0, 1.0));
    }
}
