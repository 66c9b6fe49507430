//! Benchmark entry point: `eden-perfbench --workload <pipeline|sweep|serve>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric (from a
//! traced run) with `--trace 1`. Exits 1 when a correctness check fails,
//! 2 on bad arguments.

use eden_perfbench::sys;
use eden_perfbench::trace::Tracer;
use eden_perfbench::workloads::{self, per_layer_from_trace, Run, END_TO_END, PER_LAYER};

fn fatal(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let value = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| fatal(&format!("missing {flag} <value>")));
    value
        .parse()
        .unwrap_or_else(|_| fatal(&format!("invalid value {value:?} for {flag}")))
}

/// A metric value as JSON: finite numbers with all their digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = arg(&args, "--workload");
    let seed: u64 = arg(&args, "--seed");
    let seconds: f64 = arg(&args, "--seconds");
    let traced = match arg::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        other => fatal(&format!("--trace must be 0 or 1, got {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        fatal("--seconds must be positive");
    }
    let threads = sys::nproc();
    eden_par::configure_threads(threads);

    let calibration_start = sys::calibration_ms();
    let (steal_start, total_start) = sys::steal_and_total_ticks();
    let run = Run {
        seed,
        seconds,
        threads,
        tracer: Tracer::new(traced),
    };
    let mut outcome = match workload.as_str() {
        "pipeline" => workloads::pipeline::run(&run),
        "sweep" => workloads::sweep::run(&run),
        "serve" => workloads::serve::run(&run),
        other => fatal(&format!(
            "unknown workload {other:?} (expected pipeline, sweep or serve)"
        )),
    };
    let (steal_end, total_end) = sys::steal_and_total_ticks();
    let steal_pct = 100.0 * (steal_end - steal_start) / (total_end - total_start).max(1.0);
    let calibration = 0.5 * (calibration_start + sys::calibration_ms());
    // A workload may have read its peak earlier, before work that is not
    // part of what it measures.
    outcome
        .end_to_end
        .entry("peak_rss_mb")
        .or_insert_with(sys::peak_rss_mb);
    outcome.per_layer.insert("host.calibration_ms", calibration);
    outcome.per_layer.insert("host.steal_pct", steal_pct);
    println!("host.calibration_ms {calibration:?}");
    println!("host.steal_pct {steal_pct:?}");

    let metrics: Vec<(&str, f64, &str)> = if traced {
        let layers = per_layer_from_trace(&run, &outcome);
        let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.json"));
        match run.tracer.write_json(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers[name], unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, outcome.end_to_end[name], unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    let correct = outcome.errors.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
