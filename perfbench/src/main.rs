//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints its metrics, the run
//! manifest, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero on any failed
//! check. `--workload all` runs every workload in its own process.

use perfbench::measure::{check_golden, end_to_end_metrics, layer_metrics, run_phase, Phase};
use perfbench::report::{commit, fnv1a, peak_rss_mib, tail_quantile, Json};
use perfbench::workloads::{build, Recorder, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Output directory for manifests and span logs (inside the benchmark's
/// own directory, ignored by git).
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("unit", Json::str(unit)), ("value", Json::Num(value))])
}

/// Run every workload, each in its own process (so each reports its own
/// peak resident set); exits non-zero if any did.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(mut workload) = build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let describe = workload.describe();

    // Untraced phase: the end-to-end metrics. A traced run spends half its
    // time here (for trace.overhead) and half traced.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = run_phase(workload.as_mut(), &mut Recorder::new(false), untraced_s);
    let recorded = check_golden(&args.workload, args.seed, &mut plain);
    let mut traced: Option<(Phase, Recorder)> = None;
    if args.trace {
        let mut rec = Recorder::new(true);
        let mut phase = run_phase(workload.as_mut(), &mut rec, args.seconds / 2.0);
        if phase.digest != plain.digest {
            phase
                .failures
                .push("traced reports differ from untraced reports".into());
        }
        traced = Some((phase, rec));
    }

    let q = tail_quantile(plain.slot_us.len());
    let rss = peak_rss_mib().unwrap_or(0.0);
    let mut failures = plain.failures.clone();
    let mut attempted = plain.ops;
    let mut failed = plain.failed();
    let metrics: Vec<(&str, f64, &str)> = match &traced {
        None => end_to_end_metrics(&plain, rss),
        Some((phase, rec)) => {
            failures.extend(phase.failures.iter().cloned());
            attempted += phase.ops;
            failed += phase.failed();
            layer_metrics(&rec.layers, plain.slots_per_s, phase.slots_per_s)
        }
    };

    println!(
        "perfbench {} seed {} trace {}: {} untraced rounds (1 warm-up), {} slot samples",
        args.workload,
        args.seed,
        u8::from(args.trace),
        plain.rounds,
        plain.slot_us.len()
    );
    if traced.is_none() {
        println!("  tail percentile used for slot_p99_us: p{:.1}", q * 100.0);
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    println!("  operations attempted {attempted}, failed {failed}");
    for f in &failures {
        println!("  FAILED: {f}");
    }

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let manifest = Json::obj([
        ("available_parallelism", Json::Int(available as i128)),
        ("commit", Json::str(commit())),
        ("config", Json::str(&describe.config)),
        (
            "config_hash",
            Json::str(format!("{:016x}", fnv1a(describe.config.as_bytes()))),
        ),
        ("digest", Json::str(&plain.digest)),
        ("digest_golden", recorded.map_or(Json::Null, Json::str)),
        (
            "exec_mode",
            describe
                .exec_mode
                .map_or(Json::Null, |(mode, auto, auto_threads)| {
                    Json::obj([
                        ("auto_resolves_to", Json::str(auto)),
                        ("auto_threads", Json::Int(auto_threads as i128)),
                        ("measured", Json::str(mode)),
                    ])
                }),
        ),
        (
            "generators",
            Json::Arr(describe.generators.iter().map(Json::str).collect()),
        ),
        ("rounds", Json::Int(plain.rounds as i128)),
        ("seed", Json::Int(args.seed.into())),
        ("slot_samples", Json::Int(plain.slot_us.len() as i128)),
        ("threads", Json::Int(describe.threads as i128)),
        ("trace", Json::Bool(args.trace)),
        ("workload", Json::str(&args.workload)),
    ])
    .render();
    println!("manifest {manifest}");
    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("manifest-{stem}.json")), &manifest))
        .and_then(|()| match &traced {
            Some((_, rec)) => rec
                .spans
                .write_jsonl(&dir.join(format!("spans-{stem}.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write to {}: {e}", dir.display());
    }

    let correct = failures.is_empty();
    let result = Json::obj([
        ("attempted", Json::Int(attempted.into())),
        ("correct", Json::Bool(correct)),
        ("failed", Json::Int(failed.max(u64::from(!correct)).into())),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| (name, metric(value, unit))),
            ),
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
