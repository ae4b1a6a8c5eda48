//! `lbbench --workload <kernels|churn|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one row per module, a host block, and as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics). The
//! traced run also writes its spans to `.bench_out/trace-<workload>.jsonl`.
//! Exits non-zero if any check failed.

use lbbench::host::{self, CpuTimes, HostBlock};
use lbbench::report::Report;
use lbbench::trace::Trace;
use lbbench::{churn, kernels, serve, Opts, Values};
use std::process::ExitCode;

const USAGE: &str =
    "usage: lbbench --workload <kernels|churn|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.unwrap_or(false),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::lb_knobs_set();
    if !knobs.is_empty() {
        eprintln!(
            "lbbench: refusing to run with program knobs set: {} (unset them; the benchmark runs default settings)",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let run: fn(&Opts, &mut Report, &mut Trace, &mut Values) = match args.workload.as_str() {
        "kernels" => kernels::run,
        "churn" => churn::run,
        "serve" => serve::run,
        other => {
            eprintln!("lbbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let cpu_start = CpuTimes::read();
    let mut report = Report::default();
    let mut trace = Trace::default();
    let mut values = Values::default();
    run(&args.opts, &mut report, &mut trace, &mut values);
    let ok = if report.attempted == 0 {
        0.0
    } else {
        (report.attempted - report.failed) as f64 / report.attempted as f64
    };
    values.set("ok_frac", ok);
    if args.opts.traced {
        lbbench::set_self_pct(&mut values, &trace);
        report.row(format!("trace spans {}", trace.span_count()));
        if let Err(e) = write_trace(&args.workload, &trace) {
            report.fail_check(format!("writing the trace: {e}"));
        }
    }
    lbbench::emit(&values, &mut report);

    for row in &report.rows {
        println!("{row}");
    }
    for p in &report.problems {
        println!("problem {p}");
    }
    let effective = if report.effective.is_empty() {
        "none"
    } else {
        &report.effective
    };
    let host_block = HostBlock {
        workload: &args.workload,
        seed: args.opts.seed,
        requested: report.requested,
        effective,
        cpu_start,
    };
    println!("host {}", host_block.to_json());
    let metrics = if args.opts.traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json(args.opts.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(workload: &str, trace: &Trace) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{workload}.jsonl")),
        trace.to_jsonl(),
    )
}
