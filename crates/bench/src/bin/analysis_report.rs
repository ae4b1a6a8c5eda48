//! Static bounds-check analysis report over the PolyBench suite and the
//! SPEC proxies (both at Mini), and the CI elision-regression gate.
//!
//! For every module this prints the plan's access accounting — elided
//! (statically proven), hoisted (covered by a versioned loop's preheader
//! guard), emitted, and statically OOB — plus the elision ratio and the
//! wall time `lb-analysis` took (`analysis_ms`, informational only: it is
//! host-dependent and gates nothing). No code runs; the accounting comes
//! straight from `lb-analysis`, so the gate is deterministic and fast
//! enough for CI.
//!
//! Usage:
//!   analysis_report                     print the table
//!   analysis_report --check FLOORS      exit nonzero if any module's
//!                                       elision ratio fell below its
//!                                       recorded floor
//!   analysis_report --write-floors FLOORS
//!                                       record the current ratios
//!                                       (rounded down to 4 places)
//!
//! The floors file is TSV: `module<TAB>min_elision_ratio`, checked in at
//! `scripts/elision_floors.tsv` and consumed by `scripts/ci.sh`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct Row {
    accesses: u64,
    elided: u64,
    hoisted: u64,
    emitted: u64,
    oob: u64,
    analysis_ms: f64,
}

impl Row {
    fn ratio(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.elided as f64 / self.accesses as f64
        }
    }
}

fn analyze_all() -> BTreeMap<String, Row> {
    let mut benches = lb_polybench::all(lb_polybench::Dataset::Mini);
    benches.extend(lb_spec_proxy::all(lb_spec_proxy::Scale::Mini));
    let mut rows = BTreeMap::new();
    for bench in benches {
        let meta = lb_wasm::validate(&bench.module).expect("module validates");
        let t0 = Instant::now();
        let plan = lb_analysis::analyze_module(&bench.module, &meta);
        let analysis_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (accesses, elided, emitted, oob) = plan.totals();
        rows.insert(
            bench.name,
            Row {
                accesses,
                elided,
                hoisted: plan.total_hoisted(),
                emitted,
                oob,
                analysis_ms,
            },
        );
    }
    rows
}

fn parse_floors(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read floors file {path}: {e}"));
    let mut floors = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, ratio) = line
            .split_once('\t')
            .unwrap_or_else(|| panic!("malformed floors line: {line:?}"));
        floors.insert(
            name.to_string(),
            ratio
                .trim()
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("bad ratio for {name}: {e}")),
        );
    }
    floors
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = analyze_all();

    match args.first().map(String::as_str) {
        Some("--check") => {
            let path = args.get(1).expect("--check needs a floors file");
            let floors = parse_floors(path);
            let mut regressions = Vec::new();
            for (name, floor) in &floors {
                match rows.get(name) {
                    Some(row) if row.ratio() + 1e-9 < *floor => regressions.push(format!(
                        "{name}: elision ratio {:.4} fell below recorded floor {floor:.4} \
                         ({} of {} accesses elided, {} hoisted, {} emitted)",
                        row.ratio(),
                        row.elided,
                        row.accesses,
                        row.hoisted,
                        row.emitted
                    )),
                    Some(_) => {}
                    None => regressions.push(format!("{name}: module missing from the suite")),
                }
            }
            for name in rows.keys() {
                if !floors.contains_key(name) {
                    regressions.push(format!(
                        "{name}: no recorded floor — add it to {path} (--write-floors)"
                    ));
                }
            }
            if regressions.is_empty() {
                println!(
                    "analysis_report --check: {} modules at or above their elision floors",
                    rows.len()
                );
                ExitCode::SUCCESS
            } else {
                for r in &regressions {
                    eprintln!("analysis_report: REGRESSION: {r}");
                }
                ExitCode::FAILURE
            }
        }
        Some("--write-floors") => {
            let path = args.get(1).expect("--write-floors needs a floors file");
            let mut out = String::from(
                "# Per-module static elision floors (module<TAB>min ratio).\n\
                 # Regenerate with: cargo run -p lb-bench --bin analysis_report -- \
                 --write-floors scripts/elision_floors.tsv\n",
            );
            for (name, row) in &rows {
                // Round down so a recorded floor never exceeds its ratio.
                writeln!(out, "{name}\t{:.4}", (row.ratio() * 1e4).floor() / 1e4).unwrap();
            }
            std::fs::write(path, out).expect("write floors file");
            println!("wrote {} floors to {path}", rows.len());
            ExitCode::SUCCESS
        }
        _ => {
            println!(
                "{:<16} {:>9} {:>8} {:>8} {:>8} {:>5} {:>8} {:>12}",
                "module",
                "accesses",
                "elided",
                "hoisted",
                "emitted",
                "oob",
                "elide%",
                "analysis_ms"
            );
            for (name, r) in &rows {
                println!(
                    "{:<16} {:>9} {:>8} {:>8} {:>8} {:>5} {:>7.1}% {:>12.2}",
                    name,
                    r.accesses,
                    r.elided,
                    r.hoisted,
                    r.emitted,
                    r.oob,
                    100.0 * r.ratio(),
                    r.analysis_ms
                );
            }
            ExitCode::SUCCESS
        }
    }
}
