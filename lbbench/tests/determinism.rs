//! Exact counts repeat exactly: on one commit, set-up and the per-isolate
//! syscall count give the same numbers every time. These are the counts
//! the per-layer report prints as `analysis.*`, `jit.code_bytes`,
//! `jit.checks.*` and `core.*`; `BENCHMARK.json` must list the metrics
//! the benchmark reports.
//!
//! Telemetry counters are process-wide, so everything that reads them
//! runs in one test function.

use lb_core::{BoundsStrategy, Linker, MemoryConfig};
use lb_jit::{JitEngine, JitProfile};
use lbbench::modules::{self, CoreCounts, Prepared, SetupStats};
use lbbench::report::Report;
use lbbench::trace::Recorder;

/// The exact counts of one set-up of every Mini module under `strategy`.
fn counts(strategy: BoundsStrategy) -> (Vec<(String, [u64; 6])>, CoreCounts) {
    let engine = JitEngine::new(JitProfile::wavm());
    let cfg = MemoryConfig::new(strategy, 0, lb_wasm::MAX_PAGES);
    let mut rec = Recorder::new(0, true);
    let mut subjects = modules::polybench(lb_polybench::Dataset::Mini);
    subjects.extend(modules::spec(lb_spec_proxy::Scale::Mini));
    let expected = subjects.len();
    let mut report = Report::default();
    let prepared: Vec<Prepared> =
        modules::prepare_all(subjects, &engine, &cfg, &mut rec, &mut report);
    assert!(
        report.correct() && prepared.len() == expected,
        "set-up failed: {:?}",
        report.problems
    );
    let exact = |s: &SetupStats| {
        [
            s.elided,
            s.emitted,
            s.code_bytes,
            s.checks[0],
            s.checks[1],
            s.checks[2],
        ]
    };
    let setup = prepared
        .iter()
        .map(|p| (p.name().to_string(), exact(&p.setup)))
        .collect();
    let core = modules::count_core(&prepared, &cfg, &Linker::new()).expect("isolates run");
    (setup, core)
}

fn json_list<'a>(
    doc: &'a lb_telemetry::json::JsonValue,
    key: &str,
) -> &'a [lb_telemetry::json::JsonValue] {
    doc.get(key)
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

#[test]
fn exact_counts_repeat_and_the_catalog_matches_benchmark_json() {
    for strategy in [BoundsStrategy::Trap, BoundsStrategy::Uffd] {
        let first = counts(strategy);
        let second = counts(strategy);
        assert_eq!(
            first.0,
            second.0,
            "set-up counts differ under {}",
            strategy.name()
        );
        assert_eq!(
            first.1,
            second.1,
            "per-isolate counts differ under {}",
            strategy.name()
        );
        assert_eq!(
            first.1.mmap, 1.0,
            "one reservation per isolate with the pool off"
        );
        assert_eq!(first.1.mmap, first.1.munmap);
        let uffd = strategy == BoundsStrategy::Uffd;
        assert_eq!(first.1.uffd_register > 0.0, uffd);
        assert_eq!(first.1.uffd_zeropage > 0.0, uffd);
        if uffd {
            // uffd emits no check code.
            assert!(
                first.0.iter().all(|(_, c)| c[3..].iter().all(|&v| v == 0)),
                "{:?}",
                first.0
            );
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = lb_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
    for (key, catalog) in [
        ("end_to_end", &lbbench::END_TO_END[..]),
        ("per_layer", &lbbench::PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String, String)> = json_list(&doc, key)
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = catalog
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(
            listed, ours,
            "BENCHMARK.json {key} differs from the benchmark's catalog"
        );
    }
    let workloads: Vec<&str> = json_list(&doc, "workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(workloads, ["kernels", "churn", "serve"]);
}
