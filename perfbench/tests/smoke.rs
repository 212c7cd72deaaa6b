//! Smoke tests: every workload at a short horizon, and the metric names
//! against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{self, Horizon};
use perfbench::episode::{self, RunConfig, Stepping};
use perfbench::stats::valid_name;
use perfbench::workload::{Member, Workload, NAMES};
use serde::Value;

/// `name` generated for `seed` with a 0.5 s warm-up and a 1 s measured
/// window.
fn short(name: &str, seed: u64) -> Workload {
    let horizon_us = 1_500_000;
    let mut w = Workload::build(name, seed, horizon_us).expect("known workload");
    w.warmup_us = 500_000;
    w.measure_us = 1_000_000;
    w
}

#[test]
fn every_workload_runs_and_advance_splitting_does_not_matter() {
    for name in NAMES {
        let w = short(name, 7);
        w.check_population().expect("inside the population guard");
        let stepped = episode::run(&w, w.episode_us(), RunConfig::MEASURED);
        let unstepped = episode::run(
            &w,
            w.episode_us(),
            RunConfig {
                stepping: Stepping::Events,
                ..RunConfig::MEASURED
            },
        );
        assert_eq!(stepped.outcome.digest, unstepped.outcome.digest, "{name}");
        assert!(stepped.outcome.quality.clipped.is_empty(), "{name}");
        assert_eq!(stepped.timing.period_ns.len(), 100, "{name}");
        assert!(stepped.timing.dispatches > 0, "{name}");
        if w.shards > 1 {
            let parallel = RunConfig {
                parallel: true,
                ..RunConfig::MEASURED
            };
            let par = episode::run(&w, w.episode_us(), parallel);
            assert_eq!(stepped.outcome.digest, par.outcome.digest, "{name}");
        }
    }
}

#[test]
fn the_population_guard_refuses_an_overloaded_controller() {
    let mut w = short("spin_saturated", 1);
    w.members = vec![Member::Spinner { importance: 1.0 }; 1_514];
    assert!(w.check_population().is_ok(), "1514 jobs cost 9998.1 us");
    w.members.push(Member::Spinner { importance: 1.0 });
    assert!(w.check_population().is_err(), "1515 jobs cost 10004.7 us");
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(Workload::build("nope", 1, 1).is_none());
    assert!(bench::workload("nope", 1, Horizon::Check).is_err());
}

/// The `name`s of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let Ok(Value::Obj(top)) = serde_json::from_str::<Value>(&text) else {
        panic!("BENCHMARK.json is a JSON object");
    };
    let Some((_, Value::Arr(items))) = top.iter().find(|(k, _)| k == section) else {
        panic!("BENCHMARK.json has a {section} list");
    };
    items
        .iter()
        .map(|item| match item {
            Value::Obj(fields) => match fields.iter().find(|(k, _)| k == "name") {
                Some((_, Value::Str(name))) => name.clone(),
                _ => panic!("every {section} entry has a name"),
            },
            _ => panic!("{section} entries are objects"),
        })
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_the_declared_lists() {
    for name in NAMES {
        let w = short(name, 3);
        let e2e = bench::end_to_end(&w, 0.0).expect("short run is correct");
        let layers = bench::per_layer(&w, 0.0, None).expect("short traced run is correct");
        for m in e2e.metrics.iter().chain(&layers.metrics) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        let names = |ms: &[perfbench::stats::Metric]| -> Vec<String> {
            ms.iter().map(|m| m.name.clone()).collect()
        };
        assert_eq!(names(&e2e.metrics), declared("end_to_end"), "{name}");
        assert_eq!(names(&layers.metrics), declared("per_layer"), "{name}");
        for m in &e2e.metrics {
            assert!(m.value > 0.0, "{name}: {} must never be 0", m.name);
        }
        // The per-layer ledger adds up: controller time plus the rest of
        // the advance is the advance total.
        let get = |n: &str| {
            layers
                .metrics
                .iter()
                .find(|m| m.name == n)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("{n} reported"))
        };
        let sum = get("core.cycle_ns.total") + get("sim.advance_minus_core_ns");
        assert!(
            (sum - get("api.advance_us.total") * 1e3).abs() < 1.0,
            "{name}"
        );
        assert_eq!(get("telemetry.events_dropped"), 0.0, "{name}");
        assert_eq!(
            get("core.cycle_events"),
            get("core.cycles_full") + get("core.cycles_incremental"),
            "{name}: every controller cycle was harvested"
        );
    }
}

#[test]
fn names_outside_the_alphabet_are_rejected() {
    assert!(valid_name("core.cycle_ns.full.p99"));
    assert!(valid_name("a-b_c.9"));
    assert!(!valid_name(""));
    assert!(!valid_name("latency p99"));
    assert!(!valid_name("x/y"));
}

/// Open finding: beside the `paper_mix` load a typist's allocation can
/// stick at the 1 ppt floor while it has keystrokes to handle, so its
/// p99 latency clips at the top of the 1 s histogram.  Typists are left
/// out of `paper_mix` until this passes.
#[test]
#[ignore = "open finding: typists starve at the 1 ppt floor beside the paper_mix load"]
fn typists_beside_the_paper_mix_load_are_served() {
    for seed in [3, 13] {
        let (mut w, horizon_us) = bench::workload("paper_mix", seed, Horizon::Check).unwrap();
        for _ in 0..4 {
            w.members.push(Member::Typist {
                hz: 5.0,
                mcycles: 2.0,
            });
        }
        let ep = episode::run(&w, horizon_us, RunConfig::MEASURED);
        assert!(
            ep.outcome.quality.clipped.is_empty(),
            "seed {seed}: clipped sources {:?}",
            ep.outcome.quality.clipped
        );
    }
}
