//! The benchmark's three phases: correctness checks, the untraced
//! end-to-end measurement and the traced per-layer measurement.

use crate::episode::{self, Episode, Layers, RunConfig, Stepping};
use crate::replay;
use crate::stats::{median, percentile_of, Metric};
use crate::workload::Workload;
use rrs_telemetry::chrome_trace;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The seed whose digests are committed.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, never used while tuning, whose digests are committed
/// too.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Committed digests: `workload seed digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// The measured loop with a sharded machine's shards on parallel threads.
const PARALLEL: RunConfig = RunConfig {
    parallel: true,
    ..RunConfig::MEASURED
};

/// Set-up is measured at least this many times per run.
const MIN_SETUPS: usize = 5;

/// Trace events kept for the Chrome export.
const EXPORT_EVENTS: usize = 50_000;

/// The committed digest of `name` at `seed`, if any.
pub fn committed_digest(name: &str, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        (w == name && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Which horizon a workload is generated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The shorter correctness-check horizon.
    Check,
    /// A measured episode: warm-up plus measured window.
    Episode,
}

/// Builds workload `name` for `seed` over the chosen horizon, after the
/// population guard.  Returns the workload and its horizon in µs.
pub fn workload(name: &str, seed: u64, horizon: Horizon) -> Result<(Workload, u64), String> {
    let shape = Workload::build(name, seed, 0).ok_or_else(|| format!("unknown workload {name}"))?;
    let horizon_us = match horizon {
        Horizon::Check => shape.check_us,
        Horizon::Episode => shape.episode_us(),
    };
    let w = Workload::build(name, seed, horizon_us).expect("name checked above");
    w.check_population()?;
    Ok((w, horizon_us))
}

/// The digest of the check episode of `name` at `seed` (stepped): what `digests.txt` records.
pub fn check_digest(name: &str, seed: u64) -> Result<u64, String> {
    let (w, horizon_us) = workload(name, seed, Horizon::Check)?;
    Ok(episode::run(&w, horizon_us, RunConfig::MEASURED)
        .outcome
        .digest)
}

/// Everything a correctness check found wrong, empty when all passed.
fn verdict(ep: &Episode, what: &str) -> Vec<String> {
    let mut errors = Vec::new();
    for slo in ep.outcome.slos.iter().filter(|s| !s.passed) {
        errors.push(format!("{what}: SLO failed: {}", slo.description));
    }
    for source in &ep.outcome.quality.clipped {
        errors.push(format!(
            "{what}: latency of {source} reached the limit (clipped percentile)"
        ));
    }
    errors
}

/// Runs the correctness checks of workload `name` for the default seed,
/// the held-out seed and the run's own seed: committed digests (the
/// first two), SLOs, clipped latencies, stepped against unstepped and
/// parallel against sequential shards.
pub fn check(name: &str, run_seed: u64) -> Result<(), String> {
    let mut errors = Vec::new();
    for seed in [DEFAULT_SEED, HELD_OUT_SEED, run_seed] {
        let (w, horizon_us) = workload(name, seed, Horizon::Check)?;
        let what = format!("{name} seed {seed}");
        let stepped = episode::run(&w, horizon_us, RunConfig::MEASURED);
        errors.extend(verdict(&stepped, &what));
        let digest = stepped.outcome.digest;
        let unstepped = RunConfig {
            stepping: Stepping::Events,
            ..RunConfig::MEASURED
        };
        if episode::run(&w, horizon_us, unstepped).outcome.digest != digest {
            errors.push(format!("{what}: stepped and unstepped advance differ"));
        }
        if w.shards > 1 && episode::run(&w, horizon_us, PARALLEL).outcome.digest != digest {
            errors.push(format!("{what}: parallel and sequential shards differ"));
        }
        if seed == DEFAULT_SEED || seed == HELD_OUT_SEED {
            match committed_digest(name, seed) {
                Some(c) if c == digest => {}
                Some(c) => errors.push(format!(
                    "{what}: digest {digest:016x} differs from committed {c:016x}"
                )),
                None => errors.push(format!("{what}: no committed digest")),
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// Peak resident set size of this process, in MB (0 where the kernel
/// does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end measurement.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The metrics of the result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload-specific quality figures for the printed summary:
    /// `(name, value or None when absent, unit)`.
    pub quality: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Median host slowdown against [`CALIBRATION_REF_MS`].
    pub slowdown: f64,
    /// Measured episodes.
    pub episodes: usize,
    /// Measured 10 ms periods.
    pub periods: usize,
    /// Operations attempted over every measured episode.
    pub attempted: u64,
    /// Operations failed over every measured episode.
    pub failed: u64,
}

/// The calibration kernel's median time on the host the bounds were
/// tuned on (a 2-vCPU Intel Xeon VM), in ms.  End-to-end wall-clock
/// figures are scaled to a host of this speed.
pub const CALIBRATION_REF_MS: f64 = 27.0;

/// Times a fixed kernel that shares no code with the program under test,
/// in ms: 200,000 pseudo-random inserts and removals on a standard-library
/// `BTreeMap` of about 16,000 keys.  Like the simulator, it is bound by
/// dependent loads and branches, so its time tracks the speed the host
/// lends this process, which drifts by tens of percent over minutes on a
/// shared machine.
pub fn calibration_ms() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..16_384 {
        let v = next();
        map.insert(v & 0xf_ffff, v);
    }
    let started = Instant::now();
    for _ in 0..200_000 {
        let v = next();
        if map.remove(&(v & 0xf_ffff)).is_none() {
            map.insert(v & 0xf_ffff, v);
            map.pop_first();
        }
    }
    std::hint::black_box(map.len());
    started.elapsed().as_secs_f64() * 1e3
}

/// Runs one measured episode right after timing the calibration kernel.
/// Returns the episode and the host's slowdown against the reference
/// (above 1 on a slower host).
fn calibrated(w: &Workload, horizon_us: u64) -> (Episode, f64) {
    let slowdown = calibration_ms() / CALIBRATION_REF_MS;
    (episode::run(w, horizon_us, RunConfig::MEASURED), slowdown)
}

/// Runs measured episodes of `w` until `seconds` of wall time have
/// passed (at least one), checking that every episode reproduces the
/// first one's outputs.
pub fn end_to_end(w: &Workload, seconds: f64) -> Result<EndToEnd, String> {
    let started = Instant::now();
    let mut runs = vec![calibrated(w, w.episode_us())];
    // Read after one episode: later episodes only add allocator
    // fragmentation, which would tie the figure to the episode count.
    let peak_rss = peak_rss_mb();
    while started.elapsed().as_secs_f64() < seconds {
        runs.push(calibrated(w, w.episode_us()));
    }
    let mut setups: Vec<f64> = runs.iter().map(|(e, s)| e.timing.setup_s / s).collect();
    while setups.len() < MIN_SETUPS {
        let (e, s) = calibrated(w, w.warmup_us);
        setups.push(e.timing.setup_s / s);
    }
    let first = &runs[0].0;
    let mut errors = verdict(first, &format!("{} measured", w.name));
    if runs
        .iter()
        .any(|(e, _)| e.outcome.digest != first.outcome.digest)
    {
        errors.push(format!("{}: measured episodes differ", w.name));
    }
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }

    // Every wall-clock figure is taken per episode, scaled by the host
    // slowdown measured just before it, and reported as the median over
    // the run's episodes: a burst of host noise moves one episode, a
    // slower or faster host moves the kernel with it.
    let per_episode = |f: &dyn Fn(&Episode, f64) -> f64| {
        median(&runs.iter().map(|(e, s)| f(e, *s)).collect::<Vec<_>>())
    };
    let rate = |f: &dyn Fn(&Episode) -> f64| per_episode(&|e, s| f(e) / e.timing.wall_s * s);
    let period_pct =
        |pct: f64| per_episode(&|e, s| percentile_of(&e.timing.period_ns, pct) / 1e3 / s);
    let q = &first.outcome.quality;
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("sim_s_per_wall_s", rate(&|e| e.timing.sim_s), "s/s"),
        Metric::new(
            "dispatches_per_wall_s",
            rate(&|e| e.timing.dispatches as f64),
            "1/s",
        ),
        Metric::new(
            "delivered_cpu_s_per_wall_s",
            rate(&|e| e.timing.delivered_us as f64 / 1e6),
            "s/s",
        ),
        Metric::new("period_wall_p50_us", period_pct(50.0), "us"),
        Metric::new("period_wall_p99_us", period_pct(99.0), "us"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
        Metric::new("utilization", q.utilization, "fraction"),
        Metric::new(
            "controller_overhead_frac",
            q.controller_overhead_frac,
            "fraction",
        ),
    ];
    let quality = vec![
        ("deadline_miss_rate", q.deadline_miss_rate, "fraction"),
        ("latency_p50_ms", q.latency_p50_ms, "ms"),
        ("latency_p99_ms", q.latency_p99_ms, "ms"),
        ("ops_failed_frac", Some(q.ops_failed_frac()), "fraction"),
    ];
    Ok(EndToEnd {
        metrics,
        quality,
        slowdown: per_episode(&|_, s| s),
        episodes: runs.len(),
        periods: runs.iter().map(|(e, _)| e.timing.period_ns.len()).sum(),
        attempted: runs
            .iter()
            .map(|(e, _)| e.outcome.quality.ops_attempted)
            .sum(),
        failed: runs.iter().map(|(e, _)| e.outcome.quality.ops_failed).sum(),
    })
}

/// One round of the traced measurement.
struct Round {
    /// Untraced episode in the traced episode's configuration.
    plain: Episode,
    /// Traced episode.
    traced: Episode,
    /// Untraced parallel episode (sharded workloads only).
    parallel: Option<Episode>,
    /// Isolated scheduler replay (spinner-only workloads only).
    replay: Option<replay::Replay>,
    /// Wall µs of one scoped spawn-and-join of every shard's thread.
    spawn_us: f64,
    /// The calibration kernel's time just before the round, in ms.
    calibration_ms: f64,
}

/// Wall µs of one `std::thread::scope` that spawns `threads` empty
/// threads and joins them: the fixed cost a parallel sharded `advance`
/// pays per barrier.
fn scope_spawn_us(threads: usize) -> f64 {
    const REPS: u32 = 200;
    let started = Instant::now();
    for _ in 0..REPS {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| std::hint::black_box(0u64));
            }
        });
    }
    started.elapsed().as_secs_f64() * 1e6 / REPS as f64
}

/// The traced per-layer measurement.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Rounds run.
    pub rounds: usize,
    /// Operations attempted in the representative traced episode.
    pub attempted: u64,
    /// Operations failed in it.
    pub failed: u64,
}

/// Runs traced rounds of `w` until `seconds` have passed (at least one)
/// and reports the per-layer metrics of the round whose traced `advance`
/// total is the median, so every metric comes from one consistent
/// episode.  Writes the first round's trace to `export` when given.
pub fn per_layer(w: &Workload, seconds: f64, export: Option<&Path>) -> Result<PerLayer, String> {
    let started = Instant::now();
    let sharded = w.shards > 1;
    // The ledger is taken with shards run sequentially, where the layers
    // share one thread and add up; the parallel run gives the speed-up.
    let base = RunConfig::MEASURED;
    let spinners_only = w.schedule.is_empty()
        && w.members
            .iter()
            .all(|m| matches!(m, crate::workload::Member::Spinner { .. }));
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let calibration_ms = calibration_ms();
        let plain = episode::run(w, w.episode_us(), base);
        let traced = episode::run(
            w,
            w.episode_us(),
            RunConfig {
                traced: true,
                export_events: if rounds.is_empty() && export.is_some() {
                    EXPORT_EVENTS
                } else {
                    0
                },
                ..base
            },
        );
        let parallel = sharded.then(|| episode::run(w, w.episode_us(), PARALLEL));
        let replay = spinners_only.then(|| replay::run(w, w.measure_us));
        let spawn_us = if sharded {
            scope_spawn_us(w.shards)
        } else {
            0.0
        };
        rounds.push(Round {
            plain,
            traced,
            parallel,
            replay,
            spawn_us,
            calibration_ms,
        });
    }
    let first = &rounds[0];
    let mut errors = verdict(&first.traced, &format!("{} traced", w.name));
    if first.traced.outcome.digest != first.plain.outcome.digest {
        errors.push(format!("{}: tracing changed the simulated outputs", w.name));
    }
    if !errors.is_empty() {
        return Err(errors.join("\n"));
    }
    if let (Some(path), Some(l)) = (export, first.traced.layers.as_ref()) {
        write_chrome_trace(path, l)?;
    }

    let advance_total = |r: &Round| -> u64 {
        r.traced
            .layers
            .as_ref()
            .map_or(0, |l| l.advance_ns.iter().sum())
    };
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by_key(|&i| advance_total(&rounds[i]));
    let round = &rounds[order[(order.len() - 1) / 2]];
    let layers = round.traced.layers.as_ref().expect("traced episode");
    let q = &round.traced.outcome.quality;
    Ok(PerLayer {
        metrics: layer_metrics(w, round, layers),
        rounds: rounds.len(),
        attempted: q.ops_attempted,
        failed: q.ops_failed,
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn layer_metrics(w: &Workload, round: &Round, l: &Layers) -> Vec<Metric> {
    let t = &l.telemetry;
    let us = |ns: f64| ns / 1e3;
    let advance_ns: u64 = l.advance_ns.iter().sum();
    let cycle_ns: u64 =
        l.cycle_full_ns.iter().sum::<u64>() + l.cycle_incremental_ns.iter().sum::<u64>();
    let outside_core_ns = advance_ns as f64 - cycle_ns as f64;
    let q = &round.traced.outcome.quality;
    let per_sim_s = |e: &Episode| e.timing.wall_s / e.timing.sim_s.max(1e-9);
    let mut m = vec![
        Metric::new("api.build_us", us(l.build_ns as f64), "us"),
        Metric::new(
            "api.add_job_us.p50",
            us(percentile_of(&l.add_job_ns, 50.0)),
            "us",
        ),
        Metric::new(
            "api.add_job_us.p99",
            us(percentile_of(&l.add_job_ns, 99.0)),
            "us",
        ),
        Metric::new("api.add_job_us.count", l.add_job_ns.len() as f64, "count"),
        Metric::new(
            "api.remove_job_us.p50",
            us(percentile_of(&l.remove_job_ns, 50.0)),
            "us",
        ),
        Metric::new(
            "api.remove_job_us.p99",
            us(percentile_of(&l.remove_job_ns, 99.0)),
            "us",
        ),
        Metric::new(
            "api.remove_job_us.count",
            l.remove_job_ns.len() as f64,
            "count",
        ),
        Metric::new(
            "api.grow_cpus_us.total",
            us(l.grow_ns.iter().sum::<u64>() as f64),
            "us",
        ),
        Metric::new(
            "api.advance_us.p50",
            us(percentile_of(&l.advance_ns, 50.0)),
            "us",
        ),
        Metric::new(
            "api.advance_us.p99",
            us(percentile_of(&l.advance_ns, 99.0)),
            "us",
        ),
        Metric::new("api.advance_us.total", us(advance_ns as f64), "us"),
        Metric::new("api.advance_us.count", l.advance_ns.len() as f64, "count"),
        Metric::new(
            "api.periods",
            round.traced.timing.period_ns.len() as f64,
            "count",
        ),
        Metric::new("core.cycles_full", t.controller_full_cycles as f64, "count"),
        Metric::new(
            "core.cycles_incremental",
            t.controller_incremental_cycles as f64,
            "count",
        ),
        Metric::new(
            "core.incremental_skip_rate",
            t.incremental_skip_rate,
            "fraction",
        ),
        Metric::new(
            "core.cycle_ns.full.p50",
            percentile_of(&l.cycle_full_ns, 50.0),
            "ns",
        ),
        Metric::new(
            "core.cycle_ns.full.p99",
            percentile_of(&l.cycle_full_ns, 99.0),
            "ns",
        ),
        Metric::new(
            "core.cycle_ns.incremental.p50",
            percentile_of(&l.cycle_incremental_ns, 50.0),
            "ns",
        ),
        Metric::new(
            "core.cycle_ns.incremental.p99",
            percentile_of(&l.cycle_incremental_ns, 99.0),
            "ns",
        ),
        Metric::new("core.cycle_ns.total", cycle_ns as f64, "ns"),
        Metric::new(
            "core.cycle_events",
            (l.cycle_full_ns.len() + l.cycle_incremental_ns.len()) as f64,
            "count",
        ),
        Metric::new("core.stage_ns.sense", t.stage_sense_ns as f64, "ns"),
        Metric::new("core.stage_ns.classify", t.stage_classify_ns as f64, "ns"),
        Metric::new("core.stage_ns.estimate", t.stage_estimate_ns as f64, "ns"),
        Metric::new("core.stage_ns.allocate", t.stage_allocate_ns as f64, "ns"),
        Metric::new("core.stage_ns.place", t.stage_place_ns as f64, "ns"),
        Metric::new("core.stage_ns.actuate", t.stage_actuate_ns as f64, "ns"),
        Metric::new(
            "core.share",
            ratio(cycle_ns as f64, advance_ns as f64),
            "fraction",
        ),
        Metric::new("core.squish_events", l.sim.squish_events as f64, "count"),
        Metric::new(
            "core.quality_exceptions",
            l.sim.quality_exceptions as f64,
            "count",
        ),
        Metric::new("sched.dispatches", t.dispatches as f64, "count"),
        Metric::new("sched.context_switches", t.context_switches as f64, "count"),
        Metric::new("sched.settles.goodness", t.settles_goodness as f64, "count"),
        Metric::new(
            "sched.settles.period_boundary",
            t.settles_period_boundary as f64,
            "count",
        ),
        Metric::new(
            "sched.settles.throttle_edge",
            t.settles_throttle_edge as f64,
            "count",
        ),
        Metric::new(
            "sched.settles.zero_span",
            t.settles_zero_span as f64,
            "count",
        ),
        Metric::new(
            "sched.settles_per_dispatch",
            ratio(t.settles_total() as f64, t.dispatches as f64),
            "ratio",
        ),
        Metric::new("sched.cache_hits", t.quantum_cache_hits as f64, "count"),
        Metric::new(
            "sched.cache_lookups",
            (t.quantum_cache_hits + t.quantum_cache_misses) as f64,
            "count",
        ),
        Metric::new("sched.cache_hit_rate", t.cache_hit_rate, "fraction"),
        Metric::new("sched.period_rollovers", t.period_rollovers as f64, "count"),
        Metric::new("sched.migrations", t.migrations as f64, "count"),
        Metric::new(
            "sched.ns_per_dispatch",
            ratio(outside_core_ns, t.dispatches as f64),
            "ns",
        ),
        Metric::new(
            "sched.replay.ns_per_dispatch",
            round.replay.map_or(0.0, |r| r.ns_per_dispatch()),
            "ns",
        ),
        Metric::new(
            "sched.replay.dispatches",
            round.replay.map_or(0.0, |r| r.dispatches as f64),
            "count",
        ),
        Metric::new("sim.events.controller", t.events_controller as f64, "count"),
        Metric::new("sim.events.wake", t.events_wake as f64, "count"),
        Metric::new("sim.events.poll_tick", t.events_poll_tick as f64, "count"),
        Metric::new("sim.events.trace", t.events_trace as f64, "count"),
        Metric::new("sim.events.horizon", t.events_horizon as f64, "count"),
        Metric::new(
            "sim.ns_per_event",
            ratio(outside_core_ns, t.calendar_events_total() as f64),
            "ns",
        ),
        Metric::new("sim.advance_minus_core_ns", outside_core_ns, "ns"),
    ];
    let (barriers, speedup) = if w.shards > 1 {
        let par = round
            .parallel
            .as_ref()
            .expect("sharded rounds run parallel");
        (
            (l.advance_calls + t.rebalance_cycles) as f64,
            ratio(per_sim_s(&round.plain), per_sim_s(par)),
        )
    } else {
        (0.0, 0.0)
    };
    m.extend([
        Metric::new("sharded.barriers", barriers, "count"),
        Metric::new(
            "sharded.rebalance_cycles",
            t.rebalance_cycles as f64,
            "count",
        ),
        Metric::new(
            "sharded.rebalance_migrations",
            t.rebalance_migrations as f64,
            "count",
        ),
        Metric::new("sharded.parallel_speedup", speedup, "ratio"),
        Metric::new("sharded.spawn_us_per_advance", round.spawn_us, "us"),
        Metric::new("scenario.arrivals", q.arrivals as f64, "count"),
        Metric::new("scenario.spawned", q.spawned as f64, "count"),
        Metric::new("scenario.departed", q.departed as f64, "count"),
        Metric::new("scenario.rejected", q.rejected as f64, "count"),
        Metric::new("model.controller_cost_us", l.sim.controller_cost_us, "us"),
        Metric::new(
            "model.dispatch_overhead_us",
            l.sim.dispatch_overhead_us,
            "us",
        ),
        Metric::new(
            "telemetry.events_recorded",
            l.events_recorded as f64,
            "count",
        ),
        Metric::new("telemetry.events_dropped", l.events_dropped as f64, "count"),
        Metric::new(
            "telemetry.overhead_frac",
            ratio(per_sim_s(&round.traced), per_sim_s(&round.plain)) - 1.0,
            "fraction",
        ),
        Metric::new("host.calibration_ms", round.calibration_ms, "ms"),
    ]);
    m
}

/// Writes the kept trace events plus the benchmark's own `Host` call
/// spans as Chrome trace-event JSON (loadable in Perfetto).  The spans go
/// on their own track; their timestamps are simulated µs like the
/// program's events, their durations wall µs.
fn write_chrome_trace(path: &Path, l: &Layers) -> Result<(), String> {
    let mut json = chrome_trace(&l.export);
    let spans: Vec<String> = l
        .export_spans
        .iter()
        .map(|(name, ts, ns)| {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"api\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{:.3},\"pid\":0,\"tid\":1000}}",
                *ns as f64 / 1e3
            )
        })
        .collect();
    if !spans.is_empty() {
        let at = json.find('[').expect("chrome_trace emits an array") + 1;
        let sep = if json[at..].starts_with(']') { "" } else { "," };
        json.insert_str(at, &format!("{}{sep}", spans.join(",")));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}
