//! One episode: build a host, install a workload, drive it through its
//! schedule in a closed loop, and collect what it produced.
//!
//! The caller thread is the only client.  In [`Stepping::Period`] it
//! advances one 10 ms controller period at a time (splitting a period at
//! any scheduled spawn, departure or hot-add inside it) and times each
//! period; in [`Stepping::Events`] it advances straight from one
//! scheduled action to the next.  Both must produce the same outputs.

use crate::stats::fnv1a;
use crate::workload::{
    latency_source, Action, Member, Transient, Workload, LATENCY_LIMIT_US, PERIOD_US,
};
use rrs_api::{Host, HostStats, Runtime, ShardConfig, SimTime};
use rrs_core::{JobHandle, JobSpec};
use rrs_scenario::slo::Observations;
use rrs_scenario::SloOutcome;
use rrs_scheduler::{Period, Proportion};
use rrs_sim::{RunResult, SimStats, WorkModel};
use rrs_telemetry::{TelemetryConfig, TelemetrySnapshot, TraceEvent, TraceEventKind};
use rrs_workloads::{
    CpuHog, InteractiveJob, LatencyStats, LatencySummary, ModemConfig, ModemStats, PipelineConfig,
    PulsePipeline, ServerConfig, SoftwareModem, VideoPipeline, VideoPipelineConfig, WebServer,
};
use std::sync::Arc;
use std::time::Instant;

/// How the caller splits `advance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// One 10 ms controller period per step (the measured closed loop).
    Period,
    /// Straight from one scheduled action to the next.
    Events,
}

/// How one episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// How the caller splits `advance`.
    pub stepping: Stepping,
    /// Run the shards of a sharded machine on parallel threads.
    pub parallel: bool,
    /// Record per-layer spans and harvest the program's trace events.
    pub traced: bool,
    /// Keep up to this many trace events for the Chrome trace export.
    pub export_events: usize,
}

impl RunConfig {
    /// The untraced measured closed loop.  Shards run sequentially: on a
    /// small host the parallel mode's per-`advance` thread spawns swamp
    /// the measurement (the traced run reports that cost on its own).
    pub const MEASURED: RunConfig = RunConfig {
        stepping: Stepping::Period,
        parallel: false,
        traced: false,
        export_events: 0,
    };
}

/// Web-server backlog, in requests: at 100 requests/s a full backlog
/// is 160 ms of queueing, well inside the latency limit.
const SERVER_BACKLOG: usize = 16;

/// Events the per-period trace ring holds.  The recorder is replaced
/// after every period, so it only has to hold one period's events.
const RING_CAPACITY: usize = 1 << 15;

/// The simulated outputs of an episode: deterministic for a given
/// workload, seed and horizon.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a digest of the host and simulator statistics, the telemetry
    /// counters, the latency summaries, the SLO verdicts and the arrival
    /// counters.
    pub digest: u64,
    /// Every SLO's verdict.
    pub slos: Vec<SloOutcome>,
    /// Modelled-quality figures.
    pub quality: Quality,
}

/// Modelled-quality figures of an episode.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Real-time periods missed over periods observed (`None` without
    /// real-time members).
    pub deadline_miss_rate: Option<f64>,
    /// Worst source's median latency in ms (`None` without sources or
    /// when a percentile is clipped at the limit).
    pub latency_p50_ms: Option<f64>,
    /// Worst source's p99 latency in ms (same absences as p50).
    pub latency_p99_ms: Option<f64>,
    /// Sources whose p50 or p99 reached the latency limit.
    pub clipped: Vec<String>,
    /// Delivered CPU time over machine capacity.
    pub utilization: f64,
    /// Modelled controller cost over machine capacity.
    pub controller_overhead_frac: f64,
    /// Operations attempted: admissions, real-time periods, requests.
    pub ops_attempted: u64,
    /// Refused admissions, missed periods and requests over the limit.
    pub ops_failed: u64,
    /// Arrivals in the schedule.
    pub arrivals: u64,
    /// Arrivals admitted.
    pub spawned: u64,
    /// Arrivals removed at the end of their lifetime.
    pub departed: u64,
    /// Arrivals refused.
    pub rejected: u64,
}

impl Quality {
    /// `ops_failed / ops_attempted`.
    pub fn ops_failed_frac(&self) -> f64 {
        self.ops_failed as f64 / self.ops_attempted.max(1) as f64
    }
}

/// Wall-clock measurements of an episode.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Building the host, installing the population and warming up.
    pub setup_s: f64,
    /// Wall seconds of the measured window (after warm-up).
    pub wall_s: f64,
    /// Simulated seconds of the measured window.
    pub sim_s: f64,
    /// Dispatches in the measured window.
    pub dispatches: u64,
    /// CPU time delivered to jobs in the measured window, in µs.
    pub delivered_us: u64,
    /// Host nanoseconds per measured 10 ms period.
    pub period_ns: Vec<u64>,
}

/// Per-layer detail of a traced episode (whole episode, set-up included).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Host construction, in ns.
    pub build_ns: u64,
    /// Per-job `add_job` ns (a queue-coupled install is timed whole and
    /// split evenly over its jobs).
    pub add_job_ns: Vec<u64>,
    /// Per-call `remove_job` ns.
    pub remove_job_ns: Vec<u64>,
    /// Per-call `grow_cpus` ns.
    pub grow_ns: Vec<u64>,
    /// Per-call `advance` ns.
    pub advance_ns: Vec<u64>,
    /// Wall ns of each full controller cycle.
    pub cycle_full_ns: Vec<u64>,
    /// Wall ns of each incremental controller cycle.
    pub cycle_incremental_ns: Vec<u64>,
    /// Trace events recorded, summed over every per-period recorder.
    pub events_recorded: u64,
    /// Trace events overwritten, summed likewise.
    pub events_dropped: u64,
    /// Trace events kept for the Chrome export.
    pub export: Vec<TraceEvent>,
    /// Benchmark spans kept for the export: name, sim µs, wall ns.
    pub export_spans: Vec<(&'static str, u64, u64)>,
    /// Telemetry counters at the end of the episode.
    pub telemetry: TelemetrySnapshot,
    /// Simulator statistics at the end of the episode.
    pub sim: SimStats,
    /// `advance` calls made.  On a sharded host each one ends in a join
    /// of every shard, and each rebalance barrier inside it adds one.
    pub advance_calls: u64,
}

/// Everything one episode produced.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Deterministic simulated outputs.
    pub outcome: Outcome,
    /// Wall-clock measurements.
    pub timing: Timing,
    /// Per-layer detail (traced episodes only).
    pub layers: Option<Layers>,
}

/// A transient job with a fixed amount of work: spins until done, then
/// blocks until it departs.
struct Worker {
    cycles_remaining: f64,
}

impl WorkModel for Worker {
    fn run(&mut self, _now_us: u64, quantum_us: u64, cpu_hz: f64) -> RunResult {
        if self.cycles_remaining <= 0.0 {
            return RunResult::blocked_after(0);
        }
        let offered = quantum_us as f64 * cpu_hz / 1e6;
        if offered < self.cycles_remaining {
            self.cycles_remaining -= offered;
            RunResult::ran(quantum_us)
        } else {
            let used_us = (self.cycles_remaining / cpu_hz * 1e6).round() as u64;
            self.cycles_remaining = 0.0;
            RunResult::blocked_after(used_us.min(quantum_us))
        }
    }

    fn poll_unblock(&mut self, _now_us: u64) -> bool {
        false
    }

    fn label(&self) -> &str {
        "worker"
    }
}

/// What the installed population exposes to the quality figures.
#[derive(Default)]
struct Installed {
    /// Persistent jobs whose allocation the controller adapts.
    adaptive: Vec<JobHandle>,
    /// Real-time spinners with their reserved ppt.
    rt_spin: Vec<(JobHandle, u32)>,
    /// Installed modems' statistics.
    modems: Vec<Arc<ModemStats>>,
    /// Latency sources by name.
    latencies: Vec<(String, Arc<LatencyStats>)>,
    /// Admissions attempted (static jobs and arrivals).
    admissions: u64,
    /// Admissions refused.
    refused: u64,
}

/// Drives one host through one workload.
struct Runner<'w> {
    w: &'w Workload,
    cfg: RunConfig,
    host: Box<dyn Host>,
    cursor: usize,
    live: Vec<Option<JobHandle>>,
    installed: Installed,
    spawned: u64,
    departed: u64,
    capacity_us: f64,
    layers: Option<Layers>,
    exporting: bool,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs one episode of `w` over `[0, horizon_us)`.  The window after
/// `w.warmup_us` is the measured one.
pub fn run(w: &Workload, horizon_us: u64, cfg: RunConfig) -> Episode {
    let started = Instant::now();
    let mut runtime = Runtime::sim().cpus(w.cpus);
    if w.shards > 1 {
        runtime = runtime.shard_config(ShardConfig {
            shards: w.shards,
            parallel: cfg.parallel,
            ..ShardConfig::default()
        });
    }
    if cfg.traced {
        runtime = runtime.telemetry(ring_config());
    }
    let host = runtime.build();
    let mut d = Runner {
        w,
        cfg,
        host,
        cursor: 0,
        live: vec![None; w.arrivals.len()],
        installed: Installed::default(),
        spawned: 0,
        departed: 0,
        capacity_us: 0.0,
        layers: cfg.traced.then(Layers::default),
        exporting: false,
    };
    if let Some(l) = d.layers.as_mut() {
        l.build_ns = ns_since(started);
    }
    for (i, member) in w.members.iter().enumerate() {
        d.install(i, member);
    }
    let warmup_us = w.warmup_us.min(horizon_us);
    d.run_to(warmup_us, None);
    let setup_s = started.elapsed().as_secs_f64();

    // The measured window.
    d.exporting = cfg.export_events > 0;
    let stats0 = d.host.stats();
    let tel0 = d.host.telemetry();
    let sim0 = d.host.now().as_micros();
    let mut period_ns = Vec::with_capacity(((horizon_us - warmup_us) / PERIOD_US) as usize + 1);
    let t0 = Instant::now();
    d.run_to(horizon_us, Some(&mut period_ns));
    let wall_s = t0.elapsed().as_secs_f64();
    let stats1 = d.host.stats();
    let tel1 = d.host.telemetry();
    let timing = Timing {
        setup_s,
        wall_s,
        sim_s: (d.host.now().as_micros() - sim0) as f64 / 1e6,
        dispatches: tel1.dispatches - tel0.dispatches,
        delivered_us: stats1.total_used_us() - stats0.total_used_us(),
        period_ns,
    };
    let outcome = d.outcome(&stats1, &tel1);
    let layers = d.layers.take().map(|mut l| {
        l.telemetry = tel1;
        l.sim = sim_stats(d.host.as_ref());
        l
    });
    Episode {
        outcome,
        timing,
        layers,
    }
}

fn ring_config() -> TelemetryConfig {
    TelemetryConfig {
        ring_capacity: RING_CAPACITY,
        stage_timing: true,
    }
}

/// The simulator statistics behind either simulator backend.
fn sim_stats(host: &(dyn Host + 'static)) -> SimStats {
    if let Some(sim) = host.as_sim() {
        sim.stats()
    } else if let Some(sim) = host.as_sharded_sim() {
        sim.stats()
    } else {
        unreachable!("the benchmark only builds simulator hosts")
    }
}

impl Runner<'_> {
    /// Installs static member `i`, timing it as `add_job` spans.
    fn install(&mut self, i: usize, member: &Member) {
        let t = Instant::now();
        let host = self.host.as_mut();
        let out = &mut self.installed;
        let jobs = member.jobs() as u64;
        out.admissions += jobs;
        match *member {
            Member::Spinner { importance } => {
                let spec =
                    JobSpec::miscellaneous().with_importance(rrs_core::Importance::new(importance));
                let h = host
                    .add_job(&format!("spin{i}"), spec, Box::new(CpuHog::new()))
                    .expect("miscellaneous jobs are always admitted");
                out.adaptive.push(h);
            }
            Member::RtSpin { ppt, period_ms } => {
                let spec =
                    JobSpec::real_time(Proportion::from_ppt(ppt), Period::from_millis(period_ms));
                match host.add_job(&format!("rt{i}"), spec, Box::new(CpuHog::new())) {
                    Ok(h) => out.rt_spin.push((h, ppt)),
                    Err(_) => out.refused += 1,
                }
            }
            Member::Typist { hz, mcycles } => {
                let stats = LatencyStats::new();
                let job =
                    InteractiveJob::new(hz, mcycles * 1e6).with_latency_stats(Arc::clone(&stats));
                let name = latency_source(member, i).expect("typists record latency");
                host.add_job(&name, JobSpec::miscellaneous(), Box::new(job))
                    .expect("miscellaneous jobs are always admitted");
                out.latencies.push((name, stats));
            }
            Member::Video { fps } => {
                let h = VideoPipeline::install(
                    host,
                    VideoPipelineConfig {
                        fps,
                        ..VideoPipelineConfig::default()
                    },
                );
                out.adaptive.push(h.decoder);
                out.adaptive.push(h.renderer);
            }
            Member::Pulse => {
                let h = PulsePipeline::install(host, PipelineConfig::default());
                out.adaptive.push(h.consumer);
            }
            Member::Server { rate_hz, mcycles } => {
                let (_, server, stats) = WebServer::install_instrumented(
                    host,
                    ServerConfig {
                        arrival_rate_hz: rate_hz,
                        cycles_per_request: mcycles * 1e6,
                        queue_capacity: SERVER_BACKLOG,
                    },
                );
                out.adaptive.push(server);
                let name = latency_source(member, i).expect("servers record latency");
                out.latencies.push((name, stats));
            }
            Member::Modem => {
                let (_, stats) =
                    SoftwareModem::install_with_reservation(host, ModemConfig::default());
                out.modems.push(stats);
            }
        }
        if let Some(l) = self.layers.as_mut() {
            let each = ns_since(t) / jobs;
            l.add_job_ns
                .extend(std::iter::repeat_n(each, jobs as usize));
        }
    }

    /// Applies every scheduled action due at or before the host clock.
    fn apply_due(&mut self) {
        let now = self.host.now().as_micros();
        while let Some(s) = self.w.schedule.get(self.cursor) {
            if s.at_us > now {
                break;
            }
            self.cursor += 1;
            let t = Instant::now();
            match s.action {
                Action::Spawn(i) => {
                    self.installed.admissions += 1;
                    let work: Box<dyn WorkModel> = match self.w.arrivals[i] {
                        Transient::Hog => Box::new(CpuHog::new()),
                        Transient::Worker { mcycles } => Box::new(Worker {
                            cycles_remaining: mcycles * 1e6,
                        }),
                    };
                    match self
                        .host
                        .add_job(&format!("arrival{i}"), JobSpec::miscellaneous(), work)
                    {
                        Ok(h) => {
                            self.live[i] = Some(h);
                            self.spawned += 1;
                        }
                        Err(_) => self.installed.refused += 1,
                    }
                    self.span("add_job", t, |l| &mut l.add_job_ns);
                }
                Action::Depart(i) => {
                    if let Some(h) = self.live[i].take() {
                        self.host.remove_job(h);
                        self.departed += 1;
                        self.span("remove_job", t, |l| &mut l.remove_job_ns);
                    }
                }
                Action::GrowCpus(cpus) => {
                    self.host.grow_cpus(cpus);
                    self.span("grow_cpus", t, |l| &mut l.grow_ns);
                }
            }
        }
    }

    /// Records a span that started at `t` into the chosen sample list.
    fn span(&mut self, name: &'static str, t: Instant, list: fn(&mut Layers) -> &mut Vec<u64>) {
        if let Some(l) = self.layers.as_mut() {
            let ns = ns_since(t);
            list(l).push(ns);
            if self.exporting && l.export_spans.len() < self.cfg.export_events {
                l.export_spans.push((name, self.host.now().as_micros(), ns));
            }
        }
    }

    /// Advances the host to `to_us` (absolute), integrating capacity.
    fn advance_to(&mut self, to_us: u64) {
        let now = self.host.now().as_micros();
        if to_us <= now {
            return;
        }
        let t = Instant::now();
        self.host.advance(SimTime::from_micros(to_us - now));
        self.span("advance", t, |l| &mut l.advance_ns);
        if let Some(l) = self.layers.as_mut() {
            l.advance_calls += 1;
        }
        let after = self.host.now().as_micros();
        self.capacity_us += (after - now) as f64 * self.host.cpu_count() as f64;
    }

    /// Drives the host to `end_us`, timing each period when `periods` is
    /// given (period stepping only).
    fn run_to(&mut self, end_us: u64, mut periods: Option<&mut Vec<u64>>) {
        loop {
            let t = Instant::now();
            self.apply_due();
            let now = self.host.now().as_micros();
            if now >= end_us {
                break;
            }
            let target = match self.cfg.stepping {
                Stepping::Period => ((now / PERIOD_US + 1) * PERIOD_US).min(end_us),
                Stepping::Events => end_us,
            };
            // Advance to the target, stopping at every scheduled action.
            loop {
                let now = self.host.now().as_micros();
                if now >= target {
                    break;
                }
                let next = self
                    .w
                    .schedule
                    .get(self.cursor)
                    .map_or(u64::MAX, |s| s.at_us);
                self.advance_to(next.min(target));
                if next <= target {
                    self.apply_due();
                }
            }
            if self.cfg.stepping == Stepping::Period {
                if let Some(p) = periods.as_deref_mut() {
                    p.push(ns_since(t));
                }
                if self.layers.is_some() {
                    self.harvest();
                }
            }
        }
    }

    /// Moves the period's trace events out of the recorder and installs
    /// a fresh one, so the ring never has to hold more than one period.
    fn harvest(&mut self) {
        let Some(rec) = self.host.telemetry_recorder() else {
            return;
        };
        let l = self.layers.as_mut().expect("harvest runs traced");
        l.events_recorded += rec.recorded();
        l.events_dropped += rec.dropped();
        let events = rec.events();
        for ev in &events {
            if let TraceEventKind::ControllerCycle {
                dur_ns,
                incremental,
                ..
            } = ev.kind
            {
                if incremental {
                    l.cycle_incremental_ns.push(dur_ns);
                } else {
                    l.cycle_full_ns.push(dur_ns);
                }
            }
        }
        if self.exporting {
            let room = self.cfg.export_events.saturating_sub(l.export.len());
            l.export.extend(events.iter().take(room));
        }
        self.host.enable_telemetry(ring_config());
    }

    /// The deterministic outputs of the finished episode.
    fn outcome(&self, stats: &HostStats, telemetry: &TelemetrySnapshot) -> Outcome {
        let host = self.host.as_ref();
        let inst = &self.installed;
        let elapsed_s = host.now().as_micros() as f64 / 1e6;
        let mut rt_missed = 0u64;
        let mut rt_periods = 0u64;
        for &(h, _) in &inst.rt_spin {
            if let Some(acct) = host.usage(h) {
                rt_missed += acct.deadlines_missed;
                rt_periods += acct.periods_completed;
            }
        }
        for modem in &inst.modems {
            rt_missed += modem.deadlines_missed();
            rt_periods += modem.batches_completed();
        }
        let rt_delivery_min = inst
            .rt_spin
            .iter()
            .map(|&(h, ppt)| {
                let delivered = host.cpu_used(h).as_micros() as f64 / (elapsed_s * 1e6);
                delivered / (ppt as f64 / 1000.0)
            })
            .min_by(f64::total_cmp);
        let total_used_us = stats.total_used_us();
        let obs = Observations {
            trace: host.trace(),
            elapsed_s,
            capacity_us: self.capacity_us,
            total_used_us,
            idle_us: stats.idle_us(),
            migrations: stats.migrations,
            deadlines_missed: rt_missed,
            period_rollovers: rt_periods,
            fair_used_us: &[],
            min_adaptive_alloc_ppt: inst.adaptive.iter().map(|h| host.allocation_ppt(*h)).min(),
            rt_delivery_min,
            latencies: &inst.latencies,
        };
        let slos: Vec<SloOutcome> = self.w.slos.iter().map(|s| s.evaluate(&obs)).collect();

        let mut q = Quality {
            deadline_miss_rate: (rt_periods > 0).then(|| rt_missed as f64 / rt_periods as f64),
            utilization: total_used_us as f64 / self.capacity_us.max(1.0),
            arrivals: self.w.arrivals.len() as u64,
            spawned: self.spawned,
            departed: self.departed,
            rejected: inst.refused,
            ..Quality::default()
        };
        let sim = sim_stats(host);
        q.controller_overhead_frac = sim.controller_cost_us / self.capacity_us.max(1.0);
        let mut requests = 0u64;
        let mut over_limit = 0u64;
        let mut p50: Option<f64> = None;
        let mut p99: Option<f64> = None;
        for (name, lat) in &inst.latencies {
            let n = lat.count();
            requests += n;
            over_limit += count_at_or_over(lat, LATENCY_LIMIT_US);
            if n == 0 {
                continue;
            }
            let (a, b) = (lat.percentile_us(50.0), lat.percentile_us(99.0));
            if a >= LATENCY_LIMIT_US || b >= LATENCY_LIMIT_US {
                q.clipped.push(name.clone());
            }
            p50 = Some(p50.map_or(a, |m: f64| m.max(a)));
            p99 = Some(p99.map_or(b, |m: f64| m.max(b)));
        }
        if q.clipped.is_empty() {
            q.latency_p50_ms = p50.map(|us| us / 1e3);
            q.latency_p99_ms = p99.map(|us| us / 1e3);
        }
        q.ops_attempted = inst.admissions + rt_periods + requests;
        q.ops_failed = inst.refused + rt_missed + over_limit;

        let latencies: Vec<LatencySummary> = inst
            .latencies
            .iter()
            .map(|(name, lat)| lat.summary(name))
            .collect();
        // Trace-event counters differ between traced and untraced runs of
        // the same inputs; everything else must not.
        let mut counters = *telemetry;
        counters.trace_events_recorded = 0;
        counters.trace_events_dropped = 0;
        counters.stage_sense_ns = 0;
        counters.stage_classify_ns = 0;
        counters.stage_estimate_ns = 0;
        counters.stage_allocate_ns = 0;
        counters.stage_place_ns = 0;
        counters.stage_actuate_ns = 0;
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}",
            stats,
            counters,
            sim,
            latencies,
            slos.iter()
                .map(|s| (s.passed, s.measured))
                .collect::<Vec<_>>(),
            host.now().as_micros(),
            self.spawned,
            self.departed,
            inst.refused,
        );
        Outcome {
            digest: fnv1a(text.as_bytes()),
            slos,
            quality: q,
        }
    }
}

/// Samples recorded at or above `limit_us`, recovered from the
/// histogram's percentiles by bisection on the sample rank.
fn count_at_or_over(lat: &LatencyStats, limit_us: f64) -> u64 {
    let n = lat.count();
    // Largest rank k (1-based) whose sample reads below the limit.
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let p = (mid as f64 - 0.5) / n as f64 * 100.0;
        if lat.percentile_us(p) < limit_us {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    n - lo
}
