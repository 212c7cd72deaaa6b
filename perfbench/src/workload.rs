//! The three benchmark workloads: populations, seeded arrival schedules
//! and the service-level objectives each run must meet.
//!
//! A workload is plain data.  [`Workload::build`] turns a name, a seed and
//! a horizon into the population installed at `t = 0` and the sorted
//! schedule of spawns, departures and CPU hot-adds the caller applies
//! while it advances the host.  Nothing here touches a host.

use rrs_core::cost::ControllerCostModel;
use rrs_scenario::{ArrivalProcess, ArrivalRng, Slo};

/// The controller period the caller steps by, in microseconds.  Every
/// workload runs the default 10 ms controller.
pub const PERIOD_US: u64 = 10_000;

/// Latency limit for every request and keystroke, in microseconds.  It
/// sits below the 1 s range of `LatencyStats`, so a percentile that
/// reads at or above it is a limit miss, never a reported value.
pub const LATENCY_LIMIT_US: f64 = 500_000.0;

/// Names of every workload, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["spin_saturated", "paper_mix", "churn_sharded"];

/// A job installed at `t = 0` that lives for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Member {
    /// A greedy adaptive spinner (always runnable, no queue, no blocking).
    Spinner {
        /// Weighted-fair-share importance.
        importance: f64,
    },
    /// A real-time spinner holding a fixed reservation.
    RtSpin {
        /// Reserved proportion in parts per thousand.
        ppt: u32,
        /// Reservation period in milliseconds.
        period_ms: u64,
    },
    /// An interactive typist whose keystroke latency is recorded.
    Typist {
        /// Keystrokes per second.
        hz: f64,
        /// Work per keystroke, in megacycles.
        mcycles: f64,
    },
    /// The three-stage video pipeline (source, decoder, renderer).
    Video {
        /// Frames per second.
        fps: f64,
    },
    /// The pulse-driven producer/consumer pipeline of Figures 6 and 7.
    Pulse,
    /// A web server whose request latency is recorded.
    Server {
        /// Offered load in requests per second.
        rate_hz: f64,
        /// Work per request, in megacycles.
        mcycles: f64,
    },
    /// The software modem with the reservation it needs.
    Modem,
}

impl Member {
    /// Jobs the member installs (queue-coupled members install several).
    pub fn jobs(&self) -> usize {
        match self {
            Member::Video { .. } => 3,
            Member::Pulse | Member::Server { .. } => 2,
            _ => 1,
        }
    }
}

/// The body of a job spawned by an arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transient {
    /// Spins until it departs.
    Hog,
    /// Spins until `mcycles` are done, then blocks until it departs.
    Worker {
        /// Total work, in megacycles.
        mcycles: f64,
    },
}

/// One entry of the run's schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Spawn arrival `i` (an index into [`Workload::arrivals`]).
    Spawn(usize),
    /// Remove arrival `i` if it was admitted.
    Depart(usize),
    /// Hot-add CPUs up to this total.
    GrowCpus(usize),
}

/// A scheduled [`Action`] at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// When the action is due, in simulated microseconds.
    pub at_us: u64,
    /// What happens.
    pub action: Action,
}

/// A fully generated workload instance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// CPUs at `t = 0`.
    pub cpus: usize,
    /// Machine shards (1 = the unsharded simulator).
    pub shards: usize,
    /// Simulated warm-up that set-up includes, in microseconds.
    pub warmup_us: u64,
    /// Simulated time after warm-up that one measured episode covers.
    pub measure_us: u64,
    /// Simulated horizon of the correctness-check episodes.
    pub check_us: u64,
    /// Jobs installed at `t = 0`.
    pub members: Vec<Member>,
    /// Bodies of the scheduled arrivals, indexed by [`Action::Spawn`].
    pub arrivals: Vec<Transient>,
    /// Spawns, departures and hot-adds, sorted by time (departures before
    /// spawns at the same instant, hot-adds first).
    pub schedule: Vec<Scheduled>,
    /// What every run of this workload must satisfy.
    pub slos: Vec<Slo>,
}

/// One Poisson arrival stream of a workload.
struct Stream {
    rate_hz: f64,
    lifetime_s: f64,
    job: Transient,
}

impl Workload {
    /// Generates workload `name` for `seed` over `[0, horizon_us)`.
    /// Returns `None` for an unknown name.
    pub fn build(name: &str, seed: u64, horizon_us: u64) -> Option<Workload> {
        let mut rng = ArrivalRng::new(seed);
        let (mut w, streams, grow) = match name {
            "spin_saturated" => {
                // About 400 greedy spinners under one controller; the seed
                // draws the count (396 to 404) and each one's importance.
                let count = 396 + rng.next_u64() % 9;
                let members = (0..count)
                    .map(|_| Member::Spinner {
                        importance: 1.0 + (rng.next_u64() % 4) as f64,
                    })
                    .collect();
                let slos = vec![
                    Slo::NoStarvation { min_ppt: 1 },
                    Slo::MinThroughput { min_cpus: 5.5 },
                ];
                (
                    Self::shell("spin_saturated", 8, 1, 2, 20, 5, members, slos),
                    Vec::new(),
                    None,
                )
            }
            "paper_mix" => {
                // Four of each of the paper's application classes on
                // 8 CPUs, plus Poisson worker arrivals.  Typists are left
                // out: beside this load a typist's allocation can stick at
                // the 1 ppt floor while it has work, clipping its latency
                // (see README.md, open findings).
                let mut members = Vec::new();
                for _ in 0..4 {
                    members.push(Member::Video { fps: 30.0 });
                    members.push(Member::Pulse);
                    members.push(Member::Server {
                        rate_hz: 100.0,
                        mcycles: 1.0,
                    });
                    members.push(Member::Modem);
                    members.push(Member::RtSpin {
                        ppt: 50,
                        period_ms: 10,
                    });
                    members.push(Member::Spinner { importance: 1.0 });
                }
                let slos = vec![
                    Slo::DeadlineMissRate { max: 0.05 },
                    Slo::NoStarvation { min_ppt: 1 },
                    Slo::RtDelivery { min_ratio: 0.9 },
                    Slo::MinThroughput { min_cpus: 5.0 },
                ];
                let streams = vec![Stream {
                    rate_hz: 10.0,
                    lifetime_s: 2.0,
                    job: Transient::Worker { mcycles: 10.0 },
                }];
                (
                    Self::shell("paper_mix", 8, 1, 3, 60, 10, members, slos),
                    streams,
                    None,
                )
            }
            "churn_sharded" => {
                // Two shards of 8 CPUs, hot-added to 24 CPUs halfway: a
                // spinner base plus hog and worker churn.
                let members = (0..64)
                    .map(|_| Member::Spinner { importance: 1.0 })
                    .collect();
                let slos = vec![
                    Slo::NoStarvation { min_ppt: 1 },
                    Slo::MinThroughput { min_cpus: 14.0 },
                ];
                let streams = vec![
                    Stream {
                        rate_hz: 5.0,
                        lifetime_s: 3.0,
                        job: Transient::Hog,
                    },
                    Stream {
                        rate_hz: 10.0,
                        lifetime_s: 2.0,
                        job: Transient::Worker { mcycles: 40.0 },
                    },
                ];
                (
                    Self::shell("churn_sharded", 16, 2, 2, 60, 4, members, slos),
                    streams,
                    Some(24),
                )
            }
            _ => return None,
        };

        let mut schedule = Vec::new();
        if let Some(cpus) = grow {
            schedule.push(Scheduled {
                at_us: horizon_us / 2,
                action: Action::GrowCpus(cpus),
            });
        }
        for stream in &streams {
            let process = ArrivalProcess::Poisson {
                rate_hz: stream.rate_hz,
            };
            for t_s in process.sample(&mut rng, 0.0, horizon_us as f64 / 1e6, 1.0) {
                let at_us = (t_s * 1e6).round() as u64;
                let i = w.arrivals.len();
                w.arrivals.push(stream.job);
                schedule.push(Scheduled {
                    at_us,
                    action: Action::Spawn(i),
                });
                let depart_us = at_us + (stream.lifetime_s * 1e6).round() as u64;
                if depart_us < horizon_us {
                    schedule.push(Scheduled {
                        at_us: depart_us,
                        action: Action::Depart(i),
                    });
                }
            }
        }
        let order = |a: &Action| match a {
            Action::GrowCpus(_) => 0u8,
            Action::Depart(_) => 1,
            Action::Spawn(_) => 2,
        };
        schedule.sort_by_key(|s| (s.at_us, order(&s.action)));
        w.schedule = schedule;
        Some(w)
    }

    #[allow(clippy::too_many_arguments)]
    fn shell(
        name: &'static str,
        cpus: usize,
        shards: usize,
        warmup_s: u64,
        measure_s: u64,
        check_s: u64,
        members: Vec<Member>,
        mut slos: Vec<Slo>,
    ) -> Workload {
        // Every latency source is held to the limit at its p99.
        for (i, m) in members.iter().enumerate() {
            if let Some(source) = latency_source(m, i) {
                slos.push(Slo::LatencyBand {
                    source,
                    percentile: 99.0,
                    max_ms: LATENCY_LIMIT_US / 1e3,
                });
            }
        }
        Workload {
            name,
            cpus,
            shards,
            warmup_us: warmup_s * 1_000_000,
            measure_us: measure_s * 1_000_000,
            check_us: check_s * 1_000_000,
            members,
            arrivals: Vec::new(),
            schedule: Vec::new(),
            slos,
        }
    }

    /// The horizon of one measured episode: warm-up plus measured time.
    pub fn episode_us(&self) -> u64 {
        self.warmup_us + self.measure_us
    }

    /// The most jobs any one controller can hold at once: the static
    /// population plus every arrival live at the same time, all on one
    /// shard (the worst placement).
    pub fn peak_jobs_per_controller(&self) -> usize {
        let base: usize = self.members.iter().map(Member::jobs).sum();
        let mut live = 0usize;
        let mut peak = 0usize;
        for s in &self.schedule {
            match s.action {
                Action::Spawn(_) => live += 1,
                Action::Depart(_) => live = live.saturating_sub(1),
                Action::GrowCpus(_) => {}
            }
            peak = peak.max(live);
        }
        base + peak
    }

    /// The population guard: every controller's modelled invocation cost
    /// must stay below its period.  Above that line the simulated result
    /// depends on how the caller splits `advance`.
    pub fn check_population(&self) -> Result<(), String> {
        let jobs = self.peak_jobs_per_controller();
        let cost_us = ControllerCostModel::default().invocation_cost_us(jobs);
        if cost_us >= PERIOD_US as f64 {
            return Err(format!(
                "{}: {jobs} jobs on one controller cost {cost_us:.1} us per cycle, \
                 at or above the {PERIOD_US} us period",
                self.name
            ));
        }
        Ok(())
    }
}

/// The latency source name of member `i`, if it records latencies.
pub fn latency_source(member: &Member, i: usize) -> Option<String> {
    match member {
        Member::Typist { .. } => Some(format!("typist{i}")),
        Member::Server { .. } => Some(format!("server{i}")),
        _ => None,
    }
}
