//! The isolated scheduler replay: the dispatcher's pick/charge/settle
//! path on a standalone `rrs_scheduler::Machine`, without the simulator
//! loop or the controller around it.
//!
//! The population is installed through a simulator host and warmed up,
//! so the controller settles every job's reservation and CPU.  Those are
//! copied onto a fresh machine, which is then driven in lockstep:
//! `dispatch` on every CPU, `charge` each pick for the shortest quantum
//! handed out, `advance_to` the new clock.

use crate::workload::{Member, Workload};
use rrs_api::{Runtime, SimTime};
use rrs_core::JobSpec;
use rrs_scheduler::{CpuId, DispatcherConfig, Machine, ThreadId};
use rrs_workloads::CpuHog;
use std::hint::black_box;
use std::time::Instant;

/// What one replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Dispatch decisions taken.
    pub dispatches: u64,
    /// Wall nanoseconds of the dispatch/charge/advance loop.
    pub ns: u64,
}

impl Replay {
    /// Wall nanoseconds per dispatch decision.
    pub fn ns_per_dispatch(&self) -> f64 {
        self.ns as f64 / self.dispatches.max(1) as f64
    }
}

/// Replays `w`'s spinner population for `sim_us` simulated microseconds.
pub fn run(w: &Workload, sim_us: u64) -> Replay {
    let mut host = Runtime::sim().cpus(w.cpus).build();
    let mut jobs = Vec::new();
    for (i, m) in w.members.iter().enumerate() {
        if let Member::Spinner { importance } = *m {
            let spec =
                JobSpec::miscellaneous().with_importance(rrs_core::Importance::new(importance));
            let h = host
                .add_job(&format!("spin{i}"), spec, Box::new(CpuHog::new()))
                .expect("miscellaneous jobs are always admitted");
            jobs.push(h);
        }
    }
    host.advance(SimTime::from_micros(w.warmup_us));

    let config = DispatcherConfig {
        lazy_rollovers: true,
        ..host
            .as_sim()
            .expect("a plain simulator host")
            .config()
            .dispatcher
    };
    let mut machine = Machine::new(config, w.cpus);
    for (k, h) in jobs.iter().enumerate() {
        let reservation = host
            .reservation(*h)
            .expect("warmed-up jobs hold reservations");
        let cpu = host.cpu_of(*h).expect("warmed-up jobs are placed");
        machine
            .add_thread_preadmitted_on(cpu, ThreadId(k as u64 + 1), reservation)
            .expect("the controller admitted the same reservations");
    }

    let cpus: Vec<CpuId> = machine.cpu_ids().collect();
    let mut picks: Vec<Option<ThreadId>> = vec![None; cpus.len()];
    let mut dispatches = 0u64;
    let mut t = 0u64;
    let started = Instant::now();
    while t < sim_us {
        let mut step = u64::MAX;
        for (slot, &cpu) in picks.iter_mut().zip(&cpus) {
            let out = machine.dispatch(cpu);
            dispatches += 1;
            *slot = out.thread;
            step = step.min(out.quantum_us);
        }
        let step = step.clamp(1, sim_us - t);
        for tid in picks.iter().flatten() {
            machine
                .charge(*tid, step)
                .expect("picked threads are registered");
        }
        t += step;
        machine.advance_to(t);
    }
    let ns = started.elapsed().as_nanos() as u64;
    black_box(machine.stats());
    Replay { dispatches, ns }
}
