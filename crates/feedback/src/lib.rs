//! Software feedback toolkit — a reimplementation of the role SWiFT plays in
//! the paper.
//!
//! The paper's adaptive controller is "implemented using the SWiFT software
//! feedback toolkit", a library of composable control-theory blocks (§3.3).
//! SWiFT itself is not available, so this crate provides the parts of it
//! that `rrs-core` and `rrs-workloads` use:
//!
//! * [`PidController`] — proportional-integral-derivative control with
//!   anti-windup and output clamping; this computes the cumulative progress
//!   pressure `Q_t` of Figure 3.
//! * [`filter`] — low-pass filters (exponentially weighted moving average,
//!   windowed moving average, median) used to smooth noisy progress metrics.
//! * [`signal`] — deterministic signal generators (pulse trains, square,
//!   sine, ramp, step) used by the workloads to reproduce the paper's
//!   rising/falling production-rate pulses (Figure 6).
//!
//! Everything is discrete-time: the PID controller is stepped with an
//! explicit `dt` and the signals are pure functions of time, so the same
//! code runs under the simulator clock and under wall-clock time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod filter;
pub mod pid;
pub mod signal;

pub use filter::{Ewma, MedianFilter, MovingAverage};
pub use pid::{PidConfig, PidController};
pub use signal::{PulseTrain, RampWave, SineWave, SquareWave, StepSignal};
