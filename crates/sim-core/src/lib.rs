//! # sim-core
//!
//! A deterministic discrete-event simulation kernel, playing the role that
//! gem5's event queue and `SimObject`/`ClockedObject` infrastructure play for
//! gem5-SALAM.
//!
//! The kernel is organized around three ideas:
//!
//! * **Ticks** — simulated time is measured in integer picoseconds
//!   ([`Tick`]), exactly like gem5. [`ClockDomain`] converts between cycles
//!   of a particular clock and ticks, so independently-clocked components
//!   (e.g. a compute unit at 500 MHz and a bus at 1 GHz) can coexist.
//! * **Components and messages** — every model (cache, DMA, accelerator
//!   datapath, ...) implements [`Component`] for some message type `M`.
//!   Components never hold references to each other; all interaction happens
//!   by scheduling messages through the [`Ctx`] handed to
//!   [`Component::handle`]. This mirrors gem5's port/packet discipline while
//!   staying idiomatic, ownership-safe Rust.
//! * **Deterministic ordering** — events that share a tick are delivered in
//!   the order they were scheduled (FIFO per tick), so a simulation is a pure
//!   function of its inputs. Property tests rely on this.
//!
//! # Example
//!
//! ```
//! use sim_core::{Component, Ctx, Simulation, Tick};
//!
//! struct Ping { sent: u32, peer: sim_core::CompId }
//! struct Pong;
//!
//! #[derive(Debug, Clone)]
//! enum Msg { Ping, Pong }
//!
//! impl Component<Msg> for Ping {
//!     fn name(&self) -> &str { "ping" }
//!     fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
//!         if matches!(msg, Msg::Pong) && self.sent < 3 {
//!             self.sent += 1;
//!             ctx.send(self.peer, 10, Msg::Ping);
//!         }
//!     }
//! }
//! impl Component<Msg> for Pong {
//!     fn name(&self) -> &str { "pong" }
//!     fn handle(&mut self, _msg: Msg, ctx: &mut Ctx<'_, Msg>) {
//!         let from = ctx.sender();
//!         ctx.send(from, 5, Msg::Pong);
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let pong = sim.add_component(Pong);
//! let ping = sim.add_component(Ping { sent: 0, peer: pong });
//! sim.post(ping, 0, Msg::Pong);
//! let end: Tick = sim.run();
//! assert_eq!(end, 45);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
mod sim;

pub use clock::{ClockDomain, Frequency};
pub use event::{CompId, EventQueue, ScheduledEvent};
pub use sim::{Component, Ctx, RunResult, Simulation};

/// Simulated time in picoseconds, following gem5's convention.
pub type Tick = u64;

/// One cycle of a clock domain, counted from simulation start.
pub type Cycle = u64;
