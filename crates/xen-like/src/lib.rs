//! # xen-like — a Xen-4.1.2-shaped hypervisor in simulated code
//!
//! This crate is the reproduction's substrate for the Xen hypervisor the
//! Xentry paper (ICPP 2014) instruments. Everything that Xen does in the
//! paper's experiments exists here, executed instruction-by-instruction on
//! the [`sim_machine`] simulator:
//!
//! * per-CPU **entry/exit stubs** that save and restore guest state around
//!   every activation (`handlers::stubs`);
//! * the **38 hypercalls** of Xen 4.1.2 (`handlers::hypercalls`);
//! * **20 exception handlers**, including the #GP trap-and-emulate path for
//!   CPUID/RDTSC that the paper uses as its running error-propagation
//!   example (`handlers::exceptions`);
//! * `do_irq` for 16 device lines, **ten APIC interrupt handlers**,
//!   `do_softirq` and `do_tasklet` (`handlers::irq`);
//! * a round-robin **scheduler** with the paper's Listing-2 idle assertion
//!   (`handlers::sched`);
//! * VCPU/domain/event-channel/grant-table/shared-info structures laid out
//!   in simulated memory ([`layout`]);
//! * software **assertions** compiled into the handler code
//!   ([`assert_ids`]);
//! * a [`platform::Platform`] that drives guests, injects interrupts and
//!   exposes the [`platform::Monitor`] hook where the Xentry shim attaches.

// `Memory`, `Machine` and `Platform` have a hand-written `clone_from` that
// costs what differs; `a = b.clone()` over a live one throws that away.
#![warn(clippy::assigning_clones)]

pub mod assert_ids;
pub mod builder;
pub mod handlers;
pub mod layout;
pub mod platform;

pub use builder::{build_image, build_machine, DomainSpec, Topology};
pub use platform::{
    Activation, ActivationOutcome, IrqProfile, MicrorebootReport, Monitor, NullMonitor, Platform,
    PlatformDelta, Verdict, MICROREBOOT_BASE_CYCLES, MICROREBOOT_PRIVATE_REGIONS,
};
