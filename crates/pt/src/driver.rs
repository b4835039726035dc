//! The kernel-driver control interface.
//!
//! The paper's trace collection "is implemented via a Linux kernel module
//! ... Gist-instrumented programs use an ioctl interface that our driver
//! provides to turn tracing on/off" (§4). Intel PT is configured through
//! **per-logical-core** MSRs (`IA32_RTIT_CTL`), so the driver keeps
//! per-core enable state: one thread toggling tracing at its
//! instrumentation points does not disturb tracing on other cores — which
//! matters because Gist's start/stop points execute concurrently in
//! different threads.
//!
//! [`PtDriver`] is a cheaply cloneable handle; it also counts control
//! transitions so overhead models can charge per-ioctl cost.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Cores `0..MASK_CORES` keep their state as one bit each in the masks.
const MASK_CORES: u32 = u64::BITS;

/// The per-core enable state, in plain [`Cell`]s rather than a `RefCell`:
/// [`PtDriver::is_enabled`] runs once per VM event and reads one mask.
#[derive(Debug, Default)]
struct DriverState {
    /// Bit `c`: tracing is enabled on core `c`.
    enabled: Cell<u64>,
    /// Enable state for cores without an explicit override.
    default_on: Cell<bool>,
    /// Bit `c`: core `c` has an explicit override.
    overridden: Cell<u64>,
    /// Overrides of cores from [`MASK_CORES`] on, as `(core, on)`. Only
    /// machines with more cores than the masks hold ever use it.
    high: RefCell<Vec<(u32, bool)>>,
    /// Number of state-changing control operations ("ioctls issued").
    transitions: Cell<u64>,
}

impl DriverState {
    #[inline]
    fn is_enabled(&self, core: u32) -> bool {
        match self.enabled.get().checked_shr(core) {
            Some(mask) => mask & 1 != 0,
            None => self.high_enabled(core),
        }
    }

    #[cold]
    fn high_enabled(&self, core: u32) -> bool {
        self.high
            .borrow()
            .iter()
            .find(|&&(c, _)| c == core)
            .map_or(self.default_on.get(), |&(_, on)| on)
    }

    /// Overrides one core's state, counting a transition if it changes.
    fn toggle(&self, core: u32, on: bool) {
        if self.is_enabled(core) == on {
            return;
        }
        self.transitions.set(self.transitions.get() + 1);
        if core < MASK_CORES {
            let bit = 1 << core;
            self.enabled.set(self.enabled.get() ^ bit);
            self.overridden.set(self.overridden.get() | bit);
        } else {
            let mut high = self.high.borrow_mut();
            match high.iter_mut().find(|(c, _)| *c == core) {
                Some(entry) => entry.1 = on,
                None => high.push((core, on)),
            }
        }
    }
}

/// A handle to the simulated PT kernel driver.
#[derive(Clone, Debug, Default)]
pub struct PtDriver {
    state: Rc<DriverState>,
}

impl PtDriver {
    /// Creates a driver with tracing disabled on every core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a driver with tracing enabled on every core (full-trace
    /// mode, used for the Fig. 13 comparison).
    pub fn always_on() -> Self {
        let d = Self::new();
        d.set_default(true);
        d
    }

    /// Sets the default state for all cores (clears per-core overrides).
    pub fn set_default(&self, on: bool) {
        let s = &self.state;
        let mut high = s.high.borrow_mut();
        if s.default_on.get() != on || s.overridden.get() != 0 || !high.is_empty() {
            s.transitions.set(s.transitions.get() + 1);
        }
        s.default_on.set(on);
        s.overridden.set(0);
        high.clear();
        s.enabled.set(if on { u64::MAX } else { 0 });
    }

    /// Enables tracing on one core (no-op if already on).
    pub fn trace_on(&self, core: u32) {
        self.state.toggle(core, true);
    }

    /// Disables tracing on one core (no-op if already off).
    pub fn trace_off(&self, core: u32) {
        self.state.toggle(core, false);
    }

    /// True if tracing is enabled on the core.
    #[inline]
    pub fn is_enabled(&self, core: u32) -> bool {
        self.state.is_enabled(core)
    }

    /// Number of state-changing control operations so far.
    pub fn transitions(&self) -> u64 {
        self.state.transitions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_disabled_and_toggles_per_core() {
        let d = PtDriver::new();
        assert!(!d.is_enabled(0));
        d.trace_on(0);
        assert!(d.is_enabled(0));
        assert!(!d.is_enabled(1), "other cores unaffected");
        d.trace_off(0);
        assert!(!d.is_enabled(0));
        assert_eq!(d.transitions(), 2);
    }

    #[test]
    fn redundant_toggles_do_not_count() {
        let d = PtDriver::new();
        d.trace_on(2);
        d.trace_on(2);
        d.trace_on(2);
        assert_eq!(d.transitions(), 1);
        // A no-op toggle leaves no override for `set_default` to clear.
        let d = PtDriver::always_on();
        d.trace_on(1);
        d.set_default(true);
        assert_eq!(d.transitions(), 1);
    }

    #[test]
    fn clones_share_state() {
        let d = PtDriver::new();
        let d2 = d.clone();
        d.trace_on(3);
        assert!(d2.is_enabled(3));
        d2.trace_off(3);
        assert!(!d.is_enabled(3));
    }

    #[test]
    fn cores_past_the_masks_toggle_like_the_rest() {
        let d = PtDriver::new();
        for core in [MASK_CORES, MASK_CORES + 7, 1000] {
            d.trace_on(core);
            d.trace_on(core);
            assert!(d.is_enabled(core), "core {core}");
        }
        assert!(!d.is_enabled(MASK_CORES + 1), "other cores unaffected");
        d.trace_off(MASK_CORES + 7);
        assert!(!d.is_enabled(MASK_CORES + 7) && d.is_enabled(1000));
        assert_eq!(d.transitions(), 4);
        d.set_default(false);
        assert_eq!(d.transitions(), 5, "clearing high overrides counts");
        assert!(!d.is_enabled(1000), "set_default clears high overrides");
        d.set_default(true);
        d.trace_off(70);
        assert!(!d.is_enabled(70) && d.is_enabled(71));
    }

    #[test]
    fn always_on_enables_every_core() {
        let d = PtDriver::always_on();
        assert!(d.is_enabled(0));
        assert!(d.is_enabled(7));
        assert!(d.is_enabled(MASK_CORES + 3));
    }

    #[test]
    fn default_with_overrides() {
        let d = PtDriver::new();
        d.set_default(true);
        d.trace_off(1);
        assert!(d.is_enabled(0));
        assert!(!d.is_enabled(1));
        d.set_default(false);
        assert!(!d.is_enabled(1), "set_default clears overrides");
        d.trace_on(63);
        assert!(d.is_enabled(63) && !d.is_enabled(62), "highest core");
    }
}
