//! GFW actions as injectable faults: blacklist (and un-blacklist)
//! verdicts scheduled on a [`FaultPlan`](sc_simnet::faults::FaultPlan).
//!
//! The paper's availability story hinges on the censor blacklisting
//! remote proxy IPs one by one (§4.2) while the service fails over.
//! These helpers wrap a blacklist mutation of the shared [`GfwHandle`]
//! in a [`Fault::Callback`], so "the GFW blackholes 99.0.0.41 at
//! t = 40 s" is one line of a fault plan — applied deterministically in
//! the simulation event loop and visible in the trace as a
//! `gfw/fault/…` event.

use sc_simnet::addr::Addr;
use sc_simnet::faults::Fault;

use crate::engine::GfwHandle;

/// A fault that adds `addr/32` to the GFW IP blacklist at its scheduled
/// time. Matching traffic is dropped at the border in both directions
/// (the engine checks source and destination addresses).
pub fn blacklist_ip(gfw: &GfwHandle, addr: Addr) -> Fault {
    let gfw = gfw.clone();
    Fault::Callback {
        label: "gfw_blacklist_ip",
        apply: Box::new(move |now| {
            let mut st = gfw.borrow_mut();
            if !st.config().ip_blacklist.contains(&(addr, 32)) {
                st.config_mut().ip_blacklist.push((addr, 32));
            }
            let now_us = now.as_micros();
            sc_obs::event(now_us, sc_obs::Level::Info, "gfw", "fault", "blacklist_ip", |f| {
                f.field("addr", addr);
            });
        }),
    }
}

/// A fault that removes every blacklist entry covering exactly `addr/32`
/// (the inverse of [`blacklist_ip`]; broader prefixes are untouched).
pub fn unblacklist_ip(gfw: &GfwHandle, addr: Addr) -> Fault {
    let gfw = gfw.clone();
    Fault::Callback {
        label: "gfw_unblacklist_ip",
        apply: Box::new(move |now| {
            let mut st = gfw.borrow_mut();
            st.config_mut().ip_blacklist.retain(|&(a, len)| !(a == addr && len == 32));
            let now_us = now.as_micros();
            sc_obs::event(now_us, sc_obs::Level::Info, "gfw", "fault", "unblacklist_ip", |f| {
                f.field("addr", addr);
            });
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GfwConfig;
    use crate::engine::new_gfw;
    use sc_simnet::time::SimTime;

    #[test]
    fn blacklist_fault_mutates_shared_state() {
        let gfw = new_gfw(GfwConfig::default());
        let target = Addr::new(99, 0, 0, 41);
        let mut add = blacklist_ip(&gfw, target);
        let mut remove = unblacklist_ip(&gfw, target);
        assert!(!gfw.borrow().config().ip_blocked(target));
        if let Fault::Callback { apply, .. } = &mut add {
            apply(SimTime::ZERO);
            apply(SimTime::ZERO); // idempotent: no duplicate entries
        }
        assert!(gfw.borrow().config().ip_blocked(target));
        assert_eq!(gfw.borrow().config().ip_blacklist.len(), 1);
        if let Fault::Callback { apply, .. } = &mut remove {
            apply(SimTime::ZERO);
        }
        assert!(!gfw.borrow().config().ip_blocked(target));
    }
}
