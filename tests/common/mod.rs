//! Helpers shared by the integration-test binaries: an in-memory trace
//! capture and the seeded scenarios that more than one binary runs.
#![allow(dead_code)]

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use sc_metrics::{Method, ScenarioConfig, build_scenario};
use sc_obs::{Dispatcher, JsonlSink, Level};
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

/// An in-memory `Write` target shared with the test after the sink is
/// boxed away.
#[derive(Clone, Default)]
pub struct SharedBuf(pub Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `f` under a Debug-level JSONL dispatcher and returns the trace.
pub fn captured(f: impl FnOnce()) -> Vec<u8> {
    let buf = SharedBuf::default();
    let guard = Dispatcher::new()
        .with_level(Level::Debug)
        .with_sink(Box::new(JsonlSink::new(Box::new(buf.clone()))))
        .install();
    f();
    drop(guard);
    let out = buf.0.borrow().clone();
    out
}

/// One `label sha256-hex` line of a golden digest file.
pub fn digest_line(label: &str, trace: &[u8]) -> String {
    let hex: String = sc_crypto::sha256(trace).iter().map(|b| format!("{b:02x}")).collect();
    format!("{label} {hex}\n")
}

/// Where `tests/golden/<file>` is.
pub fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// `SC_BLESS` is set: a golden check rewrites its file instead.
pub fn blessing() -> bool {
    std::env::var_os("SC_BLESS").is_some()
}

/// Compares `actual` with `tests/golden/<file>`, or rewrites the file
/// when `SC_BLESS` is set.
pub fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if blessing() {
        std::fs::write(&path, actual).expect("write golden digests");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden digests");
    assert_eq!(actual, golden, "{file} moved; if intended, re-bless with SC_BLESS=1");
}

/// An elastic scenario run: a serverless remote tier with a mid-run
/// blacklisting wave whose target is resolved at fire time from the
/// live warm set (the elastic_lab shape, shrunk). Autoscaler ticks,
/// cold starts, churn, and the cost meters are all keyed to the
/// seeded sim, so the trace must be a pure function of the seed.
pub fn elastic_run(seed: u64) -> Vec<u8> {
    captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
        cfg.clients = 2;
        cfg.loads = 4;
        cfg.interval = SimDuration::from_secs(10);
        cfg.timeout = SimDuration::from_secs(8);
        cfg.sc_elastic_pool = 8;
        cfg.sc_elastic.min_instances = 1;
        cfg.sc_elastic.max_instances = 4;
        cfg.sc_elastic.idle_timeout = SimDuration::from_secs(25);
        cfg.extra_runtime = SimDuration::from_secs(15);
        let mut built = build_scenario(&cfg);
        let gfw = built.gfw.clone().expect("paper config attaches the GFW");
        let elastic = built.sc_elastic.clone().expect("elastic tier requested");
        let plan = FaultPlan::new().at(
            SimTime::from_secs(15),
            Fault::Callback {
                label: "gfw_blacklist_warm",
                apply: Box::new(move |now| {
                    let Some(addr) = elastic.warm_addrs().first().copied() else { return };
                    let mut st = gfw.borrow_mut();
                    if !st.config().ip_blacklist.contains(&(addr, 32)) {
                        st.config_mut().ip_blacklist.push((addr, 32));
                    }
                    let now_us = now.as_micros();
                    sc_obs::event(now_us, Level::Info, "gfw", "fault", "blacklist_ip", |f| {
                        f.field("addr", addr);
                    });
                }),
            },
        );
        built.sim.install_fault_plan(plan);
        built.finish();
    })
}
