#!/usr/bin/env sh
# Sampling profile of one benchmark workload: DESIGN.md §6n's method.
#
#   scripts/profile.sh WORKLOAD [SEED]      (SEED defaults to 2017)
#
# Copies the working tree (build outputs left out) to a temporary
# directory, patches a SIGPROF frame-pointer sampler into the copy's
# benchmark/src/main.rs, builds it with frame pointers and line tables,
# runs the benchmark's own command for WORKLOAD (`--seed SEED --seconds 15
# --trace 0`), and prints two tables over the samples whose stack holds
# Sim::run_until, called or inlined into its caller: self time (the
# function the sampled pc is in) and inclusive time (every function on
# the walked stack, inlined ones included, once per sample). The copy,
# build and symbolising are scripts/lib's, shared with alloc_sites.sh;
# the checkout itself, benchmark/ included, is never written. Needs x86_64
# Linux (the sampler reads the registers from a Linux x86_64 ucontext),
# addr2line and python3; a run takes the build plus about 20 s.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/profile.sh WORKLOAD [SEED]" >&2
    exit 1
fi
workload=$1
seed=${2:-2017}
. "$(dirname "$0")/lib/fp_build.sh"
fp_copy profile.sh

cat > "$work/benchmark/src/sampler.rs" <<'RUST'
//! SIGPROF sampler: every profiling tick stores the interrupted pc and
//! the return addresses of the frame-pointer chain; the samples and
//! /proc/self/maps are written to $SC_PROFILE_OUT when the guard drops.

use std::ptr::{addr_of, addr_of_mut, null_mut};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 1 << 21;
const DEPTH: usize = 128;
static mut FRAMES: [usize; SLOTS] = [0; SLOTS];
static USED: AtomicUsize = AtomicUsize::new(0);

#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

const SIGPROF: i32 = 27;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
const ITIMER_PROF: i32 = 2;
/// Byte offset of `uc_mcontext.gregs` in x86_64 glibc's `ucontext_t`.
const GREGS: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

extern "C" fn on_tick(_sig: i32, _info: *mut u8, uc: *mut u8) {
    let mut frames = [0usize; DEPTH];
    // SAFETY: the kernel hands a valid ucontext_t; the chain is followed
    // only while it stays inside the interrupted thread's stack and
    // grows towards its base.
    let n = unsafe {
        let gregs = uc.add(GREGS) as *const usize;
        let (mut fp, sp) = (*gregs.add(REG_RBP), *gregs.add(REG_RSP));
        frames[0] = *gregs.add(REG_RIP);
        let mut n = 1;
        while n < DEPTH && fp >= sp && fp < sp + (8 << 20) && fp % 8 == 0 {
            let (next, ret) = (*(fp as *const usize), *((fp + 8) as *const usize));
            if ret == 0 {
                break;
            }
            frames[n] = ret;
            n += 1;
            if next <= fp {
                break;
            }
            fp = next;
        }
        n
    };
    let at = USED.fetch_add(n + 1, Relaxed);
    if at + n + 1 > SLOTS {
        return;
    }
    // SAFETY: each tick writes the slots its fetch_add reserved.
    unsafe {
        let slots = addr_of_mut!(FRAMES) as *mut usize;
        for (i, &f) in frames[..n].iter().enumerate() {
            *slots.add(at + i) = f;
        }
        *slots.add(at + n) = 0;
    }
}

pub struct Sampler;

fn timer(usec: i64) {
    let tick = || TimeVal { sec: 0, usec };
    // SAFETY: a plain libc call with a valid argument.
    unsafe { setitimer(ITIMER_PROF, &ITimerVal { interval: tick(), value: tick() }, null_mut()) };
}

impl Sampler {
    pub fn start() -> Sampler {
        let act = SigAction { handler: on_tick as *const () as usize, mask: [0; 16], flags: SA_SIGINFO | SA_RESTART, restorer: 0 };
        // SAFETY: a plain libc call with a valid argument.
        unsafe { sigaction(SIGPROF, &act, null_mut()) };
        timer(1000);
        Sampler
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        timer(0);
        let mut out = String::new();
        for line in std::fs::read_to_string("/proc/self/maps").expect("maps").lines() {
            out += &format!("map {line}\n");
        }
        let used = USED.load(Relaxed).min(SLOTS);
        // SAFETY: the timer is off, so no tick writes any more.
        let slots = unsafe { &*addr_of!(FRAMES) };
        for sample in slots[..used].split(|&f| f == 0).filter(|s| !s.is_empty()) {
            out += "s";
            for f in sample {
                out += &format!(" {f:x}");
            }
            out += "\n";
        }
        std::fs::write(std::env::var("SC_PROFILE_OUT").expect("SC_PROFILE_OUT"), out).expect("write samples");
    }
}
RUST

main="$work/benchmark/src/main.rs"
sed -i -e 's/^mod workloads;$/mod workloads;\nmod sampler;/' \
    -e 's/^fn main() -> ExitCode {$/fn main() -> ExitCode {\n    let _sampler = sampler::Sampler::start();/' "$main"
fp_patched "$main" '^mod sampler;$' 'sampler::Sampler::start'

SC_PROFILE_OUT="$work/samples.txt" fp_run --workload "$workload" --seed "$seed" --seconds 15 --trace 0 >/dev/null

PYTHONPATH="$lib" python3 - "$work/samples.txt" "$work/benchmark/target/release/sc-benchmark" "$workload" "$seed" <<'PY'
import collections, re, sys
from symbolize import read_dump, symbolize

dump, binary, workload, seed = sys.argv[1:]
base, records = read_dump(dump, binary, "profile.sh")
samples = [[int(x, 16) for x in rest.split()] for kind, rest in records if kind == "s"]

# A return address points after its call: look up the call itself.
def offsets(sample):
    return [(pc if i == 0 else pc - 1) - base for i, pc in enumerate(sample)]

names = symbolize(binary, [a for s in samples for a in offsets(s)])
def frames(sample):
    return [[fn for fn, _ in names.get(a, [("??", "")])] for a in offsets(sample)]

# The event loop's frame: `Sim::run_until` where it was called, plain
# `run_until` where addr2line names it inlined into its caller.
loop_frame = re.compile(r"(?:^|::)run_until$")
under = [frames(s) for s in samples]
under = [s for s in under if any(loop_frame.search(f) for fs in s for f in fs)]
if not under:
    sys.exit("profile.sh: no sample has Sim::run_until on its stack")
self_time = collections.Counter(s[0][-1] for s in under)
inclusive = collections.Counter(f for s in under for f in {f for fs in s for f in fs})
print(f"{workload} at seed {seed}: {len(samples)} samples, {len(under)} under Sim::run_until")
for title, counts in (("self time (the function the pc is in)", self_time),
                      ("inclusive time (on the stack, inlined functions included)", inclusive)):
    print(f"\n{title}")
    # Functions on every stack (main, the benchmark's own loop) say nothing.
    for name, n in [(name, n) for name, n in counts.most_common() if n < len(under)][:30]:
        print(f"{100 * n / len(under):6.1f}%  {n:6}  {name[:150]}")
PY
