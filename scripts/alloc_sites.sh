#!/usr/bin/env sh
# Allocation census of one benchmark workload: where its allocations
# per load are made.
#
#   scripts/alloc_sites.sh WORKLOAD [SEED]      (SEED defaults to 2017)
#
# Copies the working tree (build outputs left out) to a temporary
# directory and patches a recording global allocator into the copy's
# benchmark: benchmark/src/main.rs installs it in place of
# `sc_obs::prof::CountingAlloc` (which it wraps, so every count the
# benchmark prints is unchanged), and benchmark/src/run.rs starts a fresh
# tally at each repetition and records only inside the window the
# benchmark counts. It builds the copy with frame pointers and line
# tables, runs the benchmark's own command for WORKLOAD (`--seed SEED
# --seconds 2 --trace 0`), and prints the last repetition's allocations
# and bytes per load, filed under the innermost frame (inlined ones
# included) whose source lies under crates/ — so an allocation made by
# std, the vendored crates or the allocator itself is charged to the
# line of this repository that asked for it. Each by-function row also
# names the site's caller: the nearest frame under crates/ in another
# file, so a buffer that the simulator allocates on an app's behalf (the
# share count of a `Bytes` adopting a vector, say) points at the app
# that built it. Its totals are the `allocs_per_load` and
# `alloc_bytes_per_load` the benchmark prints, and the script fails if
# they are not. The copy, build and
# symbolising are scripts/lib's, shared with profile.sh; the checkout
# itself, benchmark/ included, is never written. Needs x86_64 Linux (the walk
# reads the frame pointer), addr2line and python3; a run takes the build
# plus a few seconds.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: scripts/alloc_sites.sh WORKLOAD [SEED]" >&2
    exit 1
fi
workload=$1
seed=${2:-2017}
. "$(dirname "$0")/lib/fp_build.sh"
fp_copy alloc_sites.sh

cat > "$work/benchmark/src/census.rs" <<'RUST'
//! Recording global allocator: while a counted window is open, every
//! alloc and realloc adds one call and its bytes to the tally of its
//! frame-pointer chain; the tally and /proc/self/maps are written to
//! $SC_CENSUS_OUT when the guard drops.

use std::alloc::{GlobalAlloc, Layout};
use std::ptr::{addr_of, addr_of_mut};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

const DEPTH: usize = 48;
const SLOTS: usize = 1 << 14;

#[derive(Clone, Copy)]
struct Entry {
    calls: u64,
    bytes: u64,
    frames: [usize; DEPTH],
}

const EMPTY: Entry = Entry { calls: 0, bytes: 0, frames: [0; DEPTH] };
static mut TABLE: [Entry; SLOTS] = [EMPTY; SLOTS];
static mut LOST: u64 = 0;
static RECORDING: AtomicBool = AtomicBool::new(false);

/// Drops the tally: a repetition starts.
pub fn fresh() {
    // SAFETY: the harness is single-threaded and nothing records now.
    unsafe {
        let table = &mut *addr_of_mut!(TABLE);
        table.fill(EMPTY);
        *addr_of_mut!(LOST) = 0;
    }
}

/// Opens or closes the counted window.
pub fn recording(on: bool) {
    RECORDING.store(on, Relaxed);
}

#[inline(always)]
fn record(bytes: usize) {
    if !RECORDING.swap(false, Relaxed) {
        return;
    }
    let mut frames = [0usize; DEPTH];
    let mut fp: usize;
    // SAFETY: reads this function's frame pointer (the copy is built
    // with frame pointers forced on); the chain is followed only while it
    // grows towards the stack's base in small steps.
    unsafe {
        std::arch::asm!("mov {}, rbp", out(reg) fp);
        let mut n = 0;
        while n < DEPTH && fp != 0 && fp % 8 == 0 {
            let (next, ret) = (*(fp as *const usize), *((fp + 8) as *const usize));
            if ret == 0 {
                break;
            }
            frames[n] = ret;
            n += 1;
            if next <= fp || next - fp > (1 << 20) {
                break;
            }
            fp = next;
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &f in &frames {
        h = (h ^ f as u64).wrapping_mul(0x0100_0000_01b3);
    }
    // SAFETY: single-threaded, and RECORDING is off while the slot is
    // written, so no allocation re-enters.
    unsafe {
        let table = &mut *addr_of_mut!(TABLE);
        let mut at = h as usize % SLOTS;
        for _ in 0..SLOTS {
            let e = &mut table[at];
            if e.calls == 0 {
                e.frames = frames;
            }
            if e.frames == frames {
                e.calls += 1;
                e.bytes += bytes as u64;
                RECORDING.store(true, Relaxed);
                return;
            }
            at = (at + 1) % SLOTS;
        }
        *addr_of_mut!(LOST) += 1;
    }
    RECORDING.store(true, Relaxed);
}

pub struct Recording;

// SAFETY: delegates verbatim to the benchmark's counting allocator.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        sc_obs::prof::CountingAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        sc_obs::prof::CountingAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        sc_obs::prof::CountingAlloc.realloc(ptr, layout, new_size)
    }
}

pub struct Guard;

impl Drop for Guard {
    fn drop(&mut self) {
        recording(false);
        let mut out = String::new();
        for line in std::fs::read_to_string("/proc/self/maps").expect("maps").lines() {
            out += &format!("map {line}\n");
        }
        // SAFETY: recording is off, so nothing writes the table any more.
        let (table, lost) = unsafe { (&*addr_of!(TABLE), *addr_of!(LOST)) };
        out += &format!("lost {lost}\n");
        for e in table.iter().filter(|e| e.calls > 0) {
            out += &format!("e {} {}", e.calls, e.bytes);
            for f in e.frames.iter().take_while(|&&f| f != 0) {
                out += &format!(" {f:x}");
            }
            out += "\n";
        }
        std::fs::write(std::env::var("SC_CENSUS_OUT").expect("SC_CENSUS_OUT"), out).expect("write tally");
    }
}
RUST

main="$work/benchmark/src/main.rs"
run="$work/benchmark/src/run.rs"
sed -i -e 's/^mod workloads;$/mod workloads;\nmod census;/' \
    -e 's/^fn main() -> ExitCode {$/fn main() -> ExitCode {\n    let _census = census::Guard;/' \
    -e 's/^static ALLOC: sc_obs::prof::CountingAlloc = sc_obs::prof::CountingAlloc;$/static ALLOC: census::Recording = census::Recording;/' \
    "$main"
sed -i -e '/^fn counting_allocs</,/^}/s/^    let out = f();$/    crate::census::recording(true);\n    let out = f();\n    crate::census::recording(false);/' \
    -e 's/^fn rep(\(.*\)) -> Rep {$/fn rep(\1) -> Rep {\n    crate::census::fresh();/' \
    "$run"
fp_patched "$main" '^mod census;$' '^    let _census = census::Guard;$' '^static ALLOC: census::Recording'
fp_patched "$run" 'crate::census::recording(true);' 'crate::census::fresh();'

SC_CENSUS_OUT="$work/tally.txt" fp_run --workload "$workload" --seed "$seed" --seconds 2 --trace 0 >"$work/rows.txt"

PYTHONPATH="$lib" python3 - "$work/tally.txt" "$work/benchmark/target/release/sc-benchmark" "$work/rows.txt" \
    "$work/" "$workload" "$seed" <<'PY'
import collections, os, re, sys
from symbolize import read_dump, symbolize

dump, binary, rows, tree, workload, seed = sys.argv[1:]
printed = {}
for line in open(rows):
    f = line.split()
    if len(f) >= 3 and f[0] == workload:
        printed[f[1]] = float(f[2])
if "allocs_per_load" not in printed:
    sys.exit("alloc_sites.sh: the benchmark printed no allocs_per_load row")

base, records = read_dump(dump, binary, "alloc_sites.sh")
entries, lost = [], 0
for kind, rest in records:
    if kind == "lost":
        lost = int(rest)
    elif kind == "e":
        f = rest.split()
        entries.append((int(f[0]), int(f[1]), [int(x, 16) for x in f[2:]]))
calls = sum(e[0] for e in entries)
if calls == 0:
    sys.exit("alloc_sites.sh: nothing was recorded")

# Every frame is a return address: look up the call before it.
frames = symbolize(binary, [pc - 1 - base for e in entries for pc in e[2]])

crates = os.path.join(os.path.realpath(tree), "crates") + os.sep
def crate_frames(stack):
    """(file under crates/, short function name) of each frame, inlined
    ones included, innermost first."""
    for pc in stack:
        for fn, loc in frames.get(pc - 1 - base, []):
            path = os.path.realpath(loc.rsplit(":", 1)[0]) if loc.startswith("/") else loc
            if path.startswith(crates):
                short = re.sub(r"<[^<>]*>", "", fn).split("::")[-2:]
                yield path[len(crates):], "::".join(x for x in short if x)

def site(stack):
    """The innermost frame under crates/ and its caller in another file."""
    walk = crate_frames(stack)
    path, fn = next(walk, ("(outside crates/)", ""))
    caller = next((f"{p} {f}" for p, f in walk if p != path), "")
    return path, fn, caller

# The tally is the last repetition's; the benchmark divides the same
# repetition by its loads.
loads = round(calls / printed["allocs_per_load"])
by_fn, by_file = collections.Counter(), collections.Counter()
bytes_fn, bytes_file = collections.Counter(), collections.Counter()
for n, b, stack in entries:
    path, fn, caller = site(stack)
    key = (path, fn, caller)
    by_fn[key] += n
    bytes_fn[key] += b
    by_file[path] += n
    bytes_file[path] += b
total_bytes = sum(bytes_file.values())
print(f"{workload} at seed {seed}: {calls / loads:.2f} allocations and {total_bytes / loads:,.0f} B per load "
      f"over {loads} loads (the benchmark prints {printed['allocs_per_load']:.2f} and "
      f"{printed.get('alloc_bytes_per_load', 0):,.0f} B){'' if lost == 0 else f'; {lost} calls lost to a full table'}")
# The census is only worth its rows if it counted what the benchmark did.
if lost or f"{calls / loads:.2f}" != f"{printed['allocs_per_load']:.2f}" \
        or abs(total_bytes / loads - printed.get("alloc_bytes_per_load", -1)) > 0.5 + 1e-6 * total_bytes / loads:
    sys.exit("alloc_sites.sh: the census's totals are not the benchmark's allocs_per_load and alloc_bytes_per_load")
print("\nby file (allocations / load, bytes / load)")
for path, n in by_file.most_common():
    print(f"{n / loads:8.2f} {bytes_file[path] / loads:10.0f}  {path}")
print("\nby function (the innermost frame under crates/, then its caller in another file)")
for (path, fn, caller), n in by_fn.most_common(40):
    print(f"{n / loads:8.2f} {bytes_fn[(path, fn, caller)] / loads:10.0f}  {path} {fn}  <- {caller or '(none)'}")
PY
