#!/usr/bin/env sh
# Tier-1 gate: build and test the reproduction, fully offline.
# Everything external is vendored under vendor/, so no network is needed.
set -eu
cd "$(dirname "$0")/.."
# sans_tests, code_lines and $rust_tests_awk: the one rule for where a
# file's tests are, shared with scripts/census.sh.
. scripts/lib/rust_tests.sh
cargo build --release --offline
cargo test -q --offline
# The paper's figures, second half: Fig. 7's block of EXPERIMENTS.md
# takes 42 s to render in a debug build, so its test is #[ignore]d in the
# run above and runs here in release.
cargo test -q --offline --release --test figure_golden -- --ignored
echo "figure blocks: ok"

# The two differential suites behind the packet path's "each byte's work
# once" — the GFW engine against its inspect-everything-every-packet
# oracle, and TCP against a plain-Vec model (tcp::tests: the chunk queue
# on its own over arbitrary pushes, ranges, drains and takes, then whole
# connections — wire bytes, delivered stream and statistics under loss,
# retransmission and partial reads, opened across every chunk boundary)
# — at depth: the default 64 cases reach the common interleavings, the
# rare ones (a rule learned mid-run by the adaptive censor, say) need
# thousands.
PROPTEST_CASES=2048 cargo test -q --offline -p sc-gfw --lib engine::reference
PROPTEST_CASES=2048 cargo test -q --offline -p sc-simnet --lib tcp::tests
# The event queue (heap of keys over a slab of payloads, arrivals in
# per-link lanes, keys reserved before their push) against an
# ordered-map model, the TCP timers the simulator fires against an eager
# list of every arm, and the page manifest parser against the
# decode-the-whole-body parser it replaced, at the same depth.
PROPTEST_CASES=2048 cargo test -q --offline -p sc-simnet --lib queue::tests
PROPTEST_CASES=2048 cargo test -q --offline -p sc-simnet --lib sim::tests::tcp_timers_fire
PROPTEST_CASES=2048 cargo test -q --offline -p sc-web --lib page::tests
# HTTP messages (one head buffer and a span table, a parser that keeps
# the chunks it is given) against the String-per-header types and the
# one-growing-buffer parser they replaced, kept as http::tests::reference:
# nearly-right message streams and arbitrary bytes under arbitrary
# chunkings must give the same messages, errors, body bytes and
# re-encodings. Most streams end in an error a few messages in, so the
# deep ones need the depth.
PROPTEST_CASES=2048 cargo test -q --offline -p sc-netproto --lib http::tests
# The scan kernel every byte search goes through (a word at a time,
# DESIGN.md §6k "Byte scans") against the per-byte searches it replaced:
# arbitrary haystacks over the bytes that make false flags common, and
# needles cut out of arbitrary bytes, in both ASCII cases.
PROPTEST_CASES=2048 cargo test -q --offline -p sc-netproto --lib scan::tests
echo "differential suites: ok"

# The analyzer is where sc-obs reads bytes it did not write: written
# events parse back field for field, arbitrary bytes and damaged lines
# never panic, nesting stops at the cap, and arbitrary sequences of
# well-formed events — any timestamps, span ids and field types — go
# through analyze and every renderer without a panic, to JSON that
# parses back (crates/obs/tests/parse_props.rs plus the parse_* unit
# tests), at the same depth.
PROPTEST_CASES=2048 cargo test -q --offline -p sc-obs parse
echo "parser properties: ok"

# Stitching and exclusive-time attribution over arbitrary span forests
# (orphaned parents, unclosed spans, rootless trees): the rare shapes —
# a rootless tree with no children first shows up near case 65 — need
# the same depth.
PROPTEST_CASES=2048 cargo test -q --offline -p sc-obs --test attribution_props
echo "attribution properties: ok"

# sc-crypto picks its SHA-256 and AES kernels from what the CPU reports
# (DESIGN.md §6n), so the same command tests different code on different
# machines: say which. The suite runs every FIPS/NIST/RFC vector on the
# portable kernels and on the dispatched ones, and the hardware kernels
# against the portable ones block for block — arbitrary update chunkings,
# CTR/CFB pieces that straddle the kernel's stride, counters that carry
# and wrap — at depth; on a CPU without the instructions it prints
# `skipped: no sha_ni` / `skipped: no aes` and tests the fallback alone.
cargo run -q --release --offline -p sc-crypto --example backends
PROPTEST_CASES=2048 cargo test -q --offline -p sc-crypto
echo "crypto differential suite: ok"

# Structure: the domestic proxy stays the pipeline it was made into
# (DESIGN.md §6m) and tracing stays on its one emit path. Plain grep,
# so a violation names its line.
fail_if_found() {
    _what="$1"; shift
    if _hits=$("$@"); then
        echo "structure: $_what:" >&2
        echo "$_hits" >&2
        exit 1
    fi
}
# Events are built inside sc_obs::event's closure, after the level
# check; nobody outside sc-obs guards or constructs one by hand.
fail_if_found "event built outside sc_obs::event" \
    grep -rnE 'is_enabled\(|Event::new\(' crates src examples \
        --include='*.rs' --exclude-dir=obs --exclude-dir=tests --exclude-dir=benches
fail_if_found "emit_* helper in sc-core" \
    grep -rnE 'fn emit_' crates/scholarcloud/src
# `unsafe` is for the instructions safe Rust has no word for (SHA-NI,
# AES-NI, rdtsc) and the counting allocator: inside sc-crypto's two
# `mod x86` blocks and in prof.rs, each block under a `// SAFETY:`
# comment, and nowhere else. CPU detection stays where the kernels are.
unsafe_outside_arch_modules() {
    # Code lines (not `//` comments) that say `unsafe`, outside `mod x86 { … }`.
    awk '/^mod x86 \{/ { inside = 1 } inside && /^\}/ { inside = 0; next }
         !inside && !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ \
             { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' crates/crypto/src/sha256.rs crates/crypto/src/aes.rs
}
fail_if_found "unsafe outside sc-crypto's x86 modules" unsafe_outside_arch_modules
fail_if_found "unsafe outside crates/crypto/src/{sha256,aes}.rs and crates/obs/src/prof.rs" \
    grep -rnwE '^[^/]*unsafe' crates src examples tests --include='*.rs' \
        --exclude=sha256.rs --exclude=aes.rs --exclude=prof.rs
unsafe_without_safety_comment() {
    # An `unsafe {` block or `unsafe impl` whose run of comment lines
    # directly above has no `SAFETY:` in it.
    awk 'FNR == 1 { covered = 0 }
         /^[[:space:]]*\/\// { if (/SAFETY:/) covered = 1; next }
         /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|impl)/ && !covered \
             { print FILENAME ":" FNR ": " $0; found = 1 }
         { covered = 0 }
         END { exit !found }' crates/crypto/src/sha256.rs crates/crypto/src/aes.rs crates/obs/src/prof.rs
}
fail_if_found "unsafe block without a // SAFETY: comment above it" unsafe_without_safety_comment
fail_if_found "is_x86_feature_detected outside sc-crypto" \
    grep -rn 'is_x86_feature_detected' crates src examples tests benchmark/src \
        --include='*.rs' --exclude-dir=crypto
dom=crates/scholarcloud/src/domestic
# One app API (DESIGN.md §6m "The seam"): every app that relays or serves
# TCP — the domestic proxy's stages and driver, the remote proxy, the
# Shadowsocks and Tor endpoints and their SOCKS front, the browser, the
# origin and the DNS stub — is written against sc_simnet::api::Io. In
# their code the simulator's `Ctx` is named only on the `fn on_start` /
# `fn on_event` lines that hand it on, and nothing but sc-simnet (the
# simulator's Ctx, the tests' ScriptedIo) implements Io.
io_apps="$(ls "$dom"/*.rs | grep -v /tests.rs) crates/scholarcloud/src/remote.rs
    crates/tunnels/src/shadowsocks.rs crates/tunnels/src/front.rs crates/tunnels/src/tor/client.rs
    crates/tunnels/src/tor/relay.rs crates/tunnels/src/tor/meek.rs crates/tunnels/src/tor/directory.rs
    crates/web/src/browser.rs crates/web/src/origin.rs crates/dns/src/stub.rs"
ctx_past_the_handoff() {
    # Code lines naming Ctx that do not hand it on.
    awk "$rust_tests_awk"'!in_test($0) && /(^|[^[:alnum:]_])Ctx([^[:alnum:]_]|$)/ \
             && !/^[[:space:]]*fn on_(start|event)\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' $io_apps
}
fail_if_found "an Io app names Ctx past its on_start / on_event line" ctx_past_the_handoff
fail_if_found "impl Io for outside crates/simnet/src" \
    sh -c "grep -rnE 'impl(<[^>]*>)? ([a-z_]+::)*Io for' crates src examples tests benchmark/src --include='*.rs' |
        grep -v '^crates/simnet/src/'"
fail_if_found "a second impl App under domestic/" \
    grep -ln 'impl App for' $(ls "$dom"/*.rs | grep -v /mod.rs)
fail_if_found "clippy::too_many_arguments allowed under domestic/" \
    grep -rn 'too_many_arguments' "$dom"
if [ -e crates/scholarcloud/src/domestic.rs ]; then
    echo "structure: crates/scholarcloud/src/domestic.rs is back" >&2; exit 1
fi
for f in "$dom"/*.rs; do
    _limit=650; [ "$f" = "$dom/mod.rs" ] && _limit=500
    [ "$f" = "$dom/tests.rs" ] && continue
    if [ "$(wc -l < "$f")" -gt "$_limit" ]; then
        echo "structure: $f is over $_limit lines" >&2; exit 1
    fi
done
# The shared cache decides (DESIGN.md §6e): hit, wait or lead, the
# validators, coalescing and how a 200 or 304 settles are
# sc_cache::CachePolicy's. The gateway keeps HTTP, routing and the
# trace, and reaches the store only through the policy: no lookup
# verdicts, coalescing table, counters or entry updates of its own.
fail_if_found "the cache's decision taken under domestic/ (it is sc_cache::CachePolicy's)" \
    grep -rnE '\b(Lookup|Singleflight|Role)\b|\.note_(hit|miss|coalesced|bytes_saved|upstream_fetch|peer_fetch|peer_serve)\(|\.etag_of\(|\.ttl_for\(|\.revalidate\(|cache[^;]*\.(lookup|insert)\(|cache[^;]*\.stats\b' \
        "$dom"
_code=0
for f in $(ls "$dom"/*.rs | grep -v /tests.rs); do _code=$((_code + $(code_lines "$f"))); done
echo "structure: ok (domestic/ holds $_code non-blank non-comment lines, tests aside)"

# Structure, read side: the analyzer stays a spine and a list of
# sections (DESIGN.md §6b). analyze.rs was replaced, not forked; no file
# grows back into it; and what the analyzer knows about a layer — here,
# a sample of each layer's event and field names — is in that layer's
# section file and nowhere else in sc-obs.
ana=crates/obs/src/analyze
if [ -e crates/obs/src/analyze.rs ]; then
    echo "structure: crates/obs/src/analyze.rs is back" >&2; exit 1
fi
_code=$(code_lines crates/obs/src/bin/scholar-obs.rs)
for f in $(find "$ana" -name '*.rs' ! -name tests.rs | sort); do
    if [ "$(sans_tests "$f" | wc -l)" -gt 700 ]; then
        echo "structure: $f is over 700 lines (tests aside)" >&2; exit 1
    fi
    _code=$((_code + $(code_lines "$f")))
done
for _word in retry_denied dequeue evicted peer_fetch fleet_shed proxy_dead \
    cold_start_us churn signature_learned probe_wave; do
    _files=$(grep -rlF "\"$_word\"" crates/obs/src || true)
    case "$_files" in
        "$ana"/sections/*.rs) [ "$(printf '%s\n' "$_files" | wc -l)" -eq 1 ] && continue ;;
    esac
    echo "structure: \"$_word\" belongs to one section file, found in:" >&2
    echo "${_files:-(nowhere)}" >&2; exit 1
done
fail_if_found "a Gate defined outside analyze/" \
    grep -rnE 'struct Gate|Gate \{' crates/obs/src --include='*.rs' --exclude-dir=analyze
echo "structure: ok (analyze/ + scholar-obs.rs hold $_code non-blank non-comment lines, tests aside)"

# Structure, event core (DESIGN.md §6o): the simulator has one TCP
# side-effect scratch — `Effects::default()` is spelled once, where
# `Sim::new` fills the field, and otherwise only in tests.
event_core_offenders() {
    # Code lines that build an Effects anywhere but in Sim's field
    # initialiser.
    awk "$rust_tests_awk"'{ tests = in_test($0) }
         !tests && /Effects::default\(\)/ && !/^ *fx: Effects::default\(\),$/ \
             { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' crates/simnet/src/sim.rs crates/simnet/src/node.rs \
        crates/simnet/src/stats.rs crates/simnet/src/tcp.rs
}
fail_if_found "a second Effects in the simnet event core" event_core_offenders
echo "structure: ok (one Effects scratch)"

# Structure, one queue (DESIGN.md §6o): the event queue is the simulator's
# one heap — `BinaryHeap` is named under crates/simnet/src only in
# queue.rs — and it holds a TCP timer entry only where one can fire:
# `Event::TcpTimer` is built in one code line, in `Sim::with_tcp`, where
# an arm that needs an entry is queued (an entry that comes due early
# is pushed back as it came, not built again). A second queue or an
# eager push of every arm does not come back.
second_heaps() {
    grep -rn 'BinaryHeap' crates/simnet/src --include='*.rs' | grep -v '^crates/simnet/src/queue\.rs:'
}
fail_if_found "a heap outside crates/simnet/src/queue.rs" second_heaps
tcp_timer_builds() {
    # Code lines with an `Event::TcpTimer { .. }` that is not a pattern —
    # one followed by `=>`, `=` or `|`, or alone on its line before a
    # `|` alternative — outside `fn with_tcp`.
    for _f in crates/simnet/src/*.rs; do
        awk "$rust_tests_awk"'function built() {
                 if (held == "") return
                 n++; if (held_fn != "with_tcp") print FILENAME ":" held
                 held = ""
             }
             { tests = in_test($0); if (/^ *\|/) held = ""; else built() }
             match($0, /fn [a-z_]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
             !tests && match($0, /Event::TcpTimer *\{[^}]*\}/) {
                 after = substr($0, RSTART + RLENGTH); sub(/^[[:space:]]+/, "", after)
                 if (after !~ /^[=|]/) { held = FNR ": " $0; held_fn = fn_name }
                 if (after != "") built()
             }
             END { built(); if (FILENAME ~ /sim\.rs$/ && n != 1) print FILENAME ": " n " builds of Event::TcpTimer" }' "$_f"
    done | grep .
}
fail_if_found "a TCP timer entry built where no timer is armed" tcp_timer_builds
echo "structure: ok (one event queue, one TCP timer entry a connection)"

# Structure, who reads what: the SOCKS5 server session sits behind the
# one front both local proxies share (sc-tunnels' front.rs), and the
# simulation reads nothing back from sc-obs — the time-series and SLO
# engine are read by reports and tests, so what a run does cannot
# depend on what obs collects. A fact about a run is read from its
# trace: the counter registry holds only the three counters
# benchmark/src/run.rs reads until ROADMAP item 8j moves it to the
# trace — simnet.packets_sent and web.failovers (per-layer rows) and
# scholarcloud.failovers (the incident workload's correctness check) —
# and the histograms, the registry read and the registry summary are
# gone.
fail_if_found "SocksServerSession named outside crates/tunnels/src/front.rs" \
    grep -rn 'SocksServerSession' crates/tunnels/src --exclude=front.rs
fail_if_found "an sc_obs::with_* read in the simulation" \
    grep -rnE 'sc_obs::with_|with_(timeseries|slo_engine)\(' \
        crates/simnet/src crates/tunnels/src crates/scholarcloud/src crates/web/src crates/gfw/src \
        crates/dns/src crates/cache/src crates/netproto/src crates/crypto/src crates/regulation/src
_kept_counters='simnet\.packets_sent|scholarcloud\.failovers|web\.failovers'
unread_counters() {
    grep -rnE 'sc_obs::counter_add\(|trace::count\(' crates/*/src --include='*.rs' |
        grep -vE "sc_obs::counter_add\(\"($_kept_counters)\", "
}
fail_if_found "a counter the benchmark does not read (read the trace instead)" unread_counters
# A windowed time-series is written only if something reads it, by its
# name as a literal. The kept series and their readers: web.plt_us —
# sc_metrics::scenario::default_slos' latency SLO, the SloSpecs of
# tests/obs_trace_determinism.rs and tests/elastic_props.rs, and the
# dashboards of chaos_lab, flash_crowd and scholarcloud_ops;
# web.loads_ok / web.loads_failed — default_slos' availability SLO and
# the three dashboards; web.proxy_errors, scholarcloud.failovers,
# .breaker_opens, .breaker_closes and .tunnel_failures — chaos_lab's
# dashboard; web.throttled, scholarcloud.shed, .throttled and
# .queue_depth — flash_crowd's dashboard.
_kept_series='web\.(plt_us|loads_ok|loads_failed|proxy_errors|throttled)|scholarcloud\.(failovers|breaker_opens|breaker_closes|tunnel_failures|shed|throttled|queue_depth)'
unread_series() {
    grep -rnE 'ts_(bump|record)(_ex)?\(' $(ls -d crates/*/src | grep -v '^crates/obs/') --include='*.rs' |
        grep -vE "ts_(bump|record)(_ex)?\([^,]*, \"($_kept_series)\", "
}
fail_if_found "a time-series write nothing reads (or whose name is not a literal)" unread_series
fail_if_found "a histogram or a registry read outside the benchmark" \
    grep -rnE 'sc_obs::observe\(|Histogram|with_registry|render_obs_summary' \
        crates src examples tests --include='*.rs'
echo "structure: ok (one SOCKS front; the simulation reads nothing back from sc-obs; three counters; read series)"

# Structure, table order (DESIGN.md §6o): a table some loop walks is a
# BTreeMap / BTreeSet, so its order is its keys'; a table that is only
# looked up is sc_simnet::hash's FixedMap / FixedSet. The standard
# library's HashMap and HashSet, whose SipHash keys change from process
# to process, are named in no code line of crates/*/src, and
# crates/simnet/src/hash.rs, which builds the fixed-state aliases on
# them, is their one home. A file kept out of this rule is listed in
# _hash_kept with its reason beside it: none.
_hash_kept=""
std_hash_tables() {
    # Code lines that name std's HashMap or HashSet, comment lines aside.
    find crates/*/src -name '*.rs' | sort |
        grep -vxF "$(printf '%s\n' crates/simnet/src/hash.rs $_hash_kept)" | xargs awk "$rust_tests_awk"'
        { tests = in_test($0) }
        !tests && !/^[[:space:]]*\/\// && /(^|[^[:alnum:]_])Hash(Map|Set)([^[:alnum:]_]|$)|hash_(map|set)::/ \
            { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }'
}
fail_if_found "a std HashMap or HashSet in a code line of crates/*/src" std_hash_tables
echo "structure: ok (walked tables are BTrees; looked-up tables are FixedMap / FixedSet)"

# Structure, payload path (DESIGN.md §6k): TCP buffers are queues of
# `Bytes` chunks and there is no second kind — no byte ring, no helper
# that copies out of one, no two-slice constructor in the vendored
# `bytes` (the names are bracketed so that this file does not match) —
# and a relay hop does not copy what it received just to own it: the
# one copy a codec needs, built once, is a statement of its own, next to
# the transform it is for.
fail_if_found "a byte-ring TCP buffer or its helpers" \
    grep -rnE 'VecDeque<u[8]>|ring_byte[s]|copy_from_slice[s]' crates vendor/bytes
fail_if_found "a received buffer copied on the statement that received it" \
    grep -rnE '(tcp_recv(_all)?|io\.recv)\([^;]*\.to_vec\(\)' \
        crates/scholarcloud/src crates/tunnels/src crates/web/src
echo "structure: ok (TCP buffers are Bytes chunk queues; no copy-to-own at a relay hop)"

# Structure, one allocation per tunnel-path buffer (DESIGN.md §6k, §6p):
# a TLS record is opened in the buffer it is assembled in, which is then
# handed out as the plaintext — no `Vec` plaintext in TlsOutput, no
# opened record appended to one, no receive buffer in RecordBuf that
# outlives its record — and a relay hop builds the codec's copy as a
# `BytesMut`, not a `Vec` that a second allocation adopts (the names are
# bracketed so that this file does not match).
tls_record_copies() {
    _none=1
    grep -nE 'plaintext: Ve[c]<u8>|extend_from_slic[e]\(ope[n]\(' crates/netproto/src/tls.rs && _none=0
    awk '/struct RecordBu[f] \{/ { inside = 1 } inside && /^\}/ { inside = 0 }
         inside && /^ *buf: Ve[c]/ { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' crates/netproto/src/tls.rs && _none=0
    return $_none
}
fail_if_found "a TLS record copied out of the buffer it was opened in" tls_record_copies
fail_if_found "a relay hop's codec copy built as a Vec" \
    grep -rnE 'let mut (wire|plain|enc) = dat[a]\.to_vec\(\)' crates/scholarcloud/src crates/tunnels/src
echo "structure: ok (TLS records open in place; hop copies are built once)"

# Structure, HTTP messages (DESIGN.md §6p): a head is one buffer and a
# span table — the `String` pair per header is gone from http.rs, its
# test oracle aside — and a message is handed to the wire, not encoded
# into a copy: outside tests the stack's parsers are fed `Bytes`
# (`push_bytes`), and the one `encode()` left copies a bodiless head
# into a replay buffer. Fields are written after the level check:
# `event` and the three `span_*` entry points each take a closure over
# the line's `Fields`, and the span entry point that took built fields
# is gone (replaced, not forked; the name is bracketed so that this
# file does not match).
http_string_pairs() {
    awk "$rust_tests_awk"'{ tests = in_test($0) }
         !tests && /Vec<\(String, String\)>/ { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' crates/netproto/src/http.rs
}
fail_if_found "a String pair per header in http.rs" http_string_pairs
fail_if_found "a parser fed a copy, or a message encoded to be sent" \
    grep -rnE '(http|parser)\.push\(|(req|resp|hop|poll)\.encode\(\)' \
        crates/web/src crates/scholarcloud/src crates/tunnels/src --include='*.rs' --exclude=tests.rs
fail_if_found "a span entry point that takes its fields built" \
    grep -rnE 'span_start_wit[h]' crates src examples tests benchmark/src --include='*.rs'
eager_field_entry_points() {
    awk '/^pub fn (event|span_start|span_start_ctx|span_end)\(/ {
             sig = ""; head = FNR ": " $0; open = 1; n++ }
         open { sig = sig $0 }
         open && /\{$/ { open = 0
             if (sig !~ /fields: impl FnOnce\(&mut Fields<[^>]*>\)/) { print FILENAME ":" head; found = 1 } }
         END { if (n != 4) { print FILENAME ": " n " emission entry points where there are four"; found = 1 }
               exit !found }' crates/obs/src/dispatch.rs
}
fail_if_found "an emission entry point that does not take its fields as a closure over Fields" \
    eager_field_entry_points
echo "structure: ok (HTTP heads are one buffer; parsers take Bytes; fields are lazy)"

# Structure, byte scans (DESIGN.md §6k "Byte scans"): a search for a
# byte or a byte string goes through sc_netproto::scan, a word at a time.
# Outside the tests of the crates that parse or inspect bytes there is
# no `.windows(` search and no `split_inclusive` line splitter; the
# GFW's per-packet oracle (engine/reference.rs, test-only) keeps the
# code it was written with.
byte_scan_offenders() {
    find crates/netproto/src crates/web/src crates/gfw/src crates/scholarcloud/src -name '*.rs' \
        ! -path '*/engine/reference.rs' ! -name tests.rs | sort | xargs awk "$rust_tests_awk"'
        { tests = in_test($0) }
        !tests && /\.windows\(|split_inclusive/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }'
}
fail_if_found "a byte search outside sc_netproto::scan" byte_scan_offenders
echo "structure: ok (byte searches go through sc_netproto::scan)"

# Structure, obs write path (DESIGN.md §6b "The write path"): a metric
# write is an indexed add — the registry and the time-series hold values
# by slot, and the helper that looked a name up on every write is gone
# (bracketed so that this file does not match) — and a trace line is
# written with push_str and a digit writer: outside sink.rs's tests no
# `write!` or `format!`, and `write_fmt` once, for a float with a
# fraction. The fmt writer it replaced is a test-only oracle module.
fail_if_found "the per-write name lookup is back" \
    grep -rn 'with_name[d]' crates src examples tests benchmark/src --include='*.rs'
jsonl_fmt_calls() {
    awk "$rust_tests_awk"'{ tests = in_test($0) }
         !tests && /write!|format!/ { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' crates/obs/src/sink.rs
}
fail_if_found "core::fmt on the JSONL write path" jsonl_fmt_calls
if [ "$(sans_tests crates/obs/src/sink.rs | grep -c 'write_fmt')" -ne 1 ]; then
    echo "structure: sink.rs formats one value kind (a float with a fraction) through core::fmt" >&2; exit 1
fi
echo "structure: ok (metrics write by slot; the JSONL writer does not format)"

# Structure, fields written in place (DESIGN.md §6b "The write path"): a
# site's fields go straight into the sink's line through `Fields`, so
# the span field list, the owned-string value and the field vector the
# dispatcher recycled are gone — replaced, not forked (bracketed so that
# this file does not match). `Event` and `Value` live on only as the
# test input of the writer's oracle, each behind a `#[cfg(test)]` in
# event.rs.
second_field_vectors() {
    for f in crates/obs/src/dispatch.rs crates/obs/src/sink.rs crates/obs/src/event.rs \
        crates/obs/src/slo.rs; do
        sans_tests "$f" | grep -nE 'Vec<\(&[^,]*str, *[A-Za-z_:]*Valu[e]|enum Valu[e]|struct Even[t]\b' |
            sed "s|^|$f:|"
    done | grep .
}
fail_if_found "a span field list, an owned-string field value or a second field vector" \
    grep -rnE 'SpanField[s]|Value::Strin[g]' crates src examples tests benchmark/src --include='*.rs'
fail_if_found "a field vector or event struct outside the writer's test oracle" second_field_vectors
echo "structure: ok (fields are written in place)"

# Structure, the cached window edge (DESIGN.md §6b): `tick` compares the
# clock with the thread-local next window edge before it touches the
# dispatcher slot, so a clock advance inside a window costs one compare.
tick_before_edge() {
    awk '/^pub fn tick\(/ { inside = 1; seen = 1 }
         inside && /NEXT_EDGE/ { edge = 1 }
         inside && /with_installed|CURRENT/ && !edge { print FILENAME ":" FNR ": " $0; found = 1 }
         inside && /^\}/ { inside = 0 }
         END { if (!seen || !edge) { print FILENAME ": tick has no edge compare"; found = 1 }
               exit !found }' crates/obs/src/dispatch.rs
}
fail_if_found "tick reaches the dispatcher before its edge compare" tick_before_edge
echo "structure: ok (tick returns on a cached window edge)"

# Structure, one sink and one level (DESIGN.md §6b "Sinks"): the
# dispatcher writes accepted events to one JsonlSink, filtered by one
# level, and a test that looks at single events reads what it wrote back
# as JSONL, line by line with parse_line. The in-memory ring, the sink
# trait, per-component levels and the public emit are gone (bracketed so
# that this file does not match).
fail_if_found "a second sink, a per-component level or a public emit" \
    grep -rnE 'RingSin[k]|RingHandl[e]|dyn Sin[k]|impl Sin[k] for|with_component_leve[l]|pub fn emi[t]\(' \
        crates src examples tests benchmark/src --include='*.rs'
echo "structure: ok (one JSONL sink, one level)"

# Structure, the analyzer reads a line at a time (DESIGN.md §6l): each
# line is parsed into one reused event and folded into a Trace before
# the next is read, so no list of events is built or taken outside the
# tests of sc-obs (analyze/tests.rs, test code, builds its inputs that
# way), and scholar-obs streams its file through read_trace instead of
# reading it whole. Replaced, not forked (bracketed so that this file
# does not match).
event_lists() {
    find crates/obs/src -name '*.rs' ! -path '*/analyze/tests.rs' | sort | xargs awk "$rust_tests_awk"'
        { tests = in_test($0) }
        !tests && /Vec<TraceEven[t]|&\[TraceEven[t]/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit !found }'
}
fail_if_found "a list of every event outside the tests of sc-obs" event_lists
fail_if_found "scholar-obs reads its trace whole" \
    grep -n 'read_to_strin[g]' crates/obs/src/bin/scholar-obs.rs
echo "structure: ok (the analyzer folds a trace line by line)"

# Structure, measuring: one harness (benchmark/). The old one was
# deleted, not kept beside its replacement — sc-bench is criterion
# benches (the two targets whose rows benchmark/ does not own yet) and
# no binary — and nothing outside the change log, the
# roadmap, the issue and benchmark/ still speaks of it (the pattern is
# bracketed so that this line does not). ScenarioConfig holds each
# layer's config, not a flat copy of its fields, and no knob that only
# ever had one value.
for f in crates/bench/src/trajectory.rs crates/bench/src/bin BENCH_seed.json \
    crates/bench/benches/fig3_survey.rs crates/bench/benches/fig5_performance.rs \
    crates/bench/benches/fig6_overhead.rs crates/bench/benches/fig7_scalability.rs \
    crates/bench/benches/ablations.rs crates/bench/benches/cache_ops.rs; do
    if [ -e "$f" ]; then
        echo "structure: $f is back" >&2; exit 1
    fi
done
fail_if_found "the retired harness named outside CHANGES.md, ROADMAP.md and benchmark/" \
    grep -rn 'scholar-benc[h]' . --exclude-dir=.git --exclude-dir=target \
        --exclude-dir=.bench_build --exclude-dir=benchmark \
        --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md
fail_if_found "a layer's tunable mirrored as a flat ScenarioConfig field" \
    grep -rnE 'sc_adaptive_|sc_elastic_[mic]|sc_cache_ttl|consensus_len:' crates/metrics
echo "structure: ok (one harness; ScenarioConfig holds layer configs)"

# Structure, knobs and readers: a config field is a field somebody sets,
# a `pub` item is one somebody mentions, and a struct field is one
# somebody reads. The census prints every `pub` field of the seven layer
# config structs with its writers, and the items only tests or
# benchmark/src mention, and fails on a knob with no writer, an item with
# no mention or a field that is only ever written; the eighth config
# struct, which was all constants, is gone (its name is bracketed below
# so that this file does not match).
scripts/census.sh
fail_if_found "the dissolved resilience config struct named again" \
    grep -rn 'ResilienceConfi[g]' . --exclude-dir=.git --exclude-dir=target \
        --exclude-dir=.bench_build \
        --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md
# What the item and field passes first deleted stays deleted: the static
# site and the origin's capacity knob nothing set, SOCKS username and
# password auth nothing used, and the dead-browser entries the local
# proxies kept forever (bracketed so that this file does not match).
fail_if_found "a deleted app, knob, auth mode or dead-entry table is back" \
    grep -rnE 'StaticSit[e]|struct Capacit[y]|fn with_aut[h]|BrowserConn::Dea[d]' \
        crates src examples tests benchmark/src --include='*.rs'
# The browser is one state machine (DESIGN.md §6h): a timer is a typed
# token carrying its load index or handle, the RTT probe a typed queue
# entry and the readiness gate a plain closure. The token ranges, the
# tables that decoded them, the sentinel path and the gate wrapper stay
# gone (bracketed so that this file does not match).
fail_if_found "a browser token range, token table, sentinel path or gate wrapper is back" \
    grep -rnE 'TIMER_CONNECT_BAS[E]|connect_deadline[s]|throttle_wait_fo[r]|\\u\{0\}rt[t]|ReadyProb[e]' crates/web/src
# The census can fail: a copy of the sources with one `pub fn` nobody
# mentions, one only a string literal names, one only a test calls, a
# method named like `Vec::len` that only a test calls, and one counter
# nobody reads is refused, and all five are named; a `pub fn` called
# after a raw string, an escaped quote and a quote in a char literal is
# not, nor a method another file calls through a field of its type.
_plant=$(mktemp -d)
cp -R scripts crates tests examples src "$_plant"
mkdir "$_plant/benchmark" && cp -R benchmark/src "$_plant/benchmark"
cat > "$_plant/crates/dns/src/planted.rs" <<'PLANTED'
pub fn planted_dead_fn() {}
pub fn planted_string_only() {}
pub fn planted_live_fn() {}
pub fn planted_test_only_fn() {}
fn planted_reader() -> &'static str {
    let _ = (r#"a "raw" string"#, "an \" escape", '"');
    planted_live_fn();
    "planted_string_only()"
}
struct Planted {
    planted_write_only: u64,
}
impl Planted {
    fn bump(&mut self) {
        self.planted_write_only += 1;
    }
}
pub struct PlantedQueue;
impl PlantedQueue {
    pub fn len(&self) -> usize { 0 }
}
pub struct PlantedInner;
impl PlantedInner {
    pub fn reached_through_a_field(&self) {}
}
pub struct PlantedHolder {
    pub inner: PlantedInner,
}
#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        super::planted_test_only_fn();
        super::PlantedQueue.len();
    }
}
PLANTED
cat > "$_plant/crates/web/src/planted_user.rs" <<'PLANTED'
fn planted_use(holder: &sc_dns::planted::PlantedHolder) {
    holder.inner.reached_through_a_field();
}
PLANTED
if _out=$(sh "$_plant/scripts/census.sh" 2>&1); then
    echo "structure: the census passed a planted dead fn, string-only fn, test-only fn, test-only method and write-only field" >&2; exit 1
fi
rm -rf "$_plant"
for _want in "item planted_dead_fn " "item planted_string_only " "item planted_test_only_fn " \
    "item PlantedQueue::len " "field Planted.planted_write_only@"; do
    case "$_out" in
        *"$_want"*) ;;
        *) echo "structure: the census failed without naming $_want:" >&2
           echo "$_out" | tail -5 >&2; exit 1 ;;
    esac
done
case "$_out" in
    *"item planted_live_fn "*) echo "structure: the census lost a call that follows string and char literals" >&2; exit 1 ;;
    *"item PlantedInner::reached_through_a_field "*)
        echo "structure: the census lost a method call through a field of its type" >&2; exit 1 ;;
esac
echo "structure: ok (every config field has a writer, every pub item a mention, every field a reader)"

# Docs, references: what README.md, DESIGN.md and EXPERIMENTS.md tell a
# reader to run or open is there. Every `--example X` names a file in
# examples/, and every repository path they name exists: `{a,b}` is
# expanded, and a path with a `*` must match a file as `find -path`
# matches. The benchmark's generated and gitignored benchmark/out/ is
# the one exemption.
doc_refs_broken() {
    _docs="README.md DESIGN.md EXPERIMENTS.md"
    {
        grep -noE -- '--example [[:alnum:]_]+' $_docs | while IFS=: read -r _f _n _ref; do
            _x=${_ref#--example }
            [ -e "examples/$_x.rs" ] || [ -e "examples/$_x/main.rs" ] || echo "$_f:$_n: $_ref"
        done
        grep -noE '(^|[^[:alnum:]_./-])(crates|tests|scripts|benchmark|docs|vendor)/[[:alnum:]_./*{},-]*' $_docs |
            awk '
            function expand(where, p,    head, tail, alts, n, i) {
                if (!match(p, /\{[^{}]*\}/)) { print where, p; return }
                head = substr(p, 1, RSTART - 1); tail = substr(p, RSTART + RLENGTH)
                n = split(substr(p, RSTART + 1, RLENGTH - 2), alts, ",")
                for (i = 1; i <= n; i++) expand(where, head alts[i] tail)
            }
            {
                # file:line:match, the match led by the character before the path.
                split($0, part, ":"); p = substr($0, length(part[1]) + length(part[2]) + 3)
                sub(/^[^[:alpha:]]/, "", p); sub(/[.,]+$/, "", p); sub(/\/+$/, "", p)
                expand(part[1] ":" part[2] ":", p)
            }' | while read -r _where _path; do
            case "$_path" in
                benchmark/out|benchmark/out/*) ;;
                *'*'*) [ -n "$(find "${_path%%/*}" -path "$_path" -print 2>/dev/null | head -1)" ] ||
                    echo "$_where $_path" ;;
                *) [ -e "$_path" ] || echo "$_where $_path" ;;
            esac
        done
    } | grep .
}
fail_if_found "a doc names an example or a repository path that is not there" doc_refs_broken
# Docs, crate paths: every `sc_<crate>::…` path they name resolves in
# that crate's src (sc_core is crates/scholarcloud). Its last segment is
# a `pub` item or module declared there or a name a `pub use` there
# re-exports; a method after a type (`Type::method`) is a `fn` of the
# crate, its type resolved the same way.
pub_names() {
    # The names crates/<dir>/src declares `pub` or re-exports, one a line.
    find "$1/src" -name '*.rs' | xargs awk '
        match($0, /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|const|static|type|trait|mod) [A-Za-z_][A-Za-z0-9_]*/) {
            d = substr($0, RSTART, RLENGTH); sub(/.* /, "", d); print d }
        /^[[:space:]]*pub use / { inuse = 1 }
        inuse { n = split($0, w, /[^A-Za-z0-9_]+/); for (i = 1; i <= n; i++) if (w[i] != "") print w[i]
                if (/;/) inuse = 0 }' | sort -u
}
doc_crate_paths_broken() {
    grep -noE '(^|[^[:alnum:]_])sc_[a-z]+::[A-Za-z_][A-Za-z0-9_:]*' README.md DESIGN.md EXPERIMENTS.md |
        while IFS=: read -r _f _n _path; do
            _path=${_path#"${_path%%sc_*}"}
            while case "$_path" in *:) true ;; *) false ;; esac; do _path=${_path%:}; done
            _crate=${_path%%::*}; _dir=crates/${_crate#sc_}
            [ "$_crate" = sc_core ] && _dir=crates/scholarcloud
            _last=${_path##*::}; _owner=${_path%::*}; _owner=${_owner##*::}
            if [ ! -d "$_dir/src" ]; then
                echo "$_f:$_n: $_path (no crate $_dir)"; continue
            fi
            case "$_owner:$_last" in
                [A-Z]*:[a-z]*)
                    pub_names "$_dir" | grep -qxF "$_owner" &&
                        grep -rqE "fn $_last([^A-Za-z0-9_]|\$)" "$_dir/src" && continue ;;
                *) pub_names "$_dir" | grep -qxF "$_last" && continue ;;
            esac
            echo "$_f:$_n: $_path"
        done | grep .
}
fail_if_found "a doc names a crate path that does not resolve" doc_crate_paths_broken
echo "structure: ok (every example, repository path and crate path the docs name exists)"

# run_gate <name> <example> [scholar-obs gate flags...]
#
# One trace-capture gate: run the example with SC_TRACE pointed at a
# temp file, then make scholar-obs analyze it with the given gate
# flags. scholar-obs exits non-zero on parse errors (2), an empty
# analysis (3), or a failed gate (4), failing the whole script via
# `set -e`.
run_gate() {
    _name="$1"; _example="$2"; shift 2
    _trace="${TMPDIR:-/tmp}/sc_check_${_name}.jsonl"
    SC_TRACE="$_trace" cargo run --release --offline --example "$_example" >/dev/null
    cargo run --release --offline -p sc-obs --bin scholar-obs -- "$_trace" "$@" >/dev/null
    rm -f "$_trace"
    echo "$_name smoke gate: ok"
}

# The trace gates, one row each: name | example | scholar-obs flags. A
# row's comment says what the scenario is and why its thresholds are
# what they are; the examples assert the rest themselves.
#
# Every ScholarCloud-method row also demands ≥95% attribution coverage:
# completed page loads must stitch into cross-tier trace trees (trace
# ids propagate in-band, so coverage is structural — a drop below 100%
# means a hop stopped forwarding its TraceCtx).
while IFS='|' read -r _name _example _flags <&3; do
    case "$_name" in ''|'#'*) continue ;; esac
    # Unquoted on purpose: the columns are padded, the flags are words.
    run_gate $_name $_example $_flags
done 3<<'GATES'
# Observability: a seeded quickstart run must produce an analyzable trace.
quickstart | quickstart | --window 30

# Chaos: the fault-injection scenario (GFW blacklists the remote pool
# one VM at a time, then heals) must show the resilience layer reacting
# — at least one failover, availability above the chaos floor.
chaos | chaos_lab | --require-failover --min-availability 0.70 --min-attribution-coverage 95

# Overload: the flash-crowd scenario (a 10x client surge against an
# undersized domestic proxy) must shed load within bounds — the example
# itself asserts fast 503/429s, bounded p95 PLT, the retry budget, and
# recovery; scholar-obs then gates the shed rate (brownout, never a
# blackout).
overload | flash_crowd | --max-shed-rate 0.70 --min-attribution-coverage 95

# Cache: the shared-cache scenario (a same-page crowd on the plain-HTTP
# gateway path) must be absorbed by the domestic proxy's content cache —
# the example itself asserts singleflight coalescing, the ≥50%
# upstream-byte cut vs the cache-off control, 304 revalidation, and
# determinism; scholar-obs then gates the hit rate.
cache | cache_lab | --min-cache-hit-rate 0.50 --min-attribution-coverage 95

# Fleet: the fleet-chaos scenario (a 3-member domestic-proxy fleet, one
# member crashed mid flash-crowd) must survive via PAC failover and
# cache peering — the example itself asserts dead-marking, failover,
# warm-hit retention, the p95 budget, rejoin, and determinism;
# scholar-obs then gates sustained fleet availability (the crash may
# cost the connects that discover it — roughly one timed-out connect
# per client per crash run — not ongoing ones).
fleet | fleet_chaos | --min-fleet-availability 0.80 --min-attribution-coverage 95

# Elastic: the serverless-remote-tier scenario (a 4-wave GFW
# blacklisting campaign against the autoscaled pool) must stay cheap
# AND available — the example itself asserts the elastic arm strictly
# beats a static 4-VM pool on both metrics, per-wave churn, and
# determinism; scholar-obs then gates the elastic arm's trace (the
# last run's — each run overwrites SC_TRACE) on availability and the
# metered cost per successful load (measured ≈ 0.00012 USD/load;
# 0.0002 allows drift without letting it approach static-pool cost).
elastic | elastic_lab | --min-availability 0.95 --max-cost-per-load 0.0002 --min-attribution-coverage 95

# Arms race: the adaptive-censor scenario (a reactive GFW that learns
# cover signatures and actively probes, against detection-driven scheme
# rotation) — the example itself asserts the rotation-off control
# collapses below 60% while the defended arm holds ≥90%, that no
# active probe is ever confirmed, and determinism; scholar-obs then
# gates the defended arm's trace (the last run's): availability over
# loads finishing after the first probing campaign, and a 0% probe
# detection rate (the replay cache must deflect every probe).
arms_race | arms_race_lab | --min-availability-under-campaign 0.90 --max-detection-rate 0.0 --min-attribution-coverage 95

# Ops: the capacity-incident scenario must fire the PLT SLO with
# exemplar trace ids attached (the example itself additionally renders
# the worst exemplar's waterfall and asserts the per-tier exclusive
# times partition the PLT).
ops | scholarcloud_ops | --window 10 --min-attribution-coverage 95 --require-exemplars
GATES

# The repository benchmark (benchmark/, a workspace of its own): its unit
# tests (estimators, bounds table, correctness checks), then one
# repetition of every workload in both modes. --smoke gates nothing
# timed; it fails only if a workload stops being correct.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke >/dev/null
# benchmark/Cargo.lock records every crate's dependency edges, so a new
# dependency between the repository's crates (sc-cache on sc-netproto,
# say) rewrites it during the build above.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    if ! git diff --quiet -- benchmark/Cargo.lock; then
        echo "structure: building benchmark/ rewrote benchmark/Cargo.lock:" >&2
        git diff --stat -- benchmark/Cargo.lock >&2; exit 1
    fi
else
    echo "benchmark lock check: skipped (not a git checkout)"
fi
echo "benchmark smoke gate: ok"
