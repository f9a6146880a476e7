#!/usr/bin/env sh
# The census: three passes over the sources, each failing on code that
# nothing reads.
#
# Knobs. Every `pub` field of the seven layer config structs, with the
# number of lines that write it (`.field =` or a `field:` initialiser)
# outside the non-test part of the file that declares it — crates,
# tests, examples and benchmark/ all count. A field nobody sets is not a
# knob: the fix is a `pub const` beside the code that reads the value.
#
# Items. Every `pub` fn, method, struct, enum, const, static, type and
# trait in the code of a `crates/*/src` file, with the lines that
# mention its name in crates/, tests/, examples/, benchmark/src and
# src/ — its declaration, `use` lines, comments and the insides of
# string and char literals aside. An item nobody mentions fails; one
# that only test code (tests/, crates/*/tests, an item under a
# `#[cfg(test)]`) or only benchmark/src mentions is listed as such.
#
# Fields. Every named field of a struct in the code of `crates/*/src`
# fails when each line that mentions its name assigns it
# (`.f = …`, `.f += …`) or initialises it (`f: …`): state nothing reads.
#
# Which lines are code and which are tests is scripts/lib/rust_tests.sh's
# rule, the one scripts/check.sh uses. An entry in a `_kept` list stays,
# with its reason beside it.
#
# Knobs set where they are declared: `ScConfig::secret` and
# `SsConfig::{username, password}` are credentials,
# `ScConfig::interference` a shared handle that is cloned, never
# assigned, and `GfwConfig::dns_blocklist` has two values in use (empty,
# and `china_2017`'s), both constructors in config.rs.
_kept="ScConfig.secret SsConfig.username SsConfig.password ScConfig.interference GfwConfig.dns_blocklist"
# Items kept with no mention, each with its reason: none.
_kept_items=""
# Fields written and never read: the ICP dossier's service type and
# declared whitelist are the documents of the paper's §3 filing (the
# whitelist is what makes the service reviewable), not state the
# simulator acts on.
_kept_fields="service_type declared_whitelist"
set -eu
cd "$(dirname "$0")/.."
. scripts/lib/rust_tests.sh
_bad=0
_corpus=$(mktemp)
_files=$(mktemp)
trap 'rm -f "$_corpus" "$_files"' EXIT
printf '%-16s %-26s %s\n' struct field writers
while read -r _struct _file; do
    _fields=$(awk -v s="$_struct" '
        $0 ~ "^pub struct " s " \\{" { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { sub(/:.*/, "", $2); print $2 }' "$_file")
    # Everything that could write the struct's fields: every source
    # file, of the declaring one only its tests, less doc comments and
    # `pub` declarations.
    find crates tests examples benchmark/src src -name '*.rs' | sort | while read -r _src; do
        if [ "$_src" = "$_file" ]; then
            awk "$rust_tests_awk"'in_test($0)' "$_src"
        else
            cat "$_src"
        fi
    done | grep -v '^[[:space:]]*\(///\?\|pub \)' > "$_corpus"
    for _f in $_fields; do
        _n=$(grep -cE "\.$_f(\.[a-z_0-9]+)*[[:space:]]*[-+]?=[^=]|\.$_f\.(push|extend|retain|clear)\(|(^|[^[:alnum:]_.])$_f:[[:space:]]" "$_corpus" || true)
        case " $_kept " in *" $_struct.$_f "*) _n="$_n (kept: see above)" ;; esac
        printf '%-16s %-26s %s\n' "$_struct" "$_f" "$_n"
        [ "$_n" != 0 ] || _bad=1
    done
done <<'STRUCTS'
AdaptiveConfig crates/gfw/src/adaptive.rs
GfwConfig crates/gfw/src/config.rs
BrowserConfig crates/web/src/browser.rs
ElasticConfig crates/scholarcloud/src/elastic.rs
ScConfig crates/scholarcloud/src/config.rs
AdmissionConfig crates/scholarcloud/src/admission.rs
SsConfig crates/tunnels/src/shadowsocks.rs
STRUCTS
if [ "$_bad" -ne 0 ]; then
    echo "census: a config field with no writer is a constant, not a knob" >&2
    exit 1
fi

# One line per source file: its class, then its path. `decl` files are
# crates/*/src files, whose code declares what the item and field passes
# cover; a file that a `#[cfg(test)] mod x;` pulls
# in is test code throughout, as is everything under a tests/ directory.
_testmods=$(grep -rn -A1 '^#\[cfg(test)\]' crates/*/src --include='*.rs' \
    | sed -n 's/^\(.*\)-[0-9]*-\(pub(crate) \)\{0,1\}mod \([a-z_]*\);$/\1 \3/p' \
    | while read -r _parent _mod; do
        case "$_parent" in
            */mod.rs|*/lib.rs) echo "${_parent%/*}/$_mod.rs" ;;
            *) echo "${_parent%.rs}/$_mod.rs" ;;
        esac
    done)
find crates tests examples benchmark/src src -name '*.rs' | sort | while read -r _src; do
    case "$_src" in
        benchmark/*) echo "bench $_src" ;;
        tests/*|crates/*/tests/*) echo "test $_src" ;;
        crates/*/src/*)
            case " $(echo $_testmods) " in
                *" $_src "*) echo "test $_src" ;;
                *) echo "decl $_src" ;;
            esac ;;
        *) echo "code $_src" ;;
    esac
done > "$_files"

# Both passes read every file once: declarations first, then each code
# line's words (comments and `use` lines aside), counted once a line.
awk -v kept_items=" $_kept_items " -v kept_fields=" $_kept_fields " "$rust_tests_awk"'
function classify(line) {
    # "test" for an item under a #[cfg(test)], else the file class.
    return in_test(line) ? "test" : (cls == "decl" ? "code" : cls)
}
function strip(line,    out, m) {
    # Comments, use lines and what string and char literals say mention
    # nothing. A string may run on over lines: `lit` is the delimiter
    # that closes the one still open (a quote, or for a raw string the
    # quote and its hashes) and `esc` whether a backslash escapes in it.
    if (lit == "" && inuse) { if (line ~ /;/) inuse = 0; return "" }
    if (lit == "" && line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?use /) { if (line !~ /;/) inuse = 1; return "" }
    out = ""
    while (line != "") {
        if (lit != "") {
            if (esc) {
                if (!match(line, /^([^"\\]|\\.)*"/)) return out
                line = substr(line, RLENGTH + 1)
            } else {
                m = index(line, lit); if (!m) return out
                line = substr(line, m + length(lit))
            }
            lit = ""; out = out "\"\""; continue
        }
        if (!match(line, /\/\/|r#*"|"|\047/)) return out line
        out = out substr(line, 1, RSTART - 1); m = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
        if (m == "//") return out
        if (m == "\047") {
            # A char literal (a quote, an escape, a \u{..} in quotes), or
            # the quote of a lifetime or a label, which none closes.
            if (match(line, /^(\\.[^\047]*|[^\\\047])\047/)) line = substr(line, RLENGTH + 1)
            continue
        }
        esc = m == "\""; lit = "\"" substr(m, 2, length(m) - 2)
    }
    return out
}
BEGIN {
    while ((getline l < "'"$_files"'") > 0) { split(l, p, " "); cls_of[p[2]] = p[1]; order[++nf] = p[2] }
    decl_kw["fn"] = decl_kw["struct"] = decl_kw["enum"] = decl_kw["const"] = 1
    decl_kw["static"] = decl_kw["type"] = decl_kw["trait"] = 1
    # Pass 1: what the decl files declare in their code.
    for (i = 1; i <= nf; i++) {
        f = order[i]; if (cls_of[f] != "decl") continue
        depth = -1; n = 0; _t = 0
        while ((getline line < f) > 0) {
            n++
            if (in_test(line)) continue
            if (match(line, /^[[:space:]]*pub (const |async |unsafe )*(fn|struct|enum|const|static|type|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
                d = substr(line, RSTART, RLENGTH); sub(/.* /, "", d)
                items[d] = items[d] " " f ":" n
            }
            if (depth < 0 && match(line, /^[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+(<.*>)? \{$/)) {
                s = line; sub(/^[[:space:]]*(pub(\([a-z]+\))? )?struct /, "", s); sub(/[< ].*/, "", s)
                match(line, /^[[:space:]]*/); depth = RLENGTH; continue
            }
            if (depth >= 0) {
                if (line ~ "^" sprintf("%" depth "s", "") "\\}") { depth = -1; continue }
                if (match(line, "^" sprintf("%" (depth + 4) "s", "") "(pub(\\([a-z]+\\))? )?[a-z_][a-z0-9_]*:")) {
                    fl = substr(line, 1, RLENGTH - 1); sub(/.* /, "", fl)
                    fields[fl] = fields[fl] " " s "." fl "@" f ":" n
                }
            }
        }
        close(f)
    }
    # Pass 2: mentions of every declared name, and reads of every field.
    for (i = 1; i <= nf; i++) {
        f = order[i]; cls = cls_of[f]; _t = 0; inuse = 0; lit = ""
        while ((getline line < f) > 0) {
            c = classify(line); line = strip(line); if (line == "") continue
            nw = split(line, w, /[^A-Za-z0-9_]+/); delete seen; prev = ""
            for (j = 1; j <= nw; j++) {
                t = w[j]
                if (t in items && !((t, c) in seen) && !is_decl(line, prev, t)) { seen[t, c] = 1; uses[t, c]++ }
                if (t in fields && !(t in read) && !is_write_only(line, t)) read[t] = 1
                prev = t
            }
        }
        close(f)
    }
    bad = 0; nonly = 0
    for (t in items) {
        if (uses[t, "code"]) continue
        if (uses[t, "test"] || uses[t, "bench"]) {
            k = uses[t, "test"] ? (uses[t, "bench"] ? "test+bench" : "test") : "bench"
            only[++nonly] = sprintf("%-11s %-34s %s", k, t, items[t])
        } else if (index(kept_items, " " t " ")) {
            print "item kept: " t items[t]
        } else {
            print "census: no reader: item " t " (" substr(items[t], 2) ")" > "/dev/stderr"; bad = 1
        }
    }
    # Sorted, so that the list reads the same from run to run.
    for (a = 1; a <= nonly; a++) for (b = a + 1; b <= nonly; b++) if (only[b] < only[a]) { x = only[a]; only[a] = only[b]; only[b] = x }
    print "items only tests or benchmark/src mention:"
    for (a = 1; a <= nonly; a++) print "  " only[a]
    for (fl in fields) {
        if (fl in read) continue
        if (index(kept_fields, " " fl " ")) { print "field kept: " substr(fields[fl], 2); continue }
        print "census: written, never read: field " substr(fields[fl], 2) > "/dev/stderr"; bad = 1
    }
    exit bad
}
function is_decl(line, kw, t) {
    # `fn t`, `struct t`, … declare t; a lifetime named static does not.
    return (kw in decl_kw) && line ~ ("(^|[^\047A-Za-z0-9_])" kw "[[:space:]]+" t "([^A-Za-z0-9_]|$)")
}
function is_write_only(line, t,    all, wr, x) {
    # Every mention of t on the line is `.t =`/`.t op=` or `t: `.
    x = line; all = gsub("(^|[^A-Za-z0-9_])" t "([^A-Za-z0-9_]|$)", "", x)
    x = line; wr = gsub("\\." t "[[:space:]]*([-+*/%|&^]|<<|>>)?=([^=>]|$)", "", x)
    x = line; wr += gsub("(^|[^.:A-Za-z0-9_])" t ":[[:space:]]", "", x)
    return wr >= all
}' || {
    echo "census: an item nobody mentions, or a field nobody reads, is dead code: delete it" >&2
    exit 1
}
