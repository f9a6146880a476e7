#!/usr/bin/env sh
# The knob census: every `pub` field of the seven layer config structs,
# with the number of lines that write it (`.field =` or a `field:`
# initialiser) outside the non-test part of the file that declares it —
# crates, tests, examples and benchmark/ all count. A field nobody sets
# is not a knob: the script fails on it, and the fix is a `pub const`
# beside the code that reads the value.
#
# Three fields are set where they are declared and stay fields:
# `ScConfig::secret` is a credential, `ScConfig::interference` a shared
# handle that is cloned, never assigned, and `GfwConfig::dns_blocklist`
# has two values in use (empty, and `china_2017`'s), both constructors
# in config.rs.
_kept="ScConfig.secret ScConfig.interference GfwConfig.dns_blocklist"
set -eu
cd "$(dirname "$0")/.."
_bad=0
_corpus=$(mktemp)
trap 'rm -f "$_corpus"' EXIT
printf '%-16s %-26s %s\n' struct field writers
while read -r _struct _file; do
    _fields=$(awk -v s="$_struct" '
        $0 ~ "^pub struct " s " \\{" { inside = 1; next }
        inside && /^\}/ { exit }
        inside && /^    pub [a-z_0-9]+:/ { sub(/:.*/, "", $2); print $2 }' "$_file")
    # Everything that could write the struct's fields: every source
    # file, the declaring one from its test module on, less doc comments
    # and `pub` declarations.
    find crates tests examples benchmark/src src -name '*.rs' | sort | while read -r _src; do
        if [ "$_src" = "$_file" ]; then
            awk '/^#\[cfg\(test\)\]/ { tests = 1 } tests' "$_src"
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
