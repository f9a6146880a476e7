# Shared by scripts/check.sh and scripts/census.sh, which source it: the
# one rule for where a Rust file's tests are. A `#[cfg(test)]`, with any
# attributes after it, hides exactly the item it is attached to —
# through the item's line ending in `;`, or through the `}` at the
# item's own indentation. Every other line is code, so a
# `#[cfg(test)] mod tests;` near the top hides one line, not the rest of
# the file.
#
#   $rust_tests_awk   awk source defining in_test(line): 1 when the line
#                     is test code. Prepend it to an awk program and call
#                     it on every line of a file, in order (once a line);
#                     it starts over where FNR is 1, and a program that
#                     reads files with getline sets `_t = 0` before each.
#   sans_tests FILE   the file's code lines, in order
#   code_lines FILE   how many of them are neither blank nor a comment

rust_tests_awk='
function in_test(line,    rest) {
    if (FNR == 1) _t = 0
    if (_t == 2) {
        if (substr(line, 1, length(_t_pad) + 1) == _t_pad "}") _t = 0
        return 1
    }
    if (match(line, /^[[:space:]]*#\[cfg\(test\)\]/)) {
        _t = 1; rest = substr(line, RLENGTH + 1)
        if (rest ~ /^[[:space:]]*$/) return 1
        line = substr(line, 1, RLENGTH - 12) rest
    } else if (_t != 1) {
        return 0
    }
    if (line ~ /^[[:space:]]*(#\[|\/\/|$)/) return 1
    match(line, /^[[:space:]]*/); _t_pad = substr(line, 1, RLENGTH)
    _t = line ~ /[;}][[:space:]]*$/ ? 0 : 2
    return 1
}
'

sans_tests() { awk "$rust_tests_awk"'!in_test($0)' "$1"; }
code_lines() { sans_tests "$1" | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//'; }
